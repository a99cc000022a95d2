"""Layered circuit representation, gate semantics, and Pauli conjugation tables.

A ``Circuit`` is columnar: its m gates are stored once, layer after layer,
as four flat read-only arrays.

* ``kind``: ``(m,)`` int8 codes, indices into ``KINDS``;
* ``qubits``: ``(m, 2)`` ints, padded with -1 past the kind's arity;
* ``params``: ``(m, 3)`` floats, padded with 0 past the kind's count;
* ``layer_start``: ``depth + 1`` offsets; layer i holds the gates
  ``layer_start[i]:layer_start[i + 1]``.

``GateOp`` is one row as a plain ``(kind, params, qubits)`` tuple and checks
nothing by itself. One decoder (``_decode``) turns such records, from
``GateOp`` lists, JSON files or the transpiler, into the arrays, and rejects
one it could only store by truncating or coercing it. Every circuit then
meets the gate rules of ``_check_arrays``, vectorised checks whose
``ContractError`` names the gate's ``(layer, position)`` in ``at``.
``Circuit.layers`` and ``Circuit.ops()`` give the rows as ``GateOp``s of
Python scalars, built on every call, for code that walks a circuit gate by
gate; wide-circuit code reads the arrays.

Conventions used throughout the package:

* Qubit 0 is the leftmost character of a bitstring and the most significant
  bit of a computational-basis index.
* ``sim.unitary_of(c)`` returns ``U_L @ ... @ U_2 @ U_1`` where layer 1 is
  executed first (matrices compose right-to-left in time).
* ``RZ(theta) = exp(-i theta Z / 2)``, ``CP(theta) = diag(1, 1, 1, e^{i theta})``,
  and ``U3(theta, phi, lam)`` is the standard Euler parameterization
  ``[[cos(t/2), -e^{i lam} sin(t/2)], [e^{i phi} sin(t/2), e^{i(phi+lam)} cos(t/2)]]``.
* Global phase is never tracked: gates, Cliffords and Pauli labels are all
  compared up to phase, and the Pauli conjugation tables drop the sign.
"""

from __future__ import annotations

import copy
import hashlib
import math
import numbers
import sys
from collections import deque
from itertools import chain, repeat
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from mirrorbench.core import CapacityError, ContractError

__all__ = [
    "GateOp",
    "Circuit",
    "CouplingGraph",
    "CapacityError",
    "ContractError",
    "GATE_ARITY",
    "KINDS",
    "KIND_CODE",
    "KIND_ARITY",
    "KIND_NPARAMS",
    "ONE_QUBIT_KINDS",
    "NATIVE_KINDS",
    "CLIFFORD_MATS",
    "CLIFFORD_INV",
    "PAULI_CONJ_C1Q",
    "PAULI_CONJ_CZ",
    "gate_matrix",
    "gate_matrices_1q",
    "layerize",
    "inverse",
    "invert_op",
    "apply_gate",
    "u3_params_from_matrix",
    "u3_params_from_matrices",
    "equal_up_to_phase",
    "clifford_index_of",
    "clifford_inverse_index",
    "permutation_matrix",
]


# --- gate set ----------------------------------------------------------------

GATE_ARITY = {
    "X": 1, "SX": 1, "RZ": 1, "H": 1, "U3": 1, "C1Q": 1,
    "CZ": 2, "CX": 2, "SWAP": 2, "CP": 2,
}
GATE_NPARAMS = {
    "X": 0, "SX": 0, "RZ": 1, "H": 0, "U3": 3, "C1Q": 1,
    "CZ": 0, "CX": 0, "SWAP": 0, "CP": 1,
}
# A circuit stores each gate's kind as its index in KINDS; KIND_ARITY and
# KIND_NPARAMS are indexed by that code.
KINDS = tuple(GATE_ARITY)
KIND_CODE = {k: i for i, k in enumerate(KINDS)}
KIND_ARITY = np.array([GATE_ARITY[k] for k in KINDS])
KIND_NPARAMS = np.array([GATE_NPARAMS[k] for k in KINDS])
ONE_QUBIT_KINDS = frozenset(k for k, a in GATE_ARITY.items() if a == 1)
NATIVE_KINDS = frozenset({"X", "SX", "RZ", "CZ"})
# Kinds accepted by the mirror generator (native plus generic 1q gates).
MIRRORABLE_KINDS = NATIVE_KINDS | {"U3", "C1Q"}


def _read_only(m: np.ndarray) -> np.ndarray:
    """``m``, made read-only: gate tables are shared by every caller."""
    m.flags.writeable = False
    return m


_I2 = _read_only(np.eye(2, dtype=complex))
_X = _read_only(np.array([[0, 1], [1, 0]], dtype=complex))
_Y = _read_only(np.array([[0, -1j], [1j, 0]], dtype=complex))
_Z = _read_only(np.array([[1, 0], [0, -1]], dtype=complex))
_H = _read_only(np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2))
_S = _read_only(np.array([[1, 0], [0, 1j]], dtype=complex))
_SX = _read_only(0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex))

PAULI_MATS = _read_only(np.stack([_I2, _X, _Y, _Z]))
PAULI_LABELS = "IXYZ"


def _canonical_phase(m: np.ndarray) -> np.ndarray:
    """Rescale so the first element with magnitude > 1e-6 is real positive."""
    flat = m.ravel()
    idx = int(np.argmax(np.abs(flat) > 1e-6))
    return m / (flat[idx] / abs(flat[idx]))


def _mat_key(m: np.ndarray) -> tuple:
    c = np.round(_canonical_phase(m), 9) + 0.0  # normalize -0.0
    return tuple(c.ravel().round(9).tolist())


def _build_clifford_table() -> np.ndarray:
    """Enumerate the 24-element single-qubit Clifford group by BFS over {H, S}."""
    seen = {_mat_key(_I2): 0}
    mats = [_I2]
    queue = deque([_I2])
    while queue:
        m = queue.popleft()
        for g in (_H, _S):
            nm = _canonical_phase(g @ m)
            key = _mat_key(nm)
            if key not in seen:
                seen[key] = len(mats)
                mats.append(nm)
                queue.append(nm)
    assert len(mats) == 24
    return _read_only(np.stack(mats))


CLIFFORD_MATS = _build_clifford_table()
_CLIFFORD_KEY_TO_INDEX = {_mat_key(CLIFFORD_MATS[i]): i for i in range(24)}


def clifford_index_of(m: np.ndarray) -> int:
    """Index of a 2x2 Clifford matrix in the fixed 24-element table.

    Equality is up to global phase. Raises ``ContractError`` for
    non-Clifford input.
    """
    key = _mat_key(np.asarray(m, dtype=complex))
    try:
        return _CLIFFORD_KEY_TO_INDEX[key]
    except KeyError:
        raise ContractError("matrix is not a single-qubit Clifford") from None


CLIFFORD_INDEX_OF_PAULI = tuple(clifford_index_of(p) for p in PAULI_MATS)
CLIFFORD_INDEX_SXDG = clifford_index_of(_SX.conj().T)
CLIFFORD_INV = np.array([clifford_index_of(m.conj().T) for m in CLIFFORD_MATS])


def clifford_inverse_index(i: int) -> int:
    return int(CLIFFORD_INV[i])


def gate_matrix(kind: str, params: tuple = ()) -> np.ndarray:
    """Dense matrix of a gate kind (2x2 or 4x4), a new array on every call."""
    if GATE_ARITY.get(kind) == 1:
        padded = np.array([(*params, 0.0, 0.0, 0.0)[:3]], dtype=float)
        return gate_matrices_1q(np.array([KIND_CODE[kind]]), padded)[0]
    if kind == "CZ":
        return np.diag([1, 1, 1, -1]).astype(complex)
    if kind == "CX":
        return np.array([[1, 0, 0, 0], [0, 1, 0, 0],
                         [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex)
    if kind == "SWAP":
        return np.array([[1, 0, 0, 0], [0, 0, 1, 0],
                         [0, 1, 0, 0], [0, 0, 0, 1]], dtype=complex)
    if kind == "CP":
        return np.diag([1, 1, 1, np.exp(1j * params[0])])
    raise ContractError(f"unknown gate kind {kind!r}")


# Matrix of each kind without parameters (identity for the others).
_FIXED_1Q = _read_only(np.stack([{"X": _X, "SX": _SX, "H": _H}.get(k, _I2) for k in KINDS]))


def gate_matrices_1q(kind: np.ndarray, params: np.ndarray) -> np.ndarray:
    """Stack of the 2x2 matrices of 1-qubit gates given as kind codes and
    ``(m, 3)`` params, vectorized by kind, in a new array."""
    out = _FIXED_1Q[kind]
    u3 = kind == KIND_CODE["U3"]
    if u3.any():
        t, p, l = params[u3].T
        c, s = np.cos(t / 2), np.sin(t / 2)
        m = np.empty((len(t), 2, 2), dtype=complex)
        m[:, 0, 0] = c
        m[:, 0, 1] = -np.exp(1j * l) * s
        m[:, 1, 0] = np.exp(1j * p) * s
        m[:, 1, 1] = np.exp(1j * (p + l)) * c
        out[u3] = m
    rz = kind == KIND_CODE["RZ"]
    if rz.any():
        th = params[rz, 0]
        m = np.zeros((len(th), 2, 2), dtype=complex)
        m[:, 0, 0] = np.exp(-0.5j * th)
        m[:, 1, 1] = np.exp(0.5j * th)
        out[rz] = m
    c1q = kind == KIND_CODE["C1Q"]
    if c1q.any():
        out[c1q] = CLIFFORD_MATS[params[c1q, 0].astype(int)]
    return out


def _pauli_conj_table(gates: np.ndarray, paulis: np.ndarray) -> np.ndarray:
    """table[g, p] = p' with ``G_g P_p G_g^dag = +/-P_p'``; the sign is dropped."""
    conj = gates[:, None] @ paulis @ gates.conj().transpose(0, 2, 1)[:, None]
    overlap = np.abs(np.einsum("qij,gpij->gpq", paulis.conj(), conj)) / paulis.shape[-1]
    if not np.allclose(overlap.max(axis=-1), 1.0):
        raise AssertionError("conjugation left the Pauli basis")
    return overlap.argmax(axis=-1)


# PAULI_CONJ_C1Q[i, p]: the label of C_i P_p C_i^dag (labels index IXYZ).
PAULI_CONJ_C1Q = _pauli_conj_table(CLIFFORD_MATS, PAULI_MATS)
# PAULI_CONJ_CZ[a, b] = (a', b'): CZ (P_a x P_b) CZ = +/-(P_a' x P_b').
_PAULI_PAIRS = np.einsum("aij,bkl->abikjl", PAULI_MATS, PAULI_MATS).reshape(16, 4, 4)
_CZ_CONJ = _pauli_conj_table(gate_matrix("CZ")[None], _PAULI_PAIRS).reshape(4, 4)
PAULI_CONJ_CZ = np.stack([_CZ_CONJ // 4, _CZ_CONJ % 4], axis=-1)


# --- circuit data types -------------------------------------------------------

class GateOp(NamedTuple):
    """One gate as a row of a circuit: kind, angle parameters, ordered qubit
    indices. It checks nothing by itself; ``Circuit`` checks its gates."""

    kind: str
    params: tuple[float, ...] = ()
    qubits: tuple[int, ...] = ()

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.kind, self.params)


Layer = tuple[GateOp, ...]


def _raise_first(rules: dict, layer_start, describe) -> None:
    """Raise ``ContractError`` at the first gate flagged by one of ``rules``
    (name -> mask over the gates), naming that rule and ``describe(g)``."""
    bad = np.stack(list(rules.values()))
    if bad.any():
        g = int(np.argmax(bad.any(axis=0)))
        i = int(np.searchsorted(layer_start, g, side="right")) - 1
        raise ContractError(f"{list(rules)[int(np.argmax(bad[:, g]))]}: {describe(g)}",
                            at=(i, g - int(layer_start[i])))


def _check_arrays(n: int, kind, qubits, params, layer_start):
    """Raise ``ContractError`` at the first gate that breaks a rule.

    Each rule is one vectorised test over all gates, so a check makes the
    same number of numpy calls however deep the circuit is.
    """
    m = len(kind)
    if (qubits.shape != (m, 2) or params.shape != (m, 3) or layer_start[0] != 0
            or layer_start[-1] != m or np.any(np.diff(layer_start) < 0)):
        raise ContractError("circuit arrays do not match in shape")
    known = (kind >= 0) & (kind < len(KINDS))
    arity, nparams = KIND_ARITY[kind * known], KIND_NPARAMS[kind * known]
    used = np.arange(2) < arity[:, None]
    acts = used & (qubits >= 0) & (qubits < n)
    # A (layer, qubit) key met again in stable sort order is a later gate of
    # the same layer on the same qubit.
    layer = np.repeat(np.arange(len(layer_start) - 1), np.diff(layer_start))
    key = (layer[:, None] * n + qubits)[acts]
    order = np.argsort(key, kind="stable")
    again = np.zeros(m, dtype=bool)
    again[np.nonzero(acts)[0][order[1:][np.diff(key[order]) == 0]]] = True
    p0 = params[:, 0]
    rules = {
        "unknown gate kind": ~known,
        "wrong number of qubits": (qubits[:, 1] != -1) != (arity == 2),
        "duplicate qubits": (arity == 2) & (qubits[:, 0] == qubits[:, 1]),
        f"qubit out of range for n={n}": np.any(used & ~acts, axis=1),
        "wrong number of params": np.any((params != 0) & (np.arange(3) >= nparams[:, None]),
                                         axis=1),
        "non-finite parameter": ~np.isfinite(params).all(axis=1),
        "C1Q index must be an integer in 0..23":
            (kind == KIND_CODE["C1Q"]) & ~((p0 == np.floor(p0)) & (p0 >= 0) & (p0 < 24)),
        "qubit appears twice in one layer": again,
    }
    # A gate is named without the padding of its row, unless a rule flags that.
    cut = known & ~rules["wrong number of qubits"] & ~rules["wrong number of params"]
    _raise_first(rules, layer_start, lambda g: (
        f"{KINDS[kind[g]] if known[g] else f'kind code {kind[g]}'} on qubits "
        f"{qubits[g, :arity[g] if cut[g] else 2].tolist()} with params "
        f"{params[g, :nparams[g] if cut[g] else 3].tolist()}"))


def _decode(n: int, layers) -> tuple:
    """The ``kind``, ``qubits``, ``params`` and ``layer_start`` arrays of
    layers of ``(kind, params, qubits)`` records (``GateOp``s or plain tuples).

    A record becomes a row only as it is: one with an unknown kind, or with
    qubits or params that are not a list or tuple of its kind's length of
    integers and of real numbers, raises ``ContractError`` at its ``(layer,
    position)``. The gate rules on the rows are ``_check_arrays``'s."""
    layers = [tuple(layer) for layer in layers]
    records = [r for layer in layers for r in layer]
    layer_start = np.cumsum([0, *map(len, layers)])
    kinds, params, qubits = zip(*records) if records else ((), (), ())
    kind = np.array([KIND_CODE.get(k, -1) if isinstance(k, str) else -1 for k in kinds],
                    dtype=np.int8)
    rules, columns = {"unknown gate kind": kind < 0}, []
    for name, column, counts, numbers_of, what in (
            ("qubits", qubits, KIND_ARITY, numbers.Integral, "integers"),
            ("params", params, KIND_NPARAMS, numbers.Real, "real numbers")):
        if not all(map(isinstance, column, repeat((list, tuple)))):
            # Counted as four values, more than any kind takes.
            column = [v if isinstance(v, (list, tuple)) else (None,) * 4 for v in column]
        count = np.fromiter(map(len, column), int, len(column))
        flat = list(chain.from_iterable(column))
        # Each type met is judged once; bool is an int but no qubit or param.
        fits = {t: issubclass(t, numbers_of) and not issubclass(t, bool)
                for t in set(map(type, flat))}
        refused = [] if all(fits.values()) else [not fits[type(x)] for x in flat]
        rules[f"wrong number of {name}"] = count != counts[kind]
        rules[f"{name} must be {what}"] = np.isin(
            np.arange(len(column)), np.repeat(np.arange(len(column)), count)[refused])
        columns.append((count, flat))

    def describe(g):
        return f"{kinds[g]} on qubits {qubits[g]} with params {params[g]}"

    _raise_first(rules, layer_start, describe)
    (count_q, flat_q), (count_p, flat_p) = columns
    q = np.full((len(kind), 2), -1, dtype=np.int64)
    try:
        q[np.arange(2) < count_q[:, None]] = flat_q
    except OverflowError:  # a qubit beyond int64 is out of range of every width
        huge = np.repeat(np.arange(len(kind)), count_q)[[abs(v) >= 2 ** 63 for v in flat_q]]
        _raise_first({f"qubit out of range for n={n}": np.isin(np.arange(len(kind)), huge)},
                     layer_start, describe)
    p = np.zeros((len(kind), 3))
    try:
        p[np.arange(3) < count_p[:, None]] = flat_p
    except OverflowError:  # an int beyond float's range is stored as inf, which a rule rejects
        p[np.arange(3) < count_p[:, None]] = [
            v if abs(v) <= sys.float_info.max else math.inf for v in flat_p]
    return kind, q, p, layer_start


_ARRAYS = ("kind", "qubits", "params", "layer_start")


class Circuit:
    """An n-qubit circuit as an ordered sequence of layers of disjoint gates,
    stored as the arrays the module docstring describes.

    Without an ``id``, the circuit is named by a digest of ``n`` and its
    layers, so equal circuits get equal ids (and equal seeded shots) in every
    process.
    """

    __slots__ = ("n", *_ARRAYS, "id", "meta")

    def __init__(self, n: int, layers=(), id: str | None = None, meta: dict | None = None):
        self._init(n, *_decode(n, layers), id, meta)

    @classmethod
    def from_arrays(cls, n: int, kind, qubits, params, layer_start,
                    id: str | None = None, meta: dict | None = None) -> "Circuit":
        """A circuit over arrays laid out as the module docstring describes;
        it takes them over and makes them read-only."""
        c = object.__new__(cls)
        c._init(n, kind, qubits, params, layer_start, id, meta)
        return c

    def _init(self, n, kind, qubits, params, layer_start, id, meta):
        if not 1 <= n < 2 ** 31:
            raise ContractError(f"circuit width {n} is not in 1..2**31 - 1")
        self.n, self.meta = int(n), {} if meta is None else meta
        self.kind = np.asarray(kind, dtype=np.int8)
        self.qubits = np.asarray(qubits, dtype=np.int64).reshape(-1, 2)
        self.params = np.asarray(params, dtype=float).reshape(-1, 3)
        self.layer_start = np.asarray(layer_start, dtype=np.int64)
        _check_arrays(self.n, self.kind, self.qubits, self.params, self.layer_start)
        for name in _ARRAYS:
            getattr(self, name).flags.writeable = False
        if id is None:
            # Plain floats and ints, so that numpy scalars name the same circuit.
            spec = [[(k, list(p), list(q)) for k, p, q in layer] for layer in self.layers]
            id = hashlib.sha256(repr((self.n, spec)).encode()).hexdigest()[:12]
        self.id = id

    def __eq__(self, other):
        if not isinstance(other, Circuit):
            return NotImplemented
        return (self.n, self.id) == (other.n, other.id) and all(
            np.array_equal(getattr(self, a), getattr(other, a)) for a in _ARRAYS)

    def __hash__(self):
        return hash((self.n, self.id))

    @property
    def layers(self) -> tuple[Layer, ...]:
        """Each layer's gates as ``GateOp``s of Python scalars, built on every call."""
        ops = [GateOp(k, tuple(p[:GATE_NPARAMS[k]]), tuple(q[:GATE_ARITY[k]]))
               for k, p, q in zip([KINDS[k] for k in self.kind.tolist()],
                                  self.params.tolist(), self.qubits.tolist())]
        b = self.layer_start.tolist()
        return tuple(tuple(ops[lo:hi]) for lo, hi in zip(b, b[1:]))

    @property
    def depth(self) -> int:
        return len(self.layer_start) - 1

    def ops(self):
        for layer in self.layers:
            yield from layer

    def num_ops(self) -> int:
        return len(self.kind)

    def with_id(self, new_id: str) -> "Circuit":
        c = copy.copy(self)
        c.id, c.meta = new_id, dict(self.meta)
        return c


def layerize(n: int, ops, *, barriers=(), id: str | None = None,
             meta: dict | None = None) -> Circuit:
    """The circuit of a flat op list, packed greedily as soon as possible.

    ``barriers`` is an optional set of positions in ``ops`` before which a
    hard layer boundary is forced. The ops first meet the ``Circuit`` rules,
    each as a layer of its own, so the ``ContractError`` of op ``i`` has
    ``at == (i, 0)``; ``id`` and ``meta`` are the ``Circuit``'s.
    """
    flat = Circuit.from_arrays(n, *_decode(n, [[op] for op in ops]), id="")
    barriers = set(barriers)
    frontier = {}  # qubit -> its first free layer; a wide register costs nothing
    layer = []  # each op's layer
    floor = depth = 0
    for i, (a, b) in enumerate(flat.qubits.tolist()):
        if i in barriers:
            floor = depth
        if b < 0:
            free = frontier[a] = max(floor, frontier.get(a, 0)) + 1
        else:
            free = frontier[a] = frontier[b] = max(floor, frontier.get(a, 0),
                                                   frontier.get(b, 0)) + 1
        layer.append(free - 1)
        depth = max(depth, free)
    layer = np.array(layer, dtype=np.int64)
    order = np.argsort(layer, kind="stable")
    return Circuit.from_arrays(
        n, flat.kind[order], flat.qubits[order], flat.params[order],
        np.cumsum([0, *np.bincount(layer, minlength=depth)]), id, meta)


# --- inversion ----------------------------------------------------------------


def invert_op(op: GateOp) -> GateOp:
    """Inverse of a single gate, staying inside the supported kind set."""
    if op.kind in ("X", "H", "CZ", "CX", "SWAP"):
        return op
    if op.kind == "RZ":
        return GateOp("RZ", (-op.params[0],), op.qubits)
    if op.kind == "CP":
        return GateOp("CP", (-op.params[0],), op.qubits)
    if op.kind == "SX":
        return GateOp("C1Q", (float(CLIFFORD_INDEX_SXDG),), op.qubits)
    if op.kind == "C1Q":
        return GateOp("C1Q", (float(clifford_inverse_index(int(op.params[0]))),), op.qubits)
    if op.kind == "U3":
        t, p, l = op.params
        return GateOp("U3", (-t, -l, -p), op.qubits)
    raise ContractError(f"cannot invert kind {op.kind!r}")


def inverse(c: Circuit) -> Circuit:
    """Layer-by-layer inverse: reversed layers, each op individually inverted."""
    layers = tuple(tuple(invert_op(op) for op in layer) for layer in reversed(c.layers))
    return Circuit(c.n, layers, c.id + ".inv")


# --- dense simulation primitives ----------------------------------------------


def apply_gate(mat: np.ndarray, psi: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Apply a k-qubit gate to a state tensor of shape (2,)*n (+ batch axes).

    Qubit axes are the first ``n`` axes; any trailing axes are carried along.
    """
    k = len(qubits)
    g = mat.reshape((2,) * (2 * k))
    out = np.tensordot(g, psi, axes=(list(range(k, 2 * k)), list(qubits)))
    return np.moveaxis(out, range(k), qubits)


def equal_up_to_phase(a: np.ndarray, b: np.ndarray, tol: float = 1e-9) -> bool:
    """Whether two same-shape matrices are equal up to a global phase."""
    na = np.linalg.norm(a)
    nb = np.linalg.norm(b)
    if na < tol or nb < tol:
        return na < tol and nb < tol
    ip = np.vdot(a, b)
    return abs(abs(ip) - na * nb) <= tol * na * nb + tol


def permutation_matrix(perm, n: int) -> np.ndarray:
    """Unitary sending wire i to wire perm[i] (qubit 0 = most significant bit)."""
    dim = 1 << n
    m = np.zeros((dim, dim), dtype=complex)
    for x in range(dim):
        y = 0
        for i in range(n):
            bit = (x >> (n - 1 - i)) & 1
            y |= bit << (n - 1 - perm[i])
        m[y, x] = 1.0
    return m


# --- single-qubit merging -------------------------------------------------------


def u3_params_from_matrix(m: np.ndarray) -> tuple[float, float, float]:
    """Euler angles (theta, phi, lam) with U3(theta, phi, lam) = m up to phase."""
    t, p, l = u3_params_from_matrices(m[None])
    return float(t[0]), float(p[0]), float(l[0])


def u3_params_from_matrices(ms: np.ndarray):
    """Vectorized Euler decomposition of a stack of 2x2 unitaries."""
    a = ms[:, 0, 0]
    b = ms[:, 0, 1]
    c = ms[:, 1, 0]
    theta = 2.0 * np.arctan2(np.abs(c), np.abs(a))
    big_a = np.abs(a) > 1e-12
    big_c = np.abs(c) > 1e-12
    ref = np.where(big_a, np.angle(a), 0.0)
    phi = np.where(big_c, np.angle(c) - ref, 0.0)
    lam = np.where(
        big_a & big_c,
        np.angle(-b) - ref,
        # theta ~ 0: only phi+lam matters; theta ~ pi: only phi-lam matters.
        np.where(big_a, np.angle(ms[:, 1, 1]) - ref, 0.0),
    )
    phi = np.where(big_a, phi, np.angle(c) - np.angle(-b))
    return theta, phi, lam


# --- coupling graph --------------------------------------------------------------


@dataclass(frozen=True)
class CouplingGraph:
    """Undirected qubit-connectivity graph; must be connected, no self-loops.

    Each wire's sorted neighbours are tabled at construction and its hop
    distances on first use; the tables take no part in equality or hashing.
    """

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        norm = frozenset(tuple(sorted(e)) for e in self.edges)
        object.__setattr__(self, "edges", norm)
        table = [[] for _ in range(self.n)]
        for a, b in norm:
            if a == b:
                raise ContractError("self-loop in coupling graph")
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ContractError("coupling edge out of range")
            table[a].append(b)
            table[b].append(a)
        object.__setattr__(self, "_neighbors", tuple(tuple(sorted(t)) for t in table))
        object.__setattr__(self, "_distances", [None] * self.n)
        if self.n > 1 and -1 in self.distances_from(0):
            raise ContractError("coupling graph must be connected")

    @classmethod
    def line(cls, n: int) -> "CouplingGraph":
        return cls(n, frozenset((i, i + 1) for i in range(n - 1)))

    @classmethod
    def all_to_all(cls, n: int) -> "CouplingGraph":
        return cls(n, frozenset((i, j) for i in range(n) for j in range(i + 1, n)))

    def neighbors(self, q: int) -> tuple[int, ...]:
        return self._neighbors[q]

    def has_edge(self, a: int, b: int) -> bool:
        return (min(a, b), max(a, b)) in self.edges

    def distances_from(self, src: int) -> tuple[int, ...]:
        """Hops from ``src`` to each wire (-1 if unreachable), searched once."""
        if self._distances[src] is None:
            dist = [-1] * self.n
            dist[src] = 0
            queue = deque([src])
            while queue:
                q = queue.popleft()
                for r in self._neighbors[q]:
                    if dist[r] < 0:
                        dist[r] = dist[q] + 1
                        queue.append(r)
            self._distances[src] = tuple(dist)
        return self._distances[src]
