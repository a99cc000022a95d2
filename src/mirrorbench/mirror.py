"""Mirror-circuit construction with randomized compilation.

Three proxy kinds are produced for a benchmark circuit c:

* M1: [random 1q-Clifford prefix] c [randomized-compiled layer-by-layer
  inverse of c] [closing layer of prefix inverses].
* M2: as M1 but the forward half is randomized-compiled too.
* M3: [prefix] [random Pauli layer] [closing] -- a SPAM-only circuit.

Randomized compilation maintains a running Pauli frame: one IXYZ label per
qubit, advanced a layer at a time. Two-qubit (CZ) gates are copied verbatim
and the frame is conjugated through them with one ``PAULI_CONJ_CZ`` gather;
every single-qubit gate absorbs the incoming frame label and a fresh
uniformly random Pauli label into one U3 gate. The net ideal unitary of each
proxy is a Pauli operator, so its error-free outcome is a single known
bitstring (the target): bit i flips wherever the final Pauli is X or Y.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from mirrorbench.circuits import (
    CLIFFORD_INDEX_OF_PAULI,
    CLIFFORD_INV,
    CLIFFORD_MATS,
    Circuit,
    ContractError,
    GateOp,
    MIRRORABLE_KINDS,
    PAULI_CONJ_C1Q,
    PAULI_CONJ_CZ,
    PAULI_MATS,
    gate_matrix,
    u3_params_from_matrices,
)
from mirrorbench.sim import derive_seed

__all__ = ["MirrorCircuit", "SamplingParams", "check_native", "make_m1", "make_m2",
           "make_m3", "build_suite"]


@dataclass(frozen=True)
class MirrorCircuit:
    """A proxy circuit with its deterministic error-free target bitstring."""

    circuit: Circuit
    kind: str  # M1 | M2 | M3
    parent_id: str | None
    target: str
    seed: int | None = None


@dataclass(frozen=True)
class SamplingParams:
    """How many proxies of each kind to generate, plus the master seed."""

    m1: int = 10
    m2: int = 10
    m3: int = 10
    seed: int = 0

    def __post_init__(self):
        if min(self.m1, self.m2, self.m3) < 1:
            raise ContractError("mirror counts must be >= 1")


def check_native(c: Circuit, mode: str):
    """Raise ``ContractError`` unless every gate of c is one mirrors accept."""
    for op in c.ops():
        if op.kind not in MIRRORABLE_KINDS:
            raise ContractError(
                f"circuit {c.id!r} contains non-native gate {op.kind}; "
                f"{mode} benchmarks require native circuits -- use a "
                f"full-stack benchmark (or transpile first)")


def _matrices_of_1q_ops(ops: list[GateOp]) -> np.ndarray:
    """Stack of 2x2 matrices for a list of 1-qubit ops, vectorized by kind."""
    out = np.empty((len(ops), 2, 2), dtype=complex)
    u3_pos, u3_params = [], []
    rz_pos, rz_params = [], []
    for i, op in enumerate(ops):
        k = op.kind
        if k == "U3":
            u3_pos.append(i)
            u3_params.append(op.params)
        elif k == "RZ":
            rz_pos.append(i)
            rz_params.append(op.params[0])
        elif k == "C1Q":
            out[i] = CLIFFORD_MATS[int(op.params[0])]
        else:
            out[i] = gate_matrix(k)
    if u3_pos:
        t, p, l = np.array(u3_params).T
        c, s = np.cos(t / 2), np.sin(t / 2)
        m = np.empty((len(u3_pos), 2, 2), dtype=complex)
        m[:, 0, 0] = c
        m[:, 0, 1] = -np.exp(1j * l) * s
        m[:, 1, 0] = np.exp(1j * p) * s
        m[:, 1, 1] = np.exp(1j * (p + l)) * c
        out[u3_pos] = m
    if rz_pos:
        th = np.asarray(rz_params)
        m = np.zeros((len(rz_pos), 2, 2), dtype=complex)
        m[:, 0, 0] = np.exp(-0.5j * th)
        m[:, 1, 1] = np.exp(0.5j * th)
        out[rz_pos] = m
    return out


def _rc_layer(layer, labels: np.ndarray, rng, invert: bool) -> tuple:
    """Randomize-compile one layer in place (labels updated), return emitted layer.

    ``invert`` replaces each single-qubit gate by its inverse (used for the
    mirror half). The only two-qubit kind in the native set is CZ, which is
    self-inverse.
    """
    ops_1q = [op for op in layer if len(op.qubits) == 1]
    ops_2q = [op for op in layer if len(op.qubits) == 2]
    emitted = list(ops_2q)
    if ops_2q:
        a, b = np.array([op.qubits for op in ops_2q]).T
        labels[a], labels[b] = PAULI_CONJ_CZ[labels[a], labels[b]].T
    if ops_1q:
        qs = np.array([op.qubits[0] for op in ops_1q])
        mats = _matrices_of_1q_ops(ops_1q)
        if invert:
            mats = mats.conj().transpose(0, 2, 1)
        fresh = rng.integers(0, 4, size=len(ops_1q))
        merged = PAULI_MATS[fresh] @ mats @ PAULI_MATS[labels[qs]]
        theta, phi, lam = u3_params_from_matrices(merged)
        for i, op in enumerate(ops_1q):
            emitted.append(GateOp("U3", (float(theta[i]), float(phi[i]), float(lam[i])),
                                  op.qubits))
        labels[qs] = fresh
    return tuple(emitted)


def _prefix_layer(n: int, rng) -> tuple[np.ndarray, tuple]:
    idx = rng.integers(0, 24, size=n)
    layer = tuple(GateOp("C1Q", (float(i),), (q,)) for q, i in enumerate(idx))
    return idx, layer


def _closing(prefix_idx: np.ndarray, labels: np.ndarray) -> tuple[tuple, str]:
    """Closing layer of prefix inverses, plus the target from the residual frame."""
    inv = CLIFFORD_INV[prefix_idx]
    ops = tuple(GateOp("C1Q", (float(i),), (q,)) for q, i in enumerate(inv))
    final = PAULI_CONJ_C1Q[inv, labels]
    return ops, "".join(np.where((final == 1) | (final == 2), "1", "0"))


def _make_mirror(c: Circuit, rng, kind: str, circuit_id: str | None) -> MirrorCircuit:
    """M1 keeps c verbatim; M2 randomize-compiles it too. Both then append the
    randomized-compiled layer-by-layer inverse and the closing layer."""
    check_native(c, "mirror")
    prefix_idx, prefix = _prefix_layer(c.n, rng)
    labels = np.zeros(c.n, dtype=np.int64)
    if kind == "M2":
        forward = [_rc_layer(layer, labels, rng, invert=False) for layer in c.layers]
    else:
        forward = list(c.layers)
    backward = [_rc_layer(layer, labels, rng, invert=True) for layer in reversed(c.layers)]
    close, target = _closing(prefix_idx, labels)
    circ = Circuit(c.n, (prefix, *forward, *backward, close),
                   circuit_id or f"{c.id}.{kind.lower()}")
    return MirrorCircuit(circ, kind, c.id, target)


def make_m1(c: Circuit, rng, *, circuit_id: str | None = None) -> MirrorCircuit:
    """c unchanged, followed by a randomized compilation of its inverse."""
    return _make_mirror(c, rng, "M1", circuit_id)


def make_m2(c: Circuit, rng, *, circuit_id: str | None = None) -> MirrorCircuit:
    """Randomized compilation of both c and its layer-by-layer inverse."""
    return _make_mirror(c, rng, "M2", circuit_id)


def make_m3(n: int, rng, *, parent_id: str | None = None,
            circuit_id: str | None = None) -> MirrorCircuit:
    """Randomized SPAM circuit: prefix, random Pauli layer, prefix inverse."""
    if n < 1:
        raise ContractError("n must be >= 1")
    prefix_idx, prefix = _prefix_layer(n, rng)
    labels = rng.integers(0, 4, size=n)
    pauli_layer = tuple(
        GateOp("C1Q", (float(CLIFFORD_INDEX_OF_PAULI[int(l)]),), (q,))
        for q, l in enumerate(labels))
    close, target = _closing(prefix_idx, labels)
    circ = Circuit(n, (prefix, pauli_layer, close), circuit_id or "m3")
    return MirrorCircuit(circ, "M3", parent_id, target)


def build_suite(c: Circuit, params: SamplingParams):
    """Yield |M1| + |M2| + |M3| mirror circuits for a benchmark circuit.

    Per-circuit seeds are derived from (master seed, parent id, kind, index),
    so the suite is reproducible and order-independent. Generates lazily to
    keep memory flat for wide parents.
    """
    makers = (("M1", lambda r, cid: make_m1(c, r, circuit_id=cid), params.m1),
              ("M2", lambda r, cid: make_m2(c, r, circuit_id=cid), params.m2),
              ("M3", lambda r, cid: make_m3(c.n, r, parent_id=c.id, circuit_id=cid),
               params.m3))
    for kind, make, count in makers:
        for i in range(count):
            rng = derive_seed(params.seed, c.id, kind, i)
            cid = f"{c.id}.{kind.lower()}.{i}"
            mc = make(rng, cid)
            yield MirrorCircuit(mc.circuit, mc.kind, c.id, mc.target, seed=params.seed)
