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
    Circuit,
    ContractError,
    KIND_CODE,
    KINDS,
    MIRRORABLE_KINDS,
    PAULI_CONJ_C1Q,
    PAULI_CONJ_CZ,
    PAULI_MATS,
    gate_matrices_1q,
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


_MIRRORABLE = np.array([k in MIRRORABLE_KINDS for k in KINDS])
_C1Q, _U3 = KIND_CODE["C1Q"], KIND_CODE["U3"]


def check_native(c: Circuit, mode: str):
    """Raise ``ContractError`` unless every gate of c is one mirrors accept."""
    bad = ~_MIRRORABLE[c.kind]
    if bad.any():
        raise ContractError(
            f"circuit {c.id!r} contains non-native gate {KINDS[c.kind[np.argmax(bad)]]}; "
            f"{mode} benchmarks require native circuits -- compile them first with "
            f"mirrorbench.transpile (\"compile_to_native\": true in a config) or use a "
            f"full-stack benchmark")


def _rc_layers(c: Circuit, labels: np.ndarray, rng, invert: bool) -> tuple:
    """Randomize-compile every layer of c in turn (reversed when ``invert``),
    updating ``labels``; return the emitted gates as (kind, qubits, params,
    layer sizes).

    Each emitted layer holds the layer's two-qubit gates verbatim, then one U3
    per single-qubit gate, each in layer order. ``invert`` replaces each
    single-qubit gate by its inverse (used for the mirror half). The only
    two-qubit kind in the native set is CZ, which is self-inverse.
    """
    one_q = c.qubits[:, 1] < 0
    layer = np.repeat(np.arange(c.depth), np.diff(c.layer_start))
    if invert:
        layer = c.depth - 1 - layer
    sizes = np.bincount(layer, minlength=c.depth)
    ends = np.cumsum(sizes)
    mids = (ends - np.bincount(layer[one_q], minlength=c.depth)).tolist()
    order = np.argsort(2 * layer + one_q, kind="stable")
    one_q, qa, qb = one_q[order], c.qubits[order, 0], c.qubits[order, 1]
    fresh, before = np.zeros(len(order), dtype=np.int64), np.zeros(len(order), dtype=np.int64)
    lo = 0
    for mid, hi in zip(mids, ends.tolist()):
        if mid > lo:
            a, b = qa[lo:mid], qb[lo:mid]
            labels[a], labels[b] = PAULI_CONJ_CZ[labels[a], labels[b]].T
        if hi > mid:
            qs = qa[mid:hi]
            before[mid:hi] = labels[qs]
            fresh[mid:hi] = labels[qs] = rng.integers(0, 4, size=hi - mid)
        lo = hi
    mats = gate_matrices_1q(c.kind[order][one_q], c.params[order][one_q])
    if invert:
        mats = mats.conj().transpose(0, 2, 1)
    merged = PAULI_MATS[fresh[one_q]] @ mats @ PAULI_MATS[before[one_q]]
    params = c.params[order]
    params[one_q] = np.stack(u3_params_from_matrices(merged), axis=-1)
    return np.where(one_q, _U3, c.kind[order]), c.qubits[order], params, sizes


def _one_q_layer(c1q_index: np.ndarray) -> tuple:
    """A layer of one C1Q per qubit, as (kind, qubits, params, layer sizes)."""
    n = len(c1q_index)
    params = np.zeros((n, 3))
    params[:, 0] = c1q_index
    qubits = np.stack([np.arange(n), np.full(n, -1)], axis=-1)
    return np.full(n, _C1Q), qubits, params, [n]


def _closing(prefix_idx: np.ndarray, labels: np.ndarray) -> tuple[tuple, str]:
    """Closing layer of prefix inverses, plus the target from the residual frame."""
    inv = CLIFFORD_INV[prefix_idx]
    final = PAULI_CONJ_C1Q[inv, labels]
    return _one_q_layer(inv), "".join(np.where((final == 1) | (final == 2), "1", "0"))


def _assemble(n: int, parts: list[tuple], circuit_id: str) -> Circuit:
    """The circuit whose layers are those of ``parts``, in order."""
    kind, qubits, params, sizes = (np.concatenate(col) for col in zip(*parts))
    return Circuit.from_arrays(n, kind, qubits, params,
                               np.concatenate([[0], np.cumsum(sizes)]), circuit_id)


def _make_mirror(c: Circuit, rng, kind: str, circuit_id: str | None) -> MirrorCircuit:
    """M1 keeps c verbatim; M2 randomize-compiles it too. Both then append the
    randomized-compiled layer-by-layer inverse and the closing layer."""
    check_native(c, "mirror")
    prefix_idx = rng.integers(0, 24, size=c.n)
    labels = np.zeros(c.n, dtype=np.int64)
    if kind == "M2":
        forward = _rc_layers(c, labels, rng, invert=False)
    else:
        forward = (c.kind, c.qubits, c.params, np.diff(c.layer_start))
    backward = _rc_layers(c, labels, rng, invert=True)
    close, target = _closing(prefix_idx, labels)
    circ = _assemble(c.n, [_one_q_layer(prefix_idx), forward, backward, close],
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
    prefix_idx = rng.integers(0, 24, size=n)
    labels = rng.integers(0, 4, size=n)
    pauli_layer = _one_q_layer(np.array(CLIFFORD_INDEX_OF_PAULI)[labels])
    close, target = _closing(prefix_idx, labels)
    circ = _assemble(n, [_one_q_layer(prefix_idx), pauli_layer, close], circuit_id or "m3")
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
            yield make(rng, f"{c.id}.{kind.lower()}.{i}")
