"""Noisy and ideal circuit simulation with exact process-fidelity oracles.

Noise semantics, applied in one place: ``_noisy_program`` turns a circuit
and a noise model into the steps the device runs, and the shot sampler, the
density-matrix oracles and the pure evolutions (``statevector``,
``noisy_unitary`` and ``unitary_of``) all consume those steps.

* Depolarizing after each gate on the gate's k qubits:
  ``rho -> (1 - lam) rho + lam I/2^k (x) Tr_k rho``, i.e. a uniform Pauli
  channel with total non-identity probability ``lam (4^k - 1) / 4^k``.
* Coherent over-rotation: the ideal gate followed by ``exp(-i theta G / 2)``
  about the gate's own generator axis (X for the X and SX gates).
* Idle error: a Z rotation by ``theta_idle`` on every qubit not acted on by
  a layer (RZ counts as acting).
* Readout: independent symmetric bit flips with probability ``eps_ro``,
  applied to measured bits only (never part of the process fidelity).

Shot sampling draws every error before it evolves any state, in a fixed
order, groups the shots by error history and evolves each distinct history
once: the error-free trunk from the start, every other trajectory from a copy
of the trunk made at its first error. Its memory is at most one state per
shot plus the trunk, ``(shots + 1) 2^n`` amplitudes. The evolution is fused:
each qubit's 1q steps become one pending 2x2 product, the products of a block
of four qubits reach the states as one 16x16 matmul, and a layer's errors go
in at the layer's end, which is exact (see ``sample_shots``).

The density-matrix oracles turn each step into one superoperator, fuse each
qubit's 1q superoperators together and into the next 2q gate on it, and so
contract the density batch once per 2q gate (see ``_evolve_channel``). Both
evolve Choi columns, the images of matrix units ``|i><j|``: the process
fidelity sums over all ``4^n`` of them, the outcome distribution reads the
diagonal of ``|0><0|``'s.

Axis convention (that of ``circuits.apply_gate``): qubit axes come first. A
state tensor has axes 0..n-1; a density tensor has rows 0..n-1 and columns
n..2n-1. Batch axes (unitary columns, Choi columns) trail. The one exception
is the shot sampler's trajectory buffer, whose batch axis comes first so that
the trajectories still being evolved form one contiguous block.

Index convention: qubit 0 is the most significant bit of a basis state's
index, in the flat ``statevector``, the rows and columns of ``unitary_of`` and
the probability vectors of ``ideal_distribution`` and ``noisy_distribution``.
A bitstring is that index in binary: character i is qubit i.

``ShotTable``, ``derive_seed`` and ``fake_uniform_shots`` live in ``shots``,
which needs no circuit code, and are re-exported here.
"""

from __future__ import annotations

import math

import numpy as np

from mirrorbench.circuits import (
    CapacityError,
    Circuit,
    ContractError,
    PAULI_MATS,
    KIND_CODE,
    apply_gate,
    gate_matrices_1q,
    gate_matrix,
)
from mirrorbench.core import ORACLE_MAX_N, NoiseModel
from mirrorbench.shots import ShotTable, check_shot_budget, derive_seed, fake_uniform_shots

__all__ = [
    "NoiseModel",
    "ShotTable",
    "ideal_distribution",
    "noisy_distribution",
    "sample_shots",
    "fake_uniform_shots",
    "exact_process_fidelity",
    "process_fidelity_channel_vs_unitary",
    "process_fidelity_unitaries",
    "noisy_unitary",
    "unitary_of",
    "derive_seed",
]

_I2, _X = PAULI_MATS[:2]

# The widest circuit each representation accepts: a state of 2^n
# amplitudes, the sampler's buffer of up to (shots + 1) 2^n, a density
# tensor of 4^n, and a dense unitary of 4^n.
_STATEVECTOR_MAX_N = 20
_TRAJECTORY_MAX_N = 12
_DENSITY_MAX_N = 10
_UNITARY_MAX_N = 12


def _noisy_program(c: Circuit, nm: NoiseModel):
    """Yield the circuit as the noisy device runs it: one list of ``(matrix,
    qubits, lam)`` steps per layer, in time order.

    Each gate's matrix has its over-rotation folded in and ``lam`` is the
    depolarizing strength that follows it; after the layer's gates, every
    qubit the layer leaves idle gets an ``RZ(theta_idle)`` step with
    ``lam = 0``. The 1q matrices of the whole circuit are built in one call.
    """
    one_q = c.qubits[:, 1] < 0
    mats = gate_matrices_1q(c.kind[one_q], c.params[one_q])
    for kind, theta in nm.theta_over.items():
        if theta:
            rot = math.cos(theta / 2) * np.eye(2) - 1j * math.sin(theta / 2) * _X
            sel = c.kind[one_q] == KIND_CODE[kind]
            mats[sel] = rot @ mats[sel]
    mats = iter(mats)
    idle = gate_matrix("RZ", (nm.theta_idle,)) if nm.theta_idle else None
    for layer in c.layers:
        steps = [(next(mats), qubits, nm.lam_1q) if len(qubits) == 1
                 else (gate_matrix(kind, params), qubits, nm.lam_2q)
                 for kind, params, qubits in layer]
        if idle is not None:
            busy = {q for _, _, qubits in layer for q in qubits}
            steps += [(idle, (q,), 0.0) for q in range(c.n) if q not in busy]
        yield steps


def _evolve_pure(psi: np.ndarray, c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Apply the program's unitary steps (depolarizing ignored) to ``psi``."""
    for layer in _noisy_program(c, nm):
        for g, qubits, _ in layer:
            psi = apply_gate(g, psi, qubits, c.n)
    return psi


# --- ideal statevector simulation ----------------------------------------------


def statevector(c: Circuit) -> np.ndarray:
    """Error-free final state of the circuit on |0...0>, as a (2,)*n tensor."""
    if c.n > _STATEVECTOR_MAX_N:
        raise CapacityError(f"n={c.n} exceeds statevector limit {_STATEVECTOR_MAX_N}")
    psi = np.zeros((2,) * c.n, dtype=complex)
    psi[(0,) * c.n] = 1.0
    return _evolve_pure(psi, c, NoiseModel.noiseless())


def ideal_distribution(c: Circuit) -> np.ndarray:
    """Error-free outcome distribution |<x|U|0..0>|^2: a float64 vector of
    length 2^n indexed by basis state x, qubit 0 its most significant bit."""
    probs = np.abs(statevector(c).ravel()) ** 2
    return probs / probs.sum()


# --- Monte-Carlo shot sampling ----------------------------------------------------


def sample_shots(c: Circuit, nm: NoiseModel, shots: int, seed: int) -> ShotTable:
    """Sample measurement outcomes from Monte-Carlo noise trajectories.

    Per shot: gates (with coherent over-rotations folded in) act as unitaries,
    depolarizing errors insert uniform non-identity Paulis with total
    probability ``lam (4^k - 1)/4^k``, idle qubits precess by ``theta_idle``
    per layer, and measured bits flip with probability ``eps_ro``.

    Errors are drawn first: every random number is drawn before any state is
    evolved, in a fixed order. For each noisy step come one uniform per shot
    and then the Pauli index of each shot it hits; then one uniform per shot
    that picks the outcome; then the readout flips. No draw depends on the
    state, so the output is deterministic given (seed, circuit id), and a
    change to this order changes seeded outputs.

    Shots are then grouped by error history, and each distinct history is
    evolved once: the error-free trunk from the start, every other trajectory
    from a copy of the trunk made where its first error goes in. Memory is
    one state of ``2^n`` amplitudes per distinct history plus the trunk, so at
    most ``(shots + 1) 2^n``.

    Each qubit's 1q steps (gates, over-rotations, idle rotations) are
    multiplied into one pending 2x2 product, and a block of
    ``_BLOCK_QUBITS`` consecutive qubits flushes its products together (see
    ``_flush_blocks``): before a 2q gate on the block, before an error on it,
    and at the end. A layer's errors go in after the whole layer. That is
    exact: the layer's gates act on disjoint qubits, so each inserted Pauli
    commutes with the rest of the layer.
    """
    if shots <= 0:
        raise ContractError("shots must be positive")
    if c.n > _TRAJECTORY_MAX_N:
        raise CapacityError(f"n={c.n} exceeds trajectory limit {_TRAJECTORY_MAX_N}")
    check_shot_budget(shots, 1 << c.n, "outcomes")
    rng = derive_seed(seed, c.id)
    n = c.n
    layers = list(_noisy_program(c, nm))
    program = [step for layer in layers for step in layer]
    hit_shots, hit_codes = [], []
    for s, (_, qubits, lam) in enumerate(program):
        if lam > 0:
            k = len(qubits)
            num_p = 4 ** k - 1
            hit = np.nonzero(rng.random(shots) < lam * num_p / 4 ** k)[0]
            if hit.size:
                hit_shots.append(hit)
                hit_codes.append(_EVENTS_PER_STEP * s + rng.integers(1, num_p + 1, size=hit.size))
    u = rng.random(shots)
    flips = rng.random((shots, n)) < nm.eps_ro if nm.eps_ro > 0 else None

    slot, histories = _group_histories(shots, hit_shots, hit_codes)
    blocks = _event_blocks(histories, program, n)

    # Slot 0 holds the error-free trunk and slot i > 0 history row i - 1.
    # Rows are sorted, so their first-error steps never decrease and the
    # trajectories that have branched always form a prefix of the buffer.
    buf = np.zeros((1 + len(histories),) + (2,) * n, dtype=complex)
    buf[(0,) * (n + 1)] = 1.0
    flat = buf.reshape(len(buf), 1 << n)
    basis = np.arange(1 << n)
    sign = np.ones(1, dtype=np.int8)
    for _ in range(n):
        sign = np.concatenate([sign, -sign])  # (-1)^(number of set bits)
    active, end = 1, 0
    pending: dict[int, np.ndarray] = {}  # qubit -> its 1q product not yet applied
    for layer in layers:
        for g, qubits, _ in layer:
            if len(qubits) == 1:
                q = qubits[0]
                pending[q] = g @ pending[q] if q in pending else g
            else:
                _flush_blocks(pending, qubits, buf, active)
                _apply_to_prefix(g, buf, active, tuple(q + 1 for q in qubits))
        steps = [t for t in range(end, end + len(layer)) if t in blocks]
        end += len(layer)
        if not steps:
            continue
        _flush_blocks(pending, [q for t in steps for q in program[t][1]], buf, active)
        buf[active:blocks[steps[-1]][0]] = buf[0]
        active = blocks[steps[-1]][0]
        for t in steps:
            for rows, x, z, phase in blocks[t][1]:
                # Y = iXZ, so the Pauli with masks (x, z) maps |b> to
                # i^|x & z| (-1)^|b & z| |b ^ x|.
                perm = basis ^ x
                v = flat[rows][:, perm]
                v *= phase * sign[perm & z]
                flat[rows] = v
    _flush_blocks(pending, range(n), buf, active)

    cum = np.cumsum(np.abs(flat) ** 2, axis=1)
    # Compare with u times the trajectory's total, not a normalized row, so
    # that rounding cannot push an index past the last outcome with nonzero
    # weight.
    outcomes = (cum[slot] < (u * cum[slot, -1])[:, None]).sum(axis=1)
    if flips is not None:
        outcomes ^= flips @ (1 << np.arange(n - 1, -1, -1))
    # Rows in the order of their first shot, as a per-shot tally makes them.
    codes, first, num = np.unique(outcomes, return_index=True, return_counts=True)
    order = np.argsort(first)
    bits = (codes[order, None] >> np.arange(n - 1, -1, -1)) & 1
    return ShotTable.from_packed(c.id, np.packbits(bits, axis=1), num[order], n)


# An error event is coded as ``_EVENTS_PER_STEP * step + pauli``, where the
# Pauli index ``1..4^k-1`` of a k-qubit gate (k <= 2) has the Paulis (I, X,
# Y, Z) of the gate's qubits as base-4 digits, first qubit most significant.
_EVENTS_PER_STEP = 16


def _group_histories(shots: int, hit_shots, hit_codes) -> tuple[np.ndarray, np.ndarray]:
    """Group shots by error history, given the shots hit and the event codes
    of each noisy step in step order.

    Returns each shot's buffer slot (0 for the error-free shots) and the
    distinct histories that contain an error as sorted rows of event codes,
    padded with -1.
    """
    if not hit_shots:
        return np.zeros(shots, dtype=np.intp), np.zeros((0, 1), dtype=np.int64)
    shot = np.concatenate(hit_shots)
    order = np.argsort(shot, kind="stable")  # keeps each shot's events in step order
    shot, code = shot[order], np.concatenate(hit_codes)[order]
    per_shot = np.bincount(shot, minlength=shots)
    pos = np.arange(shot.size) - np.repeat(np.cumsum(per_shot) - per_shot, per_shot)
    table = np.full((shots, per_shot.max()), -1, dtype=np.int64)
    table[shot, pos] = code
    histories, slot = np.unique(table, axis=0, return_inverse=True)
    slot = slot.reshape(-1)
    if histories[0, 0] < 0:  # the error-free row sorts first and maps to the trunk
        return slot, histories[1:]
    return slot + 1, histories


def _event_blocks(histories: np.ndarray, program, n: int) -> dict:
    """The error events of the distinct histories, by step.

    Maps each step with events to the number of buffer slots in use once its
    trajectories have branched, and to one ``(slots, x, z, phase)`` entry per
    Pauli the step inserts: ``x`` and ``z`` are the n-bit masks (qubit 0 most
    significant) of its X and Z parts and ``phase`` is ``i^(number of Y)``.
    """
    rows, cols = np.nonzero(histories >= 0)
    code = histories[rows, cols]
    order = np.argsort(code)
    slot, code = rows[order] + 1, code[order]
    first_steps = histories[:, 0] // _EVENTS_PER_STEP
    blocks: dict[int, tuple[int, list]] = {}
    events, starts = np.unique(code, return_index=True)
    for event, lo, hi in zip(events.tolist(), starts, [*starts[1:], len(code)]):
        s, pauli = divmod(event, _EVENTS_PER_STEP)
        qubits = program[s][1]
        x = z = num_y = 0
        for j, q in enumerate(qubits):
            digit = (pauli >> 2 * (len(qubits) - 1 - j)) & 3
            bit = 1 << (n - 1 - q)
            x |= bit if digit in (1, 2) else 0
            z |= bit if digit in (2, 3) else 0
            num_y += digit == 2
        if s not in blocks:
            blocks[s] = (1 + int(np.searchsorted(first_steps, s, "right")), [])
        blocks[s][1].append((slot[lo:hi], x, z, (1, 1j, -1, -1j)[num_y]))
    return blocks


# Gates are applied to the trajectory buffer this many amplitudes at a time,
# so that the kernels' temporaries stay small and in cache.
_BLOCK_AMPLITUDES = 1 << 16
# The sampler's fixed blocks of consecutive qubits (see ``_flush_blocks``).
_BLOCK_QUBITS = 4


def _flush_blocks(pending: dict, qubits, buf: np.ndarray, active: int) -> None:
    """Apply the pending 1q products of each block holding one of ``qubits``
    to the first ``active`` states of ``buf``: three or more of a block's w
    qubits as one ``2^w x 2^w`` Kronecker product, fewer one at a time."""
    n = buf.ndim - 1
    for lo in sorted({q - q % _BLOCK_QUBITS for q in qubits}):
        block = range(lo, min(lo + _BLOCK_QUBITS, n))
        mats = [pending.pop(q, None) for q in block]
        if sum(m is not None for m in mats) >= 3:
            g = np.ones((1, 1))
            for m in (_I2 if m is None else m for m in mats):  # np.kron, without its overhead
                g = (g[:, None, :, None] * m[None, :, None, :]).reshape(2 * len(g), -1)
            _apply_to_prefix(g, buf, active, tuple(q + 1 for q in block))
            continue
        for q, m in zip(block, mats):
            if m is not None:
                _apply_to_prefix(m, buf, active, (q + 1,))


def _apply_to_prefix(g: np.ndarray, buf: np.ndarray, active: int, axes) -> None:
    """Apply a gate in place to the first ``active`` states of ``buf``, whose
    batch axis comes first (qubit q is axis q + 1). ``g`` acts on two qubits,
    or on the consecutive ``axes`` of one qubit or of a block of them."""
    two_qubit = len(axes) == 2
    diagonal = two_qubit and not np.count_nonzero(g - np.diag(np.diagonal(g)))
    chunk = max(1, _BLOCK_AMPLITUDES >> (buf.ndim - 1))
    for lo in range(0, active, chunk):
        live = buf[lo:min(lo + chunk, active)]
        if not two_qubit:
            # As (before, axes, after) blocks, the copies below run over
            # contiguous rows rather than over axes of length 2.
            v = live.reshape(len(live) << (axes[0] - 1), len(g), -1)
            out = g @ v.transpose(1, 0, 2).reshape(len(g), -1)
            v[...] = out.reshape(len(g), len(v), -1).transpose(1, 0, 2)
        elif diagonal:  # CZ, CP: one multiply
            a, b = axes
            shape = [1] * live.ndim
            shape[a] = shape[b] = 2
            d = np.diagonal(g).reshape(2, 2)
            live *= (d if a < b else d.T).reshape(shape)
        else:
            live[...] = apply_gate(g, live, axes, live.ndim)


# --- deterministic density-matrix evolution (oracles) ------------------------------


def _evolve_channel(rho: np.ndarray, c: Circuit, nm: NoiseModel, n: int) -> np.ndarray:
    """Apply the noisy channel of the circuit (no readout) to a density tensor.

    Each step becomes one superoperator ``D_lam kron(g, g*)`` on its qubits'
    row and column axes, where depolarizing is ``D_lam = (1 - lam) 1 +
    (lam / 2^k) |vec I><vec I|``. A qubit's 1q superoperators are multiplied
    together and kept pending; a 2q gate's superoperator absorbs those of its
    two qubits, so the density sees one contraction per 2q gate and, at the
    end, one per qubit still pending.
    """
    pending: dict[int, np.ndarray] = {}
    for g, qubits, lam in (step for layer in _noisy_program(c, nm) for step in layer):
        d = len(g)
        s = np.kron(g, g.conj())
        if lam > 0:
            v = np.eye(d).ravel()
            s = (1.0 - lam) * s + (lam / d) * np.outer(v, v @ s)
        if d == 2:
            pending[qubits[0]] = s @ pending.get(qubits[0], np.eye(4))
            continue
        # (row a, row b, col a, col b) -> (row a, col a, row b, col b)
        s = s.reshape((2,) * 8).transpose(0, 2, 1, 3, 4, 6, 5, 7).reshape(16, 16)
        s = s @ np.kron(*(pending.pop(q, np.eye(4)) for q in qubits))
        a, b = qubits
        rho = apply_gate(s, rho, (a, n + a, b, n + b), 2 * n)
    for q, s in pending.items():
        rho = apply_gate(s, rho, (q, n + q), 2 * n)
    return rho


def _choi_columns(c: Circuit, nm: NoiseModel, lo: int, hi: int) -> np.ndarray:
    """The noisy channel's images ``Lambda(|i><j|)`` of the matrix units with
    ``i 2^n + j`` in ``range(lo, hi)``, as a ``(2^n, 2^n, hi - lo)`` array."""
    n, dim = c.n, 1 << c.n
    rho = np.zeros((dim * dim, hi - lo), dtype=complex)
    rho[np.arange(lo, hi), np.arange(hi - lo)] = 1.0
    rho = _evolve_channel(rho.reshape((2,) * (2 * n) + (hi - lo,)), c, nm, n)
    return rho.reshape(dim, dim, hi - lo)


def noisy_distribution(c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Exact outcome distribution under the noise model, a vector indexed as
    ``ideal_distribution``'s: the diagonal of the channel's image of
    |0..0><0..0|, then the readout error."""
    if c.n > _DENSITY_MAX_N:
        raise CapacityError(f"n={c.n} exceeds density-evolution limit {_DENSITY_MAX_N}")
    n = c.n
    probs = _choi_columns(c, nm, 0, 1)[:, :, 0].diagonal().real
    if nm.eps_ro > 0:
        # readout flips mix the probability vector one bit at a time
        probs = probs.reshape((2,) * n)
        e = nm.eps_ro
        mix = np.array([[1 - e, e], [e, 1 - e]])
        for q in range(n):
            probs = apply_gate(mix, probs, (q,), n)
        probs = probs.ravel()
    probs = np.clip(probs, 0.0, None)  # negative rounding
    return probs / probs.sum()


# --- process fidelity oracles -----------------------------------------------------


def process_fidelity_unitaries(u: np.ndarray, v: np.ndarray) -> float:
    """|Tr(U^dag V)|^2 / 4^n for equal-dimension unitaries."""
    if u.shape != v.shape:
        raise ContractError(f"dimension mismatch: {u.shape} vs {v.shape}")
    d = u.shape[0]
    return float(abs(np.trace(u.conj().T @ v)) ** 2 / d ** 2)


def noisy_unitary(c: Circuit, nm: NoiseModel) -> np.ndarray:
    """Circuit unitary with coherent-error and idle rotations folded in.

    Only meaningful for models without depolarizing noise (used as a
    cross-check oracle for coherent-only models).
    """
    if c.n > _UNITARY_MAX_N:
        raise CapacityError(f"n={c.n} exceeds dense limit {_UNITARY_MAX_N}")
    dim = 1 << c.n
    u = np.eye(dim, dtype=complex).reshape((2,) * c.n + (dim,))
    return _evolve_pure(u, c, nm).reshape(dim, dim)


def unitary_of(c: Circuit) -> np.ndarray:
    """The circuit's dense unitary ``U_L @ ... @ U_2 @ U_1``, layer 1 first."""
    return noisy_unitary(c, NoiseModel.noiseless())


# The process fidelity evolves this many Choi columns through the channel at
# a time, a 16 MB density batch at n = 6. At n = 5, batches of 64 and of 1024
# columns were both slower.
_CHOI_BATCH = 256


def process_fidelity_channel_vs_unitary(u_target: np.ndarray | None, c: Circuit,
                                        nm: NoiseModel) -> float:
    """Exact process fidelity between a target unitary channel and the noisy
    channel realized by the circuit (readout excluded); a ``u_target`` of
    ``None`` is the circuit's ideal unitary, built after the width check.

    It is the overlap of the two channels' Choi states,
    ``(1/4^n) sum_ij <i| U^dag Lambda(|i><j|) U |j>``, with the Choi columns
    ``Lambda(|i><j|)`` evolved ``_CHOI_BATCH`` at a time.
    """
    n = c.n
    if n > ORACLE_MAX_N:
        raise CapacityError(f"n={n} exceeds oracle limit {ORACLE_MAX_N}")
    u_target = unitary_of(c) if u_target is None else u_target
    dim = 1 << n
    if u_target.shape != (dim, dim):
        raise ContractError("target unitary has wrong dimension")
    total = 0.0
    for lo in range(0, dim * dim, _CHOI_BATCH):
        hi = min(lo + _CHOI_BATCH, dim * dim)
        i, j = np.divmod(np.arange(lo, hi), dim)
        image_j = np.einsum("klb,lb->kb", _choi_columns(c, nm, lo, hi), u_target[:, j])
        total += float(np.real(np.vdot(u_target[:, i], image_j)))
    return total / 4 ** n


def exact_process_fidelity(c: Circuit, nm: NoiseModel) -> float:
    """Eq.-1 oracle: fidelity of the circuit's noisy channel to its own ideal
    unitary. Deterministic channel composition; readout error excluded."""
    return process_fidelity_channel_vs_unitary(None, c, nm)
