"""Reference computations that the benchmark checks mirrorbench's outputs against.

Everything here works on the JSON records the CLI writes (``circuits.jsonl``,
``shots.jsonl``) and re-derives the physics with its own code: gate
matrices, statevectors, and density-matrix evolution under the noise
semantics documented in ``mirrorbench/sim.py``. Depolarizing noise is written
in its Pauli-twirl form, ``(1 - lam) rho + lam/4^k sum_P P rho P``, rather
than the partial-trace form the program uses, so the two are independent.

The only thing taken from the program is the table that maps a ``C1Q``
gate's index to its matrix: that table is part of the circuit file format.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from mirrorbench.circuits import CLIFFORD_MATS

I2 = np.eye(2, dtype=complex)
X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (I2, X, Y, Z)
SX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]], dtype=complex)
CZ = np.diag([1, 1, 1, -1]).astype(complex)


def rz(theta: float) -> np.ndarray:
    return np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])


def rx(theta: float) -> np.ndarray:
    return math.cos(theta / 2) * I2 - 1j * math.sin(theta / 2) * X


def u3(theta: float, phi: float, lam: float) -> np.ndarray:
    c, s = math.cos(theta / 2), math.sin(theta / 2)
    return np.array([[c, -np.exp(1j * lam) * s],
                     [np.exp(1j * phi) * s, np.exp(1j * (phi + lam)) * c]])


def gate_unitary(gate: dict) -> np.ndarray:
    """Ideal matrix of one gate record ``{kind, params, qubits}``."""
    kind, p = gate["kind"], gate["params"]
    if kind == "U3":
        return u3(*p)
    if kind == "RZ":
        return rz(p[0])
    if kind == "X":
        return X
    if kind == "SX":
        return SX
    if kind == "CZ":
        return CZ
    if kind == "C1Q":
        return CLIFFORD_MATS[int(p[0])]
    raise ValueError(f"reference has no matrix for gate kind {kind!r}")


def noisy_unitary(gate: dict, noise: dict) -> np.ndarray:
    """The gate followed by its coherent over-rotation about X (X and SX only)."""
    u = gate_unitary(gate)
    theta = noise.get("theta_over", {}).get(gate["kind"], 0.0)
    if theta and gate["kind"] in ("X", "SX"):
        u = rx(theta) @ u
    return u


def _apply(tensor: np.ndarray, mat: np.ndarray, axes: list[int]) -> np.ndarray:
    """Contract a (2,)*2k operator into the given axes of a tensor."""
    k = len(axes)
    out = np.tensordot(mat.reshape((2,) * (2 * k)), tensor,
                       axes=(list(range(k, 2 * k)), axes))
    return np.moveaxis(out, list(range(k)), axes)


# --- ideal statevectors ----------------------------------------------------------


def final_state(circ: dict, psi: np.ndarray | None = None) -> np.ndarray:
    """Error-free state of a circuit record, as a (2,)*n tensor (from |0..0>)."""
    n = circ["n"]
    if psi is None:
        psi = np.zeros((2,) * n, dtype=complex)
        psi[(0,) * n] = 1.0
    for layer in circ["layers"]:
        for g in layer:
            psi = _apply(psi, gate_unitary(g), list(g["qubits"]))
    return psi


def ideal_unitary(circ: dict) -> np.ndarray:
    """Dense unitary, column j = final state from basis state j (qubit 0 = MSB)."""
    n = circ["n"]
    dim = 1 << n
    cols = np.eye(dim, dtype=complex).reshape((2,) * n + (dim,))
    return final_state(circ, cols).reshape(dim, dim)


def ideal_outcome(circ: dict) -> tuple[str, float]:
    """Most likely error-free bitstring and its probability."""
    probs = np.abs(final_state(circ).ravel()) ** 2
    x = int(np.argmax(probs))
    return format(x, f"0{circ['n']}b"), float(probs[x])


# --- noisy density-matrix evolution ---------------------------------------------


@functools.cache
def _pauli_products(k: int) -> np.ndarray:
    """All 4^k tensor products of k single-qubit Paulis, stacked."""
    out = [np.eye(1, dtype=complex)]
    for _ in range(k):
        out = [np.kron(a, b) for a in out for b in PAULIS]
    return np.stack(out)


def channel_superop(u: np.ndarray, lam: float) -> np.ndarray:
    """Superoperator of ``rho -> D(u rho u^dag)`` with depolarizing strength lam.

    Indexed [row_out..., col_out..., row_in..., col_in...] with k qubit axes
    each, so a rho tensor is contracted over its row and column axes at once.
    """
    k = u.shape[0].bit_length() - 1
    paulis = _pauli_products(k)
    kraus = np.concatenate([u[None], paulis @ u])
    weights = np.full(len(kraus), lam / 4 ** k)
    weights[0] = 1.0 - lam
    sup = np.einsum("t,tia,tjb->ijab", weights, kraus, kraus.conj())
    return sup.reshape((2,) * (4 * k))


def evolve(rho: np.ndarray, circ: dict, noise: dict, total: int) -> np.ndarray:
    """Apply a circuit's noisy channel (no readout) to a density tensor.

    ``rho`` has ``total`` row axes then ``total`` column axes; the circuit
    acts on the first ``circ['n']`` qubits (the rest are spectators, as in a
    Choi state).
    """
    n = circ["n"]
    idle = noise.get("theta_idle", 0.0)
    idle_op = channel_superop(rz(idle), 0.0) if idle else None
    for layer in circ["layers"]:
        busy = set()
        for g in layer:
            qs = list(g["qubits"])
            busy.update(qs)
            lam = noise.get("lam_1q", 0.0) if len(qs) == 1 else noise.get("lam_2q", 0.0)
            sup = channel_superop(noisy_unitary(g, noise), lam)
            rho = _apply(rho, sup, qs + [total + q for q in qs])
        if idle_op is not None:
            for q in range(n):
                if q not in busy:
                    rho = _apply(rho, idle_op, [q, total + q])
    return rho


def outcome_probabilities(circ: dict, noise: dict) -> np.ndarray:
    """Exact distribution of measured bitstrings, readout flips included.

    Returned as a flat array indexed by the basis-state integer.
    """
    n = circ["n"]
    dim = 1 << n
    rho = np.zeros((dim, dim), dtype=complex)
    rho[0, 0] = 1.0
    rho = evolve(rho.reshape((2,) * (2 * n)), circ, noise, n).reshape(dim, dim)
    probs = np.clip(rho.diagonal().real, 0.0, None).reshape((2,) * n)
    eps = noise.get("eps_ro", 0.0)
    if eps:
        flip = np.array([[1 - eps, eps], [eps, 1 - eps]])
        for q in range(n):
            probs = np.moveaxis(np.tensordot(flip, probs, axes=(1, q)), 0, q)
    probs = probs.ravel()
    return probs / probs.sum()


def choi_process_fidelity(circ: dict, noise: dict) -> float:
    """Process fidelity of the noisy circuit to its own ideal unitary.

    Evolves the 2n-qubit maximally entangled state through the noisy channel
    on the first n qubits and takes its overlap with (U (x) I)|Phi>.
    """
    n = circ["n"]
    dim = 1 << n
    phi = np.eye(dim, dtype=complex).ravel() / math.sqrt(dim)
    rho = np.outer(phi, phi.conj()).reshape((2,) * (4 * n))
    rho = evolve(rho, circ, noise, 2 * n).reshape(dim * dim, dim * dim)
    phi_u = ideal_unitary(circ).ravel() / math.sqrt(dim)
    return float(np.real(phi_u.conj() @ rho @ phi_u))


# --- polarizations and the ratio estimator --------------------------------------


def _distances(n: int, target: str) -> np.ndarray:
    """Hamming distance of every basis-state index to the target bitstring."""
    x = np.arange(1 << n) ^ int(target, 2)
    d = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        d += (x >> b) & 1
    return d


def exact_polarization(probs: np.ndarray, target: str) -> tuple[float, float]:
    """Exact S of a proxy and the standard deviation of one shot's estimate.

    S = (a - 4^-n)/(1 - 4^-n) with a = E[(-1/2)^k], k the Hamming distance
    of a measured bitstring to the target.
    """
    n = len(target)
    d = _distances(n, target)
    a = float(probs @ (-0.5) ** d)
    second = float(probs @ 0.25 ** d)
    q = 4.0 ** -n
    sd = math.sqrt(max(second - a * a, 0.0)) / (1.0 - q)
    return (a - q) / (1.0 - q), sd


def observed_polarization(counts: dict[str, int], target: str) -> float:
    """S estimated from a shot table's counts."""
    n = len(target)
    tgt = np.frombuffer(target.encode(), dtype=np.uint8)
    total = 0
    acc = 0.0
    for bits, c in counts.items():
        k = int(np.count_nonzero(np.frombuffer(bits.encode(), dtype=np.uint8) != tgt))
        acc += c * 0.5 ** k * (-1) ** k
        total += c
    q = 4.0 ** -n
    return (acc / total - q) / (1.0 - q)


def ratio_estimate(s1: float, s2: float, s3: float, n: int) -> float:
    """F = gamma + (1 - gamma)/4^n with gamma = S1 / sqrt(S2 S3)."""
    if s2 * s3 <= 0:
        return float("nan")
    gamma = s1 / math.sqrt(s2 * s3)
    return gamma + (1.0 - gamma) * 4.0 ** -n
