"""Built-in circuit families and Trotterized Hamiltonian evolution.

Hamiltonians are real-coefficient Pauli sums. Term order is significant for
Trotterization and is fixed by the builders: coupling terms first, field
terms last. Identity components (from Max3SAT clause expansion) are kept in
a scalar offset that only contributes a global phase and is dropped from
circuits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from mirrorbench.circuits import (
    CapacityError,
    Circuit,
    ContractError,
    GateOp,
    KIND_CODE,
    PAULI_LABELS,
    PAULI_MATS,
    layerize,
)
from mirrorbench.core import JsonObject, full_process_fidelity, is_number
from mirrorbench.sim import derive_seed, process_fidelity_unitaries, unitary_of

__all__ = [
    "PauliSumHamiltonian",
    "TrotterSpec",
    "qft_circuit",
    "qaoa_circuit",
    "brickwork_u3_cz",
    "tfim",
    "heisenberg",
    "max3sat",
    "pauli_exponential_ops",
    "trotter_circuit",
    "algorithmic_process_fidelity",
    "full_process_fidelity",
]

PI = math.pi
# Widest Hamiltonian held as a dense matrix, and widest whose exact evolution
# (and so the algorithmic fidelity of a Trotter circuit) is computed;
# ``generate`` records no algorithmic fidelity for wider ones.
_DENSE_MAX_N = 12
EVOLUTION_MAX_N = 10
_H_FIELD = 2.0  # on every site of the TFIM and Heisenberg rings


@dataclass(frozen=True)
class PauliSumHamiltonian:
    """H = sum_j coeff_j * P_j with an optional identity offset."""

    n: int
    terms: tuple[tuple[float, str], ...]
    offset: float = 0.0

    def __post_init__(self):
        for coeff, ps in self.terms:
            if len(ps) != self.n:
                raise ContractError(f"Pauli string {ps!r} length != n={self.n}")
            if any(ch not in PAULI_LABELS for ch in ps):
                raise ContractError(f"bad Pauli string {ps!r}")
            if not math.isfinite(coeff):
                raise ContractError("coefficients must be finite reals")

    def dense(self) -> np.ndarray:
        if self.n > _DENSE_MAX_N:
            raise CapacityError(f"n={self.n} exceeds dense limit {_DENSE_MAX_N}")
        dim = 1 << self.n
        h = np.zeros((dim, dim), dtype=complex)
        for coeff, ps in self.terms:
            m = np.ones((1, 1), dtype=complex)
            for ch in ps:
                m = np.kron(m, PAULI_MATS[PAULI_LABELS.index(ch)])
            h += coeff * m
        return h + self.offset * np.eye(dim)

    def to_dict(self) -> dict:
        return {"n": self.n, "terms": [[c, p] for c, p in self.terms],
                "offset": self.offset}

    @classmethod
    def from_dict(cls, d, path: str = "hamiltonian") -> "PauliSumHamiltonian":
        """The Hamiltonian of a ``to_dict`` object. A key it does not take, or
        a value not of its JSON type (``n`` a positive integer, ``terms`` a
        list of ``[number, string]`` pairs, ``offset`` a number), raises
        SchemaError."""
        h = JsonObject(d, path)
        n = h.count("n")
        terms = h.get("terms", what="a list of [number, string] pairs", fits=lambda v: (
            isinstance(v, list) and all(isinstance(t, list) and len(t) == 2 and is_number(t[0])
                                        and isinstance(t[1], str) for t in v)))
        offset = h.number("offset", 0.0)
        h.done()
        return cls(n, tuple((float(c), p) for c, p in terms), offset)


@dataclass(frozen=True)
class TrotterSpec:
    """Product-formula order (1 or 2), step count m, and evolution time t."""

    order: int = 1
    steps: int = 1
    time: float = 1.0

    def __post_init__(self):
        if self.order not in (1, 2):
            raise ContractError("Trotter order must be 1 or 2")
        if self.steps < 1:
            raise ContractError("Trotter steps must be >= 1")
        if not math.isfinite(self.time):
            raise ContractError("time must be finite")


# --- circuit families -------------------------------------------------------------


def qft_circuit(n: int) -> Circuit:
    """Standard quantum Fourier transform: H + controlled-phase ladder + swaps."""
    if n < 1:
        raise ContractError("n must be >= 1")
    ops: list[GateOp] = []
    for i in range(n):
        ops.append(GateOp("H", (), (i,)))
        for j in range(i + 1, n):
            ops.append(GateOp("CP", (PI / 2 ** (j - i),), (j, i)))
    for i in range(n // 2):
        ops.append(GateOp("SWAP", (), (i, n - 1 - i)))
    return Circuit(n, layerize(n, ops), f"qft{n}")


def qaoa_circuit(n: int, seed: int, reps: int = 1) -> Circuit:
    """QAOA over a random GNP(n, 2 ln(n)/n) graph.

    Each repetition applies one cost angle (shared by all ZZ-phase edge terms)
    and one mixer angle (X rotations on every qubit), both uniform in [0, pi).
    """
    if n < 2:
        raise ContractError("n must be >= 2")
    rng = derive_seed(seed, "qaoa", n)
    p_edge = min(1.0, 2.0 * math.log(n) / n)
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p_edge]
    ops: list[GateOp] = []
    for _ in range(reps):
        gamma = float(rng.uniform(0.0, PI))
        beta = float(rng.uniform(0.0, PI))
        for a, b in edges:
            # exp(-i gamma/2 Z(x)Z) as CX . RZ(gamma) . CX
            ops.append(GateOp("CX", (), (a, b)))
            ops.append(GateOp("RZ", (gamma,), (b,)))
            ops.append(GateOp("CX", (), (a, b)))
        for q in range(n):
            # RX(beta) as a U3 gate
            ops.append(GateOp("U3", (beta, -PI / 2, PI / 2), (q,)))
    return Circuit(n, layerize(n, ops), f"qaoa{n}s{seed}")


def brickwork_u3_cz(n: int, depth: int, seed: int) -> Circuit:
    """Alternating layers of random U3 on all qubits and staggered CZ bricks."""
    rng = derive_seed(seed, "brickwork", n, depth)
    kind, qubits, params = [np.zeros(0, int)], [np.zeros((0, 2), int)], [np.zeros((0, 3))]
    for d in range(depth):
        if d % 2 == 0:
            params.append(rng.uniform(0.0, 2 * PI, size=(n, 3)))
            qubits.append(np.stack([np.arange(n), np.full(n, -1)], axis=-1))
            kind.append(np.full(n, KIND_CODE["U3"]))
        else:
            a = np.arange(0 if (d // 2) % 2 == 0 else 1, n - 1, 2)
            params.append(np.zeros((len(a), 3)))
            qubits.append(np.stack([a, a + 1], axis=-1))
            kind.append(np.full(len(a), KIND_CODE["CZ"]))
    return Circuit.from_arrays(n, np.concatenate(kind), np.concatenate(qubits),
                               np.concatenate(params), np.cumsum([len(k) for k in kind]),
                               f"brick{n}x{depth}s{seed}")


# --- Hamiltonian builders -----------------------------------------------------------


def _ring_string(n: int, i: int, j: int, pa: str, pb: str) -> str:
    s = ["I"] * n
    s[i], s[j] = pa, pb
    return "".join(s)


def _site_string(n: int, i: int, p: str) -> str:
    s = ["I"] * n
    s[i] = p
    return "".join(s)


def tfim(n: int) -> PauliSumHamiltonian:
    """Transverse-field Ising model on a periodic 1D ring, h_i = 2.

    Terms: ZZ couplings around the ring first, X fields last.
    """
    if n < 3:
        raise ContractError("periodic ring needs n >= 3")
    terms = [(1.0, _ring_string(n, i, (i + 1) % n, "Z", "Z")) for i in range(n)]
    terms += [(_H_FIELD, _site_string(n, i, "X")) for i in range(n)]
    return PauliSumHamiltonian(n, tuple(terms))


def heisenberg(n: int) -> PauliSumHamiltonian:
    """Heisenberg XXX model on a periodic 1D ring with Z fields, h_i = 2.

    Terms: XX, YY, ZZ per ring edge first, Z fields last.
    """
    if n < 3:
        raise ContractError("periodic ring needs n >= 3")
    terms = []
    for i in range(n):
        j = (i + 1) % n
        for p in ("X", "Y", "Z"):
            terms.append((1.0, _ring_string(n, i, j, p, p)))
    terms += [(_H_FIELD, _site_string(n, i, "Z")) for i in range(n)]
    return PauliSumHamiltonian(n, tuple(terms))


def max3sat(n: int, r: int = 2, seed: int = 0) -> PauliSumHamiltonian:
    """Max3SAT Hamiltonian: r*n random 3-variable clauses expanded to Z-strings.

    Each clause (with variables i<j<k and negation bits s) contributes
    ``I - (1/8) prod [I + (-1)^s Z]``; the identity part accumulates in the
    scalar offset. All remaining terms are diagonal (Z/I only).
    """
    if n < 3:
        raise ContractError("Max3SAT needs n >= 3")
    rng = derive_seed(seed, "max3sat", n, r)
    acc: dict[str, float] = {}
    offset = 0.0
    for _ in range(r * n):
        vars_ = sorted(int(v) for v in rng.choice(n, size=3, replace=False))
        signs = rng.integers(0, 2, size=3)
        offset += 1.0 - 1.0 / 8.0
        # expand -(1/8) * prod(I + (-1)^s Z) minus the pure-identity part
        for mask in range(1, 8):
            coeff = -1.0 / 8.0
            s = ["I"] * n
            for b in range(3):
                if mask >> b & 1:
                    coeff *= (-1.0) ** int(signs[b])
                    s[vars_[b]] = "Z"
            key = "".join(s)
            acc[key] = acc.get(key, 0.0) + coeff
    terms = tuple((c, p) for p, c in acc.items() if abs(c) > 1e-15)
    return PauliSumHamiltonian(n, terms, offset)


# --- Trotterization -----------------------------------------------------------------


def pauli_exponential_ops(coeff_theta: float, pauli: str) -> list[GateOp]:
    """Gate sequence for exp(-i theta P): basis change, CX parity ladder,
    RZ(2 theta), and unconjugation. Empty for the identity string."""
    active = [q for q, ch in enumerate(pauli) if ch != "I"]
    if not active:
        return []
    pre: list[GateOp] = []
    post: list[GateOp] = []
    for q in active:
        ch = pauli[q]
        if ch == "X":
            pre.append(GateOp("H", (), (q,)))
            post.append(GateOp("H", (), (q,)))
        elif ch == "Y":
            # B = S H maps Z to Y; apply B^dag = H S^dag before the ladder
            pre.extend([GateOp("RZ", (-PI / 2,), (q,)), GateOp("H", (), (q,))])
            post.extend([GateOp("H", (), (q,)), GateOp("RZ", (PI / 2,), (q,))])
    ladder = [GateOp("CX", (), (active[i], active[i + 1]))
              for i in range(len(active) - 1)]
    rot = [GateOp("RZ", (2.0 * coeff_theta,), (active[-1],))]
    return pre + ladder + rot + list(reversed(ladder)) + post


def trotter_circuit(h: PauliSumHamiltonian, spec: TrotterSpec) -> Circuit:
    """First- or second-order product-formula circuit for exp(-i H t)."""
    m, t = spec.steps, spec.time
    ops: list[GateOp] = []
    if spec.order == 1:
        step = [op for coeff, ps in h.terms
                for op in pauli_exponential_ops(coeff * t / m, ps)]
    else:
        fwd = [op for coeff, ps in h.terms
               for op in pauli_exponential_ops(coeff * t / (2 * m), ps)]
        bwd = [op for coeff, ps in reversed(h.terms)
               for op in pauli_exponential_ops(coeff * t / (2 * m), ps)]
        step = fwd + bwd
    for _ in range(m):
        ops.extend(step)
    cid = f"trotter-o{spec.order}m{m}t{t:g}"
    return Circuit(h.n, layerize(h.n, ops), cid,
                   {"trotter": {"order": spec.order, "steps": m, "time": t}})


def exact_evolution_unitary(h: PauliSumHamiltonian, t: float) -> np.ndarray:
    """exp(-i H t) via dense Hermitian eigendecomposition."""
    if h.n > EVOLUTION_MAX_N:
        raise CapacityError(f"n={h.n} exceeds dense limit {EVOLUTION_MAX_N}")
    evals, evecs = np.linalg.eigh(h.dense())
    return (evecs * np.exp(-1j * evals * t)) @ evecs.conj().T


def algorithmic_process_fidelity(h: PauliSumHamiltonian, spec: TrotterSpec) -> float:
    """Fidelity of the Trotter circuit's unitary to the exact evolution."""
    u = exact_evolution_unitary(h, spec.time)
    return process_fidelity_unitaries(u, unitary_of(trotter_circuit(h, spec)))

