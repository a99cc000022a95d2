import math
import re

import numpy as np
import pytest

from mirrorbench.algos import (
    PauliSumHamiltonian,
    TrotterSpec,
    algorithmic_process_fidelity,
    brickwork_u3_cz,
    exact_evolution_unitary,
    full_process_fidelity,
    heisenberg,
    max3sat,
    pauli_exponential_ops,
    qaoa_circuit,
    qft_circuit,
    tfim,
    trotter_circuit,
)
from mirrorbench.circuits import (
    CapacityError,
    Circuit,
    ContractError,
    GateOp,
    equal_up_to_phase,
    layerize,
)
from mirrorbench.core import SchemaError
from mirrorbench.sim import unitary_of


def dft_matrix(n: int) -> np.ndarray:
    dim = 1 << n
    w = np.exp(2j * math.pi / dim)
    return np.array([[w ** (j * k) for k in range(dim)]
                     for j in range(dim)]) / math.sqrt(dim)


class TestQft:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_matches_dft(self, n):
        assert equal_up_to_phase(unitary_of(qft_circuit(n)), dft_matrix(n))

    def test_id(self):
        assert qft_circuit(3).id == "qft3"

    def test_bad_n(self):
        with pytest.raises(ContractError):
            qft_circuit(0)


class TestQaoa:
    def test_deterministic(self):
        assert qaoa_circuit(5, 3).layers == qaoa_circuit(5, 3).layers

    def test_seed_changes_circuit(self):
        assert qaoa_circuit(5, 3).layers != qaoa_circuit(5, 4).layers

    def test_mixer_on_every_qubit(self):
        c = qaoa_circuit(6, 0)
        mixers = [op for op in c.ops() if op.kind == "U3"]
        assert sorted(op.qubits[0] for op in mixers) == list(range(6))

    def test_reps_scale_gate_count(self):
        one = sum(1 for _ in qaoa_circuit(5, 1).ops())
        two = sum(1 for _ in qaoa_circuit(5, 1, reps=2).ops())
        assert two == 2 * one


class TestBrickwork:
    def test_structure(self):
        c = brickwork_u3_cz(5, 8, 0)
        assert len(c.layers) == 8 and c.id == "brick5x8s0"
        for d, layer in enumerate(c.layers):
            kinds = {op.kind for op in layer}
            assert kinds == ({"U3"} if d % 2 == 0 else {"CZ"})
        assert len(c.layers[0]) == 5

    def test_staggered_bricks(self):
        c = brickwork_u3_cz(6, 8, 1)
        starts = {min(q for op in layer for q in op.qubits)
                  for d, layer in enumerate(c.layers) if d % 2 == 1}
        assert starts == {0, 1}

    def test_deterministic(self):
        assert brickwork_u3_cz(4, 6, 9).layers == brickwork_u3_cz(4, 6, 9).layers


# The rule each from_dict case checks, which also names the case.
HAMILTONIAN_RULES = [
    "Hamiltonian 'n' must be a positive integer, got 3.0",
    "Hamiltonian 'n' must be a positive integer, got True",
    "Hamiltonian 'n' must be a positive integer, got None",
    "Hamiltonian 'terms' must be a list of",
    "Hamiltonian 'terms' must be a list of",
    "Hamiltonian 'terms' must be a list of",
    "Hamiltonian 'terms' must be a list of",
    "Hamiltonian 'terms' must be a list of",
    "Hamiltonian 'offset' must be a number, got '1'",
    "unknown Hamiltonian key 'field'",
    "a Hamiltonian must be a JSON object",
]


class TestHamiltonians:
    def test_tfim3_dense(self):
        # oracle: direct kron construction
        h = tfim(3).dense()
        z = np.diag([1.0, -1.0])
        x = np.array([[0, 1], [1, 0]], dtype=float)
        i2 = np.eye(2)
        ref = (np.kron(np.kron(z, z), i2) + np.kron(np.kron(i2, z), z)
               + np.kron(np.kron(z, i2), z))
        for pos in range(3):
            mats = [i2, i2, i2]
            mats[pos] = x
            ref = ref + 2.0 * np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert np.allclose(h, ref, atol=1e-12)

    def test_heisenberg3_dense(self):
        h = heisenberg(3).dense()
        paulis = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
                  "Y": np.array([[0, -1j], [1j, 0]]),
                  "Z": np.diag([1.0 + 0j, -1.0])}
        i2 = np.eye(2)
        ref = np.zeros((8, 8), dtype=complex)
        for i in range(3):
            j = (i + 1) % 3
            for p in "XYZ":
                mats = [i2, i2, i2]
                mats[i] = paulis[p]
                mats[j] = paulis[p]
                ref += np.kron(np.kron(mats[0], mats[1]), mats[2])
        for i in range(3):
            mats = [i2, i2, i2]
            mats[i] = paulis["Z"]
            ref += 2.0 * np.kron(np.kron(mats[0], mats[1]), mats[2])
        assert np.allclose(h, ref, atol=1e-12)

    def test_hermitian(self):
        for h in (tfim(4), heisenberg(4), max3sat(4)):
            m = h.dense()
            assert np.allclose(m, m.conj().T)

    def test_term_order_couplings_first(self):
        terms = tfim(4).terms
        assert all(p.count("Z") == 2 for _, p in terms[:4])
        assert all(p.count("X") == 1 for _, p in terms[4:])

    def test_max3sat_diagonal_and_offset(self):
        h = max3sat(5, r=2, seed=0)
        m = h.dense()
        assert np.allclose(m, np.diag(np.diag(m)))
        assert all(set(p) <= {"I", "Z"} for _, p in h.terms)
        # eigenvalues count unsatisfied clauses: integers in [0, rn]
        evals = np.real(np.diag(m))
        assert np.allclose(evals, np.round(evals), atol=1e-9)
        assert evals.min() >= -1e-9 and evals.max() <= 10 + 1e-9

    def test_max3sat_deterministic(self):
        assert max3sat(5, 2, 3).terms == max3sat(5, 2, 3).terms

    def test_dict_round_trip(self):
        h = heisenberg(3)
        assert PauliSumHamiltonian.from_dict(h.to_dict()) == h

    @pytest.mark.parametrize("d, message", [
        ({"n": 3.0, "terms": [[1.0, "ZZI"]]},
         "hamiltonian: 'n' must be a positive integer, got 3.0"),
        ({"n": True, "terms": []}, "hamiltonian: 'n' must be a positive integer, got true"),
        ({"terms": []}, "hamiltonian: missing required key 'n'"),
        ({"n": 3, "terms": [[True, "ZZI"]]}, "hamiltonian: 'terms' must be a list of"),
        ({"n": 3, "terms": [["0.5", "IXX"]]}, "hamiltonian: 'terms' must be a list of"),
        ({"n": 3, "terms": [[0.5, 7]]}, "hamiltonian: 'terms' must be a list of"),
        ({"n": 3, "terms": [[0.5, "IXX", 1]]}, "hamiltonian: 'terms' must be a list of"),
        ({"n": 3, "terms": "ZZI"}, "hamiltonian: 'terms' must be a list of"),
        ({"n": 3, "terms": [], "offset": "1"}, "hamiltonian: 'offset' must be a finite number, got \"1\""),
        ({"n": 3, "terms": [], "field": 2.0}, "hamiltonian: unexpected key 'field'"),
        ([3, []], "hamiltonian: must be a JSON object, got [3, []]"),
    ], ids=[f"d{i}-{rule}" for i, rule in enumerate(HAMILTONIAN_RULES)])
    def test_from_dict_rejects_what_it_would_coerce(self, d, message):
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}"):
            PauliSumHamiltonian.from_dict(d)

    def test_validation(self):
        with pytest.raises(ContractError):
            PauliSumHamiltonian(2, ((1.0, "XYZ"),))
        with pytest.raises(ContractError):
            PauliSumHamiltonian(2, ((1.0, "AB"),))
        with pytest.raises(ContractError):
            tfim(2)


@pytest.mark.parametrize("dense, limit", [
    (lambda h: h.dense(), 12),
    (lambda h: exact_evolution_unitary(h, 1.0), 10),
    (lambda h: algorithmic_process_fidelity(h, TrotterSpec()), 10),
], ids=["dense", "exact_evolution_unitary", "algorithmic_process_fidelity"])
def test_width_limit(dense, limit):
    with pytest.raises(CapacityError, match=f"^n={limit + 1} exceeds dense limit {limit}$"):
        dense(PauliSumHamiltonian(limit + 1, ()))


class TestPauliExponential:
    @pytest.mark.parametrize("pauli", ["Z", "X", "Y", "ZZ", "XY", "IZX", "YXZ"])
    def test_matches_dense_exponential(self, pauli):
        theta = 0.37
        n = len(pauli)
        ops = pauli_exponential_ops(theta, pauli)
        u = unitary_of(Circuit(n, layerize(n, ops)))
        ref = exact_evolution_unitary(PauliSumHamiltonian(n, ((1.0, pauli),)), theta)
        assert equal_up_to_phase(u, ref, 1e-9)

    def test_identity_string_empty(self):
        assert pauli_exponential_ops(0.5, "III") == []


class TestTrotter:
    def test_single_term_exact_any_steps(self):
        h = PauliSumHamiltonian(2, ((0.8, "XZ"),))
        for m in (1, 3, 7):
            f = algorithmic_process_fidelity(h, TrotterSpec(1, m, 1.3))
            assert f == pytest.approx(1.0, abs=1e-9)

    def test_commuting_terms_exact(self):
        h = max3sat(4, r=2, seed=1)
        for order in (1, 2):
            f = algorithmic_process_fidelity(h, TrotterSpec(order, 2, 1.0))
            assert f == pytest.approx(1.0, abs=1e-9)

    def test_heisenberg3_monotone_convergence(self):
        h = heisenberg(3)
        for order in (1, 2):
            fs = [algorithmic_process_fidelity(h, TrotterSpec(order, m, 1.0))
                  for m in (1, 2, 4, 8)]
            assert all(b > a for a, b in zip(fs, fs[1:]))
            assert fs[-1] > 0.9

    def test_heisenberg4_order_endpoints(self):
        h = heisenberg(4)
        f1 = algorithmic_process_fidelity(h, TrotterSpec(1, 1, 1.0))
        f8 = algorithmic_process_fidelity(h, TrotterSpec(1, 8, 1.0))
        assert f8 > f1
        fo1 = algorithmic_process_fidelity(h, TrotterSpec(1, 3, 1.0))
        fo2 = algorithmic_process_fidelity(h, TrotterSpec(2, 3, 1.0))
        assert fo2 > fo1

    def test_second_order_beats_first_small_t(self):
        h = tfim(3)
        f1 = algorithmic_process_fidelity(h, TrotterSpec(1, 2, 0.5))
        f2 = algorithmic_process_fidelity(h, TrotterSpec(2, 2, 0.5))
        assert f2 > f1

    def test_circuit_meta_and_id(self):
        c = trotter_circuit(tfim(3), TrotterSpec(2, 4, 1.0))
        assert c.id == "trotter-o2m4t1"
        assert c.meta["trotter"] == {"order": 2, "steps": 4, "time": 1.0}

    def test_spec_validation(self):
        with pytest.raises(ContractError):
            TrotterSpec(order=3)
        with pytest.raises(ContractError):
            TrotterSpec(steps=0)


class TestFullProcessFidelity:
    def test_product(self):
        assert full_process_fidelity(0.9, 0.8) == pytest.approx(0.72)

    def test_range_check(self):
        with pytest.raises(ContractError):
            full_process_fidelity(1.2, 0.5)
