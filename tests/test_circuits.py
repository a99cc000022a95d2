import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench.circuits import (
    CLIFFORD_MATS,
    CapacityError,
    Circuit,
    ContractError,
    CouplingGraph,
    GateOp,
    PAULI_CONJ_C1Q,
    PAULI_CONJ_CZ,
    PAULI_MATS,
    apply_gate,
    clifford_index_of,
    clifford_inverse_index,
    equal_up_to_phase,
    gate_matrix,
    inverse,
    layerize,
    permutation_matrix,
    u3_params_from_matrix,
)
from mirrorbench.sim import NoiseModel, sample_shots, unitary_of

RNG = np.random.default_rng(1234)


def hash_circuit(h, c: Circuit):
    """Feed ``c`` to the hash ``h``: its width and id, the bytes of its four
    arrays and its meta's JSON, so that a pin of it is bit-exact."""
    h.update(json.dumps([c.n, c.id]).encode())
    for a in (c.kind, c.qubits, c.params, c.layer_start):
        h.update(a.tobytes())
    h.update(json.dumps(c.meta, sort_keys=True).encode())
    return h


def circuit_digest(c: Circuit) -> str:
    """The first 16 hex digits of ``hash_circuit``'s SHA-256 of ``c``."""
    return hash_circuit(hashlib.sha256(), c).hexdigest()[:16]


def random_native_circuit(rng, n, n_ops, two_q_kinds=("CZ",)):
    ops = []
    for _ in range(n_ops):
        r = rng.random()
        if r < 0.3 and n > 1:
            a, b = rng.choice(n, 2, replace=False)
            kind = two_q_kinds[int(rng.integers(len(two_q_kinds)))]
            ops.append(GateOp(kind, (), (int(a), int(b))))
        elif r < 0.5:
            ops.append(GateOp("RZ", (float(rng.uniform(-7, 7)),),
                              (int(rng.integers(n)),)))
        elif r < 0.7:
            ops.append(GateOp("SX", (), (int(rng.integers(n)),)))
        else:
            ops.append(GateOp("U3", tuple(rng.uniform(-7, 7, 3)),
                              (int(rng.integers(n)),)))
    return layerize(n, ops)


class TestCircuit:
    def test_qubit_out_of_range(self):
        with pytest.raises(ContractError):
            Circuit(1, ((GateOp("X", (), (1,)),),))

    def test_layer_collision(self):
        with pytest.raises(ContractError):
            Circuit(2, ((GateOp("X", (), (0,)), GateOp("SX", (), (0,))),))

    def test_depth_and_width(self):
        c = Circuit(3, ((GateOp("X", (), (0,)),), (GateOp("X", (), (0,)),)))
        assert c.n == 3 and len(c.layers) == 2

    def test_default_id_names_the_content(self):
        # sample_shots seeds from (seed, id): equal circuits must share an id.
        def sx_layer(kind="SX"):
            return Circuit(3, (tuple(GateOp(kind, (), (q,)) for q in range(3)),))

        a, b = sx_layer(), sx_layer()
        assert a.id == b.id != sx_layer("X").id
        shots = [sample_shots(c, NoiseModel(), 1000, 5).counts for c in (a, b)]
        assert shots[0] == shots[1] and len(shots[0]) == 8
        np_params = Circuit(1, ((GateOp("RZ", (np.float64(0.5),), (np.int64(0),)),),))
        assert np_params.id == Circuit(1, ((GateOp("RZ", (0.5,), (0,)),),)).id


class TestLayerize:
    def test_dependency_forces_new_layer(self):
        ops = [GateOp("H", (), (0,)), GateOp("CZ", (), (0, 1))]
        assert layerize(2, ops).depth == 2

    def test_parallel_ops_pack(self):
        ops = [GateOp("X", (), (0,)), GateOp("X", (), (1,))]
        assert layerize(2, ops).depth == 1

    def test_barrier_forces_boundary(self):
        ops = [GateOp("X", (), (0,)), GateOp("X", (), (1,))]
        assert layerize(2, ops, barriers=[1]).depth == 2

    @pytest.mark.parametrize("qubit", [5, -1, 1.5])
    def test_bad_op_named_by_the_rule_set(self, qubit):
        # Checked before packing: a ContractError naming op 0, not an
        # IndexError or TypeError from the frontier.
        with pytest.raises(ContractError) as e:
            layerize(2, [GateOp("X", (), (qubit,))])
        assert e.value.at == (0, 0)

    def test_bad_op_named_by_its_index(self):
        ops = [GateOp("H", (), (0,)), GateOp("CZ", (), (1, 1))]
        with pytest.raises(ContractError, match="duplicate qubits") as e:
            layerize(2, ops)
        assert e.value.at == (1, 0)


class TestInverse:
    def test_rz_negated(self):
        c = Circuit(1, ((GateOp("RZ", (0.3,), (0,)),),))
        inv = inverse(c)
        assert inv.layers[0][0].kind == "RZ"
        assert inv.layers[0][0].params == (-0.3,)

    def test_self_inverse_order_reversed(self):
        c = Circuit(2, ((GateOp("H", (), (0,)),), (GateOp("CZ", (), (0, 1)),)))
        inv = inverse(c)
        assert inv.layers[0][0].kind == "CZ"
        assert inv.layers[1][0].kind == "H"

    def test_compose_with_inverse_is_identity(self):
        # oracle: dense matrix product
        for trial in range(5):
            rng = np.random.default_rng(trial)
            c = random_native_circuit(rng, 3, 15)
            u = unitary_of(c)
            v = unitary_of(inverse(c))
            assert equal_up_to_phase(v @ u, np.eye(8), tol=1e-10)

    def test_double_inverse_round_trip(self):
        rng = np.random.default_rng(9)
        c = random_native_circuit(rng, 3, 12)
        cc = inverse(inverse(c))
        assert len(cc.layers) == len(c.layers)
        for la, lb in zip(c.layers, cc.layers):
            for a, b in zip(la, lb):
                assert a.kind == b.kind and a.qubits == b.qubits
                assert np.allclose(a.params, b.params, atol=1e-12)


class TestUnitaryOf:
    def test_empty_circuit_identity(self):
        assert np.allclose(unitary_of(Circuit(1, ())), np.eye(2))

    def test_single_x(self):
        u = unitary_of(Circuit(1, ((GateOp("X", (), (0,)),),)))
        assert np.allclose(u, np.array([[0, 1], [1, 0]]))

    def test_qft2_matches_dft(self):
        # oracle: textbook DFT matrix
        from mirrorbench.algos import qft_circuit
        u = unitary_of(qft_circuit(2))
        w = np.array([[1j ** (j * k) for k in range(4)] for j in range(4)]) / 2
        assert equal_up_to_phase(u, w)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            unitary_of(Circuit(13, ()))

    def test_multiplicative_over_concatenation(self):
        rng = np.random.default_rng(2)
        a = random_native_circuit(rng, 3, 8)
        b = random_native_circuit(rng, 3, 8)
        ab = Circuit(3, a.layers + b.layers)
        assert np.allclose(unitary_of(ab), unitary_of(b) @ unitary_of(a),
                           atol=1e-10)


class TestGateTables:
    def test_tables_cannot_be_written(self):
        from mirrorbench.circuits import _FIXED_1Q, _H, _SX, _X

        for table in (_X, _SX, _H, PAULI_MATS, CLIFFORD_MATS, _FIXED_1Q):
            with pytest.raises(ValueError, match="read-only"):
                table[..., 0, 0] = 5
        for kind, params in [("X", ()), ("H", ()), ("C1Q", (3.0,)), ("RZ", (0.5,))]:
            before = gate_matrix(kind, params).copy()
            gate_matrix(kind, params)[0, 0] = 5
            assert np.array_equal(gate_matrix(kind, params), before)


class TestCliffordTable:
    def test_24_distinct_elements(self):
        assert CLIFFORD_MATS.shape == (24, 2, 2)
        assert len({clifford_index_of(CLIFFORD_MATS[i]) for i in range(24)}) == 24

    def test_inverse_table(self):
        for i in range(24):
            prod = CLIFFORD_MATS[clifford_inverse_index(i)] @ CLIFFORD_MATS[i]
            assert equal_up_to_phase(prod, np.eye(2))

    def test_pauli_conjugation_table(self):
        for i in range(24):
            for p in range(4):
                lhs = CLIFFORD_MATS[i] @ PAULI_MATS[p] @ CLIFFORD_MATS[i].conj().T
                rhs = PAULI_MATS[PAULI_CONJ_C1Q[i, p]]
                assert any(np.allclose(lhs, s * rhs, atol=1e-9) for s in (1, -1))


class TestPauliConjTables:
    def test_cz_entries_match_dense(self):
        cz = gate_matrix("CZ")
        for a in range(4):
            for b in range(4):
                lhs = cz @ np.kron(PAULI_MATS[a], PAULI_MATS[b]) @ cz.conj().T
                a2, b2 = PAULI_CONJ_CZ[a, b]
                rhs = np.kron(PAULI_MATS[a2], PAULI_MATS[b2])
                assert any(np.allclose(lhs, s * rhs, atol=1e-9) for s in (1, -1))

    def test_z_commutes_with_cz(self):
        assert tuple(PAULI_CONJ_CZ[3, 0]) == (3, 0)

    def test_x_through_cz_picks_up_z(self):
        # CZ (X(x)I) CZ = X(x)Z
        assert tuple(PAULI_CONJ_CZ[1, 0]) == (1, 3)

    def test_identity_fixed(self):
        assert (PAULI_CONJ_C1Q[:, 0] == 0).all()
        assert tuple(PAULI_CONJ_CZ[0, 0]) == (0, 0)


class TestU3Extraction:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_round_trip_random_unitary(self, seed):
        rng = np.random.default_rng(seed)
        z = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        q, _ = np.linalg.qr(z)
        theta, phi, lam = u3_params_from_matrix(q)
        m = gate_matrix("U3", (theta, phi, lam))
        assert equal_up_to_phase(m, q, tol=1e-9)


class TestApplyGate:
    def test_matches_dense_kron(self):
        rng = np.random.default_rng(3)
        psi = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi /= np.linalg.norm(psi)
        cz = gate_matrix("CZ")
        got = apply_gate(cz, psi.reshape(2, 2, 2), (1, 2), 3).reshape(-1)
        want = np.kron(np.eye(2), cz) @ psi
        assert np.allclose(got, want, atol=1e-12)


class TestPermutationMatrix:
    def test_identity(self):
        assert np.allclose(permutation_matrix(range(3), 3), np.eye(8))

    def test_swap_two_qubits(self):
        w = permutation_matrix((1, 0), 2)
        swap = gate_matrix("SWAP")
        assert np.allclose(w, swap)


class TestCouplingGraph:
    def test_line(self):
        g = CouplingGraph.line(4)
        assert g.has_edge(0, 1) and g.has_edge(2, 3) and not g.has_edge(0, 3)

    def test_disconnected_rejected(self):
        with pytest.raises(ContractError):
            CouplingGraph(4, frozenset({(0, 1), (2, 3)}))

    def test_distances(self):
        g = CouplingGraph.line(5)
        d = g.distances_from(0)
        assert d[4] == 4 and d[0] == 0
        assert g.distances_from(3) == (3, 2, 1, 0, 1)
        # searched once per wire, then read from the table
        assert g.distances_from(3) is g.distances_from(3)

    def test_tables(self):
        star = CouplingGraph(5, frozenset({(3, 0), (0, 1), (4, 0), (0, 2)}))
        assert star.neighbors(0) == (1, 2, 3, 4) and star.neighbors(3) == (0,)
        assert star.has_edge(3, 0) and star.has_edge(0, 3) and not star.has_edge(1, 2)
        assert [star.distances_from(q)[4] for q in range(5)] == [1, 2, 2, 2, 0]
        # the tables are derived, so they take no part in equality
        same = CouplingGraph(5, star.edges)
        assert star == same and hash(star) == hash(same)
