import hashlib

import numpy as np
import pytest

from mirrorbench.circuits import (
    Circuit,
    ContractError,
    GateOp,
    PAULI_MATS,
)
from mirrorbench.mirror import (
    SamplingParams,
    build_suite,
    make_m1,
    make_m2,
    make_m3,
)
from mirrorbench.sim import NoiseModel, ideal_distribution, noisy_unitary, unitary_of

from tests.test_circuits import hash_circuit, random_native_circuit


def target_probability(mc):
    return ideal_distribution(mc.circuit)[int(mc.target, 2)]


class TestSamplingParams:
    def test_counts_positive(self):
        with pytest.raises(ContractError):
            SamplingParams(0, 1, 1)


class TestM1:
    def test_empty_parent_spam_only(self):
        rng = np.random.default_rng(0)
        mc = make_m1(Circuit(2, ()), rng)
        assert len(mc.circuit.layers) == 2
        assert target_probability(mc) == pytest.approx(1.0, abs=1e-9)

    def test_qft3_transpiled_hits_target(self):
        from mirrorbench.algos import qft_circuit
        from mirrorbench.circuits import CouplingGraph
        from mirrorbench.transpile import TranspileConfig, transpile
        c = transpile(qft_circuit(3),
                      TranspileConfig(CouplingGraph.all_to_all(3), 1.0, 0))
        mc = make_m1(c, np.random.default_rng(5))
        assert target_probability(mc) == pytest.approx(1.0, abs=1e-9)

    def test_depth_formula_alternating_layers(self):
        # alternating 1q / 2q layers: depth(M1) = 2 depth(c) + 2
        layers = []
        for d in range(6):
            if d % 2 == 0:
                layers.append(tuple(GateOp("SX", (), (q,)) for q in range(3)))
            else:
                layers.append((GateOp("CZ", (), (0, 1)),))
        c = Circuit(3, tuple(layers))
        mc = make_m1(c, np.random.default_rng(1))
        assert len(mc.circuit.layers) == 2 * len(c.layers) + 2

    def test_forward_half_is_parent_verbatim(self):
        rng = np.random.default_rng(2)
        c = random_native_circuit(rng, 3, 10)
        mc = make_m1(c, rng)
        d = len(c.layers)
        assert mc.circuit.layers[1:1 + d] == c.layers

    def test_non_native_rejected(self):
        c = Circuit(2, ((GateOp("CP", (0.3,), (0, 1)),),))
        with pytest.raises(ContractError) as e:
            make_m1(c, np.random.default_rng(0))
        assert "transpile" in str(e.value)


class TestM2:
    def test_random_parents_hit_target(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = random_native_circuit(rng, 4, 12)
            mc = make_m2(c, rng)
            assert target_probability(mc) == pytest.approx(1.0, abs=1e-9)

    def test_forward_half_frame_equivalent_to_parent(self):
        # forward half differs per seed but equals c up to a Pauli layer
        rng = np.random.default_rng(4)
        c = random_native_circuit(rng, 2, 8)
        d = len(c.layers)
        u_c = unitary_of(c)
        seen = set()
        for seed in (10, 11):
            mc = make_m2(c, np.random.default_rng(seed))
            fwd = Circuit(c.n, mc.circuit.layers[1:1 + d])
            seen.add(tuple((op.kind, op.params, op.qubits) for op in fwd.ops()))
            u_f = unitary_of(fwd)
            best = 0.0
            for p0 in range(4):
                for p1 in range(4):
                    pauli = np.kron(PAULI_MATS[p0], PAULI_MATS[p1])
                    ov = abs(np.trace(u_c.conj().T @ pauli @ u_f)) / 4
                    best = max(best, ov)
            assert best == pytest.approx(1.0, abs=1e-9)
        assert len(seen) == 2  # gates differ between seeds

    def test_compiled_layers_keep_gate_order(self):
        # Each compiled layer holds the parent layer's CZs, then one U3 per
        # single-qubit gate, each in the parent layer's order.
        rng = np.random.default_rng(8)
        c = random_native_circuit(rng, 5, 40)
        layers, d = make_m2(c, rng).circuit.layers, len(c.layers)
        for half in (layers[1:1 + d], layers[1 + d:1 + 2 * d][::-1]):
            for parent, compiled in zip(c.layers, half):
                assert [op.qubits for op in compiled] == \
                    [op.qubits for op in parent if len(op.qubits) == 2] + \
                    [op.qubits for op in parent if len(op.qubits) == 1]
                assert {op.kind for op in compiled if len(op.qubits) == 1} <= {"U3"}

    def test_empty_parent(self):
        mc = make_m2(Circuit(2, ()), np.random.default_rng(1))
        assert target_probability(mc) == pytest.approx(1.0, abs=1e-9)


class TestM3:
    def test_depth_is_three(self):
        mc = make_m3(5, np.random.default_rng(0))
        assert len(mc.circuit.layers) == 3

    def test_targets_hit(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            mc = make_m3(int(rng.integers(1, 7)), rng)
            assert target_probability(mc) == pytest.approx(1.0, abs=1e-9)

    def test_seeded_deterministic(self):
        a = make_m3(4, np.random.default_rng(9))
        b = make_m3(4, np.random.default_rng(9))
        assert a.circuit.layers == b.circuit.layers and a.target == b.target


class TestBuildSuite:
    def test_counts_and_kinds(self):
        rng = np.random.default_rng(2)
        c = random_native_circuit(rng, 3, 8).with_id("p")
        suite = list(build_suite(c, SamplingParams(10, 10, 10, seed=1)))
        assert len(suite) == 30
        assert sum(1 for m in suite if m.kind == "M1") == 10
        assert all(len(m.target) == 3 for m in suite)
        assert all(m.parent_id == "p" for m in suite)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        c = random_native_circuit(rng, 3, 8).with_id("p")
        a = list(build_suite(c, SamplingParams(5, 5, 5, seed=3)))
        b = list(build_suite(c, SamplingParams(5, 5, 5, seed=3)))
        assert all(x.circuit.layers == y.circuit.layers and x.target == y.target
                   for x, y in zip(a, b))

    def test_golden_brickwork_suite(self):
        # Pins the RNG draw order and every emitted gate and target: any
        # change to the frame engine that alters a seeded proxy fails here.
        from mirrorbench.algos import brickwork_u3_cz
        h = hashlib.sha256()
        for mc in build_suite(brickwork_u3_cz(8, 12, 7), SamplingParams(3, 3, 3, 7)):
            hash_circuit(h, mc.circuit)
            h.update(mc.target.encode())
        assert h.hexdigest() == \
            "321796154b578607643542712f4702cd94af7b9318507837636e4d3bb6b0a773"

    def test_unique_ids(self):
        rng = np.random.default_rng(2)
        c = random_native_circuit(rng, 2, 4).with_id("p")
        ids = [m.circuit.id for m in build_suite(c, SamplingParams(4, 4, 4, seed=0))]
        assert len(set(ids)) == 12


class TestTwirlProperties:
    def test_pauli_twirl_suppresses_off_diagonals(self):
        """Averaging the mirror half's noisy transfer matrix over many
        randomizations approaches a Pauli-diagonal channel (n=1, one
        coherent error)."""
        n = 1
        c = Circuit(n, ((GateOp("SX", (), (0,)),),))
        nm = NoiseModel(theta_over={"SX": 0.3})
        paulis = PAULI_MATS
        acc = np.zeros((4, 4))
        reps = 300
        for i in range(reps):
            mc = make_m2(c, np.random.default_rng(1000 + i))
            u = noisy_unitary(mc.circuit, nm)
            # transfer matrix in the Pauli basis
            r = np.empty((4, 4))
            for a in range(4):
                for b in range(4):
                    r[a, b] = np.real(
                        np.trace(paulis[a] @ u @ paulis[b] @ u.conj().T)) / 2
            acc += r
        acc /= reps
        # Net ideal unitary is a Pauli, so |diagonal| stays O(1); the twirl
        # must suppress the off-diagonal magnitudes toward 0.
        off = acc - np.diag(np.diag(acc))
        assert np.max(np.abs(off)) < 0.1

    def test_targets_near_uniform(self):
        # chi-square over the 4 two-bit targets; dof=3, 0.999 quantile=16.27
        rng = np.random.default_rng(0)
        c = random_native_circuit(rng, 2, 6)
        counts = {f"{i:02b}": 0 for i in range(4)}
        total = 2000
        for i in range(total):
            mc = make_m2(c, np.random.default_rng(i))
            counts[mc.target] += 1
        expected = total / 4
        chi2 = sum((v - expected) ** 2 / expected for v in counts.values())
        assert chi2 < 16.27
