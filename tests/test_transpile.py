import hashlib
import math

import numpy as np
import pytest

from mirrorbench.algos import qaoa_circuit, qft_circuit
from mirrorbench.circuits import (
    Circuit,
    ContractError,
    CouplingGraph,
    GateOp,
    NATIVE_KINDS,
    equal_up_to_phase,
    gate_matrix,
    permutation_matrix,
)
from mirrorbench.sim import unitary_of
from mirrorbench.storage import circuit_to_json
from mirrorbench.transpile import (
    TranspileConfig,
    approximate_prune,
    decompose_to_basis,
    identity_fidelity,
    route,
    transpile,
)

from tests.test_circuits import random_native_circuit


def assert_same_unitary(a: Circuit, b: Circuit, tol=1e-9):
    assert equal_up_to_phase(unitary_of(a), unitary_of(b), tol)


def digest(c: Circuit) -> str:
    """The first 16 hex digits of the SHA-256 of the circuit's JSON line."""
    return hashlib.sha256(circuit_to_json(c).encode()).hexdigest()[:16]


def ring(n: int) -> CouplingGraph:
    return CouplingGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> CouplingGraph:
    return CouplingGraph(n, frozenset((0, i) for i in range(1, n)))


class TestDecompose:
    def test_h_becomes_three_native_gates(self):
        c = decompose_to_basis(Circuit(1, ((GateOp("H", (), (0,)),),)))
        assert [op.kind for op in c.ops()] == ["RZ", "SX", "RZ"]
        assert_same_unitary(c, Circuit(1, ((GateOp("H", (), (0,)),),)))

    def test_cp_pi_equals_cz(self):
        c = Circuit(2, ((GateOp("CP", (math.pi,), (0, 1)),),))
        native = decompose_to_basis(c)
        assert equal_up_to_phase(unitary_of(native), gate_matrix("CZ"))

    def test_all_high_level_kinds(self):
        ops = [GateOp("H", (), (0,)), GateOp("CX", (), (0, 1)),
               GateOp("SWAP", (), (1, 2)), GateOp("CP", (0.7,), (0, 2)),
               GateOp("U3", (0.1, 0.2, 0.3), (1,)),
               GateOp("C1Q", (13.0,), (2,))]
        c = Circuit(3, tuple((op,) for op in ops))
        native = decompose_to_basis(c)
        assert all(op.kind in NATIVE_KINDS for op in native.ops())
        assert_same_unitary(c, native)

    def test_native_input_preserved(self):
        rng = np.random.default_rng(0)
        c = random_native_circuit(rng, 3, 15)
        assert_same_unitary(c, decompose_to_basis(c))

    def test_1q_runs_merge(self):
        # five H's on one qubit collapse to a single canonical H sequence
        c = Circuit(1, tuple((GateOp("H", (), (0,)),) for _ in range(5)))
        native = decompose_to_basis(c)
        assert sum(1 for op in native.ops() if op.kind == "SX") <= 2
        assert_same_unitary(c, native)

    def test_trivial_phase_elided(self):
        # RZ(theta) RZ(-theta) cancels to nothing
        c = Circuit(1, ((GateOp("RZ", (0.4,), (0,)),),
                        (GateOp("RZ", (-0.4,), (0,)),)))
        assert len(decompose_to_basis(c).layers) == 0


class TestRoute:
    def test_no_swaps_when_on_edges(self):
        cp = CouplingGraph.line(3)
        c = Circuit(3, ((GateOp("CZ", (), (0, 1)),), (GateOp("CZ", (), (1, 2)),)))
        routed = route(c, cp)
        assert all(op.kind != "SWAP" for op in routed.ops())
        assert routed.meta["permutation"] == (0, 1, 2)

    def test_swap_inserted_on_path(self):
        cp = CouplingGraph.line(3)
        c = Circuit(3, ((GateOp("CZ", (), (0, 2)),),))
        routed = route(c, cp)
        n_swaps = sum(1 for op in routed.ops() if op.kind == "SWAP")
        assert n_swaps >= 1
        for op in routed.ops():
            if len(op.qubits) == 2:
                assert cp.has_edge(*op.qubits)
        # unitary equals the intended one after undoing the permutation
        w = permutation_matrix(routed.meta["permutation"], routed.n)
        assert equal_up_to_phase(w.conj().T @ unitary_of(routed), unitary_of(c))

    def test_seed_determinism(self):
        rng = np.random.default_rng(3)
        c = random_native_circuit(rng, 5, 30)
        cp = CouplingGraph.line(5)
        a, b = route(c, cp, seed=7), route(c, cp, seed=7)
        assert a.layers == b.layers and a.meta["permutation"] == b.meta["permutation"]

    def test_small_coupling_rejected(self):
        with pytest.raises(ContractError):
            route(Circuit(4, ()), CouplingGraph.line(3))


class TestPrune:
    def test_degree_one_unchanged(self):
        rng = np.random.default_rng(1)
        c = random_native_circuit(rng, 3, 10)
        pruned, dropped = approximate_prune(c, 1.0)
        assert pruned.layers == c.layers and dropped == []

    def test_tiny_cp_dropped(self):
        c = Circuit(2, ((GateOp("CP", (1e-4,), (0, 1)),),))
        pruned, dropped = approximate_prune(c, 0.9999)
        assert len(pruned.layers) == 0 and len(dropped) == 1
        assert dropped[0][1] > 0.9999

    def test_x_never_dropped(self):
        c = Circuit(1, ((GateOp("X", (), (0,)),),))
        pruned, dropped = approximate_prune(c, 0.26)
        assert len(dropped) == 0 and pruned.layers == c.layers

    def test_identity_fidelity_values(self):
        assert identity_fidelity(GateOp("X", (), (0,))) == pytest.approx(0.0, abs=1e-12)
        assert identity_fidelity(GateOp("RZ", (0.0,), (0,))) == pytest.approx(1.0)
        f = identity_fidelity(GateOp("CP", (0.1,), (0, 1)))
        assert f == pytest.approx(abs(3 + np.exp(1j * 0.1)) ** 2 / 16)

    def test_bad_degree(self):
        with pytest.raises(ContractError):
            approximate_prune(Circuit(1, ()), 0.0)


class TestTranspile:
    def test_qft4_exact_all_to_all(self):
        c = qft_circuit(4)
        out = transpile(c, TranspileConfig(CouplingGraph.all_to_all(4), 1.0, 0))
        assert all(op.kind in NATIVE_KINDS for op in out.ops())
        assert out.meta["intrinsic_fidelity_budget"] == 1.0
        assert out.meta["dropped_gates"] == 0
        assert out.id == c.id + ".native"
        w = permutation_matrix(out.meta["permutation"], out.n)
        assert equal_up_to_phase(w.conj().T @ unitary_of(out), unitary_of(c))

    def test_line_routed_gates_on_edges(self):
        cp = CouplingGraph.line(5)
        out = transpile(qft_circuit(5), TranspileConfig(cp, 1.0, 2))
        for op in out.ops():
            assert op.kind in NATIVE_KINDS
            if len(op.qubits) == 2:
                assert cp.has_edge(*op.qubits)
        w = permutation_matrix(out.meta["permutation"], out.n)
        assert equal_up_to_phase(w.conj().T @ unitary_of(out),
                                 unitary_of(qft_circuit(5)))

    def test_approximate_mode_equals_input_with_drops_as_identity(self):
        c = qft_circuit(8)
        cfg = TranspileConfig(CouplingGraph.all_to_all(8), 0.999, 0)
        out = transpile(c, cfg)
        assert out.meta["dropped_gates"] >= 1
        assert out.meta["intrinsic_fidelity_budget"] < 1.0
        pruned, _ = approximate_prune(c, 0.999)
        w = permutation_matrix(out.meta["permutation"], out.n)
        assert equal_up_to_phase(w.conj().T @ unitary_of(out), unitary_of(pruned))

    def test_config_digest_sensitivity(self):
        cp = CouplingGraph.line(3)
        a = TranspileConfig(cp, 1.0, 0).digest()
        b = TranspileConfig(cp, 0.999, 0).digest()
        c = TranspileConfig(cp, 1.0, 1).digest()
        assert len({a, b, c}) == 3
        # Manifests record this digest, so its payload may not change.
        assert a == "0d6abf88a485305f"


class TestGoldenOutputs:
    """Compiled and routed circuits, pinned byte for byte (gates, SWAP choices
    and metadata), so that a change to the router or the decomposition that
    moves any seeded output shows."""

    @pytest.mark.parametrize("c, coupling, degree, seed, expected", [
        (qft_circuit(5), CouplingGraph.line(5), 1.0, 2, "ae679af4827a5438"),
        (qaoa_circuit(6, 0), ring(6), 1.0, 0, "9b26d83ebcf09d58"),
        (qft_circuit(5), star(5), 1.0, 1, "a7c55fddb7087bd4"),
        (qft_circuit(6), ring(6), 0.999, 3, "16774bef8240f8d9"),
    ], ids=["qft5-line", "qaoa6-ring", "qft5-star", "qft6-ring-approx"])
    def test_transpile(self, c, coupling, degree, seed, expected):
        assert digest(transpile(c, TranspileConfig(coupling, degree, seed))) == expected

    @pytest.mark.parametrize("coupling, expected", [
        (CouplingGraph.line(5), "5739e84288bef7ad"),
        (ring(5), "43206f5cf6fd55f5"),
    ])
    def test_route_random_native(self, coupling, expected):
        c = random_native_circuit(np.random.default_rng(3), 5, 30)
        assert digest(route(c, coupling, seed=7)) == expected
