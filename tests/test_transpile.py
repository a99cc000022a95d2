import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench.algos import qaoa_circuit, qft_circuit
from mirrorbench.circuits import (
    Circuit,
    ContractError,
    CouplingGraph,
    GATE_ARITY,
    GateOp,
    KINDS,
    NATIVE_KINDS,
    ONE_QUBIT_KINDS,
    equal_up_to_phase,
    gate_matrix,
    layerize,
    permutation_matrix,
)
from mirrorbench.sim import process_fidelity_unitaries, unitary_of
from mirrorbench.transpile import (
    TranspileConfig,
    approximate_prune,
    decompose_to_basis,
    identity_fidelity,
    route,
    transpile,
)

from tests.test_circuits import circuit_digest as digest, random_native_circuit


def assert_same_unitary(a: Circuit, b: Circuit, tol=1e-9):
    assert equal_up_to_phase(unitary_of(a), unitary_of(b), tol)


def ring(n: int) -> CouplingGraph:
    return CouplingGraph(n, frozenset((i, (i + 1) % n) for i in range(n)))


def star(n: int) -> CouplingGraph:
    return CouplingGraph(n, frozenset((0, i) for i in range(1, n)))


ANGLE = st.floats(-2 * math.pi, 2 * math.pi)
PARAMS = {"RZ": (ANGLE,), "CP": (ANGLE,), "U3": (ANGLE,) * 3,
          "C1Q": (st.integers(0, 23).map(float),)}


@st.composite
def gate_ops(draw, n: int) -> GateOp:
    """One gate of any of the ten kinds on an n-qubit register."""
    kind = draw(st.sampled_from(KINDS if n > 1 else sorted(ONE_QUBIT_KINDS)))
    qubits = tuple(draw(st.permutations(range(n)))[:GATE_ARITY[kind]])
    return GateOp(kind, tuple(draw(p) for p in PARAMS.get(kind, ())), qubits)


@st.composite
def couplings(draw, n: int) -> CouplingGraph:
    """A connected line, ring, star or random tree on n to n + 2 wires."""
    w = draw(st.integers(n, n + 2))
    shape = draw(st.sampled_from(["line", "ring", "star", "tree"]))
    if shape == "ring" and w > 2:
        return ring(w)
    if shape == "star":
        return star(w)
    if shape == "tree":
        return CouplingGraph(w, frozenset((draw(st.integers(0, i - 1)), i)
                                          for i in range(1, w)))
    return CouplingGraph.line(w)


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

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 5).flatmap(lambda n: st.tuples(
        st.lists(gate_ops(n), max_size=16).map(lambda ops: layerize(n, ops)),
        couplings(n))), st.integers(0, 2 ** 31 - 1))
    def test_any_gate_mix_compiles_onto_any_coupling(self, circuit_and_coupling, seed):
        # Non-native gates are routed as they are, before the one decomposition.
        c, coupling = circuit_and_coupling
        out = transpile(c, TranspileConfig(coupling, 1.0, seed))
        assert all(op.kind in NATIVE_KINDS for op in out.ops())
        assert all(coupling.has_edge(*op.qubits) for op in out.ops() if op.kind == "CZ")
        u_in = np.kron(unitary_of(c), np.eye(1 << (coupling.n - c.n)))
        w = permutation_matrix(out.meta["permutation"], out.n)
        assert process_fidelity_unitaries(u_in, w.conj().T @ unitary_of(out)) >= 1 - 1e-9

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
        (qft_circuit(5), CouplingGraph.line(5), 1.0, 2, "bcd0c7ff3d4a49db"),
        (qaoa_circuit(6, 0), ring(6), 1.0, 0, "7d6304e5444df4c8"),
        (qft_circuit(5), star(5), 1.0, 1, "d246287399f9b029"),
        (qft_circuit(6), ring(6), 0.999, 3, "66637e09e5cac39f"),
    ], ids=["qft5-line", "qaoa6-ring", "qft5-star", "qft6-ring-approx"])
    def test_transpile(self, c, coupling, degree, seed, expected):
        assert digest(transpile(c, TranspileConfig(coupling, degree, seed))) == expected

    @pytest.mark.parametrize("coupling, expected", [
        (CouplingGraph.line(5), "4a0a5ea03812d4de"),
        (ring(5), "458f4ee5ea0d3f2a"),
    ])
    def test_route_random_native(self, coupling, expected):
        c = random_native_circuit(np.random.default_rng(3), 5, 30)
        assert digest(route(c, coupling, seed=7)) == expected
