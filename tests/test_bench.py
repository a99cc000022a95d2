import numpy as np
import pytest

from mirrorbench.algos import brickwork_u3_cz, qft_circuit
from mirrorbench.bench import (
    ShapeSpec,
    build_full_stack,
    build_low_level,
    build_subcircuit,
    snip,
)
from mirrorbench.circuits import Circuit, ContractError, CouplingGraph, GateOp
from mirrorbench.mirror import SamplingParams
from mirrorbench.transpile import TranspileConfig

from tests.test_circuits import circuit_digest, random_native_circuit

PARAMS = SamplingParams(10, 10, 10, seed=0)


def drain(suite):
    return list(suite.circuits)


class TestLowLevel:
    def test_one_circuit_thirty_proxies(self):
        rng = np.random.default_rng(0)
        c = random_native_circuit(rng, 3, 10).with_id("c0")
        suite = build_low_level([c], PARAMS)
        circuits = drain(suite)
        assert len(circuits) == 1 + 30
        m = suite.manifest
        m.validate()
        assert m.benchmark_type == "low_level"
        assert len(m.mirror_records()) == 30
        assert len([r for r in m.mirror_records() if r["kind"] == "M1"]) == 10

    def test_three_circuits_ninety_proxies(self):
        rng = np.random.default_rng(1)
        cs = [random_native_circuit(rng, 3, 8).with_id(f"c{i}") for i in range(3)]
        suite = build_low_level(cs, PARAMS)
        assert len(drain(suite)) == 3 + 90
        suite.manifest.validate()

    def test_u3_brickwork_accepted(self):
        suite = build_low_level([brickwork_u3_cz(4, 6, 0)], PARAMS)
        drain(suite)
        suite.manifest.validate()

    def test_non_native_directed_to_full_stack(self):
        with pytest.raises(ContractError) as e:
            build_low_level([qft_circuit(3)], PARAMS)
        assert "full-stack" in str(e.value)

    def test_deterministic(self):
        rng = np.random.default_rng(2)
        c = random_native_circuit(rng, 3, 8).with_id("c")
        a = drain(build_low_level([c], PARAMS))
        b = drain(build_low_level([c], PARAMS))
        assert [x.layers for x in a] == [y.layers for y in b]
        assert [x.id for x in a] == [y.id for y in b]


class TestFullStack:
    def test_reps_give_that_many_benchmarks(self):
        cfg = TranspileConfig(CouplingGraph.line(4), 1.0, 0)
        suite = build_full_stack([qft_circuit(4)], cfg, 10,
                                 SamplingParams(2, 2, 2, seed=1))
        circuits = drain(suite)
        assert len(circuits) == 10 + 10 * 6
        recs = [r for r in suite.manifest.records if r["kind"] == "benchmark"]
        assert len(recs) == 10
        assert {r["rep"] for r in recs} == set(range(10))
        assert all(r["source_id"] == "qft4" for r in recs)
        suite.manifest.validate()

    def test_exact_compilation_intrinsic_one(self):
        cfg = TranspileConfig(CouplingGraph.all_to_all(4), 1.0, 0)
        suite = build_full_stack([qft_circuit(4)], cfg, 2,
                                 SamplingParams(1, 1, 1, seed=0))
        drain(suite)
        for r in suite.manifest.records:
            if r["kind"] == "benchmark":
                assert r["intrinsic_fidelity"] == pytest.approx(1.0, abs=1e-9)

    def test_approximate_intrinsic_below_one(self):
        cfg = TranspileConfig(CouplingGraph.all_to_all(8), 0.999, 0)
        suite = build_full_stack([qft_circuit(8)], cfg, 1,
                                 SamplingParams(1, 1, 1, seed=0))
        drain(suite)
        rec = next(r for r in suite.manifest.records if r["kind"] == "benchmark")
        assert 0.99 <= rec["intrinsic_fidelity"] < 1.0

    def test_stochastic_reps_vary_on_line(self):
        cfg = TranspileConfig(CouplingGraph.line(5), 1.0, 0)
        suite = build_full_stack([qft_circuit(5)], cfg, 6,
                                 SamplingParams(1, 1, 1, seed=3))
        circuits = drain(suite)
        depths = {len(c.layers) for c in circuits[:6]}
        digests = {r["transpile_config_digest"]
                   for r in suite.manifest.records if r["kind"] == "benchmark"}
        assert len(digests) == 6
        assert len(depths) >= 2

    def test_bad_reps(self):
        cfg = TranspileConfig(CouplingGraph.line(3), 1.0, 0)
        with pytest.raises(ContractError):
            build_full_stack([qft_circuit(3)], cfg, 0, PARAMS)


class TestSnip:
    def test_full_shape_is_identity(self):
        rng = np.random.default_rng(0)
        c = random_native_circuit(rng, 4, 12).with_id("p")
        s = snip(c, 4, len(c.layers), np.random.default_rng(1))
        assert s.layers == c.layers
        assert s.meta["snip"]["parent_id"] == "p"
        assert s.meta["snip"]["dropped_2q"] == 0

    def test_straddling_cz_dropped(self):
        c = Circuit(2, ((GateOp("CZ", (), (0, 1)),),), "p")
        s = snip(c, 1, 1, np.random.default_rng(0))
        assert s.n == 1 and s.layers == ((),)
        assert s.meta["snip"]["dropped_2q"] == 1

    def test_shape_always_exact(self):
        c = brickwork_u3_cz(8, 128, 0)
        for k in range(30):
            s = snip(c, 2, 4, np.random.default_rng(k))
            assert s.n == 2 and len(s.layers) == 4
            assert all(q in (0, 1) for op in s.ops() for q in op.qubits)

    def test_shape_too_big(self):
        c = brickwork_u3_cz(4, 6, 0)
        with pytest.raises(ContractError):
            snip(c, 5, 2, np.random.default_rng(0))
        with pytest.raises(ContractError):
            snip(c, 2, 7, np.random.default_rng(0))

    def test_golden_snips(self):
        # Pinned byte for byte: the window and subset draws, the connected
        # growth and the fallback (the last three shapes) must not move.
        c = brickwork_u3_cz(12, 10, 0)
        shapes = [(2, 3), (4, 5), (7, 10), (11, 2), (5, 1), (12, 1), (3, 2)]
        got = [circuit_digest(snip(c, w, d, np.random.default_rng(k)))
               for k, (w, d) in enumerate(shapes)]
        assert got == ["6e99453f893bc510", "79f998563d2ca84e", "296ba822020a6be2",
                       "deb66a08448d8014", "0d1d969d221276e2", "ad18134fc4bdd194",
                       "94d782917306121a"]


class TestSubcircuitSuite:
    def test_counts_and_shapes(self):
        c = brickwork_u3_cz(8, 64, 1)
        shapes = ShapeSpec(((2, 4), (3, 8)), samples_per_shape=5)
        suite = build_subcircuit([c], shapes, SamplingParams(2, 2, 2, seed=0))
        circuits = drain(suite)
        assert len(circuits) == 10 + 10 * 6
        recs = [r for r in suite.manifest.records if r["kind"] == "benchmark"]
        assert sorted(tuple(r["shape"]) for r in recs) == \
            [(2, 4)] * 5 + [(3, 8)] * 5
        suite.manifest.validate()

    def test_deterministic(self):
        c = brickwork_u3_cz(6, 32, 2)
        shapes = ShapeSpec(((2, 4),), samples_per_shape=3)
        a = drain(build_subcircuit([c], shapes, SamplingParams(1, 1, 1, seed=5)))
        b = drain(build_subcircuit([c], shapes, SamplingParams(1, 1, 1, seed=5)))
        assert [x.layers for x in a] == [y.layers for y in b]

    def test_shape_spec_validation(self):
        with pytest.raises(ContractError):
            ShapeSpec(((0, 4),))
        with pytest.raises(ContractError):
            ShapeSpec(((2, 4),), samples_per_shape=0)

    def test_non_native_rejected(self):
        shapes = ShapeSpec(((2, 2),))
        with pytest.raises(ContractError):
            build_subcircuit([qft_circuit(3)], shapes, PARAMS)
