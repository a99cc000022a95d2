import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench.algos import brickwork_u3_cz, qft_circuit
from mirrorbench.circuits import GATE_ARITY, GATE_NPARAMS, KINDS, Circuit, ContractError, GateOp
from mirrorbench.sim import ShotTable
from mirrorbench.storage import (
    Manifest,
    SchemaError,
    circuit_from_json,
    circuit_to_json,
    read_circuits,
    read_manifest,
    read_shot_tables,
    write_circuits,
    write_manifest,
    write_shot_tables,
)

from tests.test_circuits import random_native_circuit

SAMPLING = {"m1": 10, "m2": 10, "m3": 10, "shots": 1000, "seed": 0}


def reference_circuit_to_json(c):
    """The dict + json.dumps encoder that circuit_to_json must match byte for byte."""
    obj = {"id": c.id, "n": c.n,
           "layers": [[{"kind": op.kind, "params": [float(v) for v in op.params],
                        "qubits": list(op.qubits)} for op in layer]
                      for layer in c.layers]}
    if c.meta:
        obj["meta"] = c.meta
    return json.dumps(obj, separators=(",", ":"))


ANGLES = st.one_of(
    st.sampled_from([-0.0, 0.0, 5.0, -3.0, 1e-300, -2.5e-308, 5e-324, 1e300,
                     -1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def circuits(draw):
    """Random circuits over all gate kinds, with or without an id and meta."""
    n = draw(st.integers(1, 6))
    layers = []
    for _ in range(draw(st.integers(0, 4))):
        free, layer = draw(st.permutations(range(n))), []
        while free and draw(st.integers(0, 4)):
            kind = draw(st.sampled_from([k for k in KINDS if GATE_ARITY[k] <= len(free)]))
            params = ((float(draw(st.integers(0, 23))),) if kind == "C1Q" else
                      tuple(draw(ANGLES) for _ in range(GATE_NPARAMS[kind])))
            qubits = tuple(free.pop() for _ in range(GATE_ARITY[kind]))
            layer.append(GateOp(kind, params, qubits))
        layers.append(layer)
    meta = draw(st.sampled_from([{}, {"target": "0110"},
                                 {"snip": {"qubits": [0, 2], "dropped_2q": 1, "x": -0.0}}]))
    return Circuit(n, layers, draw(st.none() | st.text(max_size=6)), meta)


def gate(kind, qubits, params=()):
    return {"kind": kind, "params": list(params), "qubits": list(qubits)}


# name -> (layers of an n=2 circuit with one bad gate, that gate's (layer, position),
# the message after its JSON path). Each is rejected at the same gate when read
# from JSON and when given to Circuit as GateOps.
BAD_GATES = {
    "unknown-kind": ([[gate("X", [0])], [gate("FOO", [1])]], (1, 0),
                     "unknown gate kind: FOO on qubits [1] with params []"),
    "wrong-arity": ([[gate("CZ", [0])]], (0, 0),
                    "wrong number of qubits: CZ on qubits [0] with params []"),
    "duplicate-qubit": ([[gate("X", [0])], [gate("CX", [1, 1])]], (1, 0),
                        "duplicate qubits: CX on qubits [1, 1] with params []"),
    "param-count": ([[gate("RZ", [0])]], (0, 0),
                    "wrong number of params: RZ on qubits [0] with params []"),
    "nan-param": ([[gate("X", [0]), gate("RZ", [1], [float("nan")])]], (0, 1),
                  "non-finite parameter: RZ on qubits [1] with params [nan]"),
    "c1q-index-24": ([[gate("C1Q", [0], [24.0])]], (0, 0),
                     "C1Q index must be an integer in 0..23: "
                     "C1Q on qubits [0] with params [24.0]"),
    "c1q-index-1.5": ([[], [gate("X", [1]), gate("C1Q", [0], [1.5])]], (1, 1),
                      "C1Q index must be an integer in 0..23: "
                      "C1Q on qubits [0] with params [1.5]"),
    "out-of-range-qubit": ([[gate("CZ", [0, 5])]], (0, 0),
                           "qubit out of range for n=2: CZ on qubits [0, 5] with params []"),
    "layer-collision": ([[gate("X", [1])], [gate("X", [0]), gate("SX", [0])]], (1, 1),
                        "qubit appears twice in one layer: SX on qubits [0] with params []"),
    # Records that truncating or coercing would turn into valid gates.
    "cz-three-qubits": ([[gate("CZ", [0, 1, 2])]], (0, 0),
                        "wrong number of qubits: CZ on qubits [0, 1, 2] with params []"),
    "u3-four-params": ([[gate("X", [1]), gate("U3", [0], [0.1, 0.2, 0.3, 0.4])]], (0, 1),
                       "wrong number of params: "
                       "U3 on qubits [0] with params [0.1, 0.2, 0.3, 0.4]"),
    "rz-extra-zero": ([[gate("RZ", [0], [0.5, 0.0])]], (0, 0),
                      "wrong number of params: RZ on qubits [0] with params [0.5, 0.0]"),
    "half-qubit": ([[gate("X", [0.5])]], (0, 0),
                   "qubits must be integers: X on qubits [0.5] with params []"),
    "fractional-qubit": ([[gate("X", [0])], [gate("SX", [0]), gate("X", [1.7])]], (1, 1),
                         "qubits must be integers: X on qubits [1.7] with params []"),
    "bool-qubit": ([[gate("X", [True])]], (0, 0),
                   "qubits must be integers: X on qubits [True] with params []"),
    "bool-param": ([[gate("RZ", [0], [True])]], (0, 0),
                   "params must be real numbers: RZ on qubits [0] with params [True]"),
    "string-param": ([[gate("RZ", [0], ["1"])]], (0, 0),
                     "params must be real numbers: RZ on qubits [0] with params ['1']"),
    # Ints too large to store.
    "huge-qubit": ([[gate("X", [0]), gate("X", [10 ** 30])]], (0, 1),
                   "qubit out of range for n=2: X on qubits [-2] with params []"),
    "huge-param": ([[gate("RZ", [0], [10 ** 400])]], (0, 0),
                   "non-finite parameter: RZ on qubits [0] with params [inf]"),
}


class TestCircuitJsonl:
    def test_round_trip(self):
        cs = [qft_circuit(3), brickwork_u3_cz(4, 5, 1)]
        buf = io.StringIO()
        assert write_circuits(buf, cs) == 2
        buf.seek(0)
        back = list(read_circuits(buf))
        for a, b in zip(cs, back):
            assert a.id == b.id and a.n == b.n and a.layers == b.layers

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_angles_bit_faithful(self, seed):
        rng = np.random.default_rng(seed)
        c = random_native_circuit(rng, 4, 20)
        back = circuit_from_json(circuit_to_json(c))
        assert back.layers == c.layers  # exact float equality

    @given(circuits())
    @settings(max_examples=200, deadline=None)
    def test_writer_matches_reference_encoder(self, c):
        assert circuit_to_json(c) == reference_circuit_to_json(c)
        assert circuit_from_json(circuit_to_json(c)) == c

    @pytest.mark.parametrize("layers, at, message", BAD_GATES.values(), ids=BAD_GATES.keys())
    def test_error_carries_json_path(self, layers, at, message):
        line = json.dumps({"id": "x", "n": 2, "layers": layers})
        with pytest.raises(SchemaError) as e:
            circuit_from_json(line, path="$[3]")
        assert e.value.path == "$[3].layers[{}][{}]".format(*at)
        assert str(e.value) == f"{e.value.path}: {message}"

    @pytest.mark.parametrize("layers, at", [
        ([[gate("X", [0]), {"kind": "X", "params": []}]], (0, 1)),
        ([[], [gate("X", [0]), 3]], (1, 1)),
        ([[{"kind": "X", "params": [], "qubits": 0}]], (0, 0)),
    ], ids=["missing-key", "not-an-object", "qubits-not-a-list"])
    def test_gate_that_is_no_record_carries_json_path(self, layers, at):
        line = json.dumps({"id": "x", "n": 2, "layers": layers})
        with pytest.raises(SchemaError) as e:
            circuit_from_json(line)
        assert e.value.path == "$.layers[{}][{}]".format(*at)

    @pytest.mark.parametrize("layers, at, message", BAD_GATES.values(), ids=BAD_GATES.keys())
    def test_gate_op_layers_fail_at_same_gate(self, layers, at, message):
        ops = [[GateOp(g["kind"], tuple(g["params"]), tuple(g["qubits"])) for g in layer]
               for layer in layers]
        with pytest.raises(ContractError) as e:
            Circuit(2, ops)
        assert e.value.at == at

    def test_invalid_json(self):
        with pytest.raises(SchemaError):
            circuit_from_json("{nope")

    def test_missing_key(self):
        with pytest.raises(SchemaError):
            circuit_from_json('{"id": "a", "n": 1}')


class TestShotTables:
    def test_round_trip(self):
        buf = io.StringIO()
        write_shot_tables(buf, [ShotTable("a", {"00": 5, "11": 3}, 2)])
        buf.seek(0)
        t = next(read_shot_tables(buf))
        assert t.circuit_id == "a" and t.counts == {"00": 5, "11": 3}

    def test_bad_record(self):
        buf = io.StringIO('{"circuit_id": "a"}\n')
        with pytest.raises(SchemaError) as e:
            list(read_shot_tables(buf))
        assert "$[0]" in str(e.value)


class TestManifest:
    def test_minimal_m3_round_trip(self, tmp_path):
        m = Manifest("low_level", dict(SAMPLING),
                     [{"id": "b", "kind": "benchmark", "width": 2, "depth": 1},
                      {"id": "b.m3.0", "kind": "M3", "parent_id": "b",
                       "target_bitstring": "01", "width": 2, "depth": 3}])
        path = tmp_path / "manifest.json"
        write_manifest(str(path), m)
        m2 = read_manifest(str(path))
        assert m2.to_dict() == m.to_dict()

    def test_full_suite_round_trip(self, tmp_path):
        records = [{"id": "b", "kind": "benchmark", "width": 3, "depth": 4}]
        for kind in ("M1", "M2", "M3"):
            for i in range(10):
                records.append({"id": f"b.{kind.lower()}.{i}", "kind": kind,
                                "parent_id": "b", "target_bitstring": "010",
                                "width": 3, "depth": 9})
        m = Manifest("low_level", dict(SAMPLING), records)
        path = tmp_path / "m.json"
        write_manifest(str(path), m)
        assert read_manifest(str(path)).to_dict() == m.to_dict()

    def test_unknown_fields_preserved(self, tmp_path):
        m = Manifest("subcircuit", dict(SAMPLING),
                     [{"id": "b", "kind": "benchmark", "custom": [1, 2]}],
                     extra={"note": "hello"})
        path = tmp_path / "m.json"
        write_manifest(str(path), m)
        m2 = read_manifest(str(path))
        assert m2.records[0]["custom"] == [1, 2]
        assert m2.extra["note"] == "hello"

    def test_target_length_mismatch(self):
        with pytest.raises(SchemaError) as e:
            Manifest("low_level", dict(SAMPLING),
                     [{"id": "b", "kind": "benchmark"},
                      {"id": "m", "kind": "M1", "parent_id": "b",
                       "target_bitstring": "0101", "width": 3}])
        assert "target_bitstring" in e.value.path

    def test_duplicate_ids(self):
        with pytest.raises(SchemaError):
            Manifest("low_level", dict(SAMPLING),
                     [{"id": "b", "kind": "benchmark"},
                      {"id": "b", "kind": "benchmark"}])

    def test_orphan_mirror(self):
        with pytest.raises(SchemaError) as e:
            Manifest("low_level", dict(SAMPLING),
                     [{"id": "m", "kind": "M2", "parent_id": "nope",
                       "target_bitstring": "0", "width": 1}])
        assert "parent" in str(e.value)

    def test_bad_benchmark_type(self):
        with pytest.raises(SchemaError) as e:
            Manifest("bogus", dict(SAMPLING), [])
        assert e.value.path == "$.benchmark_type"

    def test_missing_sampling_key(self):
        with pytest.raises(SchemaError) as e:
            Manifest("low_level", {"m1": 1}, [])
        assert "sampling" in e.value.path
