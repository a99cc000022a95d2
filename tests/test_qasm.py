import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mirrorbench.circuits import Circuit, GateOp, layerize
from mirrorbench.qasm import QasmError, UnsupportedGateError, parse_qasm, serialize_qasm

from tests.test_circuits import random_native_circuit


def structurally_equal(a: Circuit, b: Circuit, tol=1e-12) -> bool:
    if a.n != b.n or len(a.layers) != len(b.layers):
        return False
    for la, lb in zip(a.layers, b.layers):
        if len(la) != len(lb):
            return False
        for x, y in zip(sorted(la, key=lambda o: o.qubits),
                        sorted(lb, key=lambda o: o.qubits)):
            if x.kind != y.kind or x.qubits != y.qubits:
                return False
            if any(abs(p - q) > tol for p, q in zip(x.params, y.params)):
                return False
    return True


class TestParse:
    def test_single_x(self):
        c = parse_qasm("OPENQASM 2.0;\nqreg q[1];\nx q[0];\n")
        assert c.n == 1 and len(c.layers) == 1
        assert c.layers[0][0].kind == "X"

    def test_dependency_layering(self):
        c = parse_qasm("qreg q[2]; h q[0]; cz q[0],q[1];")
        assert len(c.layers) == 2

    def test_unsupported_gate(self):
        with pytest.raises(UnsupportedGateError) as e:
            parse_qasm("qreg q[3];\nccx q[0],q[1],q[2];")
        assert "ccx" in str(e.value)
        assert e.value.line == 2

    def test_syntax_error_has_position(self):
        with pytest.raises(QasmError) as e:
            parse_qasm("qreg q[2];\ncx q[0] q[1];")
        assert e.value.line == 2 and e.value.col > 0

    def test_mid_circuit_measure_rejected(self):
        src = "qreg q[1]; creg c[1]; measure q -> c; x q[0];"
        with pytest.raises(QasmError) as e:
            parse_qasm(src)
        assert "measure" in str(e.value)

    def test_qubit_out_of_range(self):
        with pytest.raises(QasmError):
            parse_qasm("qreg q[2]; x q[5];")

    def test_angle_expressions(self):
        c = parse_qasm("qreg q[1]; rz(pi/2) q[0]; rz(-pi) q[0]; rz(3*pi/4) q[0];")
        angles = [op.params[0] for op in c.ops()]
        assert angles == pytest.approx([math.pi / 2, -math.pi, 3 * math.pi / 4])

    def test_u_and_cu1_aliases(self):
        c = parse_qasm("qreg q[2]; u(0.1,0.2,0.3) q[0]; cu1(0.4) q[0],q[1];")
        kinds = [op.kind for op in c.ops()]
        assert kinds == ["U3", "CP"]

    def test_barrier_splits_layers(self):
        c = parse_qasm("qreg q[2]; x q[0]; barrier q; x q[1];")
        assert len(c.layers) == 2

    def test_measure_all_recorded(self):
        c = parse_qasm("qreg q[1]; creg m[1]; x q[0]; measure q -> m;")
        assert c.meta["measure_all"] is True

    def test_no_qreg(self):
        with pytest.raises(QasmError):
            parse_qasm("x q[0];")

    def test_partial_measure_is_not_measure_all(self):
        c = parse_qasm("qreg q[2]; creg c[2]; x q[0]; measure q[0] -> c[0];")
        assert c.meta["measure_all"] is False
        assert "measure" not in serialize_qasm(c)

    def test_measures_of_every_qubit_are_measure_all(self):
        c = parse_qasm("qreg q[2]; creg c[2]; x q[0]; "
                       "measure q[1] -> c[0]; measure q[0] -> c[1];")
        assert c.meta["measure_all"] is True


# name -> (program, line, col, part of the message) of a QasmError
MALFORMED = {
    "fractional-qreg-size": ("qreg q[2.5];", 1, 8, "expected integer index"),
    "named-qreg-size": ("qreg q[n];", 1, 8, "expected integer index"),
    "barrier-on-unknown-register": ("qreg q[2];\nbarrier foo;", 2, 9,
                                    "unknown quantum register 'foo'"),
    "named-creg-size": ("qreg q[2];\ncreg c[x];", 2, 8, "expected integer index"),
    "overflowing-angle": ("qreg q[1];\nx q[0];\nrz(1e400) q[0];", 3, 1,
                          "non-finite parameter: RZ on qubits [0] with params [inf]"),
    "creg-reuses-qreg-name": ("qreg q[2];\ncreg q[2];", 2, 6, "already declared"),
    "wrong-arity": ("qreg q[2];\ncx q[0];", 2, 1, "wrong number of qubits"),
    "wrong-param-count": ("qreg q[1];\nrz(1, 2) q[0];", 2, 1, "wrong number of params"),
    "missing-params": ("qreg q[1];\n  u3 q[0];", 2, 3, "wrong number of params"),
    "repeated-qubit": ("qreg q[2];\ncz q[1], q[1];", 2, 1, "duplicate qubits"),
    "qubit-out-of-range": ("qreg q[2];\nh q[0];\nx q[5];", 3, 1,
                           "qubit out of range for n=2: X on qubits [5] with params []"),
    "barrier-index-out-of-range": ("qreg q[2];\nbarrier q[0], q[2];", 2, 15,
                                   "index 2 out of range"),
    "whole-register-gate-argument": ("qreg q[2];\ncz q[0], q;", 2, 10, "whole register"),
    "empty-qreg": ("OPENQASM 2.0;\nqreg q[0];", 2, 6, "circuit width 0"),
    "huge-qreg": ("qreg q[99999999999999999999];\nx q[0];", 1, 6, "circuit width"),
    "measure-size-mismatch": ("qreg q[2];\ncreg c[1];\nmeasure q -> c;", 3, 1,
                              "2 qubit(s) into 1 bit(s)"),
    "unknown-creg": ("qreg q[1];\nmeasure q[0] -> m[0];", 2, 17,
                     "unknown classical register 'm'"),
    "division-by-zero": ("qreg q[1];\nrz(pi/0) q[0];", 2, 6, "division by zero"),
    "deep-unary-minus": ("qreg q[1];\nrz(" + "-" * 3000 + "1) q[0];", 2, 1, "nested too deeply"),
    "deep-parentheses": ("qreg q[1];\nrz(" + "(" * 400 + "1" + ")" * 400 + ") q[0];", 2, 1,
                         "nested too deeply"),
}


@pytest.mark.parametrize("name", MALFORMED)
def test_malformed_program_error_position(name):
    src, line, col, message = MALFORMED[name]
    with pytest.raises(QasmError) as e:
        parse_qasm(src)
    assert type(e.value) is QasmError
    assert (e.value.line, e.value.col) == (line, col)
    assert message in str(e.value)


def test_unsupported_gate_error_position():
    with pytest.raises(UnsupportedGateError) as e:
        parse_qasm("qreg q[3];\nh q[0];\n ccx q[0], q[1], q[2];")
    assert (e.value.line, e.value.col) == (3, 2)


VALID_PROGRAM = (
    'OPENQASM 2.0; include "qelib1.inc"; qreg q[3]; creg c[3]; '
    "h q[0]; cx q[0], q[1]; rz(-pi/4) q[2]; u3(0.1, 0.2*pi, 3) q[1]; barrier q; "
    "cp(pi/2) q[1], q[2]; barrier q[0], q[2]; measure q[0] -> c[0]; measure q -> c;")
VALID_TOKENS = re.findall(r'"[^"]*"|->|\d+\.\d*|\w+|\S', VALID_PROGRAM)
SPARE_TOKENS = sorted(set(VALID_TOKENS) | {
    "1e400", "2.5", "0", "7", "foo", "-", "/", "pi", "x", "ccx", "measure", "qreg", "creg"})


@given(st.sampled_from(["delete", "duplicate", "replace"]),
       st.integers(0, len(VALID_TOKENS) - 1), st.sampled_from(SPARE_TOKENS))
@settings(max_examples=400, deadline=None)
def test_one_token_edit_raises_only_qasm_errors(edit, i, spare):
    tokens = list(VALID_TOKENS)
    tokens[i:i + 1] = {"delete": [], "duplicate": [tokens[i]] * 2, "replace": [spare]}[edit]
    try:
        parse_qasm(" ".join(tokens))
    except QasmError:
        pass


def test_valid_program_parses():
    c = parse_qasm(VALID_PROGRAM)
    assert (c.n, c.depth, c.meta) == (3, 4, {"measure_all": True})


class TestSerialize:
    def test_empty_circuit_header_only(self):
        text = serialize_qasm(Circuit(2, ()))
        assert text == 'OPENQASM 2.0;\ninclude "qelib1.inc";\nqreg q[2];\n'

    def test_qft4_round_trip(self):
        from mirrorbench.algos import qft_circuit
        c = qft_circuit(4)
        assert structurally_equal(c, parse_qasm(serialize_qasm(c)))

    def test_c1q_round_trips_as_u3(self):
        c = Circuit(1, ((GateOp("C1Q", (7.0,), (0,)),),))
        rt = parse_qasm(serialize_qasm(c))
        assert rt.layers[0][0].kind == "U3"
        from mirrorbench.circuits import equal_up_to_phase, gate_matrix
        assert equal_up_to_phase(rt.layers[0][0].matrix(),
                                 gate_matrix("C1Q", (7.0,)))

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_random_native(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        c = random_native_circuit(rng, n, int(rng.integers(0, 30)))
        assert structurally_equal(c, parse_qasm(serialize_qasm(c)))
