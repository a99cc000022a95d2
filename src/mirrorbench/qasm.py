"""OpenQASM 2.0 subset parser and serializer.

Supported statements: ``OPENQASM``, ``include``, a single ``qreg``, ``creg``,
the gates ``x sx h rz cz cx swap cp cu1 u3 u U``, ``barrier``, and terminal
``measure``. Every parse error carries the offending line and column.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from mirrorbench.circuits import (
    GATE_ARITY,
    GATE_NPARAMS,
    Circuit,
    GateOp,
    gate_matrix,
    layerize,
    u3_params_from_matrix,
)
from mirrorbench.core import QasmError

__all__ = ["parse_qasm", "serialize_qasm", "QasmError", "UnsupportedGateError"]

PI = 3.141592653589793


class UnsupportedGateError(QasmError):
    pass


# QASM gate name -> kind. A kind's first name is the one the serializer writes.
_GATE_NAMES = {
    "x": "X", "sx": "SX", "h": "H", "rz": "RZ", "cz": "CZ", "cx": "CX",
    "swap": "SWAP", "cp": "CP", "cu1": "CP", "u3": "U3", "u": "U3",
}
_QASM_NAME = {kind: name for name, kind in reversed(_GATE_NAMES.items())}

_TOKEN_RE = re.compile(
    r"(?P<num>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
    r"|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<str>\"[^\"]*\")"
    r"|(?P<arrow>->)"
    r"|(?P<sym>[\[\](){},;+\-*/])"
    r"|(?P<ws>\s+)"
    r"|(?P<comment>//[^\n]*)"
)


@dataclass
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        tok = m.group()
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, tok, line, col))
        nl = tok.count("\n")
        if nl:
            line += nl
            col = len(tok) - tok.rfind("\n")
        else:
            col += len(tok)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def _here(self) -> tuple[int, int]:
        if self.pos < len(self.toks):
            t = self.toks[self.pos]
            return t.line, t.col
        if self.toks:
            t = self.toks[-1]
            return t.line, t.col + len(t.text)
        return 1, 1

    def error(self, msg: str):
        raise QasmError(msg, *self._here())

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            self.error("unexpected end of input")
        self.pos += 1
        return t

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            raise QasmError(f"expected {text!r}, found {t.text!r}", t.line, t.col)
        return t

    # -- angle expressions: + - * / parentheses, numbers, pi --

    def parse_expr(self) -> float:
        val = self.parse_term()
        while self.peek() and self.peek().text in "+-":
            op = self.next().text
            rhs = self.parse_term()
            val = val + rhs if op == "+" else val - rhs
        return val

    def parse_term(self) -> float:
        val = self.parse_factor()
        while self.peek() and self.peek().text in "*/":
            op = self.next().text
            rhs = self.parse_factor()
            if op == "/":
                if rhs == 0:
                    self.error("division by zero in angle expression")
                val = val / rhs
            else:
                val = val * rhs
        return val

    def parse_factor(self) -> float:
        t = self.next()
        if t.text == "-":
            return -self.parse_factor()
        if t.text == "+":
            return self.parse_factor()
        if t.text == "(":
            val = self.parse_expr()
            self.expect(")")
            return val
        if t.kind == "num":
            return float(t.text)
        if t.kind == "name" and t.text.lower() == "pi":
            return PI
        raise QasmError(f"bad token {t.text!r} in angle expression", t.line, t.col)


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 subset program into a greedily-layered Circuit.

    Barriers force layer boundaries. Terminal measures are recorded in
    ``circuit.meta['measure_all']``; mid-circuit measurement is rejected.
    """
    p = _Parser(text)
    qreg_name = None
    n = 0
    creg_name = None
    ops: list[GateOp] = []
    barriers: list[int] = []
    measured = False

    def parse_qubit_arg() -> int:
        t = p.next()
        if t.kind != "name" or t.text != qreg_name:
            raise QasmError(f"expected quantum register {qreg_name!r}, found {t.text!r}",
                            t.line, t.col)
        p.expect("[")
        it = p.next()
        if it.kind != "num" or "." in it.text:
            raise QasmError("expected qubit index", it.line, it.col)
        idx = int(it.text)
        if idx >= n:
            raise QasmError(f"qubit index {idx} out of range for qreg[{n}]", it.line, it.col)
        p.expect("]")
        return idx

    while p.peek() is not None:
        t = p.next()
        if t.kind != "name":
            raise QasmError(f"expected statement, found {t.text!r}", t.line, t.col)
        name = t.text

        if name == "OPENQASM":
            p.next()  # version number (e.g. 2.0)
            p.expect(";")
            continue
        if name == "include":
            p.next()
            p.expect(";")
            continue
        if name == "qreg":
            if qreg_name is not None:
                raise QasmError("only a single quantum register is supported", t.line, t.col)
            nt = p.next()
            qreg_name = nt.text
            p.expect("[")
            n = int(p.next().text)
            p.expect("]")
            p.expect(";")
            if n < 1:
                raise QasmError("qreg must have at least one qubit", t.line, t.col)
            continue
        if name == "creg":
            nt = p.next()
            creg_name = nt.text
            p.expect("[")
            p.next()
            p.expect("]")
            p.expect(";")
            continue
        if qreg_name is None:
            raise QasmError("statement before qreg declaration", t.line, t.col)

        if name == "barrier":
            # accept either the full register or an explicit qubit list
            while True:
                nt = p.peek()
                if nt is not None and nt.text == qreg_name:
                    save = p.pos
                    p.next()
                    if p.peek() is not None and p.peek().text == "[":
                        p.pos = save
                        parse_qubit_arg()
                else:
                    p.next()
                if p.peek() is not None and p.peek().text == ",":
                    p.next()
                    continue
                break
            p.expect(";")
            barriers.append(len(ops))
            continue

        if name == "measure":
            nt = p.peek()
            if nt is not None and nt.text == qreg_name:
                save = p.pos
                p.next()
                if p.peek() is not None and p.peek().text == "[":
                    p.pos = save
                    parse_qubit_arg()
            p.expect("->")
            ct = p.next()
            if creg_name is not None and ct.text != creg_name:
                raise QasmError(f"unknown classical register {ct.text!r}", ct.line, ct.col)
            if p.peek() is not None and p.peek().text == "[":
                p.expect("[")
                p.next()
                p.expect("]")
            p.expect(";")
            measured = True
            continue

        if measured:
            raise QasmError("mid-circuit measurement is not supported "
                            "(gates found after measure)", t.line, t.col)

        key = name.lower()
        if key not in _GATE_NAMES:
            raise UnsupportedGateError(f"unsupported gate {name!r}", t.line, t.col)
        kind = _GATE_NAMES[key]
        nparams, arity = GATE_NPARAMS[kind], GATE_ARITY[kind]

        params: tuple[float, ...] = ()
        if nparams:
            p.expect("(")
            vals = [p.parse_expr()]
            while p.peek() is not None and p.peek().text == ",":
                p.next()
                vals.append(p.parse_expr())
            p.expect(")")
            if len(vals) != nparams:
                raise QasmError(f"{name} expects {nparams} parameter(s), got {len(vals)}",
                                t.line, t.col)
            params = tuple(vals)

        qubits = [parse_qubit_arg()]
        while p.peek() is not None and p.peek().text == ",":
            p.next()
            qubits.append(parse_qubit_arg())
        p.expect(";")
        if len(qubits) != arity:
            raise QasmError(f"{name} expects {arity} qubit(s), got {len(qubits)}",
                            t.line, t.col)
        if arity == 2 and qubits[0] == qubits[1]:
            raise QasmError(f"{name} qubit arguments must be distinct", t.line, t.col)
        ops.append(GateOp(kind, params, tuple(qubits)))

    if qreg_name is None:
        raise QasmError("no qreg declaration found", 1, 1)
    layers = layerize(n, ops, barriers=barriers)
    return Circuit(n, layers, meta={"measure_all": measured})


def _fmt(x: float) -> str:
    return repr(float(x))


def _op_to_qasm(op: GateOp, reg: str) -> str:
    kind, params = op.kind, op.params
    if kind == "C1Q":
        # OpenQASM 2 has no Clifford-index gate; emit the equivalent u3.
        kind, params = "U3", u3_params_from_matrix(gate_matrix("C1Q", op.params))
    name = _QASM_NAME[kind]
    args = ",".join(f"{reg}[{q}]" for q in op.qubits)
    if params:
        return f"{name}({','.join(_fmt(v) for v in params)}) {args};"
    return f"{name} {args};"


def serialize_qasm(c: Circuit) -> str:
    """Serialize a circuit to OpenQASM 2.0.

    A barrier is emitted between layers so that parsing reproduces the layer
    structure exactly. ``C1Q`` gates are emitted as equivalent ``u3`` gates
    (OpenQASM has no name for them), so they round-trip as ``U3``.
    """
    lines = ['OPENQASM 2.0;', 'include "qelib1.inc";', f"qreg q[{c.n}];"]
    if c.meta.get("measure_all"):
        lines.insert(3, f"creg m[{c.n}];")
    for i, layer in enumerate(c.layers):
        if i:
            lines.append("barrier q;")
        for op in layer:
            lines.append(_op_to_qasm(op, "q"))
    if c.meta.get("measure_all"):
        lines.append("measure q -> m;")
    return "\n".join(lines) + "\n"
