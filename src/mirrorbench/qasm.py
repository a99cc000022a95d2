"""OpenQASM 2.0 subset parser and serializer.

Every statement has the form ``name [(params)] args [-> args] ;``. An
argument is a whole register ``reg`` or its element ``reg[i]``, ``i`` an
integer literal; a parameter is an angle expression of numbers, ``pi``,
``+ - * /`` and parentheses. The statements are ``OPENQASM`` and ``include``
(skipped), one ``qreg``, any ``creg`` under a new name, the gates ``x sx h rz
cz cx swap cp cu1 u3 u U`` on elements of the qreg, ``barrier`` (a layer
boundary) and, after the last gate, ``measure q[i] -> c[j]`` or ``measure q ->
c``. Whole registers are arguments only of ``barrier`` and ``measure``. Gates
meet the rules of ``Circuit``: qubit and parameter counts, distinct qubits in
range, finite angles. Every error is a ``QasmError`` at the line and column of
the offending token, or of the gate's name when a gate breaks a rule.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from mirrorbench.circuits import (
    Circuit,
    ContractError,
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
_HEADERS = {"OPENQASM", "include"}
_STATEMENTS = {"qreg", "creg", "barrier", "measure", *_HEADERS}

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

    def error(self, msg: str, cls=QasmError):
        raise cls(msg, self.line, self.col)


def _tokenize(text: str) -> list[_Token]:
    tokens, line, line_start, pos = [], 1, 0, 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise QasmError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
        if m.lastgroup not in ("ws", "comment"):
            tokens.append(_Token(m.lastgroup, m.group(), line, pos - line_start + 1))
        if "\n" in m.group():
            line += m.group().count("\n")
            line_start = pos + m.group().rfind("\n") + 1
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else None

    def next(self) -> _Token:
        t = self.peek()
        if t is None:
            last = self.toks[-1] if self.toks else _Token("", "", 1, 1)
            raise QasmError("unexpected end of input", last.line, last.col + len(last.text))
        self.pos += 1
        return t

    def accept(self, text: str) -> bool:
        """Consume the next token if it reads ``text``."""
        found = self.peek() is not None and self.peek().text == text
        self.pos += found
        return found

    def expect(self, text: str) -> _Token:
        t = self.next()
        if t.text != text:
            t.error(f"expected {text!r}, found {t.text!r}")
        return t

    def statement(self):
        """``name [(params)] args [-> args] ;`` as (name token, params, args,
        targets), each argument a (register token, index or None) pair; a
        header has no arguments, and an unknown name is unsupported."""
        head, params, args, targets = self.next(), [], [], []
        if head.kind != "name":
            head.error(f"expected statement, found {head.text!r}")
        if head.text in _HEADERS:
            self.next()  # the version or the file name
        elif head.text in _STATEMENTS or head.text.lower() in _GATE_NAMES:
            if self.accept("("):
                try:
                    params = self.list_of(self.parse_expr)
                except RecursionError:
                    head.error("angle expression nested too deeply")
                self.expect(")")
            args = self.list_of(self.arg)
            targets = self.list_of(self.arg) if self.accept("->") else []
        else:
            head.error(f"unsupported gate {head.text!r}", UnsupportedGateError)
        self.expect(";")
        return head, params, args, targets

    def list_of(self, item) -> list:
        """One or more ``item()``s separated by commas."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def arg(self) -> tuple[_Token, int | None]:
        reg = self.next()
        if reg.kind != "name":
            reg.error(f"expected register, found {reg.text!r}")
        if not self.accept("["):
            return reg, None
        t = self.next()
        if t.kind != "num" or not t.text.isdigit():
            t.error(f"expected integer index, found {t.text!r}")
        self.expect("]")
        return reg, int(t.text)

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
            op = self.next()
            rhs = self.parse_factor()
            if op.text == "/" and rhs == 0:
                op.error("division by zero in angle expression")
            val = val / rhs if op.text == "/" else val * rhs
        return val

    def parse_factor(self) -> float:
        t = self.next()
        if t.text in ("+", "-"):
            val = self.parse_factor()
            return -val if t.text == "-" else val
        if t.text == "(":
            val = self.parse_expr()
            self.expect(")")
            return val
        if t.kind == "num":
            return float(t.text)
        if t.kind == "name" and t.text.lower() == "pi":
            return PI
        t.error(f"bad token {t.text!r} in angle expression")


def parse_qasm(text: str) -> Circuit:
    """Parse an OpenQASM 2.0 subset program into a greedily-layered Circuit.

    Barriers force layer boundaries. Terminal measures are recorded in
    ``circuit.meta['measure_all']``; mid-circuit measurement is rejected.
    """
    p = _Parser(text)
    sizes: dict[str, int] = {}  # register name -> size
    qreg = None  # the qreg's name token
    ops: list[GateOp] = []
    where: list[_Token] = []  # the statement name of each op
    barriers: list[int] = []
    measured: set[int] = set()

    def register(reg: _Token, quantum: bool) -> int:
        """The size of the qreg (or of a creg) named by ``reg``."""
        if reg.text not in sizes or (qreg is not None and reg.text == qreg.text) != quantum:
            reg.error(f"unknown {'quantum' if quantum else 'classical'} register {reg.text!r}")
        return sizes[reg.text]

    def elements(arg, quantum: bool) -> range:
        """The indices a barrier or measure argument names."""
        (reg, i), size = arg, register(arg[0], quantum)
        if i is not None and i >= size:
            reg.error(f"index {i} out of range for {reg.text}[{size}]")
        return range(size) if i is None else range(i, i + 1)

    while p.peek() is not None:
        head, params, args, targets = p.statement()
        name = head.text
        if name in _STATEMENTS and params:
            head.error(f"{name} takes no parameters")
        if targets and name != "measure":
            head.error(f"'->' follows only the qubit of a measure, not {name}")
        if name in ("qreg", "creg"):
            reg, size = args[0]
            if len(args) != 1 or size is None:
                head.error(f"{name} declares one register as name[size]")
            if reg.text in sizes:
                reg.error(f"register {reg.text!r} is already declared")
            if name == "qreg":
                if qreg is not None:
                    head.error("only a single quantum register is supported")
                qreg = reg
            sizes[reg.text] = size
        elif name == "barrier":
            for a in args:
                elements(a, True)
            barriers.append(len(ops))
        elif name == "measure":
            if len(args) != 1 or len(targets) != 1:
                head.error("measure takes one qubit argument and one bit argument")
            qubits, bits = elements(args[0], True), elements(targets[0], False)
            if len(qubits) != len(bits):
                head.error(f"measure of {len(qubits)} qubit(s) into {len(bits)} bit(s)")
            measured.update(qubits)
        elif name not in _HEADERS:
            if measured:
                head.error("mid-circuit measurement is not supported "
                           "(gates found after measure)")
            for reg, i in args:
                register(reg, True)
                if i is None:
                    reg.error(f"whole register {reg.text!r} as a gate argument")
            ops.append(GateOp(_GATE_NAMES[name.lower()], tuple(params),
                              tuple(i for _, i in args)))
            where.append(head)

    if qreg is None:
        raise QasmError("no qreg declaration found", 1, 1)
    n = sizes[qreg.text]
    try:
        return layerize(n, ops, barriers=barriers, meta={"measure_all": len(measured) == n})
    except ContractError as e:
        # A width outside the rules names no op; the qreg declared it.
        (where[e.at[0]] if e.at else qreg).error(str(e))


def _op_to_qasm(op: GateOp, reg: str) -> str:
    kind, params = op.kind, op.params
    if kind == "C1Q":
        # OpenQASM 2 has no Clifford-index gate; emit the equivalent u3.
        kind, params = "U3", u3_params_from_matrix(gate_matrix("C1Q", op.params))
    name = _QASM_NAME[kind]
    args = ",".join(f"{reg}[{q}]" for q in op.qubits)
    if params:
        return f"{name}({','.join(repr(float(v)) for v in params)}) {args};"
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
