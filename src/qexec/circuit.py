"""Circuit intermediate representation and OpenQASM 2.0 subset parser/serializer.

The IR is the single exchange format between users, policies, and backends:
a named, fixed-width, ordered gate list with an optional terminal
measure-all. Supported gates: H, X, Y, Z, S, T, RX, RY, RZ, CX, CZ.

A circuit is checked when it is built: construction raises CircuitError
listing every invariant violation. Circuits are immutable, so every Circuit
that exists is valid and safe to share across concurrent jobs.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from enum import Enum

from .errors import CircuitError, QasmError

__all__ = ["Gate", "GateOp", "Circuit", "parse_qasm", "serialize_qasm"]


class Gate(Enum):
    """Supported gate kinds."""

    H = "h"
    X = "x"
    Y = "y"
    Z = "z"
    S = "s"
    T = "t"
    RX = "rx"
    RY = "ry"
    RZ = "rz"
    CX = "cx"
    CZ = "cz"

    @property
    def n_qubits(self) -> int:
        return 2 if self in (Gate.CX, Gate.CZ) else 1

    @property
    def takes_angle(self) -> bool:
        return self in (Gate.RX, Gate.RY, Gate.RZ)


_GATE_BY_NAME = {g.value: g for g in Gate}


@dataclass(frozen=True)
class GateOp:
    """One gate application: kind, target qubit indices, optional angle (radians)."""

    gate: Gate
    qubits: tuple[int, ...]
    angle: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "qubits", tuple(self.qubits))


@dataclass(frozen=True)
class Circuit:
    """Gate-list circuit, checked when it is built.

    ``name`` is a label only and is excluded from structural equality, so
    QASM round-trips compare equal regardless of labelling.
    """

    width: int
    gates: tuple[GateOp, ...] = ()
    measured: bool = False
    name: str = field(default="circuit", compare=False)

    def __post_init__(self):
        """Raise CircuitError listing every invariant violation."""
        object.__setattr__(self, "gates", tuple(self.gates))
        violations: list[str] = []
        if self.width < 0:
            violations.append(f"width {self.width} is negative")
        if self.width == 0 and self.gates:
            violations.append("width 0 circuit has gates")
        for i, op in enumerate(self.gates):
            label = f"gate {i} ({op.gate.value})"
            if len(op.qubits) != op.gate.n_qubits:
                violations.append(
                    f"{label}: expects {op.gate.n_qubits} qubit(s), got {len(op.qubits)}"
                )
            if len(set(op.qubits)) != len(op.qubits):
                violations.append(f"{label}: duplicate qubit in gate")
            for q in op.qubits:
                if q < 0 or q >= self.width:
                    violations.append(
                        f"{label}: qubit index {q} out of range for width {self.width}"
                    )
            if op.gate.takes_angle and op.angle is None:
                violations.append(f"{label}: missing angle")
            if not op.gate.takes_angle and op.angle is not None:
                violations.append(f"{label}: unexpected angle")
        if violations:
            raise CircuitError(f"invalid circuit {self.name!r}: " + "; ".join(violations))


# --------------------------------------------------------------------------
# Tokenizer
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<NUMBER>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
  | (?P<ID>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<STRING>"[^"\n]*")
  | (?P<ARROW>->)
  | (?P<SYM>[;,\[\]()*/+-])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    value: str
    line: int
    column: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0]
        pos = 0
        while pos < len(line):
            ch = line[pos]
            if ch.isspace():
                pos += 1
                continue
            m = _TOKEN_RE.match(line, pos)
            if m is None:
                raise QasmError(f"unexpected character {ch!r}", lineno, pos + 1)
            kind = m.lastgroup or "SYM"
            tokens.append(_Token(kind, m.group(), lineno, pos + 1))
            pos = m.end()
    return tokens


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> _Token | None:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self._tokens[-1] if self._tokens else None
            raise QasmError(
                "unexpected end of input",
                last.line if last else 1,
                last.column + len(last.value) if last else 1,
            )
        self._pos += 1
        return tok

    def expect(self, value: str) -> _Token:
        tok = self.next()
        if tok.value != value:
            raise QasmError(f"expected {value!r}, got {tok.value!r}", tok.line, tok.column)
        return tok

    def at_end(self) -> bool:
        return self._pos >= len(self._tokens)


def _parse_number(tok: _Token) -> float:
    try:
        return float(tok.value)
    except ValueError:
        raise QasmError(f"malformed number {tok.value!r}", tok.line, tok.column) from None


def _parse_angle(ts: _TokenStream) -> float:
    """Angle grammar: decimal literal, pi, pi/k, k*pi, k*pi/m, all optionally signed."""
    sign = 1.0
    tok = ts.next()
    while tok.value in ("+", "-"):
        if tok.value == "-":
            sign = -sign
        tok = ts.next()

    if tok.kind == "NUMBER":
        value = _parse_number(tok)
        nxt = ts.peek()
        if nxt is not None and nxt.value == "*":
            ts.next()
            pi_tok = ts.next()
            if pi_tok.value != "pi":
                raise QasmError("expected 'pi' after '*'", pi_tok.line, pi_tok.column)
            value *= math.pi
        elif nxt is not None and nxt.value == "/":
            # bare k/m ratio is not in the grammar; require pi on one side
            raise QasmError("expected ')' after numeric angle", nxt.line, nxt.column)
    elif tok.value == "pi":
        value = math.pi
    else:
        raise QasmError(f"malformed angle near {tok.value!r}", tok.line, tok.column)

    nxt = ts.peek()
    if nxt is not None and nxt.value == "/":
        ts.next()
        div = ts.next()
        if div.kind != "NUMBER":
            raise QasmError("expected number after '/'", div.line, div.column)
        denom = _parse_number(div)
        if denom == 0:
            raise QasmError("division by zero in angle", div.line, div.column)
        value /= denom
    return sign * value


def _parse_index(ts: _TokenStream) -> int:
    ts.expect("[")
    tok = ts.next()
    if tok.kind != "NUMBER" or not tok.value.isdigit():
        raise QasmError(f"expected integer index, got {tok.value!r}", tok.line, tok.column)
    ts.expect("]")
    return int(tok.value)


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a :class:`Circuit`.

    Accepts: the ``OPENQASM 2.0;`` header, an optional ``include``, exactly
    one ``qreg``, optional ``creg`` declarations, gate statements over the
    supported kinds, and an optional terminal ``measure q -> c;``.
    Comments (``//``) and whitespace are ignored. Raises :class:`QasmError`
    with line/column on any input outside the subset; never crashes.
    """
    ts = _TokenStream(_tokenize(text))

    header = ts.next()
    if header.value != "OPENQASM":
        raise QasmError("expected 'OPENQASM 2.0;' header", header.line, header.column)
    version = ts.next()
    if version.value != "2.0":
        raise QasmError(f"unsupported version {version.value!r}", version.line, version.column)
    ts.expect(";")

    qreg_name: str | None = None
    creg_name: str | None = None
    width = 0
    gates: list[GateOp] = []
    measured = False

    while not ts.at_end():
        tok = ts.next()
        if measured:
            raise QasmError("statements after terminal measure", tok.line, tok.column)

        if tok.value == "include":
            ts.next()  # filename string; content irrelevant to the subset
            ts.expect(";")
        elif tok.value == "qreg":
            if qreg_name is not None:
                raise QasmError("multiple qreg declarations", tok.line, tok.column)
            reg = ts.next()
            if reg.kind != "ID":
                raise QasmError("expected register name", reg.line, reg.column)
            qreg_name = reg.value
            width = _parse_index(ts)
            ts.expect(";")
        elif tok.value == "creg":
            reg = ts.next()
            if reg.kind != "ID":
                raise QasmError("expected register name", reg.line, reg.column)
            if creg_name is not None:
                raise QasmError("multiple creg declarations", tok.line, tok.column)
            creg_name = reg.value
            _parse_index(ts)
            ts.expect(";")
        elif tok.value == "measure":
            src = ts.next()
            if src.kind != "ID" or src.value != qreg_name:
                raise QasmError("measure source must be the quantum register", src.line, src.column)
            ts.expect("->")
            dst = ts.next()
            if dst.kind != "ID" or dst.value != creg_name:
                raise QasmError("measure target must be a declared classical register", dst.line, dst.column)
            ts.expect(";")
            measured = True
        elif tok.kind == "ID":
            gates.append(_parse_gate(ts, tok, qreg_name, width))
        else:
            raise QasmError(f"unexpected token {tok.value!r}", tok.line, tok.column)

    if qreg_name is None:
        raise QasmError("missing qreg declaration", 1, 1)
    return Circuit(width=width, gates=tuple(gates), measured=measured, name=name)


def _parse_gate(ts: _TokenStream, tok: _Token, qreg_name: str | None, width: int) -> GateOp:
    gate = _GATE_BY_NAME.get(tok.value)
    if gate is None:
        raise QasmError(f"unknown gate {tok.value!r}", tok.line, tok.column)
    if qreg_name is None:
        raise QasmError("gate statement before qreg declaration", tok.line, tok.column)

    angle: float | None = None
    nxt = ts.peek()
    if nxt is not None and nxt.value == "(":
        if not gate.takes_angle:
            raise QasmError(f"gate {gate.value!r} takes no angle", nxt.line, nxt.column)
        ts.next()
        angle = _parse_angle(ts)
        ts.expect(")")
    elif gate.takes_angle:
        raise QasmError(f"gate {gate.value!r} requires an angle", tok.line, tok.column)

    qubits: list[int] = []
    for i in range(gate.n_qubits):
        if i > 0:
            ts.expect(",")
        reg = ts.next()
        if reg.kind != "ID" or reg.value != qreg_name:
            raise QasmError(f"expected register {qreg_name!r}", reg.line, reg.column)
        idx = _parse_index(ts)
        if idx >= width:
            raise QasmError(
                f"qubit index out of range: {idx} >= {width}", reg.line, reg.column
            )
        qubits.append(idx)
    ts.expect(";")

    if len(set(qubits)) != len(qubits):
        raise QasmError("duplicate qubit in gate", tok.line, tok.column)
    return GateOp(gate=gate, qubits=tuple(qubits), angle=angle)


# --------------------------------------------------------------------------
# Serializer
# --------------------------------------------------------------------------


def serialize_qasm(circuit: Circuit) -> str:
    """Emit canonical subset text; parse_qasm(serialize_qasm(c)) == c for every c."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
    if circuit.measured:
        lines.append(f"creg c[{circuit.width}];")
    for op in circuit.gates:
        args = ",".join(f"q[{q}]" for q in op.qubits)
        if op.angle is not None:
            lines.append(f"{op.gate.value}({op.angle!r}) {args};")
        else:
            lines.append(f"{op.gate.value} {args};")
    if circuit.measured:
        lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
