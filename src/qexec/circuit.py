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
import threading
from dataclasses import dataclass, field
from enum import Enum

from .errors import CircuitError, QasmError

__all__ = ["Gate", "GateOp", "Circuit", "parse_qasm", "serialize_qasm"]


class Gate(Enum):
    """Supported gate kinds, each with its ``n_qubits`` and whether it ``takes_angle``."""

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

    def __init__(self, value: str):
        self.n_qubits = 2 if value in ("cx", "cz", None) else 1
        self.takes_angle = value in ("rx", "ry", "rz")


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
            found = []
            if len(op.qubits) != op.gate.n_qubits:
                found.append(f"expects {op.gate.n_qubits} qubit(s), got {len(op.qubits)}")
            if len(set(op.qubits)) != len(op.qubits):
                found.append("duplicate qubit in gate")
            for q in op.qubits:
                if q < 0 or q >= self.width:
                    found.append(f"qubit index {q} out of range for width {self.width}")
            if op.gate.takes_angle and op.angle is None:
                found.append("missing angle")
            if not op.gate.takes_angle and op.angle is not None:
                found.append("unexpected angle")
            if op.angle is not None and not math.isfinite(op.angle):
                found.append(f"angle {op.angle!r} is not finite")
            if found:  # the label is built only for a gate that breaks a rule
                violations += [f"gate {i} ({op.gate.value}): {v}" for v in found]
        if violations:
            raise CircuitError(f"invalid circuit {self.name!r}: " + "; ".join(violations))


# --------------------------------------------------------------------------
# Parser
# --------------------------------------------------------------------------

_BREAKS = "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"  # the line boundaries of str.splitlines
_COMMENT_RE = re.compile(f"//[^{_BREAKS}]*")
_WORD_END = r"(?![A-Za-z0-9_])"
_ID = r"[A-Za-z_][A-Za-z0-9_]*"
_NUMBER = r"(?:[0-9]+\.[0-9]*|\.[0-9]+|[0-9]+)(?:[eE][+-]?[0-9]+)?"  # ASCII digits only
_LEXEME = rf'{_NUMBER}|{_ID}|"[^"{_BREAKS}]*"|->|[;,\[\]()*/+-]'
_LEXEME_RE = re.compile(rf"\s*({_LEXEME})?")  # group 1 is None at the end or a stray character
_STATEMENT_RE = re.compile(  # to its ';', but an include's file name may hold one: "a;b"
    rf'\s*(?=\S)(?P<body>(?P<include>include{_WORD_END}\s*(?P<file>"[^"{_BREAKS}]*"|{_ID})?)'
    rf"|(?P<word>{_ID})?[^;]*)\s*(?P<semi>;?)"
)
# A statement's fields after its first word are optional: a broken one matches up to its break.
_HEADER_RE = re.compile(rf"\s*(?P<header>OPENQASM{_WORD_END})?\s*(?P<version>{_LEXEME})?\s*(?P<semi>;)?")
_OPERAND_RE = re.compile(  # reg[index], where the index is a number lexeme of digits only
    rf"\s*(?P<reg>{_ID})?\s*(?P<lb>\[)?\s*(?P<index>[0-9]+(?![0-9.]|[eE][+-]?[0-9]))?\s*(?P<rb>\])?"
)
_MEASURE_RE = re.compile(rf"\s*(?P<src>{_ID})?\s*(?P<arrow>->)?\s*(?P<dst>{_ID})?")
_COMMA_RE = re.compile(r"\s*(?P<comma>,)?")
_ANGLE_RE = re.compile(  # a signed pi, k*pi, pi/m, k*pi/m or number k; k/m is matched to be refused
    rf"\s*(?P<open>\()?\s*(?P<angle>(?P<sign>(?:(?:\+|-(?!>))\s*)*)"
    rf"(?:(?P<k>{_NUMBER})(?:\s*(?P<times>\*)\s*(?P<kpi>pi{_WORD_END})?)?|(?P<pi>pi{_WORD_END}))?"
    rf"(?:\s*(?P<slash>/)\s*(?P<divisor>{_NUMBER})?)?)\s*(?P<close>\))?"
)
_INDEX_FIELDS = (("lb", "'['", None), ("index", "integer index", None), ("rb", "']'", None))

# Statements that passed every check, process-wide: (the statement's text from
# its first word through its ';', the qreg name, the width) -> what it adds to
# the circuit: a gate's GateOp, or an (include, qreg, creg or measure word,
# register name, width) record. Only a statement that parsed is stored, and a
# hit is taken only where the parse state lets the statement stand: a creg
# where none is declared yet, a measure under the creg it names, and nothing
# after a measure. Anywhere else the statement is parsed again, so every error
# is raised as without the cache. A statement longer than _GATE_CACHE_TEXT
# characters is not stored, and a full cache is emptied before the next store,
# so it holds at most _GATE_CACHE_SIZE short entries. _LINE_CACHE keeps each
# GateOp's canonical line for serialize_qasm under the same two rules.
_GATE_CACHE_SIZE = 4096
_GATE_CACHE_TEXT = 128
_GATE_CACHE: dict[tuple[str, str, int], GateOp | tuple[str, str, int]] = {}
_GATE_CACHE_LOCK = threading.Lock()  # for stores in either cache; a lookup is one dict.get


def _error(text: str, offset: int, message: str) -> QasmError:
    """QasmError at ``offset``, or at the first stray character after it: the text before
    an error's offset has been read, so a stray character is reported before any other error."""
    m = _LEXEME_RE.match(text, offset)
    while m[1] is not None:
        m = _LEXEME_RE.match(text, m.end())
    if m.end() < len(text):
        offset, message = m.end(), f"unexpected character {text[m.end()]!r}"
    lines = (text[:offset] + "x").splitlines()
    return QasmError(message, len(lines), len(lines[-1]))


def _unexpected(text: str, pos: int, expected: str) -> QasmError:
    """QasmError for the first lexeme after ``pos``, where ``expected`` was due."""
    m = _LEXEME_RE.match(text, pos)
    if m[1] is None:  # the end of the text, or a stray character that _error reports
        return _error(text, min(m.end(), len(text.rstrip())), "unexpected end of input")
    return _error(text, m.start(1), f"expected {expected}, got {m[1]!r}")


def _require(text: str, m: re.Match, *fields: tuple[str, str, str | None]) -> int:
    """Where the last of ``fields`` ends in ``m``; raises at the first missing one.

    A field ``(group, expected, want)`` must match, and read ``want`` unless that is None
    (an empty ``want`` is a register not declared, which nothing reads)."""
    after = m.pos
    for group, expected, want in fields:
        value = m[group]
        if value is None or want is not None and value != want:
            raise _unexpected(text, after, expected + (f" {want!r}" if want else ""))
        after = m.end(group)
    return after


def parse_qasm(text: str, name: str = "circuit") -> Circuit:
    """Parse the supported OpenQASM 2.0 subset into a :class:`Circuit`.

    Accepts the ``OPENQASM 2.0;`` header, then ``;``-terminated statements: any ``include`` of
    a string or a bare name, one ``qreg``, at most one ``creg``, gates of the supported kinds and
    an optional terminal ``measure q -> c;``. Comments (``//``) and whitespace are ignored, also
    inside a statement. Raises :class:`QasmError` at the offending lexeme's line and column;
    never crashes.
    """
    if "//" in text:
        text = _COMMENT_RE.sub(lambda c: " " * len(c.group()), text)
    header = _HEADER_RE.match(text)
    pos = _require(text, header, ("header", "'OPENQASM 2.0;' header", None),
                   ("version", "version", "2.0"), ("semi", "';'", None))
    registers, width, gates, measured = {"qreg": "", "creg": ""}, 0, [], False
    while True:
        # A stored key holds one ';', at its end, unless it is an include of a
        # file name that holds one, so a statement whose text through its first
        # ';' is a key has just that text, and is looked up without the regex.
        after = text.find(";", pos) + 1
        entry = None
        if after and not measured:
            entry = _GATE_CACHE.get((text[pos:after].lstrip(), registers["qreg"], width))
        if entry.__class__ is GateOp:
            gates.append(entry)
            pos = after
            continue
        if entry is not None:
            word, register, size = entry
            if word == "include":
                pos = after
                continue
            if word == "measure":
                if register == registers["creg"]:
                    measured, pos = True, after
                    continue
            elif not registers[word]:
                registers[word] = register
                if word == "qreg":
                    width = size
                pos = after
                continue
        statement = _STATEMENT_RE.match(text, pos)
        if statement is None:
            break
        start, pos = statement.start("body"), statement.end()
        if measured:
            raise _error(text, start, "statements after terminal measure")
        key = (text[start:pos], registers["qreg"], width)
        end, word = statement.end("body"), statement["word"]
        if statement["include"] is not None:
            if statement["file"] is None:
                raise _unexpected(text, start + 7, "file name")
            after, entry = end, ("include", "", 0)
        elif word is None:
            raise _unexpected(text, start, "statement")
        elif word == "measure":
            m = _MEASURE_RE.match(text, start + 7, end)
            after = _require(text, m, ("src", "quantum register", registers["qreg"]),
                             ("arrow", "'->'", None),
                             ("dst", "declared classical register", registers["creg"]))
            measured, entry = True, ("measure", registers["creg"], 0)
        elif word in registers:  # qreg or creg
            if registers[word]:
                raise _error(text, start, f"multiple {word} declarations")
            m = _OPERAND_RE.match(text, start + 4, end)
            after = _require(text, m, ("reg", "register", None), *_INDEX_FIELDS)
            registers[word] = m["reg"]
            if word == "qreg":
                width = int(m["index"])
            entry = (word, m["reg"], width)
        else:
            entry, after = _parse_gate(text, word, start, end, registers["qreg"], width)
        if text[after:end].strip() or not statement["semi"]:
            raise _unexpected(text, after, "';'")
        if entry.__class__ is GateOp:
            if len(set(entry.qubits)) != len(entry.qubits):
                raise _error(text, start, "duplicate qubit in gate")
            gates.append(entry)
        if pos - start <= _GATE_CACHE_TEXT:
            with _GATE_CACHE_LOCK:
                if len(_GATE_CACHE) >= _GATE_CACHE_SIZE:
                    _GATE_CACHE.clear()
                _GATE_CACHE[key] = entry
    if not registers["qreg"]:
        raise _error(text, 0, "missing qreg declaration")
    # Every check that Circuit makes, the parse has made: a qubit is a digit
    # string below the width, each gate has its qubit count, distinct qubits
    # and a finite angle just where it takes one.
    circuit = object.__new__(Circuit)
    circuit.__dict__.update(width=width, gates=tuple(gates), measured=measured, name=name)
    return circuit


def _parse_gate(text: str, word: str, start: int, end: int, qreg: str, width: int):
    """The gate statement ``text[start:end]`` named ``word``, and where its last field ends."""
    gate = _GATE_BY_NAME.get(word)
    if gate is None:
        raise _error(text, start, f"unknown gate {word!r}")
    if not qreg:
        raise _error(text, start, "gate statement before qreg declaration")
    angle, after = None, start + len(word)
    m = _ANGLE_RE.match(text, after, end)
    if m["open"] is not None:
        if not gate.takes_angle:
            raise _error(text, m.start("open"), f"gate {gate.value!r} takes no angle")
        angle, after = _angle(text, m), m.end("close")
    elif gate.takes_angle:
        raise _error(text, start, f"gate {gate.value!r} requires an angle")
    qubits = []
    for i in range(gate.n_qubits):
        if i:
            after = _require(text, _COMMA_RE.match(text, after, end), ("comma", "','", None))
        m = _OPERAND_RE.match(text, after, end)
        after = _require(text, m, ("reg", "register", qreg), *_INDEX_FIELDS)
        qubits.append(int(m["index"]))
        if qubits[-1] >= width:
            raise _error(text, m.start("reg"), f"qubit index out of range: {qubits[-1]} >= {width}")
    return GateOp(gate=gate, qubits=tuple(qubits), angle=angle), after


def _angle(text: str, m: re.Match) -> float:
    """The value of the angle that ``_ANGLE_RE`` matched in ``m``, checked up to its ``)``."""
    k, times, slash, divisor = m.group("k", "times", "slash", "divisor")
    if k is None and m["pi"] is None:
        raise _unexpected(text, m.end("sign"), "angle")
    if times is not None and m["kpi"] is None:
        raise _unexpected(text, m.end("times"), "'pi'")
    if k is not None and times is None and slash is not None:
        raise _error(text, m.start("slash"), "expected ')' after numeric angle")
    angle = float(k) * math.pi if times else float(k) if k else math.pi
    angle *= (-1) ** m["sign"].count("-")
    if slash is not None:
        if divisor is None:
            raise _unexpected(text, m.end("slash"), "number")
        if float(divisor) == 0:
            raise _error(text, m.start("divisor"), "division by zero in angle")
        angle /= float(divisor)
    if m["close"] is None:
        raise _unexpected(text, m.end("angle"), "')'")
    if not math.isfinite(angle):
        raise _error(text, m.start("angle"), f"angle {angle} is not finite")
    return angle


# --------------------------------------------------------------------------
# Serializer
# --------------------------------------------------------------------------


# id(op) -> (op, its canonical line). The entry keeps its op alive, so no
# other op takes that id while the entry is stored. Ops that compare equal may
# print apart, as rz(0.0) and rz(-0.0) do, so the key is not the op itself.
_LINE_CACHE: dict[int, tuple[GateOp, str]] = {}


def _line(op: GateOp) -> str:
    """The canonical line of ``op``, stored in _LINE_CACHE by the statement cache's rules."""
    args = ",".join(f"q[{q}]" for q in op.qubits)
    if op.angle is not None:
        line = f"{op.gate.value}({op.angle!r}) {args};"
    else:
        line = f"{op.gate.value} {args};"
    if len(line) <= _GATE_CACHE_TEXT:
        with _GATE_CACHE_LOCK:
            if len(_LINE_CACHE) >= _GATE_CACHE_SIZE:
                _LINE_CACHE.clear()
            _LINE_CACHE[id(op)] = (op, line)
    return line


def serialize_qasm(circuit: Circuit) -> str:
    """Emit canonical subset text; parse_qasm(serialize_qasm(c)) == c for every c."""
    lines = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{circuit.width}];"]
    if circuit.measured:
        lines.append(f"creg c[{circuit.width}];")
    cached = _LINE_CACHE.get
    for op in circuit.gates:
        entry = cached(id(op))
        lines.append(_line(op) if entry is None else entry[1])
    if circuit.measured:
        lines.append("measure q -> c;")
    return "\n".join(lines) + "\n"
