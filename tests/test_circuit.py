import math
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qexec.circuit
from qexec import Circuit, Gate, GateOp, parse_qasm, serialize_qasm
from qexec.errors import CircuitError, QasmError

from conftest import BELL_QASM


# --------------------------------------------------------------------------
# parse_qasm
# --------------------------------------------------------------------------


def test_parse_bell():
    circuit = parse_qasm(
        "OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; cx q[0],q[1]; measure q -> c;"
    )
    assert circuit.width == 2
    assert circuit.gates == (GateOp(Gate.H, (0,)), GateOp(Gate.CX, (0, 1)))
    assert circuit.measured


def test_parse_empty_body():
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1];")
    assert circuit.width == 1
    assert circuit.gates == ()
    assert not circuit.measured


def test_parse_index_out_of_range():
    with pytest.raises(QasmError, match="out of range"):
        parse_qasm("OPENQASM 2.0; qreg q[2]; h q[5];")


def test_parse_reports_position():
    try:
        parse_qasm("OPENQASM 2.0;\nqreg q[2];\nh q[5];")
    except QasmError as exc:
        assert exc.line == 3
        assert exc.column >= 1
    else:
        pytest.fail("expected QasmError")


def test_parse_unknown_gate():
    with pytest.raises(QasmError, match="unknown gate"):
        parse_qasm("OPENQASM 2.0; qreg q[1]; foo q[0];")


def test_parse_multiple_qreg():
    with pytest.raises(QasmError, match="multiple qreg"):
        parse_qasm("OPENQASM 2.0; qreg q[1]; qreg r[1];")


def test_parse_missing_qreg():
    with pytest.raises(QasmError, match="missing qreg"):
        parse_qasm("OPENQASM 2.0;")


@pytest.mark.parametrize(
    "text",
    [
        BELL_QASM.replace('"qelib1.inc"', '"a;b"'),
        BELL_QASM.replace('"qelib1.inc"', "foo"),
        BELL_QASM.replace("\n", "\r\n"),
        BELL_QASM.replace("cx q[0],q[1];", "cx q[0],\n   q[1]\n;"),
        BELL_QASM.replace("cx q[0],q[1];", "cx q[0], // control\n q[1];"),
        BELL_QASM.replace("qreg q[2];\ncreg c[2];", "creg c[2];\nqreg q[2];"),
    ],
    ids=["semicolon-in-include", "bare-include", "crlf", "split-statement", "inner-comment",
         "creg-first"],
)
def test_parse_layout_variants(text, bell):
    assert parse_qasm(text) == bell


@pytest.mark.parametrize(
    "body,fragment,line,statement",
    [
        ("h q[0];;", "';'", 3, ";;"),
        ("h q[0]", "unexpected end of input", 3, "h q[0]"),
        ("rx(1/2) q[0];", "after numeric angle", 3, "rx(1/2) q[0];"),
        ("rx(pi*2) q[0];", "expected ')'", 3, "rx(pi*2) q[0];"),
        ("h q[0;", "expected ']'", 3, "h q[0;"),
        ("h q[0\n;", "expected ']'", 4, ";"),
        ("rx(pi\n*2) q[0];", "expected ')'", 4, "*2) q[0];"),
        ("cx q[0],\n  q[5];", "out of range", 4, "q[5];"),
        ("creg c[2];\nmeasure q -> c;\nx q[0];", "after terminal measure", 5, "x q[0];"),
        ("include;", "expected file name, got ';'", 3, ";"),
        ("include ;;", "expected file name, got ';'", 3, ";;"),
        ("include 5;", "expected file name, got '5'", 3, "5;"),
        ("include -> ;", "expected file name, got '->'", 3, "-> ;"),
        ("include", "unexpected end of input", 3, "include"),
        ('include "a.inc" b;', "expected ';', got 'b'", 3, "b;"),
    ],
)
def test_parse_error_position(body, fragment, line, statement):
    # The error names the line of the token that breaks the grammar, and a
    # column inside the part of the offending statement on that line.
    text = f"OPENQASM 2.0;\nqreg q[2];\n{body}\n"
    with pytest.raises(QasmError) as err:
        parse_qasm(text)
    assert fragment in err.value.message
    assert err.value.line == line
    start = text.splitlines()[line - 1].index(statement) + 1
    assert start <= err.value.column <= start + len(statement)


def test_parse_comments_and_include_ignored():
    circuit = parse_qasm(
        'OPENQASM 2.0;\ninclude "qelib1.inc";\n// a comment\nqreg q[1]; x q[0]; // trailing\n'
    )
    assert circuit.gates == (GateOp(Gate.X, (0,)),)


def test_parse_statement_after_measure_rejected():
    with pytest.raises(QasmError, match="after terminal measure"):
        parse_qasm("OPENQASM 2.0; qreg q[1]; creg c[1]; measure q -> c; x q[0];")


def test_parse_duplicate_qubit_in_gate():
    with pytest.raises(QasmError, match="duplicate qubit"):
        parse_qasm("OPENQASM 2.0; qreg q[2]; cx q[0],q[0];")


@pytest.mark.parametrize(
    "text,expected",
    [
        ("rx(pi) q[0];", math.pi),
        ("rx(pi/2) q[0];", math.pi / 2),
        ("rx(-pi/4) q[0];", -math.pi / 4),
        ("rx(3*pi/4) q[0];", 3 * math.pi / 4),
        ("rx(2*pi) q[0];", 2 * math.pi),
        ("rx(0.5) q[0];", 0.5),
        ("rx(-1.25e-3) q[0];", -1.25e-3),
        ("rx(--pi/2) q[0];", math.pi / 2),
    ],
)
def test_parse_angle_forms(text, expected):
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[1]; {text}")
    assert circuit.gates[0].angle == pytest.approx(expected, abs=0)


@pytest.mark.parametrize("angle", ["1e400", "-1e400", "1e308*pi", "1e400*pi/1e400"])
def test_parse_rejects_non_finite_angle(angle):
    # An angle that overflows a float is refused where it stands, not left to
    # fail the job in the kernel.
    with pytest.raises(QasmError, match="not finite") as err:
        parse_qasm(f"OPENQASM 2.0;\nqreg q[1];\nrx({angle}) q[0];\n")
    assert (err.value.line, err.value.column) == (3, 4)


@pytest.mark.parametrize(
    "text, column",
    [
        ("OPENQASM 2.0; qreg q[\u0663]; rx(\u0661.\u0665) q[\u0662];", 22),
        ("OPENQASM 2.0; qreg q[3]; rx(\u0661.5) q[2];", 29),
        ("OPENQASM 2.0; qreg q[3]; rx(1.5) q[\u0662];", 36),
        ("OPENQASM 2.0; qreg q[3]; rx(1e\u0665) q[2];", 31),
        ("OPENQASM 2.0; qreg q[3]; h q[\uff12];", 30),
    ],
    ids=["qreg", "angle", "operand", "exponent", "fullwidth"],
)
def test_parse_refuses_digits_other_than_ascii(text, column):
    # OpenQASM numbers are ASCII digits; Arabic-Indic or fullwidth digits are
    # stray characters where they stand, not numbers.
    with pytest.raises(QasmError, match="unexpected character") as err:
        parse_qasm(text)
    assert (err.value.line, err.value.column) == (1, column)


def test_parse_rotation_requires_angle():
    with pytest.raises(QasmError, match="requires an angle"):
        parse_qasm("OPENQASM 2.0; qreg q[1]; rx q[0];")


def test_parse_angle_on_fixed_gate_rejected():
    with pytest.raises(QasmError, match="takes no angle"):
        parse_qasm("OPENQASM 2.0; qreg q[1]; h(0.5) q[0];")


# --------------------------------------------------------------------------
# The gate statement cache
# --------------------------------------------------------------------------


@pytest.fixture
def cold_cache():
    qexec.circuit._GATE_CACHE.clear()
    yield qexec.circuit._GATE_CACHE
    qexec.circuit._GATE_CACHE.clear()


def _outcome(text: str, name: str = "circuit") -> tuple:
    """What parse_qasm makes of ``text``: the circuit and its name, or the
    error's message, line and column."""
    try:
        circuit = parse_qasm(text, name=name)
    except QasmError as exc:
        return ("error", exc.message, exc.line, exc.column)
    return ("circuit", circuit, circuit.name)


@pytest.mark.parametrize(
    "warm, text, message",
    [
        # warmed under a wider qreg
        ("qreg q[4]; h q[3];", "qreg q[2]; h q[3];", "qubit index out of range: 3 >= 2"),
        # warmed under a qreg of another name
        ("qreg q[2]; cx q[0],q[1];", "qreg r[2]; cx q[0],q[1];", "expected register 'r', got 'q'"),
        # warmed before a terminal measure
        (
            "qreg q[2]; creg c[2]; h q[0];",
            "qreg q[2]; creg c[2]; measure q -> c; h q[0];",
            "statements after terminal measure",
        ),
        # a creg warmed where none was declared, met after another creg
        ("qreg q[2]; creg c[2];", "qreg q[2]; creg d[2]; creg c[2];", "multiple creg declarations"),
        # a measure warmed under the creg c, met under the creg d
        (
            "qreg q[2]; creg c[2]; measure q -> c;",
            "qreg q[2]; creg d[2]; measure q -> c;",
            "expected declared classical register 'd', got 'c'",
        ),
        # a qreg warmed as the first declaration, met as the second
        ("qreg q[2];", "qreg r[1]; qreg q[2];", "multiple qreg declarations"),
    ],
    ids=["width", "qreg-name", "after-measure", "second-creg", "measure-creg", "second-qreg"],
)
def test_a_cached_statement_still_fails_where_its_context_refuses_it(cold_cache, warm, text, message):
    text = "OPENQASM 2.0;\n" + text.replace("; ", ";\n")
    cold = _outcome(text)
    assert cold[:2] == ("error", message)
    parse_qasm("OPENQASM 2.0;\n" + warm)
    assert cold_cache  # the statement that the text repeats is cached
    assert _outcome(text) == cold


_STATEMENTS = [
    "h q[0];", "h q[3];", "x r[1];", "t q[2];", "cx q[0],q[1];", "cx q[1], q[0] ;",
    "cz q[2],q[3];", "rz(pi/2) q[1];", "rx(-0.5) q[0];", "ry(2*pi/3) r[0];",
    # broken: a repeated qubit, no ';' before the next statement, a stray
    # operand, a missing or unexpected angle, an unknown gate, an empty
    # statement, a measure with or without a creg to write
    "cx q[0],q[0];", "h q[1]", "h q[0] q[1];", "rx q[0];", "h(0.1) q[0];", "foo q[0];", ";",
    "measure q -> c;",
    # the other statement kinds, cached as gates are: an include, a second
    # qreg, a creg that may come before the qreg or after another creg, and
    # a measure of the register r
    'include "qelib1.inc";', "qreg q[2];", "creg c[2];", "measure r -> c;",
    # an include whose file name holds a ';', which ends no statement
    'include "h q[0];";',
]


@st.composite
def qasm_texts(draw, pool: list[str]):
    """A header, maybe a qreg of 1 to 4 qubits named q or r and a creg before
    or after it, and up to 8 statements drawn from ``pool``."""
    width, reg = draw(st.integers(1, 4)), draw(st.sampled_from("qr"))
    qreg, creg = f"qreg {reg}[{width}];", f"creg c[{width}];"
    declarations = draw(st.sampled_from([[qreg], [qreg, creg], [creg, qreg], []]))
    statements = draw(st.lists(st.sampled_from(pool), max_size=8))
    layout = draw(st.sampled_from(["\n", " ", "\n  "]))
    return "OPENQASM 2.0;\n" + layout.join(declarations + statements)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_cache_never_changes_what_a_text_parses_to(data):
    # The texts of one example draw from one small pool of statements, so
    # that each statement recurs under other registers, widths and neighbours.
    pool = data.draw(st.lists(st.sampled_from(_STATEMENTS), min_size=1, max_size=4, unique=True))
    texts = data.draw(st.lists(qasm_texts(pool), min_size=2, max_size=6))
    cold = []
    for i, text in enumerate(texts):
        qexec.circuit._GATE_CACHE.clear()
        cold.append(_outcome(text, f"t{i}"))
    qexec.circuit._GATE_CACHE.clear()
    for _ in range(2):  # the first pass warms the cache across texts, the second reads it
        assert [_outcome(text, f"t{i}") for i, text in enumerate(texts)] == cold


def test_the_cache_holds_at_most_its_bound(cold_cache):
    size = qexec.circuit._GATE_CACHE_SIZE
    statements = [f"rz({k}) q[0];" for k in range(size + 10)]
    circuit = parse_qasm("OPENQASM 2.0; qreg q[1]; " + " ".join(statements))
    assert [op.angle for op in circuit.gates] == list(range(size + 10))
    assert 0 < len(cold_cache) <= size


def test_a_long_statement_is_not_cached(cold_cache):
    padding = " " * qexec.circuit._GATE_CACHE_TEXT
    circuit = parse_qasm(f"OPENQASM 2.0; qreg q[1]; h{padding}q[0];")
    assert circuit.gates == (GateOp(Gate.H, (0,)),)
    assert not [key for key in cold_cache if padding in key[0]]


def test_threads_parsing_at_once_each_get_their_own_circuits(cold_cache):
    texts = [
        f"OPENQASM 2.0; qreg {reg}[{width}]; h {reg}[0]; cx {reg}[0],{reg}[{width - 1}]; "
        f"rz(pi/{width}) {reg}[1]; h {reg}[3];"
        for reg in "qr"
        for width in (2, 3, 4)
    ]
    expected = [_outcome(text, f"t{i}") for i, text in enumerate(texts)]
    assert [outcome[0] for outcome in expected] == ["error", "error", "circuit"] * 2
    start, seen, lock = threading.Barrier(4), [], threading.Lock()

    def parse_all(offset):
        start.wait()
        for round_ in range(50):
            if round_ % 10 == offset:
                qexec.circuit._GATE_CACHE.clear()
            order = texts[offset:] + texts[:offset]
            outcomes = [_outcome(t, f"t{texts.index(t)}") for t in order]
            with lock:
                seen.append(outcomes == expected[offset:] + expected[:offset])

    threads = [threading.Thread(target=parse_all, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-parse and mid-store
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [True] * 200


# --------------------------------------------------------------------------
# serialize_qasm
# --------------------------------------------------------------------------


def test_serialize_single_statement():
    text = serialize_qasm(Circuit(width=1, gates=(GateOp(Gate.X, (0,)),)))
    assert text.count("x q[0];") == 1


def test_serialize_empty_circuit_header_only():
    lines = serialize_qasm(Circuit(width=3)).strip().splitlines()
    assert lines == ["OPENQASM 2.0;", 'include "qelib1.inc";', "qreg q[3];"]


def test_serialize_round_trip_bell(bell):
    assert parse_qasm(serialize_qasm(bell)) == bell


def test_ops_that_compare_equal_keep_their_own_lines():
    # rz(0.0) == rz(-0.0), but each prints its own sign, however often and
    # in whichever order the two are serialized.
    zero, minus = GateOp(Gate.RZ, (0,), 0.0), GateOp(Gate.RZ, (0,), -0.0)
    assert zero == minus
    for ops in [(zero, minus), (minus, zero), (minus, zero)]:
        lines = serialize_qasm(Circuit(width=1, gates=ops)).splitlines()[3:]
        assert lines == [f"rz({op.angle!r}) q[0];" for op in ops]


def test_the_line_cache_holds_at_most_its_bound():
    size = qexec.circuit._GATE_CACHE_SIZE
    circuit = Circuit(width=1, gates=tuple(GateOp(Gate.RZ, (0,), float(k)) for k in range(size + 10)))
    lines = serialize_qasm(circuit).splitlines()[3:]
    assert lines == [f"rz({float(k)!r}) q[0];" for k in range(size + 10)]
    assert 0 < len(qexec.circuit._LINE_CACHE) <= size


def test_threads_serializing_at_once_each_get_their_own_text():
    # Circuits that share ops, one of them equal to another but printed apart,
    # serialized from four threads while the cache is emptied under them.
    ops = [GateOp(Gate.H, (0,)), GateOp(Gate.CX, (0, 1)), GateOp(Gate.RZ, (1,), 0.0),
           GateOp(Gate.RZ, (1,), -0.0), GateOp(Gate.RY, (0,), math.pi / 3)]
    circuits = [Circuit(width=2, gates=tuple(ops[i:] + ops[:i])) for i in range(len(ops))]
    expected = []
    for circuit in circuits:
        qexec.circuit._LINE_CACHE.clear()
        expected.append(serialize_qasm(circuit))
    start, seen, lock = threading.Barrier(4), [], threading.Lock()

    def serialize_all(offset):
        start.wait()
        for round_ in range(50):
            if round_ % 10 == offset:
                qexec.circuit._LINE_CACHE.clear()
            texts = [serialize_qasm(circuit) for circuit in circuits[offset:] + circuits[:offset]]
            with lock:
                seen.append(texts == expected[offset:] + expected[:offset])

    threads = [threading.Thread(target=serialize_all, args=(offset,)) for offset in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, mid-lookup and mid-store
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == [True] * 200


# --------------------------------------------------------------------------
# construction checks
# --------------------------------------------------------------------------


def test_validate_bell_ok(bell):
    assert Circuit(width=bell.width, gates=bell.gates, measured=True, name="bell") == bell


def test_validate_duplicate_qubit():
    with pytest.raises(CircuitError) as err:
        Circuit(width=2, gates=(GateOp(Gate.CX, (0, 0)),), name="dup")
    assert str(err.value) == "invalid circuit 'dup': gate 0 (cx): duplicate qubit in gate"


def test_validate_index_out_of_range():
    with pytest.raises(CircuitError) as err:
        Circuit(width=2, gates=(GateOp(Gate.H, (4,)),))
    assert str(err.value) == (
        "invalid circuit 'circuit': gate 0 (h): qubit index 4 out of range for width 2"
    )


def test_validate_lists_every_violation_of_every_gate_in_order():
    gates = (GateOp(Gate.H, (0,)), GateOp(Gate.CX, (1, 1, 5)), GateOp(Gate.RZ, (0,)),
             GateOp(Gate.X, (0,), math.inf))
    with pytest.raises(CircuitError) as err:
        Circuit(width=2, gates=gates, name="many")
    assert str(err.value) == (
        "invalid circuit 'many': gate 1 (cx): expects 2 qubit(s), got 3; "
        "gate 1 (cx): duplicate qubit in gate; "
        "gate 1 (cx): qubit index 5 out of range for width 2; "
        "gate 2 (rz): missing angle; gate 3 (x): unexpected angle; "
        "gate 3 (x): angle inf is not finite"
    )


def test_validate_width_zero_with_gates():
    with pytest.raises(CircuitError, match="width 0"):
        Circuit(width=0, gates=(GateOp(Gate.H, (0,)),))


def test_validate_arity_mismatch():
    with pytest.raises(CircuitError, match="expects 2 qubit"):
        Circuit(width=2, gates=(GateOp(Gate.CX, (0,)),))


def test_validate_missing_angle():
    with pytest.raises(CircuitError, match="missing angle"):
        Circuit(width=1, gates=(GateOp(Gate.RX, (0,)),))


@pytest.mark.parametrize("angle", [math.nan, math.inf, -math.inf])
def test_validate_non_finite_angle(angle):
    with pytest.raises(CircuitError, match="not finite"):
        Circuit(width=1, gates=(GateOp(Gate.RX, (0,), angle),))


# --------------------------------------------------------------------------
# Properties
# --------------------------------------------------------------------------


@st.composite
def circuits(draw):
    width = draw(st.integers(min_value=0, max_value=5))
    gates = []
    if width > 0:
        n_gates = draw(st.integers(min_value=0, max_value=12))
        for _ in range(n_gates):
            gate = draw(st.sampled_from(list(Gate)))
            if gate.n_qubits == 2 and width < 2:
                gate = Gate.H
            qubits = tuple(
                draw(
                    st.lists(
                        st.integers(min_value=0, max_value=width - 1),
                        min_size=gate.n_qubits,
                        max_size=gate.n_qubits,
                        unique=True,
                    )
                )
            )
            angle = None
            if gate.takes_angle:
                # every finite float, subnormals and +-1e308 included
                angle = draw(st.floats(allow_nan=False, allow_infinity=False))
            gates.append(GateOp(gate, qubits, angle))
    measured = draw(st.booleans())
    return Circuit(width=width, gates=tuple(gates), measured=measured)


@given(circuits())
@settings(max_examples=200)
def test_round_trip_property(circuit):
    assert parse_qasm(serialize_qasm(circuit)) == circuit


@given(st.text())
@settings(max_examples=300)
def test_parser_totality(text):
    # Arbitrary input either parses or raises QasmError; nothing else escapes.
    try:
        result = parse_qasm(text)
    except QasmError as exc:
        assert exc.line >= 1 and exc.column >= 1
    else:
        assert isinstance(result, Circuit)
