import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qexec.dispatch
from qexec import Circuit, Dispatch, Gate, GateOp
from qexec.errors import CircuitError, DispatchError


def test_add_job_single(bell):
    dispatch = Dispatch().add_job("p1", "b1", bell, 1024)
    jobs = list(dispatch.jobs())
    assert len(jobs) == 1
    provider_id, backend_name, spec = jobs[0]
    assert (provider_id, backend_name, spec.shots, spec.ordinal) == ("p1", "b1", 1024, 0)


def test_add_job_duplicates_legal(bell):
    dispatch = Dispatch()
    dispatch.add_job("p1", "b1", bell, 10)
    dispatch.add_job("p1", "b1", bell, 10)
    dispatch.add_job("p1", "b1", bell, 20)
    specs = dispatch.jobs_for("p1", "b1")
    assert [(s.shots, s.ordinal) for s in specs] == [(10, 0), (10, 1), (20, 2)]


def test_add_job_rejects_zero_shots(bell):
    with pytest.raises(DispatchError, match="shots"):
        Dispatch().add_job("p1", "b1", bell, 0)


@pytest.mark.parametrize("shots", [2.5, 3.0, True, "8"])
def test_add_job_rejects_non_integer_shots(bell, shots):
    # A bool is an int to Python, but True is not a shot count.
    with pytest.raises(DispatchError, match="shots must be an integer"):
        Dispatch().add_job("p1", "b1", bell, shots)


def test_add_job_rejects_invalid_circuit():
    # The circuit refuses to be built, so it never reaches a dispatch.
    with pytest.raises(CircuitError, match="invalid circuit"):
        Circuit(width=1, gates=(GateOp(Gate.H, (5,)),))


def test_totals_scenario1_shape(bell, ghz3):
    # 2 circuits x 3 backends under multiplier semantics, 1024 shots each.
    dispatch = Dispatch()
    for circuit in (bell, ghz3):
        for target in ("b1", "b2", "b3"):
            dispatch.add_job("p1", target, circuit, 1024)
    assert dispatch.total_jobs() == 6
    assert dispatch.total_shots() == 6144


def test_totals_empty():
    dispatch = Dispatch()
    assert dispatch.total_jobs() == 0
    assert dispatch.total_shots() == 0


def test_totals_single(bell):
    dispatch = Dispatch().add_job("p", "b", bell, 100)
    assert dispatch.total_jobs() == 1
    assert dispatch.total_shots() == 100


def test_canonical_iteration_order(bell):
    dispatch = Dispatch()
    dispatch.add_job("zeta", "b", bell, 1)
    dispatch.add_job("alpha", "y", bell, 1)
    dispatch.add_job("alpha", "x", bell, 1)
    order = [(p, b) for p, b, _ in dispatch.jobs()]
    assert order == [("alpha", "x"), ("alpha", "y"), ("zeta", "b")]
    ordinals = [s.ordinal for _, _, s in dispatch.jobs()]
    assert ordinals == [0, 1, 2]


def test_ordinals_numbered_on_read_in_canonical_order(bell):
    dispatch = Dispatch()
    for index in range(3):
        for provider_id, backend_name in (("zeta", "b"), ("alpha", "y"), ("alpha", "x")):
            dispatch.add_job(provider_id, backend_name, bell, index + 1)
    canonical = [
        (p, b, i + 1) for p, b in (("alpha", "x"), ("alpha", "y"), ("zeta", "b")) for i in range(3)
    ]
    assert [(p, b, s.shots) for p, b, s in dispatch.jobs()] == canonical
    assert [s.ordinal for _, _, s in dispatch.jobs()] == list(range(9))
    assert [s.ordinal for s in dispatch.jobs_for("alpha", "y")] == [3, 4, 5]

    dispatch.add_job("alpha", "x", bell, 4)
    assert [s.ordinal for s in dispatch.jobs_for("alpha", "x")] == [0, 1, 2, 3]
    assert [s.ordinal for s in dispatch.jobs_for("zeta", "b")] == [7, 8, 9]
    assert [s.ordinal for _, _, s in dispatch.jobs()] == list(range(10))


def looked_up(dispatch, registry):
    """The descriptor map a run builds: one find_backend per distinct backend."""
    return {target: registry.find_backend(*target) for target in dispatch.backends()}


def test_validate_against_ok(bell, local_registry):
    dispatch = Dispatch().add_job("local_ideal", "statevector", bell, 10)
    assert dispatch.validate_against(looked_up(dispatch, local_registry)) == []


def test_validate_against_unknown_provider(bell, local_registry):
    dispatch = Dispatch().add_job("nope", "statevector", bell, 10)
    violations = dispatch.validate_against(looked_up(dispatch, local_registry))
    assert len(violations) == 1
    assert "unknown backend" in violations[0]


def test_validate_against_unknown_backend_reported_once(bell, local_registry):
    dispatch = Dispatch()
    for _ in range(5):
        dispatch.add_job("nope", "statevector", bell, 10)
    descriptors = looked_up(dispatch, local_registry)
    assert dispatch.validate_against(descriptors) == ["unknown backend nope/statevector"]
    # A backend missing from the map is unknown too.
    assert dispatch.validate_against({}) == ["unknown backend nope/statevector"]


def test_validate_against_width_overflow(local_registry):
    wide = Circuit(width=25)
    dispatch = Dispatch().add_job("local_ideal", "statevector", wide, 10)
    violations = dispatch.validate_against(looked_up(dispatch, local_registry))
    assert len(violations) == 1
    assert "exceeds" in violations[0]


def test_json_round_trip(bell, ghz3):
    dispatch = Dispatch()
    dispatch.add_job("p1", "b1", bell, 64)
    dispatch.add_job("p1", "b2", ghz3, 32)
    restored = Dispatch.from_json(dispatch.to_json())
    assert restored == dispatch


# The dispatch.json text of a fixed dispatch: run records must not change format.
FIXED_DISPATCH_JSON = (
    '{"circuits": ["OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[1];\\nrz(0.25) q[0];\\n", '
    '"OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\n'
    'cx q[0],q[1];\\nmeasure q -> c;\\n"], '
    '"jobs": {"p1": {"b": [{"circuit": 0, "shots": 4}, {"circuit": 1, "shots": 8}]}, '
    '"p2": {"b": [{"circuit": 1, "shots": 8}]}}}'
)

# The same dispatch's text as records held it while each job entry carried an
# "options" mapping, which no backend read.
OPTIONS_DISPATCH_JSON = (
    '{"circuits": ["OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[1];\\nrz(0.25) q[0];\\n", '
    '"OPENQASM 2.0;\\ninclude \\"qelib1.inc\\";\\nqreg q[2];\\ncreg c[2];\\nh q[0];\\n'
    'cx q[0],q[1];\\nmeasure q -> c;\\n"], '
    '"jobs": {"p1": {"b": [{"circuit": 0, "options": {"tag": "x"}, "shots": 4}, '
    '{"circuit": 1, "options": {}, "shots": 8}]}, '
    '"p2": {"b": [{"circuit": 1, "options": {}, "shots": 8}]}}}'
)


def fixed_dispatch(bell):
    rz = Circuit(width=1, gates=(GateOp(Gate.RZ, (0,), 0.25),))
    return Dispatch().add_job("p2", "b", bell, 8).add_job("p1", "b", rz, 4).add_job("p1", "b", bell, 8)


def test_to_json_text_is_unchanged(bell):
    assert fixed_dispatch(bell).to_json() == FIXED_DISPATCH_JSON


def test_a_record_with_job_options_loads_without_them(bell):
    loaded = Dispatch.from_json(OPTIONS_DISPATCH_JSON)
    assert loaded == fixed_dispatch(bell)
    assert loaded.to_json() == FIXED_DISPATCH_JSON


def test_to_dict_serializes_each_circuit_once(bell, ghz3, monkeypatch):
    calls = []
    original = qexec.dispatch.serialize_qasm

    def counting_serialize(circuit):
        calls.append(circuit)
        return original(circuit)

    monkeypatch.setattr(qexec.dispatch, "serialize_qasm", counting_serialize)
    rz = Circuit(width=1, gates=(GateOp(Gate.RZ, (0,), 0.25),))
    dispatch = Dispatch()
    for provider_id, backend_name in [("p1", "a"), ("p1", "b"), ("p2", "a"), ("p2", "b")]:
        for circuit in (bell, ghz3, rz):
            dispatch.add_job(provider_id, backend_name, circuit, 8)
    entries = dispatch.to_dict()
    assert len(calls) == 3
    assert entries["circuits"] == [original(c) for c in (bell, ghz3, rz)]
    assert [entry["circuit"] for entry in entries["jobs"]["p2"]["b"]] == [0, 1, 2]


@pytest.mark.parametrize("index", [-1, 2, True, 0.0, "0"])
def test_from_dict_refuses_a_circuit_index_that_names_no_circuit(bell, ghz3, index):
    data = Dispatch().add_job("p", "b", bell, 8).add_job("p", "b", ghz3, 8).to_dict()
    data["jobs"]["p"]["b"][0]["circuit"] = index
    with pytest.raises(DispatchError, match="is not an index into the 2 circuits"):
        Dispatch.from_dict(data)


def test_same_build_sequence_equal(bell):
    a = Dispatch().add_job("p", "b", bell, 5).add_job("p", "b", bell, 7)
    b = Dispatch().add_job("p", "b", bell, 5).add_job("p", "b", bell, 7)
    assert a == b
    assert list(a.jobs())[0][2].ordinal == list(b.jobs())[0][2].ordinal


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["pa", "pb", "pc"]),
            st.sampled_from(["b1", "b2"]),
            st.integers(min_value=1, max_value=500),
        ),
        max_size=25,
    )
)
@settings(max_examples=100)
def test_ordinal_bijection_property(adds):
    dispatch = Dispatch()
    circuit = Circuit(width=1, gates=(GateOp(Gate.H, (0,)),))
    for provider_id, backend_name, shots in adds:
        dispatch.add_job(provider_id, backend_name, circuit, shots)
    ordinals = [spec.ordinal for _, _, spec in dispatch.jobs()]
    assert ordinals == list(range(len(adds)))
    assert dispatch.total_shots() == sum(shots for _, _, shots in adds)
