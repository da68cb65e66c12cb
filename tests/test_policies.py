import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qexec import (
    Circuit,
    Gate,
    GateOp,
    PolicyRegistry,
    merge_sum,
    merge_tvd,
    split_even,
    split_multiplier,
    tvd,
)
from qexec.errors import DuplicatePolicyError, MergeError, PolicyError, UnknownPolicyError

H1 = Circuit(width=1, gates=(GateOp(Gate.H, (0,)),), name="h1")
X1 = Circuit(width=1, gates=(GateOp(Gate.X, (0,)),), name="x1")


def shots_by_target(dispatch):
    out = {}
    for provider_id, backend_name, spec in dispatch.jobs():
        out.setdefault((provider_id, backend_name), []).append(spec.shots)
    return out


# --------------------------------------------------------------------------
# split_multiplier
# --------------------------------------------------------------------------


def test_multiplier_full_shots_everywhere():
    targets = [("p1", "a"), ("p1", "b"), ("p2", "a")]
    dispatch = split_multiplier([H1, X1], 1024, targets)
    assert dispatch.total_jobs() == 6
    assert all(spec.shots == 1024 for _, _, spec in dispatch.jobs())


def test_multiplier_single():
    dispatch = split_multiplier([H1], 100, [("p", "b")])
    assert dispatch.total_jobs() == 1
    assert dispatch.total_shots() == 100


def test_multiplier_no_circuits():
    dispatch = split_multiplier([], 100, [("p", "b")])
    assert dispatch.total_jobs() == 0


def test_multiplier_no_targets_errors():
    with pytest.raises(PolicyError, match="no targets"):
        split_multiplier([H1], 100, [])


# --------------------------------------------------------------------------
# split_even
# --------------------------------------------------------------------------


def test_even_exact_division():
    targets = [("p", f"b{i}") for i in range(4)]
    dispatch = split_even([H1], 1000, targets)
    assert [specs[0] for specs in shots_by_target(dispatch).values()] == [250, 250, 250, 250]


def test_even_remainder_rule():
    targets = [("p", "b1"), ("p", "b2"), ("p", "b3")]
    dispatch = split_even([H1], 10, targets)
    allocation = [spec.shots for _, _, spec in dispatch.jobs()]
    assert allocation == [4, 3, 3]  # extra shots go to the first targets in canonical order


def test_even_zero_shot_targets_excluded():
    targets = [("p", "b1"), ("p", "b2"), ("p", "b3")]
    dispatch = split_even([H1], 2, targets)
    assert shots_by_target(dispatch) == {("p", "b1"): [1], ("p", "b2"): [1]}


def test_even_requires_targets():
    with pytest.raises(PolicyError, match="at least one target"):
        split_even([H1], 10, [])


@given(
    shots=st.integers(min_value=1, max_value=1_000_000),
    n_targets=st.integers(min_value=1, max_value=50),
    n_circuits=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=200)
def test_even_conserves_shots_property(shots, n_targets, n_circuits):
    targets = [("p", f"b{i:02d}") for i in range(n_targets)]
    circuits = [H1, X1, Circuit(width=1, name="id1")][:n_circuits]
    dispatch = split_even(circuits, shots, targets)
    per_circuit: dict[str, int] = {}
    for _, _, spec in dispatch.jobs():
        per_circuit[spec.circuit.name] = per_circuit.get(spec.circuit.name, 0) + spec.shots
    assert all(total == shots for total in per_circuit.values())
    assert len(per_circuit) == n_circuits
    base, remainder = divmod(shots, n_targets)
    expected = [base + 1] * remainder + [base] * (n_targets - remainder)
    allocation = [spec.shots for _, _, spec in dispatch.jobs() if spec.circuit.name == "h1"]
    assert allocation == [s for s in expected if s > 0]


@given(
    shots=st.integers(min_value=1, max_value=1_000_000),
    n_targets=st.integers(min_value=1, max_value=50),
    n_circuits=st.integers(min_value=0, max_value=3),
)
@settings(max_examples=200)
def test_multiplier_total_property(shots, n_targets, n_circuits):
    targets = [("p", f"b{i:02d}") for i in range(n_targets)]
    circuits = [H1, X1, Circuit(width=1, name="id1")][:n_circuits]
    dispatch = split_multiplier(circuits, shots, targets)
    assert dispatch.total_jobs() == n_circuits * n_targets
    assert dispatch.total_shots() == shots * n_circuits * n_targets


# --------------------------------------------------------------------------
# merge_sum
# --------------------------------------------------------------------------


def test_merge_sum_additivity():
    tree = {"p1": {"b1": [{"0": 10}]}, "p2": {"b1": [{"0": 5, "1": 5}]}}
    merged, metadata = merge_sum(tree)
    assert merged == {"0": 15, "1": 5}
    assert metadata["jobs"] == 2


def test_merge_sum_single_leaf_identity():
    merged, _ = merge_sum({"p": {"b": [{"01": 3, "10": 7}]}})
    assert merged == {"01": 3, "10": 7}


def test_merge_sum_empty_tree():
    merged, metadata = merge_sum({})
    assert merged == {}
    assert metadata["jobs"] == 0


def test_merge_sum_width_mismatch():
    with pytest.raises(MergeError, match="widths"):
        merge_sum({"p": {"b": [{"0": 1}, {"00": 1}]}})


def test_merge_sum_associativity():
    trees = [
        {"p1": {"b1": [{"0": 1, "1": 2}], "b2": [{"0": 4}]}},
        {"p2": {"b1": [{"1": 8}]}},
    ]
    flat = {**trees[0], **trees[1]}
    merged_flat, _ = merge_sum(flat)
    partials = [merge_sum(t)[0] for t in trees]
    merged_of_partials, _ = merge_sum({"s": {"s": partials}})
    assert merged_flat == merged_of_partials


# --------------------------------------------------------------------------
# tvd
# --------------------------------------------------------------------------


def test_tvd_identical_zero():
    assert tvd({"0": 100}, {"0": 100}) == 0.0


def test_tvd_disjoint_one():
    assert tvd({"0": 100}, {"1": 100}) == 1.0


def test_tvd_exact_quarter():
    assert tvd({"0": 75, "1": 25}, {"0": 50, "1": 50}) == pytest.approx(0.25, abs=1e-12)


def test_tvd_empty_histogram_rejected():
    with pytest.raises(MergeError, match="non-empty"):
        tvd({}, {"0": 1})
    with pytest.raises(MergeError, match="non-empty"):
        tvd({"0": 1}, {})


histograms = st.dictionaries(
    st.sampled_from(["00", "01", "10", "11"]),
    st.integers(min_value=0, max_value=1000),
    min_size=1,
    max_size=4,
).filter(lambda h: sum(h.values()) > 0)


@given(histograms, histograms)
@settings(max_examples=200)
def test_tvd_symmetric_and_bounded(p, q):
    d = tvd(p, q)
    assert d == pytest.approx(tvd(q, p), abs=1e-12)
    assert 0.0 <= d <= 1.0 + 1e-12
    assert tvd(p, p) == pytest.approx(0.0, abs=1e-12)


@given(histograms, histograms, histograms)
@settings(max_examples=200)
def test_tvd_triangle_inequality(p, q, r):
    assert tvd(p, r) <= tvd(p, q) + tvd(q, r) + 1e-9


# --------------------------------------------------------------------------
# merge_tvd
# --------------------------------------------------------------------------


def test_merge_tvd_against_reference():
    tree = {
        "ideal": {"sim": [{"00": 50, "11": 50}]},
        "noisy": {"dev": [{"00": 40, "11": 40, "01": 10, "10": 10}]},
    }
    merged, metadata = merge_tvd(tree, {"reference": "ideal/sim"})
    assert merged == {"noisy/dev": pytest.approx(0.2, abs=1e-12)}
    assert metadata["reference"] == "ideal/sim"


def test_merge_tvd_reference_only_tree():
    tree = {"ideal": {"sim": [{"0": 10}]}}
    merged, _ = merge_tvd(tree, {"reference": "ideal/sim"})
    assert merged == {}


def test_merge_tvd_key_format():
    tree = {
        "ionq": {"qpu.forte-1": [{"0": 9, "1": 1}]},
        "local": {"sim": [{"0": 10}]},
    }
    merged, _ = merge_tvd(tree, {"reference": "local/sim"})
    assert list(merged) == ["ionq/qpu.forte-1"]


def test_merge_tvd_resolves_unique_ideal_simulator():
    tree = {
        "ideal": {"sim": [{"0": 10}]},
        "noisy": {"dev": [{"0": 5, "1": 5}]},
    }
    context = {
        "backend_info": {
            "ideal/sim": {"is_ideal_simulator": True},
            "noisy/dev": {"is_ideal_simulator": False},
        }
    }
    merged, metadata = merge_tvd(tree, context)
    assert merged == {"noisy/dev": pytest.approx(0.5, abs=1e-12)}
    assert metadata["reference"] == "ideal/sim"


def test_merge_tvd_missing_reference():
    with pytest.raises(MergeError, match="no reference"):
        merge_tvd({"noisy": {"dev": [{"0": 1}]}}, {})


def test_merge_tvd_ambiguous_reference():
    tree = {"a": {"s1": [{"0": 1}]}, "b": {"s2": [{"0": 1}]}}
    context = {
        "backend_info": {
            "a/s1": {"is_ideal_simulator": True},
            "b/s2": {"is_ideal_simulator": True},
        }
    }
    with pytest.raises(MergeError, match="ambiguous"):
        merge_tvd(tree, context)


def test_merge_tvd_rejects_multiple_runs():
    tree = {
        "ideal": {"sim": [{"0": 10}]},
        "noisy": {"dev": [{"0": 10}, {"1": 10}]},
    }
    with pytest.raises(MergeError, match="noisy/dev has 2"):
        merge_tvd(tree, {"reference": "ideal/sim"})


# --------------------------------------------------------------------------
# registry
# --------------------------------------------------------------------------


def test_registry_builtins_present():
    registry = PolicyRegistry()
    assert registry.split_names() == ["even", "multiplier"]
    assert registry.merge_names() == ["sum", "tvd"]


def test_registry_register_and_resolve():
    registry = PolicyRegistry()

    def median_merge(results, context):
        return {}, {}

    registry.register("median", merge_policy=median_merge)
    assert registry.resolve_merge("median") is median_merge


def test_registry_duplicate_rejected():
    registry = PolicyRegistry()
    registry.register("mine", split_policy=lambda *a: None)
    with pytest.raises(DuplicatePolicyError):
        registry.register("mine", split_policy=lambda *a: None)


def test_registry_builtin_name_collision_rejected():
    registry = PolicyRegistry()
    with pytest.raises(DuplicatePolicyError):
        registry.register("multiplier", split_policy=lambda *a: None)


def test_registry_unknown_name():
    registry = PolicyRegistry()
    with pytest.raises(UnknownPolicyError):
        registry.resolve_split("nonexistent")
    with pytest.raises(UnknownPolicyError):
        registry.resolve_merge("nonexistent")


def test_registry_bad_kind():
    registry = PolicyRegistry()
    with pytest.raises(PolicyError, match="split_policy=, merge_policy= or both"):
        registry.register("x")
    assert "x" not in registry.split_names() + registry.merge_names()


def test_registry_name_taken_for_merge_leaves_split_unregistered():
    registry = PolicyRegistry()
    with pytest.raises(DuplicatePolicyError, match="merge policy 'tvd'"):
        registry.register("tvd", split_policy=lambda *a: None, merge_policy=lambda r, c: ({}, {}))
    assert "tvd" not in registry.split_names()
