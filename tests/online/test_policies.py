"""Arrival policy semantics: due-time mapping, spec parsing, value
equality, errors."""

import pytest

from repro.online import Policy, make_policy


class TestImmediate:
    def test_due_is_release(self):
        policy = make_policy("immediate")
        for release in (0.0, 0.5, 17.25):
            assert policy.due(release) == release

    def test_no_replan_window(self):
        assert make_policy("immediate").replan_window == 0


class TestBatched:
    def test_due_ceils_to_next_boundary(self):
        policy = make_policy("batched:5.0")
        assert policy.due(0.1) == 5.0
        assert policy.due(4.99) == 5.0
        assert policy.due(5.01) == 10.0

    def test_release_on_boundary_keeps_boundary(self):
        # All-zero release times must collapse into one round at t=0
        # (the offline-identity property depends on this).
        policy = make_policy("batched:5.0")
        assert policy.due(0.0) == 0.0
        assert policy.due(5.0) == 5.0
        assert policy.due(10.0) == 10.0

    @pytest.mark.parametrize("quantum", [0.0, -1.0, float("inf"),
                                         float("nan")])
    def test_rejects_bad_quantum(self, quantum):
        with pytest.raises(ValueError):
            make_policy(f"batched:{quantum}")
        with pytest.raises(ValueError):
            make_policy(Policy("batched", quantum))


class TestReplan:
    def test_due_is_release(self):
        policy = make_policy("replan:4")
        assert policy.due(3.5) == 3.5
        assert policy.replan_window == 4

    @pytest.mark.parametrize("window", [0, -3])
    def test_rejects_bad_window(self, window):
        with pytest.raises(ValueError):
            make_policy(f"replan:{window}")
        with pytest.raises(ValueError):
            make_policy(Policy("replan", 0.0, window))


class TestMakePolicy:
    def test_parses_all_specs(self):
        assert make_policy("immediate").name == "immediate"
        assert make_policy("batched:2.5").name == "batched:2.5"
        assert make_policy("batched:2.5").quantum == 2.5
        assert make_policy("replan:8").name == "replan:8"
        assert make_policy("replan:8").replan_window == 8

    def test_case_and_whitespace_tolerant(self):
        assert make_policy("Immediate").name == "immediate"
        assert make_policy(" batched :4").name == "batched:4"

    def test_policy_object_passes_through(self):
        policy = make_policy("batched:3")
        assert make_policy(policy) == policy
        assert make_policy(Policy("replan", 0, 2)) == make_policy("replan:2")

    @pytest.mark.parametrize("spec", [
        "immediate:3",      # immediate takes no argument
        "batched",          # missing quantum
        "batched:zero",     # non-numeric quantum
        "batched:-2",       # negative quantum
        "replan",           # missing window
        "replan:1.5",       # non-integer window
        "replan:0",         # window < 1
        "fifo",             # unknown name
    ])
    def test_rejects_bad_specs(self, spec):
        with pytest.raises(ValueError):
            make_policy(spec)

    def test_rejects_non_string(self):
        with pytest.raises(ValueError):
            make_policy(42)


class TestPolicyValue:
    """A policy is its value: every spelling of one value compares
    equal, and two values compare unequal even where their canonical
    names round to the same text."""

    @pytest.mark.parametrize("a, b", [
        ("immediate", "Immediate"),
        ("batched:5", "batched:5.0"),
        ("batched:5", " Batched : 5 "),
        ("replan:4", "replan: 4"),
    ])
    def test_spellings_of_one_value_are_equal(self, a, b):
        assert make_policy(a) == make_policy(b)
        assert make_policy(a).name == make_policy(b).name

    def test_close_quanta_differ_despite_one_name(self):
        a, b = make_policy("batched:1234567"), make_policy("batched:1234568")
        assert a.name == b.name == "batched:1.23457e+06"
        assert a != b
        assert make_policy(a) == make_policy("batched:1234567")

    @pytest.mark.parametrize("policy", [
        Policy("immediate", 1.0),          # immediate takes no argument
        Policy("batched", 5.0, 2),         # a window on a batched policy
        Policy("batched", True),           # a bool is no quantum
        Policy("replan", 1.0, 2),          # a quantum on a replan policy
        Policy("replan", 0.0, 2.5),        # non-integer window
        Policy("replan", 0.0, True),       # a bool is no window
        Policy("fifo"),                    # unknown kind
    ])
    def test_rejects_bad_hand_built_policy(self, policy):
        with pytest.raises(ValueError):
            make_policy(policy)
