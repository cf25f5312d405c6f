"""JSON round-trips for graphs, platforms and schedules."""

import json
import math

import pytest

from repro import Platform, memheft
from repro.dags import dex, lu_dag, random_dag
from repro.io import (
    canonical_digest,
    canonical_json,
    graph_from_dict,
    graph_to_dict,
    load_graph,
    load_schedule,
    platform_from_dict,
    platform_to_dict,
    save_graph,
    save_schedule,
    schedule_from_dict,
    schedule_to_dict,
)


class TestGraphRoundTrip:
    def test_dex(self):
        g = dex()
        back = graph_from_dict(graph_to_dict(g))
        assert back.n_tasks == 4 and back.n_edges == 4
        assert back.w_blue("T3") == 6
        assert back.size("T1", "T3") == 2
        assert back.name == "dex"

    def test_random_graph(self):
        g = random_dag(size=25, rng=3)
        back = graph_from_dict(graph_to_dict(g))
        assert back.n_tasks == g.n_tasks and back.n_edges == g.n_edges

    def test_tuple_ids_stringified(self):
        g = lu_dag(2)
        d = graph_to_dict(g)
        assert all(isinstance(row["id"], (str, int)) for row in d["tasks"])
        back = graph_from_dict(d)
        assert back.n_tasks == g.n_tasks

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "g.json"
        save_graph(dex(), path)
        assert load_graph(path).n_tasks == 4


class TestPlatformRoundTrip:
    def test_bounded(self):
        p = Platform(2, 3, 10, 20)
        assert platform_from_dict(platform_to_dict(p)) == p

    def test_unbounded_memory_becomes_null(self):
        p = Platform(1, 1)
        d = platform_to_dict(p)
        assert d["mem_blue"] is None
        back = platform_from_dict(d)
        assert math.isinf(back.mem_blue)


#: Platform objects carrying a key outside their form: before the check,
#: each decoded to an unbounded platform, dropping the stray bounds.
STRAY_KEY_PLATFORMS = [
    pytest.param({"n_blue": 1, "n_red": 1, "capacities": [10, 10]},
                 "capacities", id="dual-with-capacities"),
    pytest.param({"proc_counts": [1, 1], "mem_blue": 10, "mem_red": 10},
                 "mem_blue", id="kary-with-mem_blue"),
    pytest.param({"n_blue": 1, "n_red": 1, "capacity": 10},
                 "capacity", id="typo-capacity"),
]


class TestPlatformKeys:
    @pytest.mark.parametrize("data, key", STRAY_KEY_PLATFORMS)
    def test_key_outside_the_form_raises(self, data, key):
        with pytest.raises(ValueError, match=key):
            platform_from_dict(data)

    @pytest.mark.parametrize("p", [
        Platform(1, 2, 5), Platform([1, 2, 1], [3.0, 4.0, 5.0]),
        Platform(1, 1, 5, 5, speeds=[1.0, 2.0])], ids=str)
    def test_every_written_form_reads_back(self, p):
        assert platform_from_dict(platform_to_dict(p)) == p


class TestScheduleRoundTrip:
    def test_memheft_schedule(self, tmp_path):
        g = dex()
        plat = Platform(1, 1, 5, 5)
        s = memheft(g, plat)
        back = schedule_from_dict(schedule_to_dict(s))
        assert back.makespan == s.makespan
        assert back.platform == plat
        assert back.n_comms == s.n_comms
        for t in g.tasks():
            assert back.placement(t).memory is s.placement(t).memory
            assert back.placement(t).start == s.placement(t).start

    def test_meta_preserved(self):
        g = dex()
        s = memheft(g, Platform(1, 1, 5, 5))
        back = schedule_from_dict(schedule_to_dict(s))
        assert back.meta["algorithm"] == "memheft"
        assert back.meta["peak_red"] == s.meta["peak_red"]

    def test_file_round_trip(self, tmp_path):
        s = memheft(dex(), Platform(1, 1, 5, 5))
        path = tmp_path / "s.json"
        save_schedule(s, path)
        assert load_schedule(path).makespan == s.makespan

    @pytest.mark.parametrize("table, field", [
        ("placements", "start"), ("placements", "finish"),
        ("comms", "start"), ("comms", "finish")])
    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-1.0"])
    def test_malformed_window_rejected(self, tmp_path, table, field, bad):
        """``json.loads`` parses ``NaN`` and ``Infinity``: such windows
        (and negative ones) must fail to load, never come back valid."""
        s = memheft(dex(), Platform(1, 1, 5, 5))
        data = schedule_to_dict(s)
        assert data[table], "the dex schedule has comms"
        data[table][0][field] = "@BAD@"
        text = json.dumps(data).replace('"@BAD@"', bad)
        with pytest.raises(ValueError, match="invalid .* window"):
            schedule_from_dict(json.loads(text))
        path = tmp_path / "s.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="invalid .* window"):
            load_schedule(path)


class TestCanonicalDigest:
    def test_canonical_json_is_key_order_independent(self):
        assert canonical_json({"b": 1, "a": [1.5, "x"]}) == \
               canonical_json({"a": [1.5, "x"], "b": 1})

    def test_canonical_json_rejects_nan(self):
        with pytest.raises(ValueError):
            canonical_json({"x": float("nan")})

    def test_objects_and_dicts_address_the_same_content(self):
        g = dex()
        p = Platform(1, 1, 5, 5)
        assert canonical_digest(g, p, "memheft") == \
               canonical_digest(graph_to_dict(g), platform_to_dict(p),
                                "memheft")

    def test_default_options_and_case_are_normalised(self):
        g, p = dex(), Platform(1, 1, 5, 5)
        assert canonical_digest(g, p, "MemHEFT") == \
               canonical_digest(g, p, "memheft", {})

    def test_sensitive_to_every_component(self):
        g, p = dex(), Platform(1, 1, 5, 5)
        base = canonical_digest(g, p, "memheft")
        assert base != canonical_digest(g, p, "memminmin")
        assert base != canonical_digest(g, Platform(1, 1, 6, 5), "memheft")
        assert base != canonical_digest(g, p, "memheft",
                                        {"comm_policy": "eager"})
        g2 = dex()
        d2 = graph_to_dict(g2)
        d2["tasks"][0]["w_blue"] += 1
        assert base != canonical_digest(d2, platform_to_dict(p), "memheft")

    def test_stable_across_calls(self):
        g, p = dex(), Platform(1, 1, 5, 5)
        assert canonical_digest(g, p, "memheft") == \
               canonical_digest(g, p, "memheft")
        assert len(canonical_digest(g, p, "memheft")) == 64


class TestCanonicalJsonValues:
    """Response bodies are canonical JSON: every scalar a body carries
    (makespans, peaks, start times) parses back with its value and type,
    and values JSON cannot carry exactly are refused when rendered."""

    @pytest.mark.parametrize("value", [
        None, True, False, 0, -17, 2 ** 62, "", "blue", 0.0, -1.5,
        0.1 + 0.2, 1e-308, 1.7976931348623157e308,
    ])
    def test_scalar_exact(self, value):
        out = json.loads(canonical_json({"v": value}))
        assert out["v"] == value and type(out["v"]) is type(value)

    def test_floats_bit_exact(self):
        for x in [3.141592653589793, 1 / 3, 2 ** -1074, 1e-17, 2.0 ** 53]:
            out = json.loads(canonical_json({"v": x}))
            assert out["v"].hex() == x.hex()

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_non_finite_floats_refused(self, value):
        with pytest.raises(ValueError):
            canonical_json({"v": value})

    def test_unicode_round_trips_on_one_line(self):
        row = {"digest": "d", "body": "naïve — 図 \u0000\n"}
        text = canonical_json(row)
        assert "\n" not in text
        assert json.loads(text) == row
