"""Tests of the benchmark's own code: tracer arithmetic, percentile rule,
op-mix design, patch-point tolerance and failure accounting.

    python3 -m pytest perfbench/tests -q
"""

import sys
import types

import pytest

import run
import stats
import tracer as tracer_mod
from tracer import ROOT, Tracer, layer_metrics


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t

    def tick(self, dt):
        self.t += dt


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(tracer_mod, "perf_counter", fake)
    return fake


@pytest.fixture
def fake_module(monkeypatch, clock):
    mod = types.ModuleType("fake_layers")

    def a():
        clock.tick(1)
        mod.b()
        mod.a3()

    def b():
        clock.tick(2)
        mod.a2()
        clock.tick(1)

    def a2():
        clock.tick(4)

    def a3():
        clock.tick(8)

    mod.a, mod.b, mod.a2, mod.a3 = a, b, a2, a3
    monkeypatch.setitem(sys.modules, "fake_layers", mod)
    return mod


def test_self_time_of_nested_spans(fake_module, clock):
    t = Tracer(points=[("A", "fake_layers:a"), ("B", "fake_layers:b"),
                       ("A", "fake_layers:a2"), ("A", "fake_layers:a3")],
               captures={}).install()
    t.begin_op()
    fake_module.a()
    clock.tick(16)
    wall = t.end_op("op")
    t.uninstall()
    assert wall == 32
    # a's own 1, plus a3 (a nested call into the open A span), plus a2,
    # which B's span separates from a.
    assert t.self_s["A"] == 13
    assert t.self_s["B"] == 3
    assert t.self_s[ROOT] == 16
    assert t.calls["A"] == 2 and t.calls["B"] == 1
    assert sum(t.self_s.values()) == wall
    assert t.ops[0]["self_s"] == {"A": 13, "B": 3, ROOT: 16}


def test_captured_calls_belong_to_the_capturing_span(fake_module, clock):
    t = Tracer(points=[("online.replay", "fake_layers:b"),
                       ("commit", "fake_layers:a2")]).install()
    t.begin_op()
    fake_module.b()
    t.end_op("op")
    t.uninstall()
    assert t.self_s["online.replay"] == 7
    assert t.calls["commit"] == 0
    assert t.counts["online.replay.commits"] == 1


def test_calls_outside_an_op_are_not_recorded(fake_module, clock):
    t = Tracer(points=[("A", "fake_layers:a")], captures={}).install()
    fake_module.a()
    t.uninstall()
    assert t.calls["A"] == 0 and not t.ops


def test_uninstall_restores_every_patch_point():
    from repro.core.memory_profile import MemoryProfile
    from repro.scheduling.registry import SCHEDULERS
    from repro.service.app import ServiceApp

    before = (MemoryProfile.__dict__["add"], SCHEDULERS["memheft"],
              ServiceApp.__dict__["_parse_body"])
    t = Tracer(warn=lambda msg: None).install()
    assert not t.missing
    assert SCHEDULERS["memheft"] is not before[1]
    assert isinstance(ServiceApp.__dict__["_parse_body"], staticmethod)
    t.uninstall()
    assert (MemoryProfile.__dict__["add"], SCHEDULERS["memheft"],
            ServiceApp.__dict__["_parse_body"]) == before


def test_layer_self_times_account_for_a_real_op():
    from repro.core.platform import Platform
    from repro.dags.daggen import random_dag
    from repro.scheduling.registry import SCHEDULERS

    graph = random_dag(size=60, width=0.5, rng=3)
    t = Tracer(warn=lambda msg: None).install()
    try:
        t.begin_op()
        SCHEDULERS["memheft"](graph, Platform(2, 2))
        wall = t.end_op("memheft")
    finally:
        t.uninstall()
    assert sum(t.self_s.values()) == pytest.approx(wall, rel=1e-9)
    m = layer_metrics(t)
    assert m["rank.calls"] == 1
    assert m["commit.calls"] == graph.n_tasks
    assert m["est.calls"] > 0 and m["commit.profile.calls"] > 0
    assert m["loop.self_s"] > 0 and m["profile.segments"] > 0


def test_missing_patch_points_warn_and_report_zero(monkeypatch):
    from repro.core import memory_profile
    from repro.scheduling import kernel

    monkeypatch.delattr(memory_profile.MemoryProfile, "add_batch")
    monkeypatch.delattr(kernel, "CompiledKernel")
    warnings = []
    t = Tracer(warn=warnings.append).install()
    t.uninstall()
    assert ("repro.core.memory_profile:MemoryProfile.add_batch"
            in t.missing)
    assert sum("CompiledKernel" in p for p in t.missing) == 2
    assert len(warnings) == len(t.missing)
    assert layer_metrics(t)["commit.profile.calls"] == 0

    t = Tracer(points=[("x", "no.such.module:f"),
                       ("y", "repro.scheduling.registry:SCHEDULERS[nope]")],
               warn=warnings.append).install()
    assert len(t.missing) == 2


def test_percentile_rule_keeps_ten_samples_beyond():
    for n in (21, 24, 40, 88, 123, 2000):
        q = stats.tail_percentile(n)
        assert stats.beyond(n, q) >= stats.MIN_BEYOND
        assert q == 99 or stats.beyond(n, q + 1) < stats.MIN_BEYOND
    assert stats.tail_percentile(24) == 58
    assert stats.tail_percentile(2000) == 99
    assert stats.tail_percentile(20) is None
    samples = list(range(1, 101))
    assert stats.nearest_rank(samples, 90) == 90
    assert stats.beyond(100, 90) == 10


def test_service_mix_keeps_percentiles_off_the_cluster_boundary():
    from workloads import ServiceMixed

    clusters = ServiceMixed.fractions()
    n_ops = 2 * sum(ServiceMixed.ops_per_half().values())
    assert stats.cluster_margin(clusters, 50) >= 10
    assert stats.cluster_margin(clusters, stats.tail_percentile(n_ops)) >= 10
    assert stats.cluster_margin([(0.55, True), (0.45, False)], 50) == \
        pytest.approx(5)


def test_digest_mismatch_counts_as_failure():
    from repro.core.platform import Platform
    from repro.dags.daggen import random_dag
    from repro.io.json_io import schedule_to_dict
    from repro.scheduling.registry import SCHEDULERS
    from workloads import Outcome, OfflineLarge, digest

    graph = random_dag(size=40, width=0.5, rng=5)
    platform = Platform(2, 2)
    schedule = SCHEDULERS["memheft"](graph, platform)
    good = digest(schedule_to_dict(schedule))
    w = OfflineLarge.__new__(OfflineLarge)
    for recorded, failed in ((good, 0), ("0" * 20, 1)):
        w.digests = {"k": recorded}
        rec, out = run.Recorder(), Outcome()
        w.check(rec, out, "k", graph, platform, schedule, None,
                schedule.makespan)
        assert len(rec.failures) == failed
        assert out.feasible == 1 - failed


def test_recorder_times_ops_and_keeps_exceptions():
    rec = run.Recorder()

    def boom():
        raise ValueError("x")

    result, exc, seconds = rec.time("op", boom)
    assert result is None and isinstance(exc, ValueError) and seconds >= 0
    assert rec.attempted == 1 and not rec.failures


def test_setup_clock_takes_median_per_unit_kind():
    clock = run.SetupClock()
    clock.once["imports"] = 1.0
    clock.units["graph"] = [1.0, 1.2, 5.0]
    assert clock.total() == pytest.approx(1.0 + 3 * 1.2)


def test_metric_lists_match_benchmark_json():
    import json

    from tracer import layer_unit

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    names = list(layer_metrics(Tracer(points=[])))
    assert [m["name"] for m in spec["per_layer"]] == names
    assert all(m["unit"] == layer_unit(m["name"]) for m in spec["per_layer"])
    assert spec["run_seconds"] == run.SIZED_FOR


def test_host_speed_scales_ops_by_the_probes_around_them(monkeypatch):
    import clock

    readings = iter([0.5, 0.02, 0.04, 0.03])   # the first warms the loop up
    monkeypatch.setattr(clock, "probe", lambda: next(readings))
    speed = clock.HostSpeed()
    speed.before()                               # reads 0.02
    # A probe is due when this op ends (0.04): scaled by the mean.
    assert speed.scale(clock.INTERVAL_S) == \
        pytest.approx((clock.NOMINAL_S / 0.03) ** clock.EXPONENT)
    speed.before()                               # not due: no probe
    short = clock.INTERVAL_S * 0.6
    assert speed.scale(short) == \
        pytest.approx((clock.NOMINAL_S / 0.04) ** clock.EXPONENT)
    speed.before()
    # The run time since the last probe now passes the interval (0.03).
    assert speed.scale(short) == \
        pytest.approx((clock.NOMINAL_S / 0.035) ** clock.EXPONENT)
    assert speed.readings == [0.02, 0.04, 0.03]


def test_run_time_leaves_out_time_without_the_cpu():
    import time

    import clock

    start = clock.clocks()
    time.sleep(0.05)
    assert clock.run_time(start) < 0.02
