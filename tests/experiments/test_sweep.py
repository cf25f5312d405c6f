"""Sweep machinery: references, aggregation, baseline anchoring."""

import math

import pytest

import repro.experiments.sweep as sweep_mod
from repro import Platform
from repro.dags import dex, random_dag, small_rand_set
from repro.experiments import (
    absolute_sweep,
    default_alphas,
    heterogeneity_sweep,
    normalized_sweep,
    reference_run,
)
from repro.scheduling.registry import SCHEDULERS


class TestReferenceRun:
    def test_reference_matches_heft_meta(self):
        ref = reference_run(dex(), Platform(1, 1))
        assert ref.makespan == 6
        # HEFT's own schedule peaks at 3 blue / 5 red (schedule s1 of the
        # paper reaches 2/5; HEFT overlaps the transfer differently).
        assert ref.peak_red == 5 and ref.peak_blue == 3
        assert ref.ref_memory == 5


class TestDefaultAlphas:
    def test_grid_properties(self):
        alphas = default_alphas(10)
        assert len(alphas) == 10
        assert alphas[-1] == pytest.approx(1.0)
        assert all(a > 0 for a in alphas)
        assert list(alphas) == sorted(alphas)


class TestNormalizedSweep:
    @pytest.fixture(scope="class")
    def result(self):
        graphs = small_rand_set(n_graphs=4, size=15)
        return normalized_sweep(graphs, Platform(1, 1),
                                alphas=(0.4, 0.7, 1.0), check=True)

    def test_grid_complete(self, result):
        assert result.alphas == (0.4, 0.7, 1.0)
        assert len(result.cells) == 3 * 2

    def test_alpha_one_reproduces_heft(self, result):
        # At alpha=1 every graph schedules; the makespan matches HEFT up to
        # the (small) conservativeness of the forward-looking memory check —
        # see tests/scheduling/test_property.py for why it is not exact.
        cell = result.cell(1.0, "memheft")
        assert cell.success_rate == 1.0
        assert cell.mean_norm_makespan == pytest.approx(1.0, abs=0.05)

    def test_success_rate_monotone_in_alpha(self, result):
        for algo in result.algorithms:
            rates = [c.success_rate for c in result.series(algo)]
            assert rates == sorted(rates)

    def test_failed_cells_have_no_makespan(self):
        graphs = small_rand_set(n_graphs=2, size=15)
        res = normalized_sweep(graphs, Platform(1, 1), alphas=(0.01,))
        for cell in res.cells:
            if cell.n_success == 0:
                assert cell.mean_norm_makespan is None

    def test_extra_solver_series(self):
        graphs = small_rand_set(n_graphs=2, size=10)

        def fake_solver(graph, platform):
            return 100.0  # always "succeeds"

        res = normalized_sweep(graphs, Platform(1, 1), alphas=(0.5, 1.0),
                               extra_solver=fake_solver)
        assert res.algorithms[-1] == "optimal"
        assert res.cell(1.0, "optimal").success_rate == 1.0

    def test_unknown_alpha_or_algo_raises(self, result):
        with pytest.raises(KeyError):
            result.cell(0.123, "memheft")


class TestAbsoluteSweep:
    def test_dex_absolute_sweep(self):
        res = absolute_sweep(dex(), Platform(1, 1), (3, 4, 5, 6), check=True)
        assert res.heft_makespan == 6
        assert res.heft_memory == 5
        assert res.lower_bound == 5
        spans = {p.memory: p.makespan for p in res.series("memheft")}
        assert spans[3] is None            # below MemReq(T3)
        assert spans[4] is not None
        assert spans[5] == 6

    def test_min_feasible_memory(self):
        res = absolute_sweep(dex(), Platform(1, 1), (3, 4, 5, 6))
        assert res.min_feasible_memory("memheft") == 4
        assert res.min_feasible_memory("memminmin") == 4

    def test_makespan_weakly_decreases_with_memory(self):
        g = small_rand_set(n_graphs=1, size=15)[0]
        ref = reference_run(g, Platform(1, 1))
        grid = [ref.ref_memory * a for a in (0.5, 0.75, 1.0)]
        res = absolute_sweep(g, Platform(1, 1), grid)
        for algo in ("memheft", "memminmin"):
            spans = [p.makespan for p in res.series(algo) if p.makespan]
            # not strictly monotone in general, but the trend must hold
            # between the tightest and loosest feasible bounds.
            if len(spans) >= 2:
                assert spans[-1] <= spans[0] + 1e-9


class TestHeterogeneitySweep:
    @pytest.fixture(scope="class")
    def result(self):
        graphs = [random_dag(size=12, rng=s) for s in (0, 1)]
        return heterogeneity_sweep(
            graphs, Platform(2, 2), spreads=(0.0, 0.4, 0.8), check=True)

    def test_grid_complete(self, result):
        assert len(result.cells) == 3 * len(result.algorithms)
        assert all(c.n_success == c.n_graphs for c in result.cells)

    def test_zero_spread_is_the_homogeneous_baseline(self, result):
        for algo in result.algorithms:
            cell = result.cell(0.0, algo)
            assert cell.mean_ratio_to_homogeneous == pytest.approx(1.0)

    def test_series_sorted_by_spread(self, result):
        for algo in result.algorithms:
            spreads = [c.spread for c in result.series(algo)]
            assert spreads == sorted(spreads)

    def test_parallel_identical_to_serial(self, result):
        graphs = [random_dag(size=12, rng=s) for s in (0, 1)]
        parallel = heterogeneity_sweep(
            graphs, Platform(2, 2), spreads=(0.0, 0.4, 0.8), check=True,
            jobs=2)
        assert parallel.cells == result.cells

    def test_unknown_cell_raises(self, result):
        with pytest.raises(KeyError):
            result.cell(0.123, "memheft")


#: One small call per sweep style, all scheduling with "memheft".
SWEEPS = {
    "normalized": lambda **kw: normalized_sweep(
        small_rand_set(2, 12), Platform(1, 1), ("memheft",), (0.6, 1.0),
        **kw),
    "absolute": lambda **kw: absolute_sweep(
        dex(), Platform(1, 1), (3, 4, 5), ("memheft",), **kw),
    "heterogeneity": lambda **kw: heterogeneity_sweep(
        [random_dag(size=12, rng=s) for s in (0, 1)], Platform(2, 2),
        ("memheft",), (0.0, 0.4), **kw),
}


class TestCheckValidatesEverySchedule:
    @pytest.mark.parametrize("sweep", sorted(SWEEPS))
    def test_each_produced_schedule_is_validated_once(self, sweep,
                                                      monkeypatch):
        produced, validated = [], []
        run = SCHEDULERS["memheft"]

        def counting(graph, platform, **kw):
            produced.append(run(graph, platform, **kw))
            return produced[-1]

        def validate(graph, platform, schedule):
            validated.append(schedule)
            return real_validate(graph, platform, schedule)

        real_validate = sweep_mod.validate_schedule
        monkeypatch.setitem(SCHEDULERS, "memheft", counting)
        monkeypatch.setattr(sweep_mod, "validate_schedule", validate)
        SWEEPS[sweep](check=True)
        assert produced
        # the heterogeneity sweep's spread-0 baselines included
        assert [id(s) for s in validated] == [id(s) for s in produced]


class TestMemoryObliviousRefused:
    """A memory-oblivious heuristic ignores the bound, so a bounded sweep
    would count its overflowing schedules as successes."""

    @pytest.fixture
    def no_cells(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("a cell ran")
        monkeypatch.setattr(sweep_mod, "map_cells", fail)

    def test_normalized_sweep(self, no_cells):
        with pytest.raises(ValueError, match=r"memory-oblivious.*: heft;"):
            normalized_sweep(small_rand_set(4, 16), Platform(1, 1),
                             ("memheft", "heft"), (0.2, 0.5, 1.0))

    def test_absolute_sweep(self, no_cells):
        with pytest.raises(ValueError, match="minmin"):
            absolute_sweep(dex(), Platform(1, 1), (4, 5),
                           algorithms=("minmin",), check=True)

    def test_names_match_case_insensitively(self, no_cells):
        with pytest.raises(ValueError, match="HEFT, Sufferage"):
            normalized_sweep(small_rand_set(1, 10), Platform(1, 1),
                             ("HEFT", "memminmin", "Sufferage"), (1.0,))

    def test_heterogeneity_sweep_on_a_bounded_platform(self, no_cells):
        with pytest.raises(ValueError, match="sufferage"):
            heterogeneity_sweep(
                [random_dag(size=12, rng=0)],
                Platform(2, 2, mem_blue=500, mem_red=math.inf),
                ("memheft", "sufferage"), (0.0, 0.4))

    def test_heterogeneity_sweep_unbounded_accepts_them(self):
        res = heterogeneity_sweep([random_dag(size=12, rng=0)],
                                  Platform(2, 2), ("heft", "minmin"),
                                  (0.0, 0.4), check=True)
        assert all(c.n_success == 1 for c in res.cells)
