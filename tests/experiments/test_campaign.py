"""Tests for the experiment harness (small, fast configurations)."""

import math

import pytest

from repro.core import Binding
from repro.experiments import (
    TABLE1,
    build_environment,
    cell_stats,
    run_campaign,
    run_single,
    success_rate,
    tw_range,
    win_fraction,
)
from repro.experiments.campaign import CampaignResult, RunResult


class TestEnvironment:
    def test_build_environment_wires_everything(self):
        env = build_environment(seed=1, resources=("gordon-sim", "comet-sim"))
        assert set(env.pool) == {"gordon-sim", "comet-sim"}
        assert set(env.bundle.resources()) == {"gordon-sim", "comet-sim"}
        assert env.network.sites() == ("gordon-sim", "comet-sim")
        # primed machines are busy shortly after start
        env.warm_up(600)
        assert env.pool["comet-sim"].cluster.utilization > 0.5

    def test_environment_reproducible(self):
        def probe():
            env = build_environment(seed=5, resources=("gordon-sim",))
            env.warm_up(3600)
            c = env.pool["gordon-sim"].cluster
            return (c.completed_jobs, c.queue_length, c.free_cores)

        assert probe() == probe()


class TestTable1Specs:
    def test_four_experiments(self):
        assert sorted(TABLE1) == [1, 2, 3, 4]

    def test_experiment_structure(self):
        assert TABLE1[1].binding is Binding.EARLY
        assert TABLE1[1].n_pilots == 1
        assert not TABLE1[1].gaussian
        assert TABLE1[2].gaussian
        assert TABLE1[3].binding is Binding.LATE
        assert TABLE1[3].n_pilots == 3
        assert TABLE1[3].unit_scheduler == "backfill"
        assert TABLE1[4].gaussian
        assert "Late" in TABLE1[4].label


class TestRunSingle:
    def test_early_binding_run(self):
        r = run_single(TABLE1[1], 8, rep=0, campaign_seed=3)
        assert r.succeeded
        assert r.n_tasks == 8
        assert len(r.resources) == 1
        assert len(r.pilot_waits) == 1
        assert r.ttc > 900  # at least one 15-min task wave
        assert r.tx >= 900

    def test_late_binding_run(self):
        r = run_single(TABLE1[3], 8, rep=0, campaign_seed=3)
        assert r.succeeded
        assert len(r.resources) == 3
        assert len(set(r.resources)) == 3  # three distinct resources

    def test_repetition_determinism(self):
        a = run_single(TABLE1[3], 8, rep=1, campaign_seed=5)
        b = run_single(TABLE1[3], 8, rep=1, campaign_seed=5)
        assert a.ttc == b.ttc
        assert a.resources == b.resources

    def test_repetitions_differ(self):
        a = run_single(TABLE1[3], 8, rep=0, campaign_seed=5)
        b = run_single(TABLE1[3], 8, rep=1, campaign_seed=5)
        assert a.ttc != b.ttc


class TestCampaignAggregation:
    @pytest.fixture(scope="class")
    def small_campaign(self):
        return run_campaign(
            experiments=(1, 3), task_counts=(8, 32), reps=2, campaign_seed=9
        )

    def test_grid_complete(self, small_campaign):
        assert len(small_campaign.runs) == 2 * 2 * 2
        for exp in (1, 3):
            for n in (8, 32):
                assert len(small_campaign.cell(exp, n)) == 2

    def test_all_runs_succeed(self, small_campaign):
        assert success_rate(small_campaign) == 1.0

    def test_cell_stats(self, small_campaign):
        s = cell_stats(small_campaign, 1, 8, "ttc")
        assert s.n_runs == 2
        assert s.minimum <= s.mean <= s.maximum
        assert s.std >= 0

    def test_empty_cell_is_nan(self, small_campaign):
        s = cell_stats(small_campaign, 2, 8)
        assert s.n_runs == 0
        assert math.isnan(s.mean)

    def test_series(self, small_campaign):
        series = small_campaign.series(3, "ttc", task_counts=(8, 32))
        assert len(series) == 2
        assert series[0][0] == 8

    def test_tw_range(self, small_campaign):
        lo, hi = tw_range(small_campaign, [1, 3])
        assert 0 <= lo <= hi


class TestCellIndex:
    @staticmethod
    def _run(exp, n, rep, ttc=100.0):
        return RunResult(
            exp_id=exp, n_tasks=n, rep=rep, resources=("x",),
            ttc=ttc, tw=0, tw_last=0, tx=0, ts=0, trp=0,
            pilot_waits=(0,), units_done=n, restarts=0,
        )

    def test_add_keeps_index_incremental(self):
        result = CampaignResult()
        result.add(self._run(1, 8, 0))
        assert len(result.cell(1, 8)) == 1  # builds the index
        result.add(self._run(1, 8, 1))  # incremental update, no rebuild
        assert len(result.cell(1, 8)) == 2
        assert result.cell(3, 8) == []

    def test_direct_runs_mutation_invalidates_index(self):
        result = CampaignResult()
        result.add(self._run(1, 8, 0))
        assert len(result.cell(1, 8)) == 1
        # Bypassing add() — the public dataclass field — must still be
        # picked up via the length check.
        result.runs.append(self._run(1, 8, 1))
        assert len(result.cell(1, 8)) == 2

    def test_aggregate_uses_index(self):
        result = CampaignResult()
        for rep, ttc in enumerate((100.0, 300.0)):
            result.add(self._run(2, 16, rep, ttc))
        mean, std = result.aggregate(2, 16, "ttc")
        assert mean == 200.0 and std == 100.0
        nan_mean, _ = result.aggregate(2, 99)
        assert math.isnan(nan_mean)

    def test_cell_returns_copy(self):
        result = CampaignResult()
        result.add(self._run(1, 8, 0))
        result.cell(1, 8).clear()  # mutating the copy
        assert len(result.cell(1, 8)) == 1


def test_win_fraction_synthetic():
    result = CampaignResult()

    def run(exp, n, ttc):
        return RunResult(
            exp_id=exp, n_tasks=n, rep=0, resources=("x",),
            ttc=ttc, tw=0, tw_last=0, tx=0, ts=0, trp=0,
            pilot_waits=(0,), units_done=n, restarts=0,
        )

    for n in (8, 16):
        result.runs.append(run(1, n, 1000))
        result.runs.append(run(3, n, 500))
    assert win_fraction(result, 3, 1) == 1.0
    assert win_fraction(result, 1, 3) == 0.0
