"""Tests for the parallel campaign runner.

The headline property: a parallel campaign is indistinguishable from a
serial one — same RunResults, same order, same digests — because every
repetition seeds itself from its grid coordinates alone.
"""

import dataclasses
import json
import os
import signal
import time

import pytest

from repro.experiments import (
    CampaignInterrupted,
    CampaignStore,
    RunLedger,
    read_ledger_any,
    run_campaign,
)
from repro.experiments.campaign import CampaignResult, CellError, RunResult
from repro.experiments.runner import (
    RunnerStats,
    cell_cost,
    parallel_map,
    plan_chunks,
    resolve_jobs,
    run_parallel_campaign,
)


def _canon(runs):
    """NaN-tolerant canonical form (NaN != NaN breaks plain ==)."""
    return json.dumps(
        [dataclasses.asdict(r) for r in runs], sort_keys=True, default=str
    )


# -- module-level run functions (workers import them by path) ------------------

_FAKE_FIELDS = dict(
    resources=("r",), ttc=1.0, tw=0.0, tw_last=0.0, tx=0.0, ts=0.0,
    trp=0.0, pilot_waits=(0.0,), restarts=0,
)


def _fake_run(cell, campaign_seed, resource_pool, collect_digests):
    exp_id, n_tasks, rep = cell
    return RunResult(
        exp_id=exp_id, n_tasks=n_tasks, rep=rep,
        units_done=n_tasks, **_FAKE_FIELDS,
    )


def _error_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell[2] == 1:  # every rep-1 repetition blows up
        raise ValueError("injected failure")
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _crash_run(cell, campaign_seed, resource_pool, collect_digests):
    if cell == (1, 16, 1):
        os._exit(13)  # simulate a segfaulting worker
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _self_cancel_run(cell, campaign_seed, resource_pool, collect_digests):
    # two SIGINTs (drain, then hard cancel), then 3 s of work that only
    # a preempting executor cuts short
    for _ in range(2):
        os.kill(os.getpid(), signal.SIGINT)
        time.sleep(0.05)
    time.sleep(3.0)
    return _fake_run(cell, campaign_seed, resource_pool, collect_digests)


def _double(x):
    return 2 * x


# -- scheduling helpers --------------------------------------------------------


class TestResolveJobs:
    def test_explicit_count_passes_through(self):
        assert resolve_jobs(3) == 3

    def test_zero_and_none_mean_usable_cpus(self):
        cpus = len(os.sched_getaffinity(0))
        assert resolve_jobs(0) == max(1, cpus)
        assert resolve_jobs(None) == max(1, cpus)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestPlanChunks:
    GRID = [
        (e, n, r)
        for e in (1, 3)
        for n in (8, 64, 512, 2048)
        for r in range(3)
    ]

    def test_covers_every_cell_exactly_once(self):
        chunks = plan_chunks(self.GRID, jobs=4)
        flat = [c for chunk in chunks for c in chunk]
        assert sorted(flat) == sorted(self.GRID)

    def test_biggest_cells_dispatch_first(self):
        chunks = plan_chunks(self.GRID, jobs=4)
        assert chunks[0][0][1] == 2048
        costs = [cell_cost(c) for chunk in chunks for c in chunk]
        assert costs == sorted(costs, reverse=True)

    def test_deterministic(self):
        assert plan_chunks(self.GRID, jobs=4) == plan_chunks(self.GRID, 4)

    def test_empty_grid(self):
        assert plan_chunks([], jobs=4) == []

    def test_single_worker_still_chunks(self):
        chunks = plan_chunks(self.GRID, jobs=1)
        assert sum(len(c) for c in chunks) == len(self.GRID)


# -- the determinism contract --------------------------------------------------


class TestParallelEqualsSerial:
    def test_field_by_field_with_digests(self):
        kwargs = dict(
            experiments=(1, 3), task_counts=(8,), reps=2,
            campaign_seed=7, collect_digests=True,
        )
        serial = run_campaign(**kwargs)
        stats = RunnerStats()
        par = run_parallel_campaign(jobs=4, stats=stats, **kwargs)
        assert not par.errors
        assert stats.completed == len(serial.runs) == 4
        # Field-by-field, in the same grid order, including the
        # telemetry/fault/health digest of every repetition.
        assert _canon(par.runs) == _canon(serial.runs)
        assert all(r.digest for r in par.runs)
        assert [r.digest for r in par.runs] == [
            r.digest for r in serial.runs
        ]
        assert all(r.events > 0 for r in par.runs)

    def test_jobs_param_on_run_campaign_delegates(self):
        kwargs = dict(
            experiments=(1,), task_counts=(8,), reps=2, campaign_seed=3,
        )
        serial = run_campaign(**kwargs)
        par = run_campaign(jobs=2, **kwargs)
        assert _canon(par.runs) == _canon(serial.runs)


# -- containment and reporting -------------------------------------------------


class TestContainment:
    GRID_KW = dict(
        experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
    )

    def test_cell_exception_recorded_not_fatal(self):
        result = run_parallel_campaign(
            jobs=2, run_fn="tests.experiments.test_runner:_error_run",
            **self.GRID_KW,
        )
        assert len(result.runs) == 2  # rep 0 of each size survives
        assert len(result.errors) == 2
        assert all(isinstance(e, CellError) for e in result.errors)
        assert all("injected failure" in e.error for e in result.errors)
        assert {(e.exp_id, e.n_tasks, e.rep) for e in result.errors} == {
            (1, 8, 1), (1, 16, 1),
        }

    def test_worker_crash_contained_to_one_cell(self):
        stats = RunnerStats()
        result = run_parallel_campaign(
            jobs=2, run_fn="tests.experiments.test_runner:_crash_run",
            stats=stats, **self.GRID_KW,
        )
        # the crashing repetition is reported, the other three survive
        assert {(e.exp_id, e.n_tasks, e.rep) for e in result.errors} == {
            (1, 16, 1),
        }
        assert "crashed" in result.errors[0].error
        assert len(result.runs) == 3
        assert stats.pool_restarts >= 1

    def test_progress_callback_counts_to_total(self):
        seen = []
        result = run_parallel_campaign(
            jobs=2, run_fn="tests.experiments.test_runner:_fake_run",
            on_progress=seen.append,
            **self.GRID_KW,
        )
        assert len(result.runs) == 4
        assert seen[-1].done == 4 and seen[-1].total == 4
        assert [p.done for p in seen] == sorted(p.done for p in seen)
        assert {p.cell for p in seen} == {
            (1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1),
        }
        assert all(p.ok and p.error is None for p in seen)
        assert all(p.wall_s >= 0 for p in seen)

    def test_results_in_grid_order_regardless_of_completion(self):
        result = run_parallel_campaign(
            jobs=2, run_fn="tests.experiments.test_runner:_fake_run",
            **self.GRID_KW,
        )
        assert [(r.exp_id, r.n_tasks, r.rep) for r in result.runs] == [
            (1, 8, 0), (1, 8, 1), (1, 16, 0), (1, 16, 1),
        ]


# -- one driver: the same guarantees on both executors -------------------------


class TestOneDriver:
    GRID_KW = dict(
        experiments=(1,), task_counts=(8, 16), reps=2, campaign_seed=0,
    )

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_cell_exception_contained_on_every_executor(self, jobs, tmp_path):
        ndjson = str(tmp_path / "c.ndjson")
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            ledger = RunLedger(ndjson, store=store)
            result = run_campaign(
                jobs=jobs, run_fn="tests.experiments.test_runner:_error_run",
                store=store, ledger=ledger, **self.GRID_KW,
            )
            ledger.close()
            states = {
                (r["n_tasks"], r["rep"]): r["state"]
                for r in store.attempt_rows()
            }
            assert store.run_count() == 2
            assert store.error_cells() == {(1, 8, 1), (1, 16, 1)}
            assert store.lease_count() == 0
            assert store.interrupted() is False
        assert result.errors == [
            CellError(1, 8, 1, "ValueError: injected failure"),
            CellError(1, 16, 1, "ValueError: injected failure"),
        ]
        assert [(r.n_tasks, r.rep) for r in result.runs] == [(8, 0), (16, 0)]
        assert states == {
            (8, 0): "committed", (8, 1): "failed",
            (16, 0): "committed", (16, 1): "failed",
        }
        end = [r for r in read_ledger_any(ndjson) if r["kind"] == "campaign-end"]
        assert len(end) == 1
        assert (end[0]["completed"], end[0]["errors"]) == (2, 2)
        assert end[0]["interrupted"] is False

    @pytest.mark.parametrize("driver", [run_campaign, run_parallel_campaign])
    def test_hard_cancel_preempts_the_inline_cell(self, driver, tmp_path):
        with CampaignStore(str(tmp_path / "c.sqlite")) as store:
            w0 = time.perf_counter()
            with pytest.raises(CampaignInterrupted) as err:
                driver(
                    jobs=1,
                    run_fn="tests.experiments.test_runner:_self_cancel_run",
                    store=store, **self.GRID_KW,
                )
            elapsed = time.perf_counter() - w0
            rows = store.attempt_rows()
            assert store.run_count() == 0
            assert store.interrupted() is True
        assert elapsed < 1.5  # the cell alone would take 3 s
        assert [(r["n_tasks"], r["rep"], r["state"]) for r in rows] == [
            (8, 0, "interrupted"),
        ]
        assert err.value.result.runs == []


# -- parallel_map --------------------------------------------------------------


class TestParallelMap:
    def test_serial_fallback_preserves_order(self):
        assert parallel_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        items = list(range(20))
        assert parallel_map(_double, items, jobs=4) == [
            2 * i for i in items
        ]

    def test_single_item_runs_in_process(self):
        assert parallel_map(_double, [21], jobs=8) == [42]
