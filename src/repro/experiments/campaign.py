"""The four experiments of Table I, run as Monte-Carlo campaigns.

Each experiment couples one execution strategy with nine bag-of-task
skeleton applications (8..2048 single-core tasks, uniform 15 min or
truncated-Gaussian durations). A campaign runs every (experiment, size)
cell for several repetitions; each repetition gets a fresh simulated
testbed, an independent seed, a randomized warm-up offset, and — as in
the paper — a randomized choice/order of target resources.
"""

from __future__ import annotations

import gc
import hashlib
import json
import logging
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core import Binding, PlannerConfig
from ..skeleton import PAPER_TASK_COUNTS, SkeletonAPI, paper_skeleton
from ..telemetry.causality import attribute_report
from .environment import build_environment

log = logging.getLogger(__name__)


@contextmanager
def _gc_paused():
    """Suspend the cyclic garbage collector for one repetition.

    A repetition allocates hundreds of thousands of short-lived tracked
    objects (events, trace records, state tuples); with the default
    thresholds the gen-2 collector fires mid-simulation and costs more
    than the entire attribution sweep. Pausing for the bounded lifetime
    of one repetition moves that work to the natural boundary between
    repetitions. Reentrant (the inner pause is a no-op), and the prior
    collector state is always restored.
    """
    was_enabled = gc.isenabled()
    if was_enabled:
        gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()


@dataclass(frozen=True)
class ExperimentSpec:
    """One row family of Table I."""

    exp_id: int
    gaussian: bool          # task-duration distribution
    binding: Binding
    unit_scheduler: str
    n_pilots: int

    @property
    def label(self) -> str:
        dist = "Gaussian" if self.gaussian else "Uniform"
        b = "Late" if self.binding is Binding.LATE else "Early"
        return f"Exp.{self.exp_id} ({b} {dist} {self.n_pilots} pilot(s))"


#: Table I. Experiments 1-2: early binding, direct scheduler, one pilot
#: sized to run all tasks concurrently. Experiments 3-4: late binding,
#: backfill scheduler, three pilots of #tasks/3 cores each.
TABLE1: Dict[int, ExperimentSpec] = {
    1: ExperimentSpec(1, gaussian=False, binding=Binding.EARLY,
                      unit_scheduler="direct", n_pilots=1),
    2: ExperimentSpec(2, gaussian=True, binding=Binding.EARLY,
                      unit_scheduler="direct", n_pilots=1),
    3: ExperimentSpec(3, gaussian=False, binding=Binding.LATE,
                      unit_scheduler="backfill", n_pilots=3),
    4: ExperimentSpec(4, gaussian=True, binding=Binding.LATE,
                      unit_scheduler="backfill", n_pilots=3),
}


@dataclass(frozen=True)
class RunResult:
    """The measurements of one repetition."""

    exp_id: int
    n_tasks: int
    rep: int
    resources: Tuple[str, ...]
    ttc: float
    tw: float
    tw_last: float
    tx: float
    ts: float
    trp: float
    pilot_waits: Tuple[float, ...]
    units_done: int
    restarts: int
    #: kernel events processed by this repetition's simulation.
    events: int = 0
    #: SHA-256 over the repetition's telemetry/fault/health digests when
    #: the run was executed with ``collect_digests=True``; "" otherwise.
    digest: str = ""
    #: exact partition of TTC by causal component, in
    #: :data:`repro.telemetry.causality.COMPONENTS` order; the values
    #: sum to ``ttc`` within 1e-9 by construction. Empty tuple for
    #: campaign files written before the attribution engine existed.
    attribution: Tuple[Tuple[str, float], ...] = ()
    #: SHA-256 of the run's canonical attribution + critical path —
    #: byte-identical across serial and parallel campaigns of one seed.
    attribution_digest: str = ""

    @property
    def succeeded(self) -> bool:
        return self.units_done == self.n_tasks


@dataclass(frozen=True)
class CellProgress:
    """One completed repetition, as delivered to ``on_progress``.

    Replaces the old bare ``(done, total)`` callback arguments: consumers
    see *which* cell finished, what it cost in wall time, and whether it
    errored — enough to drive ETAs, ledgers, and live anomaly flags.
    """

    done: int
    total: int
    cell: Tuple[int, int, int]        # (exp_id, n_tasks, rep)
    wall_s: float
    error: Optional[str] = None       # CellError message; None on success
    ttc: float = float("nan")

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class CellError:
    """A repetition that did not produce a result (worker crash, bug)."""

    exp_id: int
    n_tasks: int
    rep: int
    error: str


@dataclass
class CampaignResult:
    """All repetitions of a campaign, with aggregation helpers.

    Cell lookups go through a ``(exp_id, n_tasks)`` index built lazily
    and invalidated whenever ``runs`` changes length, so repeated
    :meth:`aggregate`/:meth:`series` calls on a large campaign cost
    O(cell) instead of O(runs) each.
    """

    runs: List[RunResult] = field(default_factory=list)
    #: repetitions lost to worker crashes or per-cell exceptions; a
    #: healthy campaign has none.
    errors: List[CellError] = field(default_factory=list)
    #: how the campaign was produced (seed, grid, reps) — persisted by
    #: :mod:`repro.experiments.io` so post-hoc tools (``repro report``)
    #: can re-derive any single repetition deterministically.
    meta: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self._index: Dict[Tuple[int, int], List[RunResult]] = {}
        self._indexed_len = -1

    def add(self, run: RunResult) -> None:
        """Append one repetition (keeps the cell index incremental)."""
        self.runs.append(run)
        if self._indexed_len == len(self.runs) - 1:
            self._index.setdefault((run.exp_id, run.n_tasks), []).append(run)
            self._indexed_len = len(self.runs)

    def _cell_index(self) -> Dict[Tuple[int, int], List[RunResult]]:
        # Length-check invalidation: direct `runs` mutation (the public
        # dataclass field) is detected and triggers a rebuild.
        if self._indexed_len != len(self.runs):
            index: Dict[Tuple[int, int], List[RunResult]] = {}
            for r in self.runs:
                index.setdefault((r.exp_id, r.n_tasks), []).append(r)
            self._index = index
            self._indexed_len = len(self.runs)
        return self._index

    def cell(self, exp_id: int, n_tasks: int) -> List[RunResult]:
        return list(self._cell_index().get((exp_id, n_tasks), ()))

    def aggregate(
        self, exp_id: int, n_tasks: int, attr: str = "ttc"
    ) -> Tuple[float, float]:
        """(mean, std) of one attribute over a cell's repetitions."""
        values = [
            getattr(r, attr)
            for r in self._cell_index().get((exp_id, n_tasks), ())
        ]
        if not values:
            return (float("nan"), float("nan"))
        arr = np.asarray(values, dtype=float)
        return float(arr.mean()), float(arr.std(ddof=0))

    def series(
        self, exp_id: int, attr: str = "ttc",
        task_counts: Sequence[int] = PAPER_TASK_COUNTS,
    ) -> List[Tuple[int, float, float]]:
        """[(n_tasks, mean, std), ...] for one experiment."""
        return [
            (n, *self.aggregate(exp_id, n, attr)) for n in task_counts
        ]


def run_cell_report(
    spec: ExperimentSpec,
    n_tasks: int,
    rep: int = 0,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    min_warmup_s: float = 2 * 3600.0,
    max_warmup_s: float = 12 * 3600.0,
    telemetry: bool = False,
):
    """Execute one repetition; returns ``(report, env, resources)``.

    The deterministic heart of :func:`run_single`, exposed separately so
    post-hoc tools (``repro report``) can *replay* any repetition of a
    saved campaign from its coordinates and recover the full
    :class:`~repro.core.execution_manager.ExecutionReport` — critical
    path included — without the campaign having stored it.
    """
    ss = np.random.SeedSequence(
        entropy=campaign_seed, spawn_key=(spec.exp_id, n_tasks, rep)
    )
    seeds = ss.generate_state(3)
    rng = np.random.default_rng(seeds[0])

    with _gc_paused():
        env = build_environment(
            seed=int(seeds[1]), resources=resource_pool,
            telemetry=telemetry,
        )
        # Randomized submission instant (irregular intervals, paper §IV.A).
        env.warm_up(float(rng.uniform(min_warmup_s, max_warmup_s)))

        # Randomized resource choice and submission order (paper §IV.A).
        pool_names = list(env.pool)
        chosen = tuple(
            rng.choice(pool_names, size=spec.n_pilots, replace=False)
        )

        skeleton = SkeletonAPI(
            paper_skeleton(n_tasks, gaussian=spec.gaussian), seed=int(seeds[2])
        )
        config = PlannerConfig(
            binding=spec.binding,
            unit_scheduler=spec.unit_scheduler,
            n_pilots=spec.n_pilots,
            resources=chosen,
        )
        report = env.execution_manager.execute(skeleton, config)
    return report, env, chosen


def run_single(
    spec: ExperimentSpec,
    n_tasks: int,
    rep: int = 0,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    min_warmup_s: float = 2 * 3600.0,
    max_warmup_s: float = 12 * 3600.0,
    collect_digests: bool = False,
) -> RunResult:
    """Execute one repetition of one (experiment, size) cell.

    The repetition's seed, warm-up offset, target resources, and
    materialized task durations all derive deterministically from
    ``(campaign_seed, exp_id, n_tasks, rep)``.

    ``collect_digests`` enables the telemetry hub for the repetition and
    stores a SHA-256 digest of the telemetry/fault/health logs in the
    result — the cheap, order-independent way to check that two
    executions of the same cell (e.g. serial vs. parallel campaign)
    observed the identical simulated history.
    """
    with _gc_paused():
        report, env, chosen = run_cell_report(
            spec, n_tasks, rep,
            campaign_seed=campaign_seed,
            resource_pool=resource_pool,
            min_warmup_s=min_warmup_s,
            max_warmup_s=max_warmup_s,
            telemetry=collect_digests,
        )
        d = report.decomposition
        # Causal attribution is derived from the entity histories alone,
        # so it is available (and digest-stable) with or without
        # telemetry.
        att = attribute_report(report)
    log.debug(
        "cell exp=%d n=%d rep=%d: %s",
        spec.exp_id, n_tasks, rep, att.summary(),
    )
    digest = ""
    if collect_digests:
        payload = {
            "telemetry": env.sim.telemetry.digest(),
            "faults": (
                report.fault_log.digest()
                if report.fault_log is not None else None
            ),
            "health": (
                report.health_log.digest()
                if report.health_log is not None else None
            ),
        }
        digest = hashlib.sha256(
            json.dumps(payload, sort_keys=True).encode()
        ).hexdigest()
    return RunResult(
        exp_id=spec.exp_id,
        n_tasks=n_tasks,
        rep=rep,
        resources=chosen,
        ttc=d.ttc,
        tw=d.tw,
        tw_last=d.tw_last,
        tx=d.tx,
        ts=d.ts,
        trp=d.trp,
        pilot_waits=d.pilot_waits,
        units_done=d.units_done,
        restarts=d.restarts,
        events=int(env.sim.events_processed),
        digest=digest,
        attribution=att.components,
        attribution_digest=att.digest(),
    )


def run_campaign(
    experiments: Sequence[int] = (1, 2, 3, 4),
    task_counts: Sequence[int] = PAPER_TASK_COUNTS,
    reps: int = 5,
    campaign_seed: int = 0,
    resource_pool: Optional[Sequence[str]] = None,
    verbose: bool = False,
    jobs: int = 1,
    collect_digests: bool = False,
    on_progress: Optional[Callable[[CellProgress], None]] = None,
    ledger=None,
    store=None,
    resume: bool = False,
    resilience=None,
    control=None,
    run_fn: Optional[str] = None,
    stats=None,
) -> CampaignResult:
    """Run the full experiment grid; returns all repetitions.

    The one campaign driver. It plans the cells to run, then hands them
    to one of two executors (:mod:`repro.experiments.runner`): the pool
    executor when ``jobs`` resolves to more than one worker (0 = one
    per usable CPU) and more than one cell remains, the inline
    executor otherwise. Each repetition is seeded independently from
    ``(campaign_seed, exp_id, n_tasks, rep)``, so both executors produce
    identical results, returned in grid order.

    A repetition that raises (or, in the pool, crashes or times out its
    worker past the retry budget) is recorded in ``result.errors`` as a
    :class:`CellError` instead of ending the campaign.

    ``on_progress`` receives one :class:`CellProgress` per finished
    repetition; ``ledger`` (a :class:`repro.experiments.ledger.RunLedger`)
    streams the campaign's NDJSON run ledger. ``store`` (a
    :class:`repro.experiments.store.CampaignStore`) persists each
    repetition as it completes — one committed row per cell plus a
    lease/attempt history, so a concurrent reader (``repro tail``) and
    a post-crash forensic pass both see exactly the completed prefix.
    Only this process writes the store; pool workers return results.

    ``resume=True`` (requires ``store``) continues a half-finished
    campaign: the stored config is verified against the requested one
    (:class:`~repro.experiments.resilience.IncompatibleResumeError` on
    mismatch), committed cells are skipped, stale leases reclaimed, and
    only the remainder runs — per-cell seeding makes the resumed store
    byte-identical (by campaign fingerprint digest) to an uninterrupted
    run. ``resilience`` is a
    :class:`~repro.experiments.resilience.ResiliencePolicy` (timeouts,
    retry budgets, ``retry_errors``). SIGINT/SIGTERM drain the
    in-flight cells and raise
    :class:`~repro.experiments.resilience.CampaignInterrupted` with the
    store marked cleanly interrupted; a second signal hard-cancels.

    ``run_fn`` names a ``module:attr`` replacement for the per-cell
    execution function (test and instrumentation hook); ``stats``, when
    given, is a :class:`~repro.experiments.runner.RunnerStats` filled
    with aggregated runner telemetry.
    """
    from .resilience import (
        CampaignInterrupted,
        ExecutionSupervisor,
        ResiliencePolicy,
        ShutdownControl,
        config_digest,
        prepare_resume,
    )
    from .runner import RunnerStats, execute_inline, execute_pool, resolve_jobs

    t0 = perf_counter()
    jobs = resolve_jobs(jobs)
    policy = resilience if resilience is not None else ResiliencePolicy()
    meta = campaign_meta(
        experiments=experiments, task_counts=task_counts, reps=reps,
        campaign_seed=campaign_seed, resource_pool=resource_pool,
    )
    grid = [
        (exp_id, n_tasks, rep)
        for exp_id in experiments
        for n_tasks in task_counts
        for rep in range(reps)
    ]
    if resume:
        if store is None:
            raise ValueError("resume=True requires a store")
        plan = prepare_resume(
            store, meta, grid, retry_errors=policy.retry_errors
        )
        remaining = plan.remaining
    else:
        plan = None
        remaining = list(grid)
    pooled = jobs > 1 and len(remaining) > 1
    stats = stats if stats is not None else RunnerStats()
    stats.jobs = jobs
    stats.cells = len(grid)
    done_offset = len(grid) - len(remaining)
    log.info(
        "campaign: %d cells (%d to run), %s, seed=%d",
        len(grid), len(remaining),
        f"pool of {jobs} workers" if pooled else "inline", campaign_seed,
    )
    if store is not None:
        store.set_campaign_meta(meta)
        store.set_config_digest(config_digest(meta))
    if ledger is not None:
        ledger.campaign_start(len(grid), meta)
        if plan is not None:
            ledger.campaign_resumed(
                committed=len(plan.committed),
                errors_skipped=len(plan.errors_skipped),
                errors_retried=len(plan.errors_retried),
                reclaimed=plan.reclaimed_leases,
                remaining=len(plan.remaining),
            )

    results: Dict[Tuple[int, int, int], RunResult] = {}
    errors: Dict[Tuple[int, int, int], str] = {}
    supervisor = ExecutionSupervisor(store=store, ledger=ledger, policy=policy)

    def on_cell(status: str, cell, payload: object, cmeta: dict) -> None:
        run: Optional[RunResult] = None
        error: Optional[str] = None
        worker = cmeta.get("worker")
        if status == "ok":
            run = payload  # type: ignore[assignment]
            results[cell] = run
            stats.completed += 1
            stats.events += run.events
            supervisor.commit(cell, run, worker=worker)
        else:
            error = str(payload)
            errors[cell] = error
            stats.errors += 1
            log.warning("cell %s failed: %s", cell, error)
            supervisor.fail(cell, error)
        if verbose:
            exp_id, n_tasks, rep = cell
            outcome = (
                f"TTC={run.ttc:.0f}s Tw={run.tw:.0f}s "
                f"done={run.units_done}/{n_tasks}"
                if run is not None else f"ERROR {error}"
            )
            print(f"{TABLE1[exp_id].label} n={n_tasks} rep={rep}: {outcome}")
        progress = CellProgress(
            done=done_offset + len(results) + len(errors), total=len(grid),
            cell=cell, wall_s=float(cmeta.get("wall_s", 0.0)),
            error=error, ttc=run.ttc if run is not None else float("nan"),
        )
        if ledger is not None:
            ledger.cell(progress, run=run, worker=worker)
        if on_progress is not None:
            on_progress(progress)

    if control is None:
        # Inline, the second signal must preempt the running cell, so
        # the handler raises KeyboardInterrupt. The pool parent polls
        # the flags instead: a raise could land inside pool bookkeeping
        # and corrupt the teardown.
        control = ShutdownControl(raise_on_hard=not pooled)
    control.install()
    execute = execute_pool if pooled else execute_inline
    pool_arg = tuple(resource_pool) if resource_pool is not None else None
    try:
        interrupted = execute(
            remaining, jobs,
            (campaign_seed, pool_arg, collect_digests, run_fn),
            stats, on_cell, supervisor, control,
        )
    except KeyboardInterrupt:
        # a hard cancel landing between cells (or inside a ledger/store
        # call): transactions keep the store consistent either way.
        interrupted = True
    finally:
        control.restore()

    stats.wall_s = perf_counter() - t0
    stats.interrupted = interrupted
    if store is not None:
        store.set_interrupted(interrupted)
    if ledger is not None:
        ledger.campaign_end(
            stats.completed, stats.errors, stats.wall_s,
            interrupted=interrupted,
        )
    # grid order: deterministic, independent of completion order.
    out = CampaignResult(meta=meta)
    for cell in grid:
        if cell in results:
            out.add(results[cell])
        elif cell in errors:
            out.errors.append(CellError(*cell, error=errors[cell]))
    if interrupted:
        raise CampaignInterrupted(
            "campaign interrupted after "
            f"{done_offset + len(results) + len(errors)}/{len(grid)} "
            "cells; the store holds every committed cell",
            result=out,
        )
    log.info(
        "campaign done: %d ok, %d errors, %.1fs wall",
        stats.completed, stats.errors, stats.wall_s,
    )
    if resume and store is not None:
        # previously committed cells live only in the store; return the
        # whole campaign in grid order, as an uninterrupted run would.
        return store.load_campaign()
    return out


def campaign_meta(
    experiments: Sequence[int],
    task_counts: Sequence[int],
    reps: int,
    campaign_seed: int,
    resource_pool: Optional[Sequence[str]] = None,
) -> Dict[str, Any]:
    """The provenance dict a campaign carries in ``CampaignResult.meta``."""
    return {
        "experiments": [int(e) for e in experiments],
        "task_counts": [int(n) for n in task_counts],
        "reps": int(reps),
        "campaign_seed": int(campaign_seed),
        "resource_pool": (
            list(resource_pool) if resource_pool is not None else None
        ),
    }
