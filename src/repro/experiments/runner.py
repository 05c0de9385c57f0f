"""The campaign driver's two executors: in-process and process pool.

:func:`~repro.experiments.campaign.run_campaign` is the one campaign
driver. It plans the grid (resume included), owns the store, the run
ledger and the interrupt path, and hands the cells still to run to one
of two executors defined here, which share one signature:

* :func:`execute_inline` runs cells one after another in this process;
  a hard cancel preempts the running cell.
* :func:`execute_pool` fans them out to a :class:`ProcessPoolExecutor`
  with leases, heartbeats, wall budgets, crash retries, quarantine and
  drain.

Each executor reports every finished cell through the driver's
``on_cell(status, cell, payload, meta)`` callback and returns whether
the run was interrupted. A Monte-Carlo campaign is embarrassingly
parallel: every repetition of every ``(experiment, n_tasks)`` cell
derives its seeds independently from ``(campaign_seed, exp_id,
n_tasks, rep)`` via ``np.random.SeedSequence`` and runs in a fresh
simulation, so the choice of executor never changes a result.

Determinism contract
--------------------
The pooled campaign is *bit-identical* to the inline one:

* Seeding depends only on the cell coordinates, never on execution
  order, worker identity, or wall-clock time.
* Workers return completed :class:`RunResult` values; the parent never
  mutates them.
* The driver re-orders results into grid order (experiments x
  task_counts x reps) before assembling the :class:`CampaignResult`, so
  downstream consumers see the same sequence regardless of which
  worker finished first.

``tests/experiments/test_runner.py`` asserts field-by-field equality of
inline and pooled campaigns — including the per-repetition
telemetry/fault/health digests — and CI re-checks it on every push.

Scheduling
----------
Cells are packed into chunks, biggest first (cost model: a cell's wall
time grows roughly linearly in ``n_tasks`` on top of a fixed
environment-construction overhead). Big-first packing keeps the long
cells from landing at the tail of the schedule where they would leave
all other workers idle. Each chunk is one executor task, which
amortizes process-pool dispatch overhead for the many small cells.

Crash containment
-----------------
Both executors catch ordinary exceptions per cell and report them as
errors, so one failing repetition costs that repetition only. A worker
process dying (segfault, OOM kill) breaks the whole pool: all
in-flight futures raise :class:`BrokenProcessPool` and we cannot tell
which chunk was guilty. The pool executor then splits every unfinished
chunk into single-cell chunks and retries them in a fresh pool. A cell
that breaks a pool twice on its own is recorded as a
:class:`~repro.experiments.campaign.CellError` instead of a result;
innocent cells complete normally.
"""

from __future__ import annotations

import importlib
import logging
import os
import time
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .campaign import (
    TABLE1,
    CampaignResult,
    RunResult,
    run_campaign,
    run_single,
)

log = logging.getLogger(__name__)

#: One repetition's coordinates in the campaign grid.
Cell = Tuple[int, int, int]  # (exp_id, n_tasks, rep)

#: Environment setup (pool construction, queue priming) costs roughly as
#: much as ~64 tasks' worth of simulated execution; the rest of a cell's
#: wall time is close to linear in its task count.
_BASE_COST = 64


def resolve_jobs(jobs: Optional[int]) -> int:
    """Map a ``--jobs`` value to a worker count.

    ``0`` or ``None`` means one worker per *usable* CPU — the scheduling
    affinity mask, not the raw core count, so cgroup/taskset-restricted
    environments (CI runners, containers) are sized honestly.
    """
    if jobs is None or jobs == 0:
        try:
            return max(1, len(os.sched_getaffinity(0)))
        except AttributeError:  # pragma: no cover - non-Linux fallback
            return max(1, os.cpu_count() or 1)
    if jobs < 0:
        raise ValueError(f"jobs must be >= 0, got {jobs}")
    return int(jobs)


def cell_cost(cell: Cell) -> int:
    """Relative wall-time estimate for one repetition."""
    return _BASE_COST + cell[1]


def plan_chunks(cells: Sequence[Cell], jobs: int) -> List[List[Cell]]:
    """Pack cells into chunks for dispatch, biggest cells first.

    The chunk size target is ``total_cost / (jobs * 4)`` (but at least
    one maximal cell), giving ~4 waves of chunks per worker: small
    enough for load balancing when cell costs are skewed, large enough
    that pool dispatch overhead stays negligible. Deterministic — no
    randomness, ties keep grid order (stable sort).
    """
    if not cells:
        return []
    jobs = max(1, jobs)
    costed = sorted(cells, key=cell_cost, reverse=True)
    total = sum(cell_cost(c) for c in cells)
    target = max(cell_cost(costed[0]), total // (jobs * 4))
    chunks: List[List[Cell]] = []
    current: List[Cell] = []
    acc = 0
    for cell in costed:
        current.append(cell)
        acc += cell_cost(cell)
        if acc >= target:
            chunks.append(current)
            current = []
            acc = 0
    if current:
        chunks.append(current)
    return chunks


# -- cell execution (module-level: must be picklable under spawn too) ----------


def _default_run_cell(
    cell: Cell,
    campaign_seed: int,
    resource_pool: Optional[Tuple[str, ...]],
    collect_digests: bool,
) -> RunResult:
    """Execute one repetition (the default ``run_fn``)."""
    exp_id, n_tasks, rep = cell
    return run_single(
        TABLE1[exp_id], n_tasks, rep,
        campaign_seed=campaign_seed,
        resource_pool=resource_pool,
        collect_digests=collect_digests,
    )


def _resolve_run_fn(path: Optional[str]):
    """Import a ``module:attr`` run function (test injection hook)."""
    if path is None:
        return _default_run_cell
    module_name, _, attr = path.partition(":")
    return getattr(importlib.import_module(module_name), attr)


def _run_cell(
    run_fn: Callable,
    cell: Cell,
    campaign_seed: int,
    resource_pool: Optional[Tuple[str, ...]],
    collect_digests: bool,
) -> Tuple[str, Cell, object, dict]:
    """Run one cell, containing its exceptions: one ``on_cell`` row.

    One failing repetition costs that repetition, not the chunk and not
    the campaign. The meta dict carries the cell's wall time and the
    running process's pid, feeding the run ledger and progress
    callbacks.
    """
    w0 = time.perf_counter()
    try:
        payload = run_fn(cell, campaign_seed, resource_pool, collect_digests)
        status = "ok"
    except Exception as exc:  # noqa: BLE001 - containment boundary
        payload = f"{type(exc).__name__}: {exc}"
        status = "error"
    meta = {"wall_s": time.perf_counter() - w0, "worker": os.getpid()}
    return status, cell, payload, meta


def _run_chunk(
    chunk: Sequence[Cell],
    campaign_seed: int,
    resource_pool: Optional[Tuple[str, ...]],
    collect_digests: bool,
    run_fn_path: Optional[str],
) -> List[Tuple[str, Cell, object, dict]]:
    """Worker entry point: run every cell of one chunk."""
    run_fn = _resolve_run_fn(run_fn_path)
    return [
        _run_cell(run_fn, cell, campaign_seed, resource_pool, collect_digests)
        for cell in chunk
    ]


# -- the executors -------------------------------------------------------------


@dataclass
class RunnerStats:
    """Aggregated telemetry for one campaign run."""

    jobs: int = 0
    chunks: int = 0
    cells: int = 0
    completed: int = 0
    errors: int = 0
    pool_restarts: int = 0
    wall_s: float = 0.0
    #: total kernel events processed across every repetition.
    events: int = 0
    #: attempts killed for exceeding the per-cell wall budget.
    timeouts: int = 0
    #: cells re-dispatched after a timeout or crash.
    retried: int = 0
    #: the campaign was drained by SIGINT/SIGTERM before completing.
    interrupted: bool = False

    @property
    def events_per_sec(self) -> float:
        return self.events / self.wall_s if self.wall_s > 0 else 0.0


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """SIGKILL the pool's workers and reap the executor.

    ``shutdown(wait=True)`` would block on a hung worker, and because
    workers inherit the parent's benign :class:`ShutdownControl` handler
    a SIGTERM is shielded too — SIGKILL is the only reliable teardown.
    """
    procs = list((getattr(pool, "_processes", None) or {}).values())
    for proc in procs:
        try:
            proc.kill()
        except Exception:  # noqa: BLE001 - already-dead race
            pass
    pool.shutdown(wait=False, cancel_futures=True)
    for proc in procs:
        try:
            proc.join(timeout=5)
        except Exception:  # noqa: BLE001 - already-reaped race
            pass


def execute_inline(
    cells: Sequence[Cell],
    jobs: int,
    worker_args: Tuple,
    stats: RunnerStats,
    on_cell: Callable[[str, Cell, object, dict], None],
    supervisor,
    control,
) -> bool:
    """Run cells one after another in this process.

    ``jobs`` is ignored. A drain request stops before the next cell; a
    hard cancel surfaces as :class:`KeyboardInterrupt` inside the
    running cell (the driver installs ``raise_on_hard=True`` for this
    executor), whose lease is closed ``interrupted`` with nothing
    committed. Returns ``True`` when the run was interrupted.
    """
    *cell_args, run_fn_path = worker_args
    run_fn = _resolve_run_fn(run_fn_path)
    stats.chunks = len(cells)
    for cell in cells:
        if control.draining or control.hard:
            return True
        supervisor.begin(cell, worker=os.getpid())
        try:
            row = _run_cell(run_fn, cell, *cell_args)
        except KeyboardInterrupt:
            supervisor.close(cell, "interrupted", "hard-cancelled mid-cell")
            return True
        on_cell(*row)
    return False


def execute_pool(
    cells: Sequence[Cell],
    jobs: int,
    worker_args: Tuple,
    stats: RunnerStats,
    on_cell: Callable[[str, Cell, object, dict], None],
    supervisor,
    control,
) -> bool:
    """Run cells on ``jobs`` worker processes, surviving crashes, hangs
    and signals.

    Cells are packed by :func:`plan_chunks`. Chunks whose futures raise
    :class:`BrokenProcessPool` are split into single-cell chunks and
    retried in a fresh pool; a cell that breaks a pool
    ``policy.max_attempts`` times while running alone is quarantined as
    an error. When ``policy.cell_timeout_s`` is set, the parent polls
    in-flight chunks against a ``cell_timeout_s * len(chunk)`` wall
    budget; an overdue chunk's workers are killed, its cells retried
    under the same attempt budget (with seeded backoff), and innocent
    in-flight chunks are requeued without attempt penalty. ``control``
    drain requests stop new dispatch and let running chunks finish;
    hard-cancel kills the pool. Returns ``True`` when the run was
    interrupted before completion.
    """
    policy = supervisor.policy
    campaign_seed = worker_args[0]
    pending = plan_chunks(cells, jobs)
    stats.chunks = len(pending)
    solo_crashes: Dict[Cell, int] = {}
    cell_timeouts: Dict[Cell, int] = {}
    draining = False
    while pending:
        if control.draining or control.hard:
            # drain requested between pool generations: nothing new
            # starts; requeued cells' leases are already closed.
            return True
        broken: List[List[Cell]] = []
        requeue: List[List[Cell]] = []
        backoff = 0.0
        with ProcessPoolExecutor(
            max_workers=min(jobs, len(pending))
        ) as pool:
            futures: Dict = {}
            for chunk in pending:
                for cell in chunk:
                    supervisor.begin(cell)
                futures[pool.submit(_run_chunk, chunk, *worker_args)] = chunk
            pending = []
            started: Dict = {}  # future -> monotonic time first seen running
            not_done = set(futures)
            while not_done:
                done, not_done = wait(
                    not_done, timeout=policy.poll_s,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    chunk = futures[fut]
                    try:
                        rows = fut.result()
                    except BrokenProcessPool:
                        broken.append(chunk)
                        continue
                    except CancelledError:
                        continue  # lease was closed where we cancelled
                    for status, cell, payload, cmeta in rows:
                        on_cell(status, cell, payload, cmeta)
                if not not_done:
                    break
                now = time.monotonic()
                running = [f for f in not_done if f in started or f.running()]
                for fut in running:
                    started.setdefault(fut, now)
                supervisor.heartbeat(
                    [c for f in running for c in futures[f]]
                )
                if control.hard:
                    _kill_pool(pool)
                    for fut in not_done:
                        fut.cancel()
                        for cell in futures[fut]:
                            supervisor.close(
                                cell, "interrupted", "hard-cancelled"
                            )
                    return True
                if control.draining:
                    if not draining:
                        draining = True
                        for fut in list(not_done):
                            if fut not in started and fut.cancel():
                                not_done.discard(fut)
                                for cell in futures[fut]:
                                    supervisor.close(
                                        cell, "interrupted",
                                        "drained before start",
                                    )
                    continue  # let running chunks finish and commit
                if policy.cell_timeout_s is None:
                    continue
                overdue = {
                    f for f in running
                    if now - started[f]
                    > policy.cell_timeout_s * len(futures[f])
                }
                if not overdue:
                    continue
                # one hung worker also wedges pool shutdown, so kill the
                # whole pool and sort guilty from innocent below.
                _kill_pool(pool)
                stats.pool_restarts += 1
                log.warning(
                    "%d chunk(s) exceeded the wall budget; killing the "
                    "pool and retrying",
                    len(overdue),
                )
                for fut in list(not_done):
                    fut.cancel()
                    chunk = futures[fut]
                    if fut in overdue:
                        budget = policy.cell_timeout_s * len(chunk)
                        for cell in chunk:
                            stats.timeouts += 1
                            count = cell_timeouts.get(cell, 0) + 1
                            cell_timeouts[cell] = count
                            supervisor.timeout(cell, budget)
                            if count >= policy.max_attempts:
                                on_cell(
                                    "error", cell,
                                    f"cell timed out ({count} attempt(s) "
                                    f"over a {budget:.1f}s wall budget); "
                                    "quarantined as a poison cell",
                                    {"wall_s": budget, "worker": None},
                                )
                            else:
                                stats.retried += 1
                                pause = policy.backoff_s(
                                    cell, count, campaign_seed
                                )
                                backoff = max(backoff, pause)
                                supervisor.retried(cell, pause)
                                requeue.append([cell])
                    else:
                        if fut.done() and not fut.cancelled():
                            # finished in the race window between the
                            # wait() and the teardown: keep the results.
                            try:
                                for status, cell, payload, cmeta in (
                                    fut.result()
                                ):
                                    on_cell(status, cell, payload, cmeta)
                                continue
                            except (BrokenProcessPool, CancelledError):
                                pass
                        # innocent bystanders of the teardown: requeue
                        # with no attempt penalty.
                        for cell in chunk:
                            supervisor.close(
                                cell, "reclaimed",
                                "collateral of a timeout teardown",
                            )
                        requeue.append(list(chunk))
                not_done = set()
        if broken:
            stats.pool_restarts += 1
            log.warning(
                "worker pool broke; retrying %d chunk(s) solo in a "
                "fresh pool",
                len(broken),
            )
            for chunk in broken:
                for cell in chunk:
                    supervisor.close(
                        cell, "crashed",
                        "worker pool broke while this cell was in flight",
                    )
                if len(chunk) == 1:
                    cell = chunk[0]
                    count = solo_crashes.get(cell, 0) + 1
                    solo_crashes[cell] = count
                    if count >= policy.max_attempts:
                        on_cell(
                            "error", cell,
                            "worker process crashed while running this "
                            f"repetition ({count} time(s) in isolation)",
                            {"wall_s": 0.0, "worker": None},
                        )
                    else:
                        stats.retried += 1
                        supervisor.retried(cell, 0.0)
                        requeue.append([cell])
                else:
                    # split: innocent cells complete solo, the guilty
                    # one starts accruing crash attempts.
                    for cell in chunk:
                        requeue.append([cell])
        pending = requeue
        if draining or control.draining or control.hard:
            return True
        if pending and backoff > 0:
            time.sleep(min(backoff, 30.0))
    return False


def run_parallel_campaign(*, jobs: int = 0, **kwargs) -> CampaignResult:
    """:func:`~repro.experiments.campaign.run_campaign` with ``jobs``
    defaulting to one worker per usable CPU."""
    return run_campaign(jobs=jobs, **kwargs)


def parallel_map(
    fn: Callable,
    items: Sequence,
    jobs: int = 1,
) -> List:
    """Order-preserving process-parallel map for campaign-style drivers.

    ``fn`` must be a module-level (picklable) callable and every item's
    result must be independent of the others — true for the ablation and
    calibration drivers, whose samples are seeded per item. Falls back
    to a plain in-process loop when ``jobs`` resolves to one worker or
    there is at most one item, so callers need no single-CPU special
    case. Unlike the campaign runner this helper does not survive
    worker crashes; a crash propagates as :class:`BrokenProcessPool`.
    """
    items = list(items)
    jobs = resolve_jobs(jobs)
    if jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(max_workers=min(jobs, len(items))) as pool:
        futures = [pool.submit(fn, item) for item in items]
        return [f.result() for f in futures]
