"""Kernel microbenchmarks: the event queue and scheduler passes.

Isolates the two hot primitives the campaign benchmark aggregates —
event scheduling and backfill selection — so a regression can be
attributed to a layer, not just observed end to end. All measurements
are written to ``benchmarks/BENCH_kernel.json`` (uploaded by the CI
``kernel-bench`` job) and gated against the committed
``benchmarks/BENCH_baseline.json``:

* **Pop order** — the event queue must pop the committed
  ``(time, priority, seq)`` sequence (:data:`HEAP_POP_DIGEST`) for the
  seeded push workload, including interleaved cancellations. This is
  the host-independent gate and always applies.
* **Wall regression** — each microbenchmark must stay within
  ``REGRESSION_FACTOR``x of its committed baseline wall time (with an
  absolute floor below which load noise is ignored).

Regenerate baselines on a quiet machine with::

    REPRO_BENCH_UPDATE=1 PYTHONPATH=src python -m pytest benchmarks/test_bench_kernel.py -q
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from pathlib import Path
from time import perf_counter

from repro.cluster.job import BatchJob
from repro.cluster.schedulers.backfill import ConservativeBackfillScheduler
from repro.cluster.schedulers.base import RunningSet, SchedulerView
from repro.des.events import EventQueue

_HERE = Path(__file__).parent
BASELINE_PATH = _HERE / "BENCH_baseline.json"
RESULTS_PATH = _HERE / "BENCH_kernel.json"

#: wall time may legitimately vary with load; only a doubling fails.
REGRESSION_FACTOR = 2.0

#: never fail on absolute wall times below this (loaded-runner noise).
MIN_LIMIT_S = 0.25

#: events per queue microbenchmark round.
N_EVENTS = 20_000

#: SHA-256 of the pop order :func:`_drive` records for
#: ``_queue_workload()`` — the seeded workload is fixed, so any change
#: here is a change of the kernel's event order.
HEAP_POP_DIGEST = (
    "711efe69540f9a148b441e524a86898fad5d2e1a473d17e098332d4757e7f85f"
)

_results: dict = {}


def _flush_results() -> None:
    data: dict = {}
    if RESULTS_PATH.exists():
        with open(RESULTS_PATH, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    data.update(_results)
    with open(RESULTS_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)


def _baseline() -> dict:
    if not BASELINE_PATH.exists():
        return {}
    with open(BASELINE_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _gate_wall(key: str, wall_s: float, extra: dict) -> None:
    """Record the measurement; update or enforce the committed baseline."""
    _results[key] = {"wall_s": wall_s, **extra}
    _flush_results()
    if os.environ.get("REPRO_BENCH_UPDATE"):
        baseline = _baseline()
        baseline[key] = {"wall_s": round(wall_s, 4)}
        with open(BASELINE_PATH, "w", encoding="utf-8") as fh:
            json.dump(baseline, fh, indent=1, sort_keys=True)
        return
    committed = _baseline().get(key)
    assert committed is not None, (
        f"no committed baseline for {key!r}; run with REPRO_BENCH_UPDATE=1"
    )
    limit = max(committed["wall_s"] * REGRESSION_FACTOR, MIN_LIMIT_S)
    assert wall_s <= limit, (
        f"{key}: {wall_s:.3f}s exceeds {REGRESSION_FACTOR}x the committed "
        f"baseline ({committed['wall_s']:.3f}s)"
    )


# -- event queue ---------------------------------------------------------------


def _queue_workload(seed: int = 2016, n: int = N_EVENTS):
    """Deterministic (time, priority, cancel_at) push plan.

    Times cluster around a moving "now" the way simulation events do
    (mostly near-future, a heavy tail of far reservations), priorities
    collide often enough to exercise the seq tie-break, and ~20% of
    events are cancelled after a few intervening pushes.
    """
    rng = random.Random(seed)
    plan = []
    now = 0.0
    for i in range(n):
        now += rng.expovariate(1.0)
        horizon = rng.expovariate(1 / 30.0) if rng.random() < 0.9 else (
            rng.uniform(0, 50_000.0)
        )
        priority = rng.choice((-10, 0, 0, 0, 5))
        cancel = rng.random() < 0.2
        plan.append((now + horizon, priority, cancel))
    return plan


def _drive(queue, plan):
    """Push the plan (cancelling as marked), drain, return the pop digest."""
    pending = []
    h = hashlib.sha256()
    for time_, priority, cancel in plan:
        ev = queue.push(time_, lambda: None, (), priority)
        if cancel:
            pending.append(ev)
            if len(pending) >= 7:
                queue.cancel(pending.pop(0))
    for ev in pending:
        queue.cancel(ev)
    while True:
        ev = queue.pop_until(float("inf"))
        if ev is None:
            break
        h.update(f"{ev.time!r}:{ev.priority}:{ev.seq};".encode())
    return h.hexdigest()


def test_bench_queue():
    plan = _queue_workload()
    best = None
    for _ in range(3):
        queue = EventQueue()
        w0 = perf_counter()
        digest = _drive(queue, plan)
        wall = perf_counter() - w0
        best = wall if best is None else min(best, wall)
        # Host-independent determinism gate: the committed pop order,
        # always on.
        assert digest == HEAP_POP_DIGEST, (
            f"event queue popped a different order: {digest}"
        )
    ops = len(plan) * 2  # one push + one pop/cancel per event
    _gate_wall(
        "kernel-queue-heap", best,
        {"events": len(plan), "ops_per_sec": ops / best},
    )


# -- scheduler select cost vs queue depth --------------------------------------


def _select_fixture(depth: int, seed: int = 2016):
    """A pending queue of ``depth`` jobs against a busy 4096-core machine."""
    rng = random.Random(seed)
    running = RunningSet()
    free = 4096
    for _ in range(256):
        cores = rng.choice((1, 1, 1, 4, 16, 64))
        if cores > free - 64:
            continue
        free -= cores
        end = rng.uniform(10.0, 86_400.0)
        running.add(BatchJob(cores=cores, runtime=end, walltime=end), end)
    pending = [
        BatchJob(
            cores=rng.choice((1, 1, 2, 8, 32, 128)),
            runtime=rng.uniform(60.0, 3_600.0),
            walltime=rng.uniform(600.0, 14_400.0),
        )
        for _ in range(depth)
    ]
    view = SchedulerView(
        now=0.0,
        free_cores=free,
        pending=pending,
        running=running,
    )
    return view


def test_bench_backfill_select_depth():
    scheduler = ConservativeBackfillScheduler()
    for depth in (50, 200, 800):
        view = _select_fixture(depth)
        best, picks = None, None
        for _ in range(3):
            w0 = perf_counter()
            picks = scheduler.select(view)
            wall = perf_counter() - w0
            best = wall if best is None else min(best, wall)
        _gate_wall(
            f"backfill-select-{depth}",
            best,
            {"depth": depth, "picks": len(picks)},
        )
