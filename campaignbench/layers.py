"""Layer map, outside-in counters and the cProfile roll-up.

Every measurement here is taken from outside the program: counters and
timers wrap public functions of ``repro`` at run time, and the traced
run's self time comes from ``cProfile``. Nothing under ``src/`` is
changed.

Layers follow the source tree (paths relative to ``src/repro``):

=====================  ==========================================
``des``                ``des/``
``cluster.workload``   ``cluster/workload.py``
``cluster.schedulers`` ``cluster/schedulers/``
``cluster.machine``    the rest of ``cluster/``
``pilot``              ``pilot/``
``net``                ``net/``
``core``               ``core/ saga/ bundle/ skeleton/ faults/ health/``
``telemetry``          ``telemetry/``
``experiments``        ``experiments/``
=====================  ==========================================
"""

from __future__ import annotations

import cProfile
import functools
import json
import os
import pstats
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = (
    "des",
    "cluster.workload",
    "cluster.schedulers",
    "cluster.machine",
    "pilot",
    "net",
    "core",
    "telemetry",
    "experiments",
)

_CORE_PACKAGES = ("core", "saga", "bundle", "skeleton", "faults", "health")

#: count metric -> (module, class or None, method) of the counted calls;
#: a class with subclasses counts every subclass's own override too.
COUNTERS = {
    "cluster.workload.jobs": ("repro.cluster.workload", "BackgroundWorkload", "make_job"),
    "cluster.machine.allocations": ("repro.cluster.nodes", "NodePool", "allocate"),
    "cluster.schedulers.selects": ("repro.cluster.schedulers.base", "BatchScheduler", "select"),
    "cluster.schedulers.reservations": ("repro.cluster.schedulers.base", "AllocationProfile", "reserve"),
    "pilot.assigns": ("repro.pilot.schedulers", "UnitScheduler", "assign"),
    "net.transfers": ("repro.net.link", "Link", "transfer"),
    "experiments.commits": ("repro.experiments.store", "CampaignStore", "put_run"),
}

#: timer metric -> the calls whose outermost duration it sums.
TIMERS = {
    "telemetry.attribute_s": [
        ("repro.telemetry.causality", None, "attribute_report"),
    ],
    "experiments.observe_s": [
        ("repro.experiments.ledger", "RunLedger", "cell"),
        ("repro.experiments.store", "CampaignStore", "put_run"),
        ("repro.telemetry.bus", "EventBus", "publish"),
        ("repro.experiments.monitor", "CampaignMonitor", "feed"),
    ],
}


def layer_of(path: str, repro_dir: str) -> Optional[str]:
    """The layer a source file belongs to, or None outside the layers."""
    rel = os.path.relpath(path, repro_dir)
    if rel.startswith(".."):
        return None
    parts = rel.split(os.sep)
    top = parts[0]
    if len(parts) == 1:
        return None  # top-level modules (cli, logutil) are not a layer
    if top == "cluster":
        if parts[1] == "workload.py":
            return "cluster.workload"
        if parts[1] == "schedulers":
            return "cluster.schedulers"
        return "cluster.machine"
    if top in _CORE_PACKAGES:
        return "core"
    if top in LAYERS:
        return top
    return None


# -- outside-in counters and timers -------------------------------------------


def _targets(spec: Tuple[str, Optional[str], str]):
    """(owner, name, function) for every definition a spec covers."""
    module_name, class_name, attr = spec
    module = sys.modules.get(module_name) or __import__(
        module_name, fromlist=["_"]
    )
    if class_name is None:
        func = getattr(module, attr)
        # also rebind every module that imported the function by name
        return [
            (mod, attr, func)
            for name, mod in list(sys.modules.items())
            if name.startswith("repro") and getattr(mod, attr, None) is func
        ]
    base = getattr(module, class_name)
    out, todo = [], [base]
    while todo:
        cls = todo.pop()
        todo.extend(cls.__subclasses__())
        func = cls.__dict__.get(attr)
        if func is not None and not getattr(func, "__isabstractmethod__", False):
            out.append((cls, attr, func))
    return out


def code_keys(spec) -> List[Tuple[str, int, str]]:
    """cProfile keys of the functions a counter spec covers."""
    keys = set()
    for _, _, func in _targets(spec):
        code = func.__code__
        keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return sorted(keys)


class Instruments:
    """Call counters and outermost-call timers installed on public functions.

    Installed before the workload builds anything, so hoisted bound
    methods pick up the wrappers. Worker processes forked afterwards
    inherit them and report their own totals through
    :func:`counted_cell`.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self.seconds: Dict[str, float] = {name: 0.0 for name in TIMERS}
        self._depth = threading.local()
        self._lock = threading.Lock()

    def install(self) -> "Instruments":
        for metric, spec in COUNTERS.items():
            for owner, attr, func in _targets(spec):
                setattr(owner, attr, self._counting(metric, func))
        for metric, specs in TIMERS.items():
            for spec in specs:
                for owner, attr, func in _targets(spec):
                    setattr(owner, attr, self._timing(metric, func))
        return self

    def _counting(self, metric: str, func: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return func(*args, **kwargs)

        return wrapper

    def _timing(self, metric: str, func: Callable) -> Callable:
        depth, seconds, lock = self._depth, self.seconds, self._lock

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            key = "d_" + metric
            level = getattr(depth, key, 0)
            setattr(depth, key, level + 1)
            t0 = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                setattr(depth, key, level)
                if level == 0:  # nested observe calls count once
                    with lock:
                        seconds[metric] += time.perf_counter() - t0

        return wrapper

    def reset(self) -> None:
        for key in self.counts:
            self.counts[key] = 0
        for key in self.seconds:
            self.seconds[key] = 0.0

    def totals(self) -> Dict[str, float]:
        return {**self.counts, **self.seconds}


#: process-wide state for the worker-side hooks below. A ``run_fn`` is
#: named by import path and called with the cell alone, so the pool
#: workers (forked by the runner) can only find it here.
_STATE: Dict[str, object] = {}


def arm_workers(workdir: str, instruments: Optional[Instruments]) -> None:
    """Tell forked pool workers where to report and what to report."""
    _STATE["workdir"] = workdir
    _STATE["instruments"] = instruments


def _run_cell(cell, campaign_seed, resource_pool, collect_digests):
    """What the parallel runner's default ``run_fn`` does, via public API."""
    from repro.experiments.campaign import TABLE1, run_single

    exp_id, n_tasks, rep = cell
    return run_single(
        TABLE1[exp_id], n_tasks, rep, campaign_seed=campaign_seed,
        resource_pool=resource_pool, collect_digests=collect_digests,
    )


def counted_cell(cell, campaign_seed, resource_pool, collect_digests):
    """``run_fn`` hook: run one cell, then dump this worker's totals."""
    instruments = _STATE["instruments"]
    if _STATE.get("counted_pid") != os.getpid():
        # a forked worker starts from a copy of the parent's totals
        _STATE["counted_pid"] = os.getpid()
        instruments.reset()
    run = _run_cell(cell, campaign_seed, resource_pool, collect_digests)
    path = os.path.join(_STATE["workdir"], f"counts-{os.getpid()}.json")
    with open(path + ".tmp", "w") as fh:
        json.dump(instruments.totals(), fh)
    os.replace(path + ".tmp", path)
    return run


def profiled_cell(cell, campaign_seed, resource_pool, collect_digests):
    """``run_fn`` hook: run one cell under this worker's profiler."""
    prof = _STATE.get("profile")
    if prof is None or _STATE.get("profile_pid") != os.getpid():
        prof = _STATE["profile"] = cProfile.Profile()
        _STATE["profile_pid"] = os.getpid()
    prof.enable()
    try:
        run = _run_cell(cell, campaign_seed, resource_pool, collect_digests)
    finally:
        prof.disable()
    prof.dump_stats(os.path.join(_STATE["workdir"], f"prof-{os.getpid()}.pstats"))
    return run


def merge_worker_counts(workdir: str) -> Dict[str, float]:
    total: Dict[str, float] = {}
    for name in sorted(os.listdir(workdir)):
        if name.startswith("counts-") and name.endswith(".json"):
            with open(os.path.join(workdir, name)) as fh:
                for key, value in json.load(fh).items():
                    total[key] = total.get(key, 0) + value
    return total


def profile_paths(workdir: str) -> List[str]:
    """The profiles a sample left: its main process and each worker."""
    return [
        os.path.join(workdir, name)
        for name in sorted(os.listdir(workdir))
        if name.startswith("prof-") and name.endswith(".pstats")
    ]


# -- cProfile roll-up ----------------------------------------------------------


def rollup(stats: pstats.Stats, repro_dir: str) -> Dict[str, float]:
    """Self seconds per layer.

    A function outside the layers (a C function such as a numpy draw,
    ``heapq`` or sqlite, or stdlib Python) has its self time charged to
    the layers of its callers, split by the self time it spent under
    each caller. Time with no layer above it (the benchmark's own code,
    imports) is returned under ``None``.
    """
    table = stats.stats  # func -> (cc, nc, tt, ct, callers)
    memo: Dict[tuple, Dict[Optional[str], float]] = {}
    visiting = set()

    def share(func) -> Dict[Optional[str], float]:
        if func in memo:
            return memo[func]
        layer = layer_of(func[0], repro_dir) if func[0] != "~" else None
        if layer is not None:
            memo[func] = {layer: 1.0}
            return memo[func]
        if func in visiting:
            return {None: 1.0}
        visiting.add(func)
        # cProfile keeps, per caller, (calls, primitive calls, tt, ct)
        callers = table.get(func, (0, 0, 0.0, 0.0, {}))[4]
        weights = {c: v[2] for c, v in callers.items()}
        total = sum(weights.values())
        if total <= 0:  # too fast to time: split by call count
            weights = {c: float(v[0]) for c, v in callers.items()}
            total = sum(weights.values())
        dist: Dict[Optional[str], float] = {}
        if total <= 0:
            dist[None] = 1.0
        else:
            for caller, w in weights.items():
                for lay, frac in share(caller).items():
                    dist[lay] = dist.get(lay, 0.0) + frac * w / total
        visiting.discard(func)
        memo[func] = dist
        return dist

    self_s: Dict[Optional[str], float] = {layer: 0.0 for layer in LAYERS}
    self_s[None] = 0.0
    for func, (_, _, tt, _, _) in table.items():
        for lay, frac in share(func).items():
            self_s[lay] = self_s.get(lay, 0.0) + tt * frac
    return self_s


def call_counts(stats: pstats.Stats) -> Dict[str, int]:
    """Exact call counts of the :data:`COUNTERS` functions in a profile."""
    out = {}
    for metric, spec in COUNTERS.items():
        out[metric] = sum(
            stats.stats[key][1] for key in code_keys(spec) if key in stats.stats
        )
    return out
