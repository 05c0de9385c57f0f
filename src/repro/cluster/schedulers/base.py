"""Batch-scheduler interface for the simulated resources.

A scheduler is a pure policy: given a read-only view of the resource
state it returns the ordered list of pending jobs to start *now*. The
cluster facade owns all mutation (allocation, state transitions, end
events), so policies stay small and independently testable.

Schedulers plan with *requested* walltimes, never actual runtimes —
they know exactly what a production resource manager would know.
"""

from __future__ import annotations

import abc
from bisect import bisect_left, bisect_right, insort
from typing import (
    Any, Callable, Dict, Iterator, List, NamedTuple, Sequence, Tuple,
)

from ..job import BatchJob

#: Priority function: larger value = scheduled earlier. Ties broken by
#: submission order. The default (None) is plain FIFO.
PriorityFn = Callable[[BatchJob, float], float]

#: Sorts after every real (end, start_seq, ...) running entry with the
#: same end time; used to bisect the fold prefix in one comparison pass.
_MAX_SEQ = float("inf")


class SchedulerView(NamedTuple):
    """Read-only view handed to a scheduling policy.

    A NamedTuple rather than a frozen dataclass: the cluster builds one
    per scheduler pass on the hot path, and tuple construction is
    several times cheaper than per-field ``object.__setattr__``.

    ``pending`` and ``running`` alias live cluster state — they are
    valid for the duration of the ``select`` call only, and policies
    must not retain or mutate them.

    Attributes
    ----------
    now:
        Current simulated time.
    free_cores:
        Cores not allocated to any running job.
    pending:
        Queued jobs in priority order (head first).
    running:
        The resource's :class:`RunningSet`; its ``entries`` list the
        running jobs by expected end, ``start + walltime`` (the
        scheduler's knowledge, not the job's hidden runtime).
    """

    now: float
    free_cores: int
    pending: Sequence[BatchJob]
    running: "RunningSet"


class BatchScheduler(abc.ABC):
    """Base class for batch scheduling policies."""

    name: str = "base"

    @abc.abstractmethod
    def select(self, view: SchedulerView) -> List[BatchJob]:
        """Return pending jobs to start now, in start order.

        Implementations must only pick jobs whose core request fits in the
        free cores remaining after earlier picks in the same call.
        """

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class RunningSet:
    """The jobs running on a resource, kept sorted by expected end.

    The cluster's only record of its running jobs: it applies each start
    and removal the moment it happens — O(log R) bisect insertion and
    deletion — so no scheduler pass ever re-sorts the running jobs.
    ``entries`` holds one ``(expected_end, start_seq, cores)`` tuple per
    job, sorted: exactly the order a stable sort of the jobs in start
    order by expected end produces. Iterating the set yields the jobs in
    start order.
    """

    __slots__ = ("_jobs", "_seq", "entries")

    def __init__(self) -> None:
        #: uid -> (job, expected_end, start_seq, end_event), start order
        self._jobs: Dict[int, Tuple[BatchJob, float, int, Any]] = {}
        self._seq = 0
        #: sorted list of (expected_end, start_seq, cores)
        self.entries: List[Tuple[float, int, int]] = []

    def __iter__(self) -> Iterator[BatchJob]:
        return (record[0] for record in self._jobs.values())

    def next_seq(self) -> int:
        """A sequence number larger than any start order in the set."""
        return self._seq + 1

    def add(self, job: BatchJob, expected_end: float, end_event=None) -> None:
        """Record that ``job`` started, ending at ``expected_end``."""
        self._seq += 1
        seq = self._seq
        self._jobs[job.uid] = (job, expected_end, seq, end_event)
        insort(self.entries, (expected_end, seq, job.cores))

    def remove(self, uid: int):
        """Drop job ``uid`` (done, killed or cancelled); return its end event."""
        _job, end, seq, end_event = self._jobs.pop(uid)
        del self.entries[bisect_left(self.entries, (end, seq))]
        return end_event


class AllocationProfile:
    """Mutable free-capacity step function over time breakpoints.

    ``free_at[i]`` is the number of free cores on the half-open interval
    ``[times[i], times[i+1])``; the last level extends to infinity, and
    (for boundaries landing before the first breakpoint) the first level
    extends flatly backwards. Used by conservative backfilling to plan
    reservations; all breakpoint insertion is bisect-based.
    """

    __slots__ = ("times", "free_at")

    def __init__(self, times: List[float], free_at: List[int]) -> None:
        self.times = times
        self.free_at = free_at

    @classmethod
    def from_entries(
        cls,
        now: float,
        free_cores: int,
        entries: Sequence[Tuple[float, int, int]],
    ) -> "AllocationProfile":
        """Profile from running entries sorted by (end, start_seq).

        Releases at or before ``now`` fold into the base level (matching
        the dict-merge semantics of the non-incremental profile build).
        The folded entries are a prefix of the end-sorted list, found
        with one bisect instead of a per-entry comparison.
        """
        lo = bisect_right(entries, (now, _MAX_SEQ))
        acc = free_cores
        for i in range(lo):
            acc += entries[i][2]
        times = [now]
        free_at = [acc]
        last = now
        for i in range(lo, len(entries)):
            end, _seq, cores = entries[i]
            acc += cores
            if end == last:
                free_at[-1] = acc
            else:
                times.append(end)
                free_at.append(acc)
                last = end
        return cls(times, free_at)

    def find_anchor(self, cores: int, walltime: float) -> float:
        """Earliest breakpoint where ``cores`` stay free for ``walltime``.

        Skip-jump search: when the window starting at breakpoint ``i``
        fails at some breakpoint ``k`` (``free_at[k] < cores``), every
        anchor up to ``k`` also fails — its window still contains ``k``
        — so the scan resumes at ``k + 1``. Each breakpoint is examined
        O(1) times, against the O(n^2) rescan of the naive loop.
        """
        times = self.times
        free_at = self.free_at
        n = len(times)
        i = 0
        while i < n:
            end = times[i] + walltime
            j = bisect_left(times, end, i)
            if j == i or min(free_at[i:j]) >= cores:
                return times[i]
            k = j - 1
            while free_at[k] >= cores:
                k -= 1
            i = k + 1
        return times[-1]  # after everything ends, capacity is max

    def reserve(self, anchor: float, cores: int, walltime: float) -> None:
        """Subtract ``cores`` over ``[anchor, anchor + walltime)``."""
        times = self.times
        free_at = self.free_at
        end = anchor + walltime
        lo = self._ensure_breakpoint(anchor)
        self._ensure_breakpoint(end)
        for j in range(lo, bisect_left(times, end, lo)):
            free_at[j] -= cores

    def _ensure_breakpoint(self, boundary: float) -> int:
        """Insert ``boundary`` (inheriting the level in effect there) if
        missing; return its index."""
        times = self.times
        idx = bisect_left(times, boundary)
        if idx == len(times) or times[idx] != boundary:
            free_at = self.free_at
            level = free_at[idx - 1] if idx > 0 else free_at[0]
            times.insert(idx, boundary)
            free_at.insert(idx, level)
        return idx


def shadow_schedule(
    head_cores: int,
    free_cores: int,
    entries: Sequence[Tuple[float, int, int]],
) -> Tuple[float, int]:
    """Compute the EASY-backfill *shadow time* and *extra cores*.

    The shadow time is the earliest time the queue head could start if no
    further jobs were admitted, assuming running jobs end at their
    expected (walltime-based) ends. Extra cores are the cores that will
    be free at the shadow time beyond what the head needs; backfilled
    jobs that fit within the extra cores can never delay the head,
    regardless of how long they run. ``entries`` are
    ``(expected_end, start_seq, cores)`` tuples sorted as in
    :attr:`RunningSet.entries`.

    Returns ``(shadow_time, extra_cores)``. If the head already fits,
    shadow time is ``-inf`` and extra is the free cores minus the head's
    request.
    """
    if head_cores <= free_cores:
        return float("-inf"), free_cores - head_cores
    available = free_cores
    for end, _seq, cores in entries:
        available += cores
        if available >= head_cores:
            return end, available - head_cores
    # Unreachable when head_cores <= total capacity (enforced at submit).
    raise ValueError("queue head can never fit on this resource")
