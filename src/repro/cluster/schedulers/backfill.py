"""Backfilling batch schedulers: EASY and conservative.

EASY backfilling (Lifka's algorithm, the policy run by most production
Slurm/PBS deployments) makes one reservation — for the queue head — and
lets any later job jump the queue as long as it cannot delay that
reservation. Conservative backfilling gives *every* queued job a
reservation and only starts a job early if it delays none of them.

Both plan with requested walltimes; user overestimation of walltime is
what creates the backfill holes that pilots exploit, so modelling this
faithfully matters for the paper's queue-wait dynamics.

Both schedulers read the end-sorted entries of the cluster's
:class:`~.base.RunningSet` through ``view.running``; the set is patched
the moment jobs start and end, never re-sorted per pass.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from itertools import accumulate
from typing import List

from ..job import BatchJob
from .base import (
    AllocationProfile,
    BatchScheduler,
    SchedulerView,
    shadow_schedule,
)


class EasyBackfillScheduler(BatchScheduler):
    """EASY (aggressive) backfilling with a single head reservation."""

    name = "easy-backfill"

    def select(self, view: SchedulerView) -> List[BatchJob]:
        picks: List[BatchJob] = []
        free = view.free_cores
        pending = view.pending

        # Phase 1: plain FCFS while the head fits (index walk — popping
        # the head of a long queue repeatedly is quadratic).
        head = 0
        n = len(pending)
        while head < n and pending[head].cores <= free:
            job = pending[head]
            picks.append(job)
            free -= job.cores
            head += 1
        if head == n:
            return picks

        # Phase 2: reservation for the (blocked) head, walking the
        # end-sorted running set. Phase-1 picks join with sequence
        # numbers above every running job, which is exactly where a
        # stable sort of (running + picks) by expected end places them.
        running = view.running
        entries = running.entries
        if picks:
            entries = list(entries)
            seq = running.next_seq()
            for i, p in enumerate(picks):
                insort(entries, (view.now + p.walltime, seq + i, p.cores))
        shadow, extra = shadow_schedule(pending[head].cores, free, entries)

        # Phase 3: backfill later jobs against the reservation.
        for job in pending[head + 1:]:
            if job.cores > free:
                continue
            ends_before_shadow = view.now + job.walltime <= shadow
            fits_in_extra = job.cores <= extra
            if ends_before_shadow or fits_in_extra:
                picks.append(job)
                free -= job.cores
                if fits_in_extra:
                    extra -= job.cores
        return picks


class ConservativeBackfillScheduler(BatchScheduler):
    """Conservative backfilling: reservations for every queued job.

    We simulate the allocation profile forward in time. Each pending job,
    in queue order, is given the earliest anchor point where it fits for
    its whole walltime; a job may start now only if its anchor is *now*.
    This never delays any earlier-queued job, at the cost of fewer
    backfill opportunities than EASY.

    The base profile (capacity releases from running jobs) comes from
    the end-sorted running set — no per-call sort — and the per-pass reservation plan uses bisect-based
    breakpoint insertion and a skip-jump anchor search (see
    :class:`~.base.AllocationProfile`).
    """

    name = "conservative-backfill"

    def select(self, view: SchedulerView) -> List[BatchJob]:
        entries = view.running.entries
        now = view.now
        if view.free_cores == 0 and (not entries or entries[0][0] > now):
            # The profile's level at now would be exactly free_cores
            # (no release folds into the base level), so nothing can be
            # picked — skip building the profile entirely.
            return []
        profile = AllocationProfile.from_entries(
            now, view.free_cores, entries
        )
        pending = view.pending
        # Suffix minima of the requests: no job from position i on asks
        # for fewer than min_cores[i] cores or a shorter walltime than
        # min_wall[i] (built back to front, then flipped).
        min_cores = list(accumulate([j.cores for j in reversed(pending)], min))
        min_wall = list(accumulate([j.walltime for j in reversed(pending)], min))
        min_cores.reverse()
        min_wall.reverse()
        times = profile.times
        free_at = profile.free_at
        picks: List[BatchJob] = []
        for i, job in enumerate(pending):
            # A job anchors at *now* (times[0]) iff its cores fit the
            # profile minimum over [now, now + walltime). Reservations
            # only lower levels and a longer window only lowers the
            # minimum, so once the smallest remaining request exceeds
            # the minimum over the shortest remaining window, no
            # remaining job can start now; the rest of the plan cannot
            # change the picks, the only externally visible output.
            hi = bisect_left(times, now + min_wall[i])
            if min_cores[i] > min(free_at[:hi]):
                break
            anchor = profile.find_anchor(job.cores, job.walltime)
            profile.reserve(anchor, job.cores, job.walltime)
            if anchor == now:
                picks.append(job)
        return picks
