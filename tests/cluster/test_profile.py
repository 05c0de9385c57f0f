"""AllocationProfile, RunningSet, and parity with sorted references.

Covers the regression where a reservation boundary landing *before* the
first profile breakpoint must inherit the first level (the profile
extends flatly backwards), not wrap around to the last level via a
negative list index.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    BatchJob,
    ConservativeBackfillScheduler,
    EasyBackfillScheduler,
    SchedulerView,
)
from repro.cluster.schedulers.base import AllocationProfile, RunningSet


def _job(cores, walltime):
    return BatchJob(cores=cores, runtime=walltime, walltime=walltime)


def _sorted_entries(running):
    """Reference running entries: ``running`` holds (cores, expected_end)
    in start order, stably sorted by expected end."""
    return sorted((end, i, cores) for i, (cores, end) in enumerate(running))


def _running_set(running):
    """A RunningSet started in order from (cores, expected_end) pairs."""
    rs = RunningSet()
    for cores, end in running:
        rs.add(_job(cores, 1.0), end)
    return rs


# ---------------------------------------------------------------------------
# AllocationProfile
# ---------------------------------------------------------------------------


def test_from_entries_folds_past_releases():
    # releases at or before now raise the base level instead of adding
    # breakpoints in the past
    prof = AllocationProfile.from_entries(
        10.0, 2, [(5.0, 0, 3), (10.0, 1, 1), (20.0, 2, 4)]
    )
    assert prof.times == [10.0, 20.0]
    assert prof.free_at == [6, 10]


def test_ensure_breakpoint_before_first_inherits_first_level():
    """Regression: boundary < times[0] must inherit free_at[0], not the
    wrap-around free_at[-1] a raw ``idx - 1`` produces."""
    prof = AllocationProfile([10.0, 20.0], [4, 8])
    idx = prof._ensure_breakpoint(5.0)
    assert idx == 0
    assert prof.times == [5.0, 10.0, 20.0]
    assert prof.free_at == [4, 4, 8]  # inherited 4, not 8


def test_reserve_before_first_breakpoint():
    prof = AllocationProfile([10.0, 20.0], [4, 8])
    prof.reserve(5.0, 2, 3.0)  # window [5, 8) entirely before times[0]
    assert prof.times == [5.0, 8.0, 10.0, 20.0]
    assert prof.free_at == [2, 4, 4, 8]


def test_reserve_inserts_boundaries_and_subtracts():
    prof = AllocationProfile([0.0, 100.0], [4, 10])
    prof.reserve(0.0, 2, 50.0)
    assert prof.times == [0.0, 50.0, 100.0]
    assert prof.free_at == [2, 4, 10]
    prof.reserve(50.0, 4, 100.0)  # spans the 100.0 breakpoint
    assert prof.times == [0.0, 50.0, 100.0, 150.0]
    assert prof.free_at == [2, 0, 6, 10]


def test_find_anchor_skips_blocked_windows():
    # 0 free until t=10, 2 free until t=20, 6 free after
    prof = AllocationProfile([0.0, 10.0, 20.0], [0, 2, 6])
    assert prof.find_anchor(1, 5.0) == 10.0
    assert prof.find_anchor(4, 5.0) == 20.0
    assert prof.find_anchor(2, 100.0) == 10.0  # window past the end is flat
    assert prof.find_anchor(8, 1.0) == 20.0  # never enough: last breakpoint


@given(
    jobs=st.lists(
        st.tuples(st.integers(1, 8), st.integers(1, 50)),
        min_size=1,
        max_size=30,
    ),
    entries=st.lists(
        st.tuples(st.integers(1, 100), st.integers(1, 4)),
        min_size=0,
        max_size=15,
    ),
)
@settings(max_examples=200, deadline=None)
def test_property_reserved_profile_never_negative(jobs, entries):
    """Anchoring every job where find_anchor says it fits keeps the
    remaining free capacity non-negative everywhere."""
    ends = sorted(entries)
    total = 8 + sum(c for _, c in ends)
    prof = AllocationProfile.from_entries(
        0.0, 8, [(float(t), i, c) for i, (t, c) in enumerate(ends)]
    )
    for cores, walltime in jobs:
        if cores > total:
            continue
        anchor = prof.find_anchor(cores, float(walltime))
        prof.reserve(anchor, cores, float(walltime))
    assert all(level >= 0 for level in prof.free_at)
    assert prof.times == sorted(prof.times)


# ---------------------------------------------------------------------------
# RunningSet
# ---------------------------------------------------------------------------


def test_running_set_matches_sorted_reference():
    rng = random.Random(7)
    rs = RunningSet()
    running = {}  # uid -> (job, end); dict preserves start order
    for _ in range(300):
        if running and rng.random() < 0.45:
            gone = rng.choice(list(running))
            del running[gone]
            assert rs.remove(gone) == ("end", gone)
        else:
            job = _job(rng.randint(1, 16), rng.randint(1, 100))
            end = float(rng.randint(1, 1000))
            running[job.uid] = (job, end)
            rs.add(job, end, ("end", job.uid))
        reference = _sorted_entries(
            [(job.cores, end) for job, end in running.values()]
        )
        assert [(e, c) for e, _s, c in rs.entries] == [
            (e, c) for e, _s, c in reference
        ]
        assert list(rs) == [job for job, _ in running.values()]


def test_running_set_duplicate_ends_keep_start_order():
    jobs = [_job(4, 1.0), _job(8, 1.0), _job(2, 1.0)]
    rs = RunningSet()
    for job in jobs:
        rs.add(job, 50.0)
    assert [c for _e, _s, c in rs.entries] == [4, 8, 2]
    rs.remove(jobs[1].uid)  # removes exactly the middle entry, not a twin
    assert [c for _e, _s, c in rs.entries] == [4, 2]
    assert list(rs) == [jobs[0], jobs[2]]


# ---------------------------------------------------------------------------
# scheduler parity with sorted references
# ---------------------------------------------------------------------------


def _full_plan_picks(view, running):
    """Reference conservative pass: reserve every pending job, no cutoff."""
    prof = AllocationProfile.from_entries(
        view.now, view.free_cores, _sorted_entries(running)
    )
    picks = []
    for job in view.pending:
        anchor = prof.find_anchor(job.cores, job.walltime)
        prof.reserve(anchor, job.cores, job.walltime)
        if anchor == view.now:
            picks.append(job)
    return picks


def _easy_picks(view, running):
    """Reference EASY pass: FCFS head run, then a shadow walk over a
    stable end-sort of the running jobs plus the head-run picks."""
    free, picks, pending = view.free_cores, [], list(view.pending)
    while pending and pending[0].cores <= free:
        picks.append(pending.pop(0))
        free -= picks[-1].cores
    if not pending:
        return picks
    ends = sorted(
        list(running) + [(p.cores, view.now + p.walltime) for p in picks],
        key=lambda r: r[1],
    )
    available, head = free, pending.pop(0)
    for cores, end in ends:
        available += cores
        if available >= head.cores:
            shadow, extra = end, available - head.cores
            break
    for job in pending:
        fits_in_extra = job.cores <= extra
        if job.cores <= free and (
            view.now + job.walltime <= shadow or fits_in_extra
        ):
            picks.append(job)
            free -= job.cores
            if fits_in_extra:
                extra -= job.cores
    return picks


def _view(now, total, running, pending):
    """A view over ``running``, (cores, expected_end) pairs in start order."""
    used = sum(cores for cores, _ in running)
    return SchedulerView(
        now=now,
        free_cores=total - used,
        pending=pending,
        running=_running_set(running),
    )


_grid_jobs = st.lists(
    st.tuples(st.integers(1, 32), st.integers(1, 200)),
    min_size=0,
    max_size=25,
)


@given(pending=_grid_jobs, running=_grid_jobs)
@settings(max_examples=150, deadline=None)
def test_property_select_matches_sorted_reference(pending, running):
    total = 64
    used = 0
    kept = []
    for cores, end in running:
        cores = min(cores, total - used)
        if cores <= 0:
            break
        used += cores
        kept.append((cores, float(end)))
    pending_jobs = [
        _job(min(c, total), float(w)) for c, w in pending
    ]
    view = _view(0.0, total, kept, pending_jobs)
    assert ConservativeBackfillScheduler().select(view) == _full_plan_picks(
        view, kept
    )
    assert EasyBackfillScheduler().select(view) == _easy_picks(view, kept)


# ---------------------------------------------------------------------------
# conservative early exit vs the full reservation plan
# ---------------------------------------------------------------------------


def _counting_reserve(monkeypatch):
    calls = []
    reserve = AllocationProfile.reserve

    def counted(self, anchor, cores, walltime):
        calls.append(cores)
        reserve(self, anchor, cores, walltime)

    monkeypatch.setattr(AllocationProfile, "reserve", counted)
    return calls


def test_early_exit_stops_once_no_request_fits_now(monkeypatch):
    # 2 cores free until t=100; the smallest queued request needs 3
    pending = [_job(4, 50.0), _job(3, 50.0), _job(6, 20.0), _job(5, 10.0)]
    running = [(8, 100.0)]
    view = _view(0.0, 10, running, pending)
    calls = _counting_reserve(monkeypatch)
    assert ConservativeBackfillScheduler().select(view) == []
    assert calls == []  # the full plan would reserve all four
    assert _full_plan_picks(view, running) == []
    assert len(calls) == 4


def test_late_small_short_job_still_picked(monkeypatch):
    # 2 cores free until t=100; two larger jobs are blocked until then,
    # and only the last job is both small and short enough to start now
    small = _job(1, 10.0)
    pending = [_job(6, 50.0), _job(4, 50.0), _job(2, 500.0), small]
    running = [(8, 100.0)]
    view = _view(0.0, 10, running, pending)
    calls = _counting_reserve(monkeypatch)
    picks = ConservativeBackfillScheduler().select(view)
    assert picks == _full_plan_picks(view, running) == [small]
    assert len(calls) == 8  # no cutoff: every job reserved in both passes


@given(
    now=st.integers(0, 50),
    running=st.lists(
        st.tuples(st.integers(1, 16), st.integers(0, 300)),
        max_size=12,
    ),
    pending=st.lists(
        st.tuples(st.integers(1, 48), st.integers(1, 300)),
        max_size=25,
    ),
)
@settings(max_examples=300, deadline=None)
def test_property_early_exit_matches_full_plan(now, running, pending):
    total = 48
    kept, used = [], 0
    for cores, end in running:
        if used + cores > total:
            break
        used += cores
        kept.append((cores, float(end)))  # ends <= now fold into now
    jobs = [_job(cores, float(walltime)) for cores, walltime in pending]
    view = _view(float(now), total, kept, jobs)
    assert ConservativeBackfillScheduler().select(view) == _full_plan_picks(
        view, kept
    )
