"""Calendar and adaptive event queues: equivalence with the binary heap.

The kernel's determinism contract says the queue backend is invisible:
for any push/cancel/pop interleaving, every backend yields the same
``(time, priority, seq)`` pop sequence. The hypothesis properties here
drive all three backends through generated interleavings — tie-heavy
times, cancel-after-fire, cancel-interleaved-with-push — and require
identical histories.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des import Signal, Simulation
from repro.des.calendar import (
    AdaptiveEventQueue,
    CalendarEventQueue,
    QUEUE_BACKENDS,
    make_event_queue,
)
from repro.des.errors import SchedulingError
from repro.des.events import EventQueue


def _noop() -> None:  # events need a callback; ordering ignores it
    pass


def _backends():
    # A tiny promotion threshold so adaptive runs actually cross it.
    return (
        EventQueue(),
        CalendarEventQueue(),
        AdaptiveEventQueue(promote_at=8),
    )


# ---------------------------------------------------------------------------
# unit behaviour
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "factory", [EventQueue, CalendarEventQueue, AdaptiveEventQueue]
)
def test_orders_by_time_priority_seq(factory):
    q = factory()
    q.push(5.0, _noop)
    q.push(1.0, _noop)
    q.push(5.0, _noop, priority=-1)
    q.push(1.0, _noop)
    got = [(ev.time, ev.priority, ev.seq) for ev in (q.pop() for _ in range(4))]
    # time first, then priority, then seq FIFO on full ties
    assert got == [(1.0, 0, 1), (1.0, 0, 3), (5.0, -1, 2), (5.0, 0, 0)]
    assert len(q) == 0


@pytest.mark.parametrize(
    "factory", [EventQueue, CalendarEventQueue, AdaptiveEventQueue]
)
def test_nan_rejected_inf_allowed(factory):
    q = factory()
    with pytest.raises(SchedulingError):
        q.push(float("nan"), _noop)
    q.push(float("inf"), _noop)
    q.push(float("-inf"), _noop)
    q.push(0.0, _noop)
    times = [q.pop().time for _ in range(3)]
    assert times == [float("-inf"), 0.0, float("inf")]


@pytest.mark.parametrize(
    "factory", [EventQueue, CalendarEventQueue, AdaptiveEventQueue]
)
def test_cancel_after_fire_is_noop(factory):
    q = factory()
    ev = q.push(1.0, _noop)
    q.push(2.0, _noop)
    assert q.pop() is ev
    q.cancel(ev)  # fired: must not decrement live or perturb counters
    assert len(q) == 1
    assert q.pop().time == 2.0


def test_calendar_resizes_and_compacts():
    q = CalendarEventQueue()
    events = [q.push(float(i), _noop) for i in range(200)]
    assert q.resizes > 0  # growth doublings happened
    for ev in events[:120]:  # cancelled must outnumber live to compact
        q.cancel(ev)
    assert q.compactions > 0  # cancel majority triggered a sweep
    out = [q.pop().time for _ in range(len(q))]
    assert out == [float(i) for i in range(120, 200)]


def test_calendar_insert_behind_cursor_not_orphaned():
    q = CalendarEventQueue()
    q.push(1000.0, _noop)  # cursor will skip far ahead to this sparse day
    assert q.pop().time == 1000.0
    q.push(1.0, _noop)  # behind the cursor: must rewind, not orphan
    assert q.peek_time() == 1.0
    assert q.pop().time == 1.0


# ---------------------------------------------------------------------------
# adaptive promotion
# ---------------------------------------------------------------------------


def test_adaptive_promotes_and_keeps_order():
    q = AdaptiveEventQueue(promote_at=10)
    times = [float(t) for t in (9, 3, 7, 1, 8, 2, 6, 0, 5, 4, 11, 10)]
    for t in times:
        q.push(t, _noop)
    assert q.promotions == 1
    assert isinstance(q._impl, CalendarEventQueue)
    assert q.pushed == len(times)  # counters migrated
    assert [q.pop().time for _ in range(len(q))] == sorted(times)


def test_adaptive_promotion_redirects_hoisted_pop_until():
    """The kernel hoists ``queue.pop_until`` once per run; a promotion
    mid-run must keep that stale bound method working."""
    q = AdaptiveEventQueue(promote_at=4)
    hoisted = q.pop_until  # heap-bound, grabbed before promotion
    for t in (3.0, 1.0, 2.0, 4.0):
        q.push(t, _noop)
    assert q.promotions == 1
    got = []
    while True:
        ev = hoisted(float("inf"))
        if ev is None:
            break
        got.append(ev.time)
    assert got == [1.0, 2.0, 3.0, 4.0]


def test_adaptive_promotion_inside_signal_trigger():
    """``Waitable._trigger`` hoists ``queue.push`` and pushes one resume
    per waiter; promoting inside that loop must not strand the hoisted
    heap-side push (it used to raise AttributeError: ... '_heap')."""

    def run(queue):
        sim = Simulation()
        sim._queue = queue
        sig = Signal(sim)
        log = []

        def waiter(i):
            value = yield sig
            log.append((sim.now, i, value))
            yield sim.timeout(i)
            log.append((sim.now, i, "done"))

        def spawner():
            # One waiter at a time keeps the live population tiny, so
            # the promotion happens inside the trigger loop, not here.
            for i in range(12):
                sim.process(waiter(i))
                yield sim.timeout(0.1)

        sim.process(spawner())
        sim.call_at(5.0, sig.succeed, "go")
        sim.run(until=4.0)
        assert getattr(queue, "promotions", 0) == 0
        sim.run()
        return log

    adaptive = AdaptiveEventQueue(promote_at=6)
    got = run(adaptive)
    assert adaptive.promotions == 1
    assert got == run(EventQueue())
    assert [entry[1] for entry in got[:12]] == list(range(12))


def test_adaptive_hoisted_push_forwards_after_promotion():
    q = AdaptiveEventQueue(promote_at=3)
    hoisted = q.push  # class body, bound before promotion
    for t in (3.0, 1.0, 2.0):
        hoisted(t, _noop)
    assert q.promotions == 1
    late = hoisted(0.5, _noop)  # must land in the calendar, seq intact
    assert late.seq == 3
    assert [q.pop().time for _ in range(len(q))] == [0.5, 1.0, 2.0, 3.0]


def test_adaptive_seq_continues_across_promotion():
    q = AdaptiveEventQueue(promote_at=3)
    a = q.push(1.0, _noop)
    b = q.push(1.0, _noop)
    c = q.push(1.0, _noop)  # triggers promotion
    d = q.push(1.0, _noop)  # calendar push: seq must continue, not restart
    assert [ev.seq for ev in (a, b, c, d)] == [0, 1, 2, 3]
    assert [q.pop() for _ in range(4)] == [a, b, c, d]


# ---------------------------------------------------------------------------
# backend factory / kernel flag
# ---------------------------------------------------------------------------


def test_make_event_queue_backends():
    assert isinstance(make_event_queue("heap"), EventQueue)
    assert isinstance(make_event_queue("calendar"), CalendarEventQueue)
    assert isinstance(make_event_queue("auto"), AdaptiveEventQueue)
    with pytest.raises(ValueError, match="unknown event queue backend"):
        make_event_queue("splay")


def test_simulation_event_queue_param():
    for backend, cls in (
        ("heap", EventQueue),
        ("calendar", CalendarEventQueue),
        ("auto", AdaptiveEventQueue),
    ):
        sim = Simulation(seed=1, event_queue=backend)
        assert sim.queue_backend == backend
        assert isinstance(sim._queue, cls)
    assert backend in QUEUE_BACKENDS


def test_simulation_env_var_selects_backend(monkeypatch):
    monkeypatch.setenv("REPRO_DES_QUEUE", "calendar")
    sim = Simulation(seed=1)
    assert isinstance(sim._queue, CalendarEventQueue)
    # an explicit argument wins over the environment
    sim = Simulation(seed=1, event_queue="heap")
    assert isinstance(sim._queue, EventQueue)


def test_run_identical_across_backends():
    """A small but real simulation plays out identically per backend."""

    def history(backend):
        sim = Simulation(seed=42, event_queue=backend)
        fired = []
        rng = sim.rng.get("t").bit_generator.state["state"]["state"]
        x = rng
        handles = []
        for i in range(600):
            x = (x * 6364136223846793005 + 1442695040888963407) % 2**64
            t = (x >> 16) % 10_000 / 7.0
            handles.append(
                sim.call_at(t, fired.append, (t, i), priority=i % 3 - 1)
            )
        for h in handles[::5]:
            sim.cancel(h)
        sim.run(until=2000.0)
        return fired

    base = history("heap")
    assert history("calendar") == base
    assert history("auto") == base


# ---------------------------------------------------------------------------
# hypothesis: interleaving equivalence
# ---------------------------------------------------------------------------

# Times drawn from a tiny grid => heavy ties; priorities collide too.
_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("push"),
            st.integers(0, 12),  # time on a coarse grid
            st.integers(-1, 1),  # priority
        ),
        st.tuples(st.just("pop"), st.just(0), st.just(0)),
        st.tuples(
            st.just("cancel"),
            st.integers(0, 40),  # index into pushed handles (mod len)
            st.just(0),
        ),
    ),
    min_size=1,
    max_size=80,
)


def _replay(queue, ops):
    """Apply an op script; return the pop history (None for empty pops)."""
    handles = []
    history = []
    for op, a, b in ops:
        if op == "push":
            handles.append(queue.push(float(a), _noop, (), b))
        elif op == "cancel" and handles:
            # may hit live, fired, or already-cancelled events: all legal
            queue.cancel(handles[a % len(handles)])
        elif op == "pop":
            ev = queue.pop_until(float("inf"))
            history.append(
                None if ev is None else (ev.time, ev.priority, ev.seq)
            )
    while True:
        ev = queue.pop_until(float("inf"))
        if ev is None:
            break
        history.append((ev.time, ev.priority, ev.seq))
    return history


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_property_backends_pop_identically(ops):
    heap, cal, adaptive = _backends()
    base = _replay(heap, ops)
    assert _replay(cal, ops) == base
    assert _replay(adaptive, ops) == base


@given(
    times=st.lists(
        st.floats(
            min_value=0.0,
            max_value=1e6,
            allow_nan=False,
            allow_infinity=False,
        ),
        min_size=1,
        max_size=120,
    )
)
@settings(max_examples=200, deadline=None)
def test_property_float_times_pop_sorted_everywhere(times):
    heap, cal, adaptive = _backends()
    for q in (heap, cal, adaptive):
        for t in times:
            q.push(t, _noop)
    expect = sorted(times)
    for q in (heap, cal, adaptive):
        assert [q.pop().time for _ in range(len(times))] == expect


@given(ops=_ops, promote_at=st.integers(1, 16))
@settings(max_examples=150, deadline=None)
def test_property_promotion_threshold_invisible(ops, promote_at):
    base = _replay(EventQueue(), ops)
    assert _replay(AdaptiveEventQueue(promote_at=promote_at), ops) == base


def test_len_counts_live_only():
    for q in _backends():
        a = q.push(1.0, _noop)
        q.push(2.0, _noop)
        q.cancel(a)
        assert len(q) == 1
        assert bool(q)
        q.pop()
        assert len(q) == 0
        assert not bool(q)
        assert math.isinf(float("inf"))  # keep math import honest
