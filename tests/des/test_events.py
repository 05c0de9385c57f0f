"""Unit tests for the event queue and tracer."""

import bisect

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.des.errors import SchedulingError
from repro.des.events import EventQueue, Tracer


def test_push_pop_orders_by_time():
    q = EventQueue()
    fired = []
    q.push(5.0, fired.append, ("b",))
    q.push(1.0, fired.append, ("a",))
    q.push(9.0, fired.append, ("c",))
    times = []
    while q:
        ev = q.pop()
        times.append(ev.time)
        ev.callback(*ev.args)
    assert times == [1.0, 5.0, 9.0]
    assert fired == ["a", "b", "c"]


def test_same_time_fifo_tiebreak():
    q = EventQueue()
    order = []
    for i in range(10):
        q.push(3.0, order.append, (i,))
    while q:
        ev = q.pop()
        ev.callback(*ev.args)
    assert order == list(range(10))


def test_priority_breaks_ties_before_sequence():
    q = EventQueue()
    order = []
    q.push(1.0, order.append, ("low",), priority=10)
    q.push(1.0, order.append, ("high",), priority=0)
    while q:
        ev = q.pop()
        ev.callback(*ev.args)
    assert order == ["high", "low"]


def test_cancel_removes_from_live_count():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    assert len(q) == 1
    q.cancel(ev)
    assert len(q) == 0
    assert not q
    # double cancel is a no-op
    q.cancel(ev)
    assert len(q) == 0


def test_cancelled_event_skipped_by_pop():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(ev1)
    assert q.pop().time == 2.0


def test_peek_time_skips_cancelled():
    q = EventQueue()
    ev1 = q.push(1.0, lambda: None)
    q.push(4.0, lambda: None)
    q.cancel(ev1)
    assert q.peek_time() == 4.0


def test_peek_empty_returns_none():
    assert EventQueue().peek_time() is None


def test_pop_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().pop()


def test_nan_time_rejected():
    with pytest.raises(SchedulingError):
        EventQueue().push(float("nan"), lambda: None)


def test_orders_by_time_priority_seq():
    q = EventQueue()
    q.push(5.0, lambda: None)
    q.push(1.0, lambda: None)
    q.push(5.0, lambda: None, priority=-1)
    q.push(1.0, lambda: None)
    got = [(ev.time, ev.priority, ev.seq) for ev in (q.pop() for _ in range(4))]
    # time first, then priority, then seq FIFO on full ties
    assert got == [(1.0, 0, 1), (1.0, 0, 3), (5.0, -1, 2), (5.0, 0, 0)]
    assert len(q) == 0


def test_nan_rejected_inf_allowed():
    q = EventQueue()
    with pytest.raises(SchedulingError):
        q.push(float("nan"), lambda: None)
    q.push(float("inf"), lambda: None)
    q.push(float("-inf"), lambda: None)
    q.push(0.0, lambda: None)
    times = [q.pop().time for _ in range(3)]
    assert times == [float("-inf"), 0.0, float("inf")]


def test_len_counts_live_only():
    q = EventQueue()
    a = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    q.cancel(a)
    assert len(q) == 1
    assert bool(q)
    q.pop()
    assert len(q) == 0
    assert not bool(q)


def test_tracer_record_and_query():
    t = Tracer()
    t.record(0.0, "pilot", "p1", "NEW")
    t.record(1.0, "pilot", "p1", "ACTIVE", cores=32)
    t.record(2.0, "unit", "u1", "DONE")
    assert len(t.records) == 3
    assert [r.event for r in t.query(category="pilot")] == ["NEW", "ACTIVE"]
    assert t.first(entity="p1").event == "NEW"
    assert t.last(entity="p1").event == "ACTIVE"
    assert t.last(entity="p1").data["cores"] == 32
    assert t.query(event="MISSING") == []
    assert t.first(event="MISSING") is None


def test_tracer_query_event_filter_fall_through():
    t = Tracer()
    t.record(0.0, "pilot", "p1", "NEW")
    t.record(1.0, "pilot", "p2", "NEW")
    t.record(2.0, "pilot", "p1", "ACTIVE")
    t.record(3.0, "unit", "u1", "NEW")
    # the event filter alone spans categories and entities
    assert [r.entity for r in t.query(event="NEW")] == ["p1", "p2", "u1"]
    # all provided filters must hold simultaneously
    assert [r.time for r in t.query(category="pilot", entity="p1",
                                    event="ACTIVE")] == [2.0]
    assert t.query(category="unit", entity="p1") == []
    assert t.query(category="pilot", event="DONE") == []
    t.clear()
    assert t.records == [] and t.query(event="NEW") == []


def test_tracer_disable_enable():
    t = Tracer()
    t.disable()
    t.record(0.0, "x", "y", "z")
    assert t.records == []
    t.enable()
    t.record(0.0, "x", "y", "z")
    assert len(t.records) == 1
    t.clear()
    assert t.records == []


# -- lazy cancellation bounds (compaction) ------------------------------------


def test_cancel_after_fire_is_noop():
    q = EventQueue()
    ev = q.push(1.0, lambda: None)
    q.push(2.0, lambda: None)
    popped = q.pop()
    assert popped is ev and popped.fired
    q.cancel(ev)  # fired events must not perturb the live count
    assert len(q) == 1 and bool(q)
    assert q.pop().time == 2.0
    assert len(q) == 0 and not q


def test_compaction_bounds_cancelled_backlog():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(200)]
    for ev in events[:150]:
        q.cancel(ev)
        # Invariant: dead entries never outnumber live ones on a big
        # heap, so retention is bounded at 2x the live count.
        assert q._cancelled <= max(len(q), 32)
    assert len(q) == 50
    assert len(q._heap) <= 2 * len(q)
    # Draining pops every live event exactly once, in order.
    times = []
    while q:
        times.append(q.pop().time)
    assert times == [float(i) for i in range(150, 200)]


def test_small_heaps_never_compact():
    q = EventQueue()
    events = [q.push(float(i), lambda: None) for i in range(10)]
    for ev in events[:9]:
        q.cancel(ev)
    # Below the compaction floor dead entries drain lazily on pop.
    assert len(q._heap) == 10
    assert len(q) == 1
    assert q.pop().time == 9.0


def test_compaction_preserves_pop_order():
    import random

    rng = random.Random(42)
    q = EventQueue()
    handles = []
    for i in range(500):
        handles.append(
            q.push(float(rng.choice([1, 2, 3, 5, 8])), lambda: None, (),
                   priority=rng.choice([0, 1]))
        )
    cancelled = set(rng.sample(range(500), 430))
    for i in cancelled:
        q.cancel(handles[i])  # triggers at least one compaction
    expected = sorted(
        (ev for i, ev in enumerate(handles) if i not in cancelled),
        key=lambda e: (e.time, e.priority, e.seq),
    )
    popped = []
    while q:
        popped.append(q.pop())
    assert popped == expected


# -- randomized oracle: the heap against a sorted-list reference model --------


class _SortedListQueue:
    """Reference model: the live ``(time, priority, seq)`` keys, sorted.

    Pushing numbers keys like :class:`EventQueue` does (``seq`` counts
    pushes from 0); cancelling a key that already popped or was already
    cancelled finds nothing to remove, which is the no-op the real queue
    promises.
    """

    def __init__(self):
        self.live = []
        self.seq = 0

    def push(self, time, priority):
        key = (time, priority, self.seq)
        self.seq += 1
        bisect.insort(self.live, key)
        return key

    def cancel(self, key):
        i = bisect.bisect_left(self.live, key)
        if i < len(self.live) and self.live[i] == key:
            del self.live[i]

    def pop(self):
        return self.live.pop(0) if self.live else None


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


def _key(ev):
    return None if ev is None else (ev.time, ev.priority, ev.seq)


@given(ops=_ops)
@settings(max_examples=300, deadline=None)
def test_property_pop_matches_reference_model(ops):
    queue, model = EventQueue(), _SortedListQueue()
    handles, keys = [], []
    for op, a, b in ops:
        if op == "push":
            handles.append(queue.push(float(a), lambda: None, (), b))
            keys.append(model.push(float(a), b))
        elif op == "cancel" and handles:
            # may hit live, fired, or already-cancelled events: all legal
            queue.cancel(handles[a % len(handles)])
            model.cancel(keys[a % len(keys)])
        elif op == "pop":
            assert _key(queue.pop_until(float("inf"))) == model.pop()
        assert len(queue) == len(model.live)
    drained = []
    while queue:
        drained.append(_key(queue.pop()))
    assert drained == model.live
    assert queue.pop_until(float("inf")) is None


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
def test_property_float_times_pop_sorted(times):
    q = EventQueue()
    for t in times:
        q.push(t, lambda: None)
    assert [q.pop().time for _ in range(len(times))] == sorted(times)
