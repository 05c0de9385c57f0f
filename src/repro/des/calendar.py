"""Calendar-queue event scheduling (Brown 1988) for the DES kernel.

A calendar queue hashes events into "day" buckets of a fixed time width;
popping scans forward from the current day, so enqueue and dequeue are
O(1) amortized instead of the O(log n) sifts of a binary heap. The
implementation here preserves the kernel's determinism contract exactly:
events pop in the same strict total order ``(time, priority, seq)`` as
:class:`~repro.des.events.EventQueue`, cancellation is lazy with bounded
compaction, and cancel-after-fire is a no-op.

Three classes:

- :class:`CalendarEventQueue` — the calendar queue proper, API-compatible
  with ``EventQueue`` (``push``/``pop``/``pop_until``/``cancel``/
  ``peek_time``/``len``).
- :class:`AdaptiveEventQueue` — starts as a binary heap and promotes
  itself to a calendar queue once the live event population crosses a
  threshold; small simulations keep the heap's low constant factor while
  large ones get O(1) scheduling.
- :func:`make_event_queue` — the factory the kernel flag maps through.

Buckets are resized (doubled/halved) as the live population crosses
``2 * nbuckets`` / ``nbuckets // 2`` so the average bucket occupancy
stays O(1); the bucket width is re-estimated from inter-event gaps at
each resize, following Brown's sampling rule.
"""

from __future__ import annotations

import math
from heapq import heappush
from typing import Callable, List, Optional, Tuple

from .errors import SchedulingError
from .events import _COMPACT_MIN, EventQueue, ScheduledEvent

#: Never shrink below this many buckets.
_MIN_BUCKETS = 8

#: Live-event population at which AdaptiveEventQueue swaps heap -> calendar.
_PROMOTE_AT = 4096

_INF = float("inf")


def _next_pow2(n: int) -> int:
    return 1 << max(3, (n - 1).bit_length())


class CalendarEventQueue:
    """Deterministic calendar queue of :class:`ScheduledEvent` records.

    Drop-in replacement for :class:`~repro.des.events.EventQueue`; see
    the module docstring for the algorithm. Events at ``+/-inf`` (legal
    in the heap, since only NaN is rejected) live in dedicated overflow
    lists because they have no finite day index.
    """

    def __init__(self) -> None:
        self._seq = 0  # plain int: += 1 beats next(count()) on the hot path
        self._nbuckets = _MIN_BUCKETS
        self._buckets: List[List[ScheduledEvent]] = [
            [] for _ in range(_MIN_BUCKETS)
        ]
        self._width = 1.0
        self._day = 0  # absolute day index of the scan cursor
        self._live = 0
        self._cancelled = 0  # dead entries still occupying bucket slots
        self._underflow: List[ScheduledEvent] = []  # time == -inf
        self._overflow: List[ScheduledEvent] = []  # time == +inf
        #: Cumulative counters surfaced through the telemetry registry.
        self.pushed = 0
        self.popped = 0
        self.cancels = 0
        self.compactions = 0
        self.resizes = 0

    def __len__(self) -> int:
        return self._live

    def __bool__(self) -> bool:
        return self._live > 0

    # -- insertion ---------------------------------------------------------

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        """Insert a callback at simulated ``time`` and return its handle."""
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = self._seq
        self._seq = seq + 1
        ev = ScheduledEvent(time, priority, seq, callback, args)
        self._insert(ev)
        self._live += 1
        self.pushed += 1
        if self._live > self._nbuckets << 1:
            self._resize(self._nbuckets << 1)
        return ev

    def _insert(self, ev: ScheduledEvent) -> None:
        t = ev.time
        if math.isinf(t):
            (self._overflow if t > 0 else self._underflow).append(ev)
            return
        day = int(t // self._width)
        self._buckets[day % self._nbuckets].append(ev)
        if day < self._day:
            # An insertion behind the cursor (e.g. scheduling at the
            # current time after the cursor skipped ahead to a sparse
            # future day) rewinds the scan so the event is not orphaned.
            self._day = day

    # -- cancellation ------------------------------------------------------

    def cancel(self, event: ScheduledEvent) -> None:
        """Lazily cancel ``event``; it keeps its slot but will be skipped."""
        if event.cancelled or event.fired:
            return
        event.cancel()
        self._live -= 1
        self._cancelled += 1
        self.cancels += 1
        if (
            self._cancelled > self._live
            and self._live + self._cancelled >= _COMPACT_MIN
        ):
            self._compact()

    def _compact(self) -> None:
        """Drop dead entries from every bucket (O(slots), order-free)."""
        for bucket in self._buckets:
            if bucket:
                bucket[:] = [ev for ev in bucket if not ev.cancelled]
        for aux in (self._underflow, self._overflow):
            if aux:
                aux[:] = [ev for ev in aux if not ev.cancelled]
        self._cancelled = 0
        self.compactions += 1

    # -- extraction --------------------------------------------------------

    def _locate_min(
        self,
    ) -> Optional[Tuple[ScheduledEvent, List[ScheduledEvent]]]:
        """Find the next live event and its container, advancing the cursor.

        Returns ``(event, bucket)`` or None when empty. Scans at most one
        "year" (nbuckets days) forward from the cursor before falling back
        to a direct search, per Brown's algorithm.
        """
        if self._live == 0:
            return None
        if self._underflow:
            best = None
            for ev in self._underflow:
                if not ev.cancelled and (best is None or ev < best):
                    best = ev
            if best is not None:
                return best, self._underflow
        buckets = self._buckets
        n = self._nbuckets
        w = self._width
        day = self._day
        for _ in range(n):
            bucket = buckets[day % n]
            if bucket:
                best = None
                dead = 0
                for ev in bucket:
                    if ev.cancelled:
                        dead += 1
                    elif ev.time // w == day and (best is None or ev < best):
                        best = ev
                if dead:
                    bucket[:] = [ev for ev in bucket if not ev.cancelled]
                    self._cancelled -= dead
                if best is not None:
                    self._day = day
                    return best, bucket
            day += 1
        # The coming year is empty: direct search for the global minimum.
        best = None
        home: Optional[List[ScheduledEvent]] = None
        for bucket in buckets:
            for ev in bucket:
                if not ev.cancelled and (best is None or ev < best):
                    best = ev
                    home = bucket
        if best is not None:
            self._day = int(best.time // w)
            return best, home  # type: ignore[return-value]
        for ev in self._overflow:
            if not ev.cancelled and (best is None or ev < best):
                best = ev
                home = self._overflow
        if best is None:
            return None
        return best, home  # type: ignore[return-value]

    def peek_time(self) -> Optional[float]:
        """Return the time of the next live event, or None if empty."""
        found = self._locate_min()
        return found[0].time if found else None

    def pop(self) -> ScheduledEvent:
        """Remove and return the next live event."""
        ev = self.pop_until(_INF)
        if ev is None:
            raise IndexError("pop from empty CalendarEventQueue")
        return ev

    def pop_until(self, limit: float) -> Optional[ScheduledEvent]:
        """Pop the next live event with ``time <= limit``, or None."""
        found = self._locate_min()
        if found is None:
            return None
        ev, bucket = found
        if ev.time > limit:
            return None
        bucket.remove(ev)
        ev.fired = True
        self._live -= 1
        self.popped += 1
        if self._live < self._nbuckets >> 1 and self._nbuckets > _MIN_BUCKETS:
            self._resize(self._nbuckets >> 1)
        return ev

    # -- sizing ------------------------------------------------------------

    def _finite_live(self) -> List[ScheduledEvent]:
        return [
            ev for bucket in self._buckets for ev in bucket if not ev.cancelled
        ]

    def _estimate_width(self, events: List[ScheduledEvent]) -> float:
        """Bucket width from the mean inter-event gap of a deterministic
        sample (Brown's rule: width ~ 3x the average separation)."""
        if len(events) < 2:
            return self._width
        sample = sorted(ev.time for ev in events[:64])
        gaps = [b - a for a, b in zip(sample, sample[1:]) if b > a]
        if not gaps:
            return self._width
        width = 3.0 * (sum(gaps) / len(gaps))
        if not (width > 0.0) or math.isinf(width):
            return self._width
        return max(width, 1e-9)

    def _resize(self, nbuckets: int) -> None:
        events = self._finite_live()
        self._width = self._estimate_width(events)
        self._nbuckets = nbuckets
        self._buckets = [[] for _ in range(nbuckets)]
        self._cancelled = 0
        if self._underflow:
            self._underflow = [
                ev for ev in self._underflow if not ev.cancelled
            ]
        if self._overflow:
            self._overflow = [ev for ev in self._overflow if not ev.cancelled]
        w = self._width
        min_day: Optional[int] = None
        for ev in events:
            day = int(ev.time // w)
            self._buckets[day % nbuckets].append(ev)
            if min_day is None or day < min_day:
                min_day = day
        self._day = min_day if min_day is not None else 0
        self.resizes += 1

    def _bulk_load(self, events: List[ScheduledEvent]) -> None:
        """Adopt ``events`` (live, un-fired) wholesale; used on promotion."""
        finite: List[ScheduledEvent] = []
        for ev in events:
            if math.isinf(ev.time):
                (self._overflow if ev.time > 0 else self._underflow).append(ev)
            else:
                finite.append(ev)
        self._live = len(events)
        self._nbuckets = _next_pow2(max(_MIN_BUCKETS, len(finite)))
        self._width = self._estimate_width(finite)
        self._buckets = [[] for _ in range(self._nbuckets)]
        w = self._width
        min_day: Optional[int] = None
        for ev in finite:
            day = int(ev.time // w)
            self._buckets[day % self._nbuckets].append(ev)
            if min_day is None or day < min_day:
                min_day = day
        self._day = min_day if min_day is not None else 0


class AdaptiveEventQueue:
    """Binary heap that promotes itself to a calendar queue under load.

    Pre-promotion there is no delegation overhead: ``cancel``,
    ``pop_until`` and ``peek_time`` are the heap's *bound methods*
    installed as instance attributes, and ``push`` inlines the heap
    insert plus the promotion check. When the live population first
    reaches ``promote_at`` the heap's pending events migrate into a
    :class:`CalendarEventQueue` (sharing the sequence counter, so
    tie-breaking is unaffected), the instance methods are rebound to the
    calendar's, and stale hoisted references forward to the calendar:
    the drained heap's ``pop_until`` (the kernel hoists one per run) and
    this class's ``push`` (``Waitable._trigger`` hoists one per trigger,
    and its callbacks may cross the threshold mid-loop). Promotion cannot
    change pop order because the ordering is a strict total order on
    ``(time, priority, seq)``.
    """

    def __init__(self, promote_at: int = _PROMOTE_AT) -> None:
        impl = EventQueue()
        self._impl: object = impl
        self._heap_queue = impl
        self._promote_at = promote_at
        self.promotions = 0
        # Bound-method fast paths; instance attributes shadow the class.
        self.cancel = impl.cancel
        self.pop_until = impl.pop_until
        self.peek_time = impl.peek_time

    def __len__(self) -> int:
        return len(self._impl)  # type: ignore[arg-type]

    def __bool__(self) -> bool:
        return bool(self._impl)

    def push(
        self,
        time: float,
        callback: Callable[..., None],
        args: tuple = (),
        priority: int = 0,
    ) -> ScheduledEvent:
        # Inlined EventQueue.push plus the promotion trigger. After
        # promotion the calendar's own push is installed on the instance;
        # only a bound method hoisted before the promotion still lands
        # here, and it forwards like the heap's pop_until does.
        impl = self._heap_queue
        if impl._redirect is not None:
            return impl._redirect.push(time, callback, args, priority)
        if time != time:  # NaN guard
            raise SchedulingError("event time is NaN")
        seq = impl._seq
        impl._seq = seq + 1
        ev = ScheduledEvent(time, priority, seq, callback, args)
        heappush(impl._heap, (time, priority, seq, ev))
        impl._live += 1
        impl.pushed += 1
        if impl._live >= self._promote_at:
            self._promote()
        return ev

    def _promote(self) -> None:
        heap: EventQueue = self._impl  # type: ignore[assignment]
        cal = CalendarEventQueue()
        cal._seq = heap._seq  # keep the (time, priority, seq) order intact
        cal.pushed = heap.pushed
        cal.popped = heap.popped
        cal.cancels = heap.cancels
        cal.compactions = heap.compactions
        cal._bulk_load(
            [entry[3] for entry in heap._heap if not entry[3].cancelled]
        )
        # Drain the heap and leave a forwarding pointer for any caller
        # still holding its pop_until.
        heap._heap.clear()
        heap._live = 0
        heap._cancelled = 0
        heap._redirect = cal
        self._impl = cal
        self.push = cal.push  # type: ignore[method-assign]
        self.cancel = cal.cancel
        self.pop_until = cal.pop_until
        self.peek_time = cal.peek_time
        self.promotions += 1

    def pop(self) -> ScheduledEvent:
        ev = self.pop_until(_INF)
        if ev is None:
            raise IndexError("pop from empty AdaptiveEventQueue")
        return ev

    # Counter passthroughs (the registry reads these via gauges).
    @property
    def pushed(self) -> int:
        return self._impl.pushed

    @property
    def popped(self) -> int:
        return self._impl.popped

    @property
    def cancels(self) -> int:
        return self._impl.cancels

    @property
    def compactions(self) -> int:
        return self._impl.compactions

    @property
    def resizes(self) -> int:
        return getattr(self._impl, "resizes", 0)


#: Queue backends selectable through ``Simulation(event_queue=...)`` or
#: the ``REPRO_DES_QUEUE`` environment variable.
QUEUE_BACKENDS = ("auto", "heap", "calendar")


def make_event_queue(backend: str = "auto"):
    """Build an event queue for ``backend`` (one of :data:`QUEUE_BACKENDS`)."""
    if backend == "auto":
        return AdaptiveEventQueue()
    if backend == "heap":
        return EventQueue()
    if backend == "calendar":
        return CalendarEventQueue()
    raise ValueError(
        f"unknown event queue backend {backend!r}; "
        f"expected one of {', '.join(QUEUE_BACKENDS)}"
    )
