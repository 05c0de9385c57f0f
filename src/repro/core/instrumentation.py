"""TTC decomposition from entity state histories (self-introspection).

The AIMES middleware records every state transition with a timestamp;
analysis then *derives* the time components of TTC from those records —
never from ad-hoc counters. The components, following the paper's
Figure 3:

* **Tw** — setup time: from the first pilot submission until the first
  pilot becomes active (the execution can start draining tasks then).
  ``tw_last`` (until the last activation) is also reported, since early
  binding's makespan is governed by it.
* **Tx** — execution span: from the first unit entering EXECUTING to the
  last unit leaving it.
* **Ts** — staging time: the union of all intervals during which at
  least one data transfer of this run was in flight (input or output).
* **Trp** — middleware overhead: the portion of TTC not covered by the
  union of Tw, Tx and Ts (scheduling passes, binding, bookkeeping).

The components overlap by design, so ``TTC <= Tw + Tx + Ts + Trp`` need
not hold; instead ``TTC = union(...) + Trp`` exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from ..pilot import ComputePilot, ComputeUnit, PilotState, UnitState
from .metrics import Interval, merge_intervals, span, union_duration


@dataclass(frozen=True)
class TTCDecomposition:
    """The measured time components of one application execution."""

    t_start: float
    t_end: float
    tw: float                 # first-pilot setup time
    tw_last: float            # last-pilot setup time
    tx: float                 # execution span
    ts: float                 # staging (union of transfer intervals)
    trp: float                # middleware overhead (uncovered TTC)
    pilot_waits: Tuple[float, ...]    # per-pilot queue waits (NaN if never active)
    units_done: int
    units_failed: int
    restarts: int
    units_canceled: int = 0
    #: executing seconds thrown away because the attempt's pilot died
    #: before the unit could stage out (re-run work, the recovery cost).
    t_lost: float = 0.0
    #: injected faults that fell inside this execution's window.
    n_faults: int = 0
    #: summed per-resource quarantine seconds (breaker-open windows)
    #: overlapping this execution — time capacity was deliberately
    #: withheld by the health layer, the supervision analogue of t_lost.
    t_quarantined: float = 0.0
    #: units the watchdog canceled and requeued for lack of progress.
    units_rescheduled: int = 0

    @property
    def ttc(self) -> float:
        return self.t_end - self.t_start


class IntrospectionError(Exception):
    """Raised when histories are insufficient to decompose the execution."""


def unit_intervals(
    units: Sequence[ComputeUnit], start_state: str, end_states: Sequence[str]
) -> List[Interval]:
    """Per-attempt intervals from ``start_state`` to the next of ``end_states``.

    Restarted units contribute one interval per attempt: each entry into
    ``start_state`` is paired with the next entry into one of the end
    states *before* the state recurs. An attempt cut short by failure
    (the pilot died under the unit) contributes no interval here — the
    lost time is accounted separately by :func:`lost_intervals` — so Tx
    and Ts never silently absorb requeue gaps between attempts.
    """
    ends = set(end_states)
    out: List[Interval] = []
    for unit in units:
        entries = unit.history.as_list()
        for i, (state, t0) in enumerate(entries):
            if state != start_state:
                continue
            for later_state, t1 in entries[i + 1:]:
                if later_state == start_state:
                    break  # a new attempt began without closing this one
                if later_state in ends:
                    out.append((t0, t1))
                    break
    return out


def lost_intervals(units: Sequence[ComputeUnit]) -> List[Interval]:
    """EXECUTING intervals that ended in failure or cancellation.

    This is the re-run work a fault costs: compute that was burned on a
    pilot that died (or a unit that was canceled) before staging out.
    """
    terminal = {UnitState.FAILED.value, UnitState.CANCELED.value}
    out: List[Interval] = []
    for unit in units:
        entries = unit.history.as_list()
        for i, (state, t0) in enumerate(entries):
            if state != UnitState.EXECUTING.value:
                continue
            if i + 1 < len(entries):
                next_state, t1 = entries[i + 1]
                if next_state in terminal:
                    out.append((t0, t1))
    return out


def staging_intervals(units: Sequence[ComputeUnit]) -> List[Interval]:
    """Intervals each unit spent staging data (input and output)."""
    ins = unit_intervals(
        units, UnitState.STAGING_INPUT.value, (UnitState.PENDING_EXECUTION.value,)
    )
    outs = unit_intervals(
        units, UnitState.STAGING_OUTPUT.value, (UnitState.DONE.value,)
    )
    return ins + outs


def execution_intervals(units: Sequence[ComputeUnit]) -> List[Interval]:
    """Intervals each unit spent on pilot cores."""
    return unit_intervals(
        units, UnitState.EXECUTING.value, (UnitState.STAGING_OUTPUT.value,)
    )


def quarantine_seconds(health_log, t_start: float, t_end: float) -> float:
    """Summed per-resource breaker-open time overlapping [t_start, t_end].

    Windows are reconstructed from the health-event trace: a window
    opens at ``breaker-open`` and ends at the matching
    ``breaker-half-open`` (the only transition out of OPEN). A half-open
    with no preceding open in the slice belongs to a window that opened
    before the execution started; a window still open at the end of the
    slice is clipped at ``t_end``.
    """
    opens: dict = {}
    total = 0.0
    for ev in health_log:
        if ev.kind == "breaker-open":
            opens.setdefault(ev.target, ev.time)
        elif ev.kind == "breaker-half-open":
            t0 = opens.pop(ev.target, t_start)
            lo, hi = max(t0, t_start), min(ev.time, t_end)
            if hi > lo:
                total += hi - lo
    for t0 in opens.values():
        lo = max(t0, t_start)
        if t_end > lo:
            total += t_end - lo
    return total


def decompose(
    pilots: Sequence[ComputePilot],
    units: Sequence[ComputeUnit],
    t_start: float,
    t_end: float,
    fault_log=None,
    health_log=None,
) -> TTCDecomposition:
    """Derive the TTC decomposition for one application execution.

    ``fault_log`` (a :class:`~repro.faults.FaultLog`, when the run was
    executed under fault injection) contributes the count of injected
    faults inside the execution window, so reports carry the chaos
    context alongside the time components. ``health_log`` (a
    :class:`~repro.health.HealthEventLog`, when the run was supervised)
    contributes the quarantine time and watchdog reschedule count.
    """
    if t_end < t_start:
        raise IntrospectionError("t_end precedes t_start")
    if not pilots:
        raise IntrospectionError("no pilots to decompose")

    submits = [
        p.history.timestamp(PilotState.LAUNCHING.value) for p in pilots
    ]
    actives = [p.activated_at for p in pilots]
    valid_actives = [a for a in actives if a is not None]
    first_submit = min(s for s in submits if s is not None)
    if valid_actives:
        tw = min(valid_actives) - first_submit
        tw_last = max(valid_actives) - first_submit
    else:
        tw = tw_last = t_end - first_submit  # no pilot ever activated

    exec_ivals = execution_intervals(units)
    stage_ivals = staging_intervals(units)
    tx = span(exec_ivals)
    ts = union_duration(stage_ivals)

    # Trp: TTC time not covered by waiting, executing, or staging.
    covered = merge_intervals(
        [(first_submit, first_submit + tw)] + exec_ivals + stage_ivals
    )
    clipped = [
        (max(lo, t_start), min(hi, t_end))
        for lo, hi in covered
        if hi > t_start and lo < t_end
    ]
    trp = (t_end - t_start) - union_duration(clipped)

    pilot_waits = tuple(
        (a - s) if (a is not None and s is not None) else float("nan")
        for s, a in zip(submits, actives)
    )
    return TTCDecomposition(
        t_start=t_start,
        t_end=t_end,
        tw=tw,
        tw_last=tw_last,
        tx=tx,
        ts=ts,
        trp=max(0.0, trp),
        pilot_waits=pilot_waits,
        units_done=sum(1 for u in units if u.state is UnitState.DONE),
        units_failed=sum(1 for u in units if u.state is UnitState.FAILED),
        restarts=sum(u.restarts for u in units),
        units_canceled=sum(
            1 for u in units if u.state is UnitState.CANCELED
        ),
        # summed, not unioned: two units losing work concurrently both
        # have to re-run, so the recovery cost is additive.
        t_lost=sum(t1 - t0 for t0, t1 in lost_intervals(units)),
        n_faults=(
            len(fault_log.between(t_start, t_end)) if fault_log is not None else 0
        ),
        t_quarantined=(
            quarantine_seconds(
                health_log.between(t_start, t_end), t_start, t_end
            )
            if health_log is not None else 0.0
        ),
        units_rescheduled=(
            len(health_log.between(t_start, t_end).of_kind("watchdog-reschedule"))
            if health_log is not None else 0
        ),
    )
