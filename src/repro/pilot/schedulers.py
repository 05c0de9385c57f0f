"""Unit-level scheduling policies: the binding decision of the paper.

* :class:`DirectScheduler` — **early binding**: every unit is assigned
  to a pilot the moment it is submitted, before any pilot is active.
  Units ride out their pilot's queue wait; an application's makespan is
  set by the *last* pilot to activate (Table I, experiments 1–2 use this
  with a single pilot).
* :class:`BackfillScheduler` — **late binding**: units stay in a shared
  pool and are bound only to *active* pilots with uncommitted cores,
  earliest-activated pilot first. The first pilot out of the queue
  starts draining the pool immediately (experiments 3–4).
* :class:`RoundRobinScheduler` — late binding without capacity
  awareness: units are spread evenly over active pilots as they appear.
  Included as an ablation of the backfill policy.
* :class:`LocalityScheduler` — late binding that prefers the pilot whose
  site already holds the unit's inputs.

The contract: the :class:`~repro.pilot.unit_manager.UnitManager` builds
the *bindable* pilots once per pass and hands them to
:meth:`UnitScheduler.assign`, which only chooses among them. For an
early-binding policy they are the non-final pilots in submission order;
for a late-binding one, the active pilots whose agent is not stopped,
sorted by ``(activated_at, uid)``. Pilots on quarantined resources are
never bindable. A policy never mutates units or pilots; it returns
``(unit, pilot)`` assignments and the unit manager enacts them.
"""

from __future__ import annotations

import abc
import itertools
from typing import List, Sequence, Tuple

from .entities import ComputePilot, ComputeUnit


class UnitScheduler(abc.ABC):
    """Base class for unit-to-pilot binding policies."""

    name: str = "base"
    #: early-binding policies assign to pilots that are not yet active.
    early_binding: bool = False
    #: the :class:`~repro.net.Network` whose site filesystems a policy
    #: may read; the unit manager supplies its own when this is unset.
    network = None

    @abc.abstractmethod
    def assign(
        self,
        eligible: Sequence[ComputeUnit],
        pilots: Sequence[ComputePilot],
    ) -> List[Tuple[ComputeUnit, ComputePilot]]:
        """Return the bindings to enact now, in order.

        ``pilots`` are the bindable pilots, in preference order.
        """


class DirectScheduler(UnitScheduler):
    """Early binding: round-robin over the non-final pilots at submission."""

    name = "direct"
    early_binding = True

    def __init__(self) -> None:
        self._rr = itertools.count()

    def assign(self, eligible, pilots):
        out = []
        for unit in eligible:
            fitting = [p for p in pilots if p.cores >= unit.cores]
            if fitting:  # else wait for a pilot the unit can ever fit in
                out.append((unit, fitting[next(self._rr) % len(fitting)]))
        return out


class RoundRobinScheduler(DirectScheduler):
    """Late binding, capacity-blind: spread units over active pilots."""

    name = "round-robin"
    early_binding = False


class BackfillScheduler(UnitScheduler):
    """Late binding: fill active pilots' uncommitted cores, oldest first."""

    name = "backfill"
    early_binding = False

    def assign(self, eligible, pilots):
        free = {p.uid: p.agent.uncommitted_cores for p in pilots}
        out = []
        for unit in eligible:
            pilot = self._pick(unit, pilots, free)
            if pilot is not None:
                free[pilot.uid] -= unit.cores
                out.append((unit, pilot))
        return out

    def _pick(self, unit, pilots, free):
        """The first pilot with ``unit.cores`` uncommitted, or None."""
        for pilot in pilots:
            if free[pilot.uid] >= unit.cores:
                return pilot
        return None


class LocalityScheduler(BackfillScheduler):
    """Late binding with data locality: prefer pilots whose site already
    holds the unit's inputs.

    Compute/data affinity at the unit level (paper §V): among active
    pilots with uncommitted cores, a unit goes to the one whose site has
    the most of its input files resident (ties broken by activation
    order, the backfill default). Avoids re-staging when outputs of an
    earlier stage already live where the next stage could run.
    """

    name = "locality"

    def __init__(self, network=None) -> None:
        self.network = network

    def _resident_inputs(self, unit: ComputeUnit, site: str) -> int:
        if self.network is None:
            return 0
        fs = self.network.fs(site)
        return sum(
            1 for f in unit.description.input_staging if fs.exists(f)
        )

    def _pick(self, unit, pilots, free):
        cores = unit.cores
        return max(
            (p for p in pilots if free[p.uid] >= cores),
            key=lambda p: self._resident_inputs(unit, p.resource),
            default=None,
        )


UNIT_SCHEDULERS = {
    cls.name: cls
    for cls in (
        DirectScheduler,
        BackfillScheduler,
        RoundRobinScheduler,
        LocalityScheduler,
    )
}


def make_unit_scheduler(name: str) -> UnitScheduler:
    """Instantiate a unit scheduling policy by name."""
    try:
        return UNIT_SCHEDULERS[name]()
    except KeyError:
        raise ValueError(
            f"unknown unit scheduler {name!r}; known: {sorted(UNIT_SCHEDULERS)}"
        ) from None
