"""Span records: begin/end intervals on virtual and wall clocks.

A span covers one piece of middleware work — a scheduler pass, a bundle
query, a pilot's stay in one state, an enactment step. Each span carries
*two* clocks:

* ``t0``/``t1`` — virtual (simulated) seconds, the clock analyses and
  digests are derived from;
* ``w0``/``w1`` — monotonic wall seconds (``time.perf_counter``), the
  clock that tells you where the simulation itself spends host CPU.

Only the virtual fields participate in the canonical rendering: wall
time varies run to run, so it is excluded from the reproducibility
digest by construction.

Scheduler passes dominate a telemetered campaign's span count, so the
record is slotted and :meth:`Span.as_dict` renders flat attrs (``str``
keys; ``str``/``int``/``float``/``bool``/``None`` values) with a plain
copy instead of the recursive coercion; both give the same JSON.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


class UnclosedSpanError(Exception):
    """Raised when closed telemetry is required but spans are still open."""


@dataclass(slots=True)
class Span:
    """One begin/end record on the telemetry hub."""

    sid: int                      # unique, ordered by begin
    parent: Optional[int]         # enclosing span's sid (context nesting)
    category: str                 # span taxonomy, e.g. "cluster", "execution"
    name: str                     # e.g. "scheduler-pass", "EXECUTING"
    track: str                    # display lane, e.g. "cluster/stampede-sim"
    t0: float                     # virtual begin (simulated seconds)
    w0: float                     # wall begin (perf_counter seconds)
    t1: Optional[float] = None    # virtual end; None while open
    w1: Optional[float] = None    # wall end; None while open
    attrs: Dict[str, Any] = field(default_factory=dict)

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    @property
    def virtual_duration(self) -> Optional[float]:
        return None if self.t1 is None else self.t1 - self.t0

    @property
    def wall_duration(self) -> Optional[float]:
        return None if self.w1 is None else self.w1 - self.w0

    def as_dict(self, wall: bool = False) -> Dict[str, Any]:
        """Canonical dict. Wall clocks are opt-in (they break digests)."""
        out: Dict[str, Any] = {
            "sid": self.sid,
            "parent": self.parent,
            "category": self.category,
            "name": self.name,
            "track": self.track,
            "t0": self.t0,
            "t1": self.t1,
            "attrs": _plain_attrs(self.attrs),
        }
        if wall:
            out["w0"] = self.w0
            out["w1"] = self.w1
        return out


#: exact types a flat attr value may have; subclasses (numpy floats,
#: enums) take the general path.
_FLAT = frozenset({str, int, float, bool, type(None)})


def _plain_attrs(attrs: Dict[str, Any]) -> Dict[str, Any]:
    """``_plain(attrs)``, without the recursion when every attr is flat."""
    for key, value in attrs.items():
        if type(key) is not str or type(value) not in _FLAT:
            return _plain(attrs)
    return dict(attrs)


def _plain(value: Any) -> Any:
    """Coerce attr values to JSON-stable types (tuples become lists)."""
    if isinstance(value, dict):
        return {str(k): _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)
