"""Discrete-event simulation kernel.

This package is the substrate's foundation: a deterministic event queue, a
simulated clock, generator-based processes, shared-resource primitives,
seeded RNG streams, and a trace log used for self-introspection by the
middleware layers above.
"""

from .errors import (
    CancelledError,
    Interrupt,
    ProcessError,
    SchedulingError,
    SimulationError,
)
from .events import EventQueue, ScheduledEvent, TraceRecord, Tracer
from .hazard import hazard_process
from .kernel import Simulation
from .process import AllOf, AnyOf, Process, Signal, Timeout, Waitable
from .resources import Acquisition, CapacityResource, Store
from .rng import RngStreams

__all__ = [
    "Acquisition",
    "AllOf",
    "AnyOf",
    "CancelledError",
    "CapacityResource",
    "EventQueue",
    "Interrupt",
    "Process",
    "ProcessError",
    "RngStreams",
    "ScheduledEvent",
    "SchedulingError",
    "Signal",
    "Simulation",
    "SimulationError",
    "Store",
    "Timeout",
    "TraceRecord",
    "Tracer",
    "Waitable",
    "hazard_process",
]
