"""Descriptions of pilots and compute units (the user-facing requests)."""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Optional, Tuple


def _check_cores(kind: str, cores) -> None:
    """Reject a core request that is not a positive whole number.

    ``operator.index`` accepts Python and numpy integers and nothing
    fractional, as for :class:`~repro.cluster.job.BatchJob`.
    """
    try:
        operator.index(cores)
    except TypeError:
        raise ValueError(
            f"{kind} cores must be an integer, got {cores!r}"
        ) from None
    if cores <= 0:
        raise ValueError(f"{kind} cores must be positive, got {cores}")


@dataclass(frozen=True)
class ComputePilotDescription:
    """A request for one resource placeholder.

    ``runtime_min`` is the pilot walltime request in minutes (RADICAL-
    Pilot convention); ``access_schema`` picks the SAGA adaptor dialect.
    """

    resource: str
    cores: int
    runtime_min: float
    access_schema: str = "slurm"
    queue: Optional[str] = None
    project: Optional[str] = None

    def __post_init__(self) -> None:
        _check_cores("pilot", self.cores)
        if not (math.isfinite(self.runtime_min) and self.runtime_min > 0):
            raise ValueError(
                f"pilot runtime must be finite and positive, got {self.runtime_min}"
            )

    @property
    def runtime_s(self) -> float:
        return self.runtime_min * 60.0


@dataclass(frozen=True)
class ComputeUnitDescription:
    """A request to execute one task.

    ``duration_s`` is the substrate stand-in for the task executable's
    runtime (the skeleton task's sampled duration). ``input_staging`` are
    file names that must be present at the executing resource before the
    unit runs (staged from the origin if absent); ``output_staging`` are
    files the unit creates, staged back to the origin afterwards as
    ``(name, size_bytes)`` pairs.
    """

    name: str
    duration_s: float
    cores: int = 1
    input_staging: Tuple[str, ...] = ()
    output_staging: Tuple[Tuple[str, float], ...] = ()
    #: how many times the middleware may re-dispatch the unit after a
    #: pilot failure (the paper: tasks are automatically restarted).
    max_restarts: int = 3

    def __post_init__(self) -> None:
        _check_cores("unit", self.cores)
        if not (math.isfinite(self.duration_s) and self.duration_s >= 0):
            raise ValueError(
                f"unit duration must be finite and >= 0, got {self.duration_s}"
            )
        if self.max_restarts < 0:
            raise ValueError("max_restarts must be non-negative")
