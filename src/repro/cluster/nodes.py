"""Compute-node pool with core-granular accounting.

Jobs request a number of cores and may span nodes (single-core tasks
dominate the paper's workloads, so core-granular packing is the faithful
model). Any request not exceeding the free cores is placeable, so
placement never gates a job: the pool counts cores per allocation and
does not track which node holds them, since nothing reads that.
"""

from __future__ import annotations

from typing import Dict


class AllocationError(Exception):
    """Raised on inconsistent allocate/free calls (a simulator bug)."""


class NodePool:
    """A homogeneous pool of nodes with core-granular allocation."""

    def __init__(self, nodes: int, cores_per_node: int) -> None:
        if nodes <= 0 or cores_per_node <= 0:
            raise ValueError("nodes and cores_per_node must be positive")
        self.nodes = nodes
        self.cores_per_node = cores_per_node
        #: capacity; fixed for the pool's lifetime, so a plain attribute
        self.total_cores = nodes * cores_per_node
        self.free_cores = self.total_cores
        self._held: Dict[int, int] = {}

    @property
    def used_cores(self) -> int:
        return self.total_cores - self.free_cores

    @property
    def utilization(self) -> float:
        """Fraction of cores currently allocated, in [0, 1]."""
        return self.used_cores / self.total_cores

    def can_fit(self, cores: int) -> bool:
        return cores <= self.free_cores

    def allocate(self, key: int, cores: int) -> None:
        """Allocate ``cores`` for ``key`` (a job uid).

        Every check runs before any state changes, so a rejected call
        leaves the pool exactly as it was.
        """
        if cores <= 0:
            raise ValueError(f"cores must be positive, got {cores}")
        held = self._held
        if key in held:
            raise AllocationError(f"key {key} already holds an allocation")
        if cores > self.free_cores:
            raise AllocationError(
                f"cannot allocate {cores} cores; only {self.free_cores} free"
            )
        held[key] = cores
        self.free_cores -= cores

    def free(self, key: int) -> None:
        """Release the allocation held by ``key``."""
        cores = self._held.pop(key, None)
        if cores is None:
            raise AllocationError(f"key {key} holds no allocation")
        self.free_cores += cores
