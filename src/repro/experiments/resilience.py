"""Crash-safe campaign execution: leases, resume planning, and shutdown.

The campaign runner simulates resilient *distributed* execution (faults,
breakers, deadline re-planning), but before this module it was itself
fragile: a SIGKILL, a hung worker, or a Ctrl-C discarded every completed
repetition and the only recovery was a full re-run. This module makes
the execution process itself supervisable — the same posture the AIMES
paper takes toward the applications it runs — following the
checkpoint/restart and pilot-lifecycle supervision patterns of
RADICAL-Pilot and the P* pilot model.

Four cooperating pieces:

* **Leases** — every dispatch of a ``(exp_id, n_tasks, rep)`` cell
  writes an *attempt* row into the store (attempt number, state,
  worker pid, wall start/end, heartbeat). The row is opened ``leased``
  before the cell runs and closed ``committed``/``failed``/``timeout``/
  ``crashed``/``reclaimed``/``interrupted`` afterwards, so a campaign's
  execution history is durable and a half-finished store is
  forensically legible: whatever is still ``leased`` died in flight.
* **Resume** — :func:`prepare_resume` verifies the campaign config
  fingerprint (grid, reps, seed, resource pool hashed canonically)
  against the store, refuses incompatible resumes with a per-key diff,
  reclaims stale leases, skips committed cells, and returns the
  remaining grid. Because every cell seeds itself from its coordinates
  alone (``SeedSequence`` spawn keys), re-running only the remainder
  is provably identical to an uninterrupted run — the chaos-resume
  suite asserts byte-identical ``campaign_fingerprint_from_store``
  digests.
* **Supervision** — :class:`ExecutionSupervisor` is the parent-side
  bookkeeper the campaign driver calls at each dispatch/commit/failure;
  the pool executor adds per-chunk heartbeats and a per-cell wall-time
  budget on top, killing hung workers and retrying their cells under a
  seeded-backoff budget before quarantining them as poison cells.
* **Graceful shutdown** — :class:`ShutdownControl` turns SIGINT/SIGTERM
  into a two-stage drain: the first signal stops dispatching and lets
  in-flight cells finish (and commit); the second hard-cancels. Either
  way the store is marked cleanly interrupted and the CLI exits with
  :data:`EXIT_RESUMABLE`.

Exit-code contract (the CLI's ``campaign`` subcommand):

====  =========================================================
 0    campaign completed, no cell errors
 1    campaign completed, some cells quarantined as errors
 2    usage/config errors, including an incompatible ``--resume``
75    cleanly interrupted (SIGINT/SIGTERM drain); resumable
====  =========================================================
"""

from __future__ import annotations

import logging
import os
import signal
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from ..telemetry.digest import sha256_digest
from .campaign import CellError

log = logging.getLogger(__name__)

#: One repetition's coordinates in the campaign grid.
Cell = Tuple[int, int, int]

#: Exit code of a cleanly-interrupted (drained) campaign: EX_TEMPFAIL —
#: "try again", which is exactly what ``--resume`` does.
EXIT_RESUMABLE = 75


def config_digest(meta: Dict[str, Any]) -> str:
    """SHA-256 over the canonical campaign config (grid/reps/seed/pool).

    Everything :func:`~repro.experiments.campaign.campaign_meta` records
    participates, so any future config dimension (faults, supervision)
    is covered automatically the moment it lands in the meta dict.
    """
    return sha256_digest(dict(meta))


def meta_diff(
    stored: Dict[str, Any], requested: Dict[str, Any]
) -> List[Tuple[str, Any, Any]]:
    """Per-key differences between a stored and a requested config."""
    diff: List[Tuple[str, Any, Any]] = []
    for key in sorted(set(stored) | set(requested)):
        a, b = stored.get(key), requested.get(key)
        if a != b:
            diff.append((key, a, b))
    return diff


class IncompatibleResumeError(ValueError):
    """``--resume`` against a store written by a different campaign config."""

    def __init__(
        self, diff: List[Tuple[str, Any, Any]],
        stored_digest: str, requested_digest: str,
    ) -> None:
        self.diff = diff
        self.stored_digest = stored_digest
        self.requested_digest = requested_digest
        lines = [
            "store was written by a different campaign config "
            f"(stored {stored_digest[:12]}, requested "
            f"{requested_digest[:12]}); refusing to resume:"
        ]
        for key, a, b in diff:
            lines.append(f"  {key}: stored {a!r} != requested {b!r}")
        super().__init__("\n".join(lines))


class CampaignInterrupted(RuntimeError):
    """A campaign stopped by SIGINT/SIGTERM after a clean drain.

    Carries the partial :class:`~repro.experiments.campaign.CampaignResult`
    of the cells that completed *in this session* (with a store, every
    one of them is already committed on disk). The CLI maps this to
    :data:`EXIT_RESUMABLE`.
    """

    def __init__(self, message: str, result=None) -> None:
        super().__init__(message)
        self.result = result


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for execution supervision and retry budgets.

    ``cell_timeout_s`` is the per-cell wall-time budget; an in-flight
    chunk's budget is ``cell_timeout_s * len(chunk)``, measured from the
    moment the parent observes the chunk running. ``None`` disables
    timeout supervision (the default: simulated cells are fast, but a
    pathological workload or a wedged interpreter is exactly what this
    guard exists for).
    """

    cell_timeout_s: Optional[float] = None
    #: dispatches of one cell (timeouts and crashes both count) before
    #: it is quarantined as a poison-cell :class:`CellError`.
    max_attempts: int = 2
    #: base of the seeded exponential backoff between retries.
    backoff_base_s: float = 0.5
    #: parent-side poll cadence for heartbeats/timeouts/signals.
    poll_s: float = 0.25
    #: minimum interval between heartbeat writes per poll loop.
    heartbeat_s: float = 1.0
    #: on resume, re-attempt cells previously quarantined as errors.
    retry_errors: bool = False

    def backoff_s(self, cell: Cell, attempt: int, campaign_seed: int = 0) -> float:
        """Deterministic (seeded) exponential backoff with jitter."""
        ss = np.random.SeedSequence(
            entropy=campaign_seed, spawn_key=(*cell, 0x5EED, attempt)
        )
        jitter = float(np.random.default_rng(ss).uniform(0.5, 1.5))
        return self.backoff_base_s * (2 ** max(0, attempt - 1)) * jitter


class ShutdownControl:
    """Two-stage SIGINT/SIGTERM handling for campaign runners.

    First signal: ``draining`` — stop dispatching, let in-flight cells
    finish and commit. Second signal: ``hard`` — cancel everything still
    running. With ``raise_on_hard`` (the inline executor) the second
    signal raises :class:`KeyboardInterrupt` so an in-process cell is
    actually preempted; the pool executor polls the flags instead and
    kills its worker pool.

    Worker processes fork a copy of the installed handler; the copy
    recognizes the pid mismatch and only flips its (invisible) flags,
    which makes workers immune to the terminal's process-group SIGINT —
    the drain semantics fall out for free. Installation is a no-op off
    the main thread.
    """

    def __init__(self, raise_on_hard: bool = False, quiet: bool = True) -> None:
        self.draining = False
        self.hard = False
        self.signals = 0
        self._raise_on_hard = raise_on_hard
        self._quiet = quiet
        self._pid = os.getpid()
        self._previous: Dict[int, Any] = {}

    def install(self) -> "ShutdownControl":
        try:
            for sig in (signal.SIGINT, signal.SIGTERM):
                self._previous[sig] = signal.signal(sig, self._handle)
        except ValueError:  # pragma: no cover - non-main thread
            self._previous = {}
        return self

    def restore(self) -> None:
        for sig, previous in self._previous.items():
            try:
                signal.signal(sig, previous)
            except ValueError:  # pragma: no cover - non-main thread
                pass
        self._previous = {}

    def _handle(self, signum, frame) -> None:
        if os.getpid() != self._pid:
            # forked worker copy: shield the worker, let the parent drain.
            return
        self.signals += 1
        if self.draining:
            self.hard = True
            if not self._quiet:
                sys.stderr.write("\nhard cancel — store keeps every committed cell\n")
            if self._raise_on_hard:
                raise KeyboardInterrupt
        else:
            self.draining = True
            if not self._quiet:
                sys.stderr.write(
                    "\ndraining in-flight cells (signal again to hard-cancel); "
                    "resume later with --resume\n"
                )

    def __enter__(self) -> "ShutdownControl":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.restore()


@dataclass
class ResumePlan:
    """What :func:`prepare_resume` decided about a half-finished store."""

    committed: Set[Cell] = field(default_factory=set)
    errors_skipped: Set[Cell] = field(default_factory=set)
    errors_retried: Set[Cell] = field(default_factory=set)
    reclaimed_leases: int = 0
    remaining: List[Cell] = field(default_factory=list)
    was_interrupted: bool = False

    def describe(self) -> str:
        return (
            f"resume: {len(self.committed)} committed cell(s) skipped, "
            f"{len(self.errors_skipped)} quarantined skipped, "
            f"{len(self.errors_retried)} quarantined retried, "
            f"{self.reclaimed_leases} stale lease(s) reclaimed, "
            f"{len(self.remaining)} cell(s) to run"
        )


def prepare_resume(
    store, meta: Dict[str, Any], grid: Sequence[Cell],
    retry_errors: bool = False,
) -> ResumePlan:
    """Plan the remainder of a half-finished campaign store.

    Refuses (``IncompatibleResumeError``) when the store's recorded
    campaign config differs from the requested one — resuming a seed-7
    campaign with seed 8 would silently produce a franken-campaign no
    fingerprint could vouch for. A store with no recorded config (empty
    or freshly created) resumes trivially into a full run.
    """
    stored = store.campaign_meta()
    if stored:
        diff = meta_diff(stored, meta)
        if diff:
            raise IncompatibleResumeError(
                diff, config_digest(stored), config_digest(meta)
            )
    reclaimed = store.reclaim_stale_leases()
    if reclaimed:
        log.warning("reclaimed %d stale lease(s) from a dead run", reclaimed)
    committed = store.committed_cells()
    error_cells = store.error_cells()
    retried: Set[Cell] = set()
    if retry_errors and error_cells:
        for cell in sorted(error_cells):
            store.delete_error(*cell)
        retried, error_cells = error_cells, set()
    remaining = [
        cell for cell in grid
        if cell not in committed and cell not in error_cells
    ]
    plan = ResumePlan(
        committed=committed & set(grid),
        errors_skipped=error_cells & set(grid),
        errors_retried=retried,
        reclaimed_leases=reclaimed,
        remaining=remaining,
        was_interrupted=store.interrupted(),
    )
    log.info(plan.describe())
    return plan


class ExecutionSupervisor:
    """Parent-side attempt bookkeeping over the store and the ledger.

    One instance per campaign execution, created by the driver.
    Tracks per-cell dispatch counts for this session's retry budget;
    durable attempt numbering continues from whatever the store already
    holds, so a resumed campaign's history reads as one sequence.
    All methods are no-ops on the sinks they were not given.
    """

    def __init__(self, store=None, ledger=None,
                 policy: Optional[ResiliencePolicy] = None) -> None:
        self.store = store
        self.ledger = ledger
        self.policy = policy or ResiliencePolicy()
        self._session_attempts: Dict[Cell, int] = {}
        self._open: Dict[Cell, int] = {}
        self._last_heartbeat = 0.0

    # -- lifecycle of one attempt ----------------------------------------------

    def begin(self, cell: Cell, worker: Optional[int] = None) -> int:
        """Open a lease for one dispatch; returns the durable attempt #."""
        self._session_attempts[cell] = self._session_attempts.get(cell, 0) + 1
        if self.store is not None:
            attempt = self.store.begin_attempt(*cell, worker=worker)
        else:
            attempt = self._session_attempts[cell]
        self._open[cell] = attempt
        if self.ledger is not None:
            self.ledger.attempt_started(cell, attempt, worker=worker)
        return attempt

    def commit(self, cell: Cell, run, worker: Optional[int] = None) -> None:
        """Atomically persist the result and close the lease ``committed``."""
        attempt = self._open.pop(cell, None)
        if self.store is None:
            return
        with self.store.transaction():
            self.store.put_run(run)
            if attempt is not None:
                self.store.finish_attempt(
                    *cell, attempt=attempt, state="committed", worker=worker
                )

    def fail(self, cell: Cell, error: str) -> None:
        """Quarantine the cell: error row + lease closed ``failed``."""
        attempt = self._open.pop(cell, None)
        if self.store is None:
            return
        with self.store.transaction():
            self.store.put_error(CellError(*cell, error=error))
            if attempt is not None:
                self.store.finish_attempt(
                    *cell, attempt=attempt, state="failed", error=error
                )

    def timeout(self, cell: Cell, budget_s: float) -> None:
        """Close the lease ``timeout`` (the cell may still be retried)."""
        attempt = self._open.pop(cell, None)
        if self.store is not None and attempt is not None:
            self.store.finish_attempt(
                *cell, attempt=attempt, state="timeout",
                error=f"exceeded the {budget_s:.1f}s wall budget",
            )
        if self.ledger is not None:
            self.ledger.attempt_timeout(cell, attempt, budget_s)

    def close(self, cell: Cell, state: str, reason: str = "") -> None:
        """Close the lease without a result (drain, crash, teardown)."""
        attempt = self._open.pop(cell, None)
        if self.store is not None and attempt is not None:
            self.store.finish_attempt(
                *cell, attempt=attempt, state=state, error=reason or None
            )

    def retried(self, cell: Cell, backoff_s: float = 0.0) -> None:
        if self.ledger is not None:
            self.ledger.cell_retried(
                cell, self.session_attempts(cell) + 1, backoff_s
            )

    # -- liveness --------------------------------------------------------------

    def heartbeat(self, cells: Sequence[Cell]) -> None:
        """Stamp in-flight leases (rate-limited to ``policy.heartbeat_s``).

        Also pulses the ledger's live bus (if any) with the in-flight
        cell set — an ephemeral, bus-only event that feeds worker-
        liveness views without touching the durable sinks.
        """
        if not cells:
            return
        now = time.monotonic()
        if now - self._last_heartbeat < self.policy.heartbeat_s:
            return
        self._last_heartbeat = now
        open_cells = [c for c in cells if c in self._open]
        if self.store is not None and open_cells:
            self.store.heartbeat_attempts(
                [(c, self._open[c]) for c in open_cells]
            )
        if self.ledger is not None:
            self.ledger.heartbeat(open_cells or list(cells))

    def session_attempts(self, cell: Cell) -> int:
        """Dispatches of this cell in this session (the retry budget)."""
        return self._session_attempts.get(cell, 0)
