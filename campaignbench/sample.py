"""One sample: run one workload once, in this fresh process.

Started by ``run.py``; not meant to be run by hand, although it can be::

    python3 campaignbench/sample.py --workload ref-grid --seed 2016 \\
        --mode plain --workdir .campaignbench-work/x --t-spawn 0

Modes:

``plain``    the workload, untimed inside; end-to-end metrics only.
``count``    plain, with the counters and timers of ``layers.py``
             installed on public functions (the traced run's baseline).
``profile``  the workload under cProfile (``served-j2``: parent and
             every pool worker).
``setup``    imports and set-up only, then exit.

Prints one JSON object as the last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SRC_DIR = os.path.join(os.path.dirname(BENCH_DIR), "src")

PAPER_CELLS = [(exp, 2048, rep) for exp in (1, 2, 3, 4) for rep in (0, 1)]


def _peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def _cell_key(cell) -> str:
    return ":".join(str(x) for x in cell)


class Workload:
    """Set-up, execution and outputs of one workload."""

    def __init__(self, name: str, seed: int, workdir: str) -> None:
        self.name, self.seed, self.workdir = name, seed, workdir
        self.cells: dict = {}     # "exp:n:rep" -> events + digest, or error
        self.fingerprint = ""
        self.checks: list = []    # (check, ok) evaluated in this process

    def setup(self) -> None:
        """Everything before the first cell (the imports happen in main)."""
        if self.name == "served-j2":
            from repro.experiments import CampaignMonitor, CampaignStore, RunLedger
            from repro.telemetry.bus import EventBus

            self.store = CampaignStore(os.path.join(self.workdir, "served.sqlite"))
            self.bus = EventBus()
            self.monitor = CampaignMonitor()
            self.monitor.attach(self.bus)
            self.ledger = RunLedger(
                os.path.join(self.workdir, "ledger.ndjson"),
                store=self.store, bus=self.bus,
            )

    def run(self, run_fn=None) -> None:
        getattr(self, "_run_" + self.name.replace("-", "_"))(run_fn)

    def _record(self, runs, errors) -> None:
        for r in runs:
            self.cells[_cell_key((r.exp_id, r.n_tasks, r.rep))] = {
                "events": r.events, "attribution_digest": r.attribution_digest,
            }
        for e in errors:
            self.cells[_cell_key((e.exp_id, e.n_tasks, e.rep))] = {"error": e.error}

    def _run_ref_grid(self, run_fn) -> None:
        from repro.experiments.campaign import run_campaign
        from repro.experiments.sentinel import campaign_fingerprint

        result = run_campaign(
            experiments=(1, 3), task_counts=(64, 256), reps=3,
            campaign_seed=self.seed,
        )
        self._record(result.runs, result.errors)
        self.fingerprint = campaign_fingerprint(result)["digest"]

    def _run_paper_2048(self, run_fn) -> None:
        # one cell at a time: a cell that raises is recorded, the next runs
        from repro.experiments.campaign import TABLE1, run_single

        for cell in PAPER_CELLS:
            exp, n, rep = cell
            try:
                r = run_single(TABLE1[exp], n, rep, campaign_seed=self.seed)
            except Exception as exc:  # noqa: BLE001 - recorded per cell
                self.cells[_cell_key(cell)] = {
                    "error": f"{type(exc).__name__}: {exc}",
                }
            else:
                self._record([r], [])

    def _run_served_j2(self, run_fn) -> None:
        from repro.experiments.campaign import run_campaign
        from repro.experiments.runner import run_parallel_campaign
        from repro.experiments.sentinel import (
            campaign_fingerprint,
            campaign_fingerprint_from_store,
        )

        grid = dict(
            experiments=(1, 2, 3, 4), task_counts=(8, 16, 32), reps=4,
            campaign_seed=self.seed, jobs=2, collect_digests=True,
            ledger=self.ledger, store=self.store,
        )
        if run_fn is None:
            result = run_campaign(**grid)
        else:  # the traced run reaches the workers through the run_fn hook
            result = run_parallel_campaign(run_fn=run_fn, **grid)
        self.store.set_fingerprint("campaign", campaign_fingerprint(result))
        self.fingerprint = campaign_fingerprint_from_store(self.store)["digest"]
        self._record(result.runs, result.errors)
        self.checks.append((
            "store read-back equals the in-memory fingerprint",
            self.fingerprint == campaign_fingerprint(result)["digest"],
        ))
        self.checks.append((
            "store holds every cell",
            self.store.run_count() + self.store.error_count() == 48,
        ))

    def close(self) -> None:
        if self.name != "served-j2":
            return
        self.ledger.close()
        self.monitor.stop()
        self.bus.close()
        self.store.close()
        if not self.cells:
            return  # set-up only: nothing ran, nothing to check
        with open(os.path.join(self.workdir, "ledger.ndjson")) as fh:
            ledger_cells = sum('"kind": "cell"' in line for line in fh)
        self.checks.append(("NDJSON ledger has one record per cell", ledger_cells == 48))
        self.checks.append(("monitor folded every cell", len(self.monitor.cells) == 48))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mode", choices=("plain", "count", "profile", "setup"), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--t-spawn", type=float, required=True,
                   help="perf_counter() of the launching process just before the spawn")
    args = p.parse_args(argv)

    sys.path.insert(0, SRC_DIR)
    import layers

    profile = None
    if args.mode == "profile":
        import cProfile

        # the served parent mostly waits on its workers: charge it CPU time
        timer = time.process_time if args.workload == "served-j2" else None
        profile = cProfile.Profile(timer) if timer else cProfile.Profile()
        profile.enable()

    # the imports are part of set-up
    import repro.experiments.runner  # noqa: F401
    import repro.experiments.sentinel  # noqa: F401
    import repro.telemetry.bus  # noqa: F401

    instruments = None
    if args.mode == "count":
        instruments = layers.Instruments().install()
    layers.arm_workers(args.workdir, instruments)
    work = Workload(args.workload, args.seed, args.workdir)
    work.setup()
    t_first = time.perf_counter()
    out = {"setup_s": t_first - args.t_spawn}
    if args.mode != "setup":
        run_fn = {"count": "layers:counted_cell", "profile": "layers:profiled_cell"}
        served = args.workload == "served-j2"
        work.run(run_fn.get(args.mode) if served else None)
        out["wall_s"] = time.perf_counter() - t_first
    if profile is not None:
        profile.disable()
        path = os.path.join(args.workdir, "prof-main.pstats")
        profile.dump_stats(path)
    work.close()
    out.update(
        peak_rss_mb=_peak_rss_mb(),
        cells=work.cells,
        fingerprint=work.fingerprint,
        checks=work.checks,
    )
    if instruments is not None:
        counts = instruments.totals()
        for key, value in layers.merge_worker_counts(args.workdir).items():
            counts[key] += value
        out["counts"] = counts
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
