"""Cold, layered campaign benchmark.

Runs each workload in a fresh process per sample, checks its outputs,
and prints every metric with its unit, then one JSON result line::

    python3 campaignbench/run.py                       # all workloads, seed 2016
    python3 campaignbench/run.py --workload ref-grid --seed 7 --seconds 20
    python3 campaignbench/run.py --workload paper-2048 --trace 1

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` runs each
workload once with counters on public functions and once under
cProfile, and reports the per-layer breakdown. See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import pstats
import shutil
import signal
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List

import layers

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(ROOT, "src")
REPRO_DIR = os.path.join(SRC_DIR, "repro")
WORK_ROOT = os.path.join(ROOT, ".campaignbench-work", str(os.getpid()))

WORKLOADS = ("ref-grid", "paper-2048", "served-j2")

#: end-to-end metric -> unit, all printed; RESULT_METRICS go into the
#: JSON result line (the others are explained in README.md).
END_TO_END = {
    "events_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "wall_s": "s",
    "cells_failed_frac": "ratio",
}
RESULT_METRICS = ("events_per_s", "peak_rss_mb", "setup_s")

#: a sample that runs longer than this is killed (the run must end
#: within 180 s).
SAMPLE_TIMEOUT_S = 170.0



def expected(workload: str, seed: int) -> dict:
    """Committed outputs of one workload at one seed ({} if none)."""
    with open(os.path.join(BENCH_DIR, "expected.json")) as fh:
        return json.load(fh)[workload].get(str(seed), {})


class BenchError(RuntimeError):
    """The benchmark could not measure (not a wrong output)."""


def _child_env() -> Dict[str, str]:
    # the program runs in its default configuration
    return {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}


def spawn(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one fresh-process sample; returns its JSON result."""
    workdir = os.path.join(WORK_ROOT, f"{workload}-{mode}-{time.monotonic_ns()}")
    os.makedirs(workdir)
    cmd = [
        sys.executable, os.path.join(BENCH_DIR, "sample.py"),
        "--workload", workload, "--seed", str(seed), "--mode", mode,
        "--workdir", workdir,
    ]
    timeout = max(5.0, min(SAMPLE_TIMEOUT_S, deadline - time.perf_counter()))
    try:
        t_spawn = time.perf_counter()
        proc = subprocess.Popen(
            cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=_child_env(),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the pool workers too
            proc.communicate()
            raise BenchError(f"{workload} {mode} sample exceeded {timeout:.0f} s")
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(
                f"{workload} {mode} sample exited {proc.returncode}:\n{err[-2000:]}"
            )
        result = json.loads(out.strip().splitlines()[-1])
        if mode == "profile":
            result["profiles"] = _profile_rollup(workdir)
        return result
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _profile_rollup(workdir: str) -> dict:
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)
    import repro.experiments  # noqa: F401 - resolves the counted functions

    stats = pstats.Stats(*layers.profile_paths(workdir))

    self_s = layers.rollup(stats, REPRO_DIR)
    return {
        "self_s": {k: v for k, v in self_s.items() if k is not None},
        "outside_s": self_s[None],
        "counts": layers.call_counts(stats),
    }


# -- checks --------------------------------------------------------------------


def cell_outcomes(sample: dict):
    """(attempted, failed, events of completed cells) of one sample."""
    cells = sample["cells"]
    failed = sum("error" in c for c in cells.values())
    events = sum(c.get("events", 0) for c in cells.values())
    return len(cells), failed, events


def check_sample(workload: str, seed: int, sample: dict, first: dict) -> List[str]:
    """Problems with one sample's outputs; empty when all checks pass."""
    problems = [f"{name} failed" for name, ok in sample["checks"] if not ok]
    if sample["cells"] != first["cells"] or sample["fingerprint"] != first["fingerprint"]:
        problems.append("outputs differ between samples of the same seed")
    want = expected(workload, seed)
    if "fingerprint" in want and sample["fingerprint"] != want["fingerprint"]:
        problems.append(
            f"fingerprint {sample['fingerprint'][:16]} != committed "
            f"{want['fingerprint'][:16]}"
        )
    if "events" in want:
        events = cell_outcomes(sample)[2]
        if events != want["events"]:
            problems.append(f"events {events} != committed {want['events']}")
    for key, cell in want.get("cells", {}).items():
        got = sample["cells"].get(key)
        if got is None or "error" in got:
            continue  # a failed cell is counted as failed, not as wrong
        if got != cell:
            problems.append(f"cell {key}: {got} != committed {cell}")
    return problems


# -- statistics and reporting --------------------------------------------------


def summary(values: List[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3, "n": len(values)}


def sample_metrics(sample: dict) -> Dict[str, float]:
    attempted, failed, events = cell_outcomes(sample)
    return {
        "wall_s": sample["wall_s"],
        "events_per_s": events / sample["wall_s"],
        "peak_rss_mb": sample["peak_rss_mb"],
        "cells_failed_frac": failed / attempted,
    }


def host_line() -> str:
    try:
        import numpy

        np_version = numpy.__version__
    except ImportError:  # pragma: no cover - numpy is the program's only dep
        np_version = "absent"
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        usable = os.cpu_count()
    return (
        f"host: cpus={os.cpu_count()} usable={usable} "
        f"python={platform.python_version()} numpy={np_version} "
        f"machine={platform.machine()} system={platform.system()}"
    )


def print_failures(workload: str, seed: int, sample: dict) -> None:
    known = expected(workload, seed).get("known_failures", {})
    for key, cell in sorted(sample["cells"].items()):
        if "error" in cell:
            tag = " (known defect)" if known.get(key) == cell["error"] else ""
            print(f"  failed cell {workload} ({key.replace(':', ', ')}): "
                  f"{cell['error']}{tag}")


# -- the two kinds of run ------------------------------------------------------


def measure(workloads, seed: int, seconds: float, deadline: float):
    """Untraced samples, interleaved across workloads until time is up.

    A round takes one sample of each workload, plus one set-up-only
    process each, so set-up is measured as often and over the same
    stretch of time as the workload. Rounds continue while the next
    one would end nearer ``seconds`` than the last one did.
    """
    samples: Dict[str, List[dict]] = {w: [] for w in workloads}
    setups: Dict[str, List[float]] = {w: [] for w in workloads}
    start = time.perf_counter()
    while True:
        t_round = time.perf_counter()
        for w in workloads:
            s = spawn(w, seed, "plain", deadline)
            samples[w].append(s)
            setups[w].append(s["setup_s"])
            setups[w].append(spawn(w, seed, "setup", deadline)["setup_s"])
        now = time.perf_counter()
        if now - start + (now - t_round) / 2 >= seconds:
            return samples, setups


def trace(workload: str, seed: int, deadline: float):
    """A counted run (the untraced baseline) and a cProfile run."""
    if workload == "served-j2":  # uses both CPUs: one phase at a time
        counted = spawn(workload, seed, "count", deadline)
        profiled = spawn(workload, seed, "profile", deadline)
    else:  # serial workloads: the two phases side by side, one CPU each
        with ThreadPoolExecutor(2) as pool:
            jobs = [pool.submit(spawn, workload, seed, mode, deadline)
                    for mode in ("count", "profile")]
            counted, profiled = (job.result() for job in jobs)
    prof = profiled["profiles"]
    attributed = sum(prof["self_s"].values())
    attempted, failed, events = cell_outcomes(counted)
    metrics = {}
    for layer, secs in prof["self_s"].items():
        metrics[f"{layer}.self_s"] = (secs, "s")
        metrics[f"{layer}.share"] = (secs / attributed, "ratio")
    metrics["des.events"] = (events, "count")
    for name, value in counted["counts"].items():
        metrics[name] = (value, "s" if name.endswith("_s") else "count")
    metrics["trace_overhead"] = (profiled["wall_s"] / counted["wall_s"], "x")
    metrics["cells_failed_frac"] = (failed / attempted, "ratio")
    problems = []
    for name, value in prof["counts"].items():
        if value != counted["counts"][name]:
            problems.append(f"{name}: counted {counted['counts'][name]} != profiled {value}")
    return counted, profiled, metrics, problems


def report_measured(w: str, samples: List[dict], setups: List[float], prefix: str):
    """Print the end-to-end summary; returns the result-line metrics."""
    per_sample = [sample_metrics(s) for s in samples]
    print(f"workload {w}: {len(samples)} fresh-process samples, {len(setups)} set-ups")
    result = {}
    for name, unit in END_TO_END.items():
        values = setups if name == "setup_s" else [m[name] for m in per_sample]
        st = summary(values)
        print(f"  {name:<18} median {st['median']:.6g} {unit}  "
              f"q1 {st['q1']:.6g}  q3 {st['q3']:.6g}  n={st['n']}")
        if name in RESULT_METRICS:
            result[prefix + name] = {"value": st["median"], "unit": unit}
    return result


def report_traced(w: str, counted: dict, profiled: dict, metrics: dict, prefix: str):
    """Print the per-layer breakdown; returns the result-line metrics."""
    print(f"workload {w}: traced wall {profiled['wall_s']:.3f} s, "
          f"counted (untraced) wall {counted['wall_s']:.3f} s, "
          f"tracing overhead {metrics['trace_overhead'][0]:.2f}x")
    print(f"  {'layer':<20}{'self_s':>10}{'share':>8}")
    layers = [n[: -len(".self_s")] for n in metrics if n.endswith(".self_s")]
    for layer in sorted(layers, key=lambda n: -metrics[n + ".self_s"][0]):
        print(f"  {layer:<20}{metrics[layer + '.self_s'][0]:>10.3f}"
              f"{metrics[layer + '.share'][0]:>8.3f}")
    print(f"  (outside the layers: {profiled['profiles']['outside_s']:.3f} s "
          "of imports and benchmark code)")
    for name, (value, unit) in metrics.items():
        if not name.endswith((".self_s", ".share")):
            print(f"  {name:<32} {value:.6g} {unit}")
    return {prefix + n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Cold, layered campaign benchmark.")
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=2016, help="campaign seed")
    p.add_argument("--seconds", type=float, default=50.0,
                   help="keep taking samples until this much time has passed")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(REPRO_DIR, "__init__.py")):
        print(f"error: program source not found under {SRC_DIR}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    # one workload at the default length ends within 175 s, hung samples included
    deadline = time.perf_counter() + max(175.0, 2 * args.seconds) * len(workloads)
    print(host_line())
    print(f"seed={args.seed} workloads={','.join(workloads)} trace={args.trace}")
    attempted = failed = 0
    problems: List[str] = []
    result: Dict[str, dict] = {}
    try:
        if args.trace == 0:
            samples, setups = measure(workloads, args.seed, args.seconds, deadline)
        for w in workloads:
            prefix = "" if len(workloads) == 1 else w + "."
            if args.trace == 0:
                runs = samples[w]
                result.update(report_measured(w, runs, setups[w], prefix))
            else:
                counted, profiled, metrics, trace_problems = trace(w, args.seed, deadline)
                runs = [counted, profiled]
                problems += [f"{w}: {m}" for m in trace_problems]
                result.update(report_traced(w, counted, profiled, metrics, prefix))
            print_failures(w, args.seed, runs[0])
            for s in runs:
                problems += [f"{w}: {m}" for m in check_sample(w, args.seed, s, runs[0])]
                a, f, _ = cell_outcomes(s)
                attempted += a
                failed += f
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(WORK_ROOT, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(WORK_ROOT))
        except OSError:
            pass  # another run in this checkout still uses it
    for line in problems:
        print(f"CHECK FAILED {line}")
    print("checks: " + ("all passed" if not problems else f"{len(problems)} failed"))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": result,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
