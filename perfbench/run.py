"""Benchmark of the JTP reproduction: simulator grids and the run_paper harness.

Usage, from the repository root::

    python3 perfbench/run.py --workload sim_linear --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all                         # every workload
    python3 perfbench/run.py --workload sim_mobile --trace 1        # per-layer run

The timed mode (``--trace 0``) sets the workload up several times and
reports the median set-up time, then repeats the workload's grid until
``--seconds`` have passed (at least twice) and reports the median
repetition wall time, per-cell latency percentiles and peak memory.
The traced mode (``--trace 1``) alternates an untraced and a cProfiled
repetition over the same period and reports per-layer figures.  Every
repetition's outputs are checked: against the golden digests in
``golden.json`` for the default seed, and against the first repetition
for any other seed.  The last line of standard output is one JSON
object; the exit code is non-zero when any output was wrong.
"""

from __future__ import annotations

import argparse
import cProfile
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from calibration import Calibrator, reference_seconds
from workloads import WORKLOADS, make_workload, nproc

ROOT = Path(__file__).resolve().parents[1]
HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0
#: Set-ups per run; the reported setup_s is their median.
SETUP_SAMPLES = 5
#: Cell latencies a timed run collects at least, so that cell_p90_s has
#: ten samples beyond it.
MIN_CELL_SAMPLES = 100


def metric_units(section: str) -> Dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics BENCHMARK.json lists."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def host_info() -> Dict[str, object]:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"nproc": nproc(), "cpu": cpu, "python": platform.python_version()}


def peak_rss_mb() -> float:
    """Peak resident memory of this process (every workload runs in it)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def set_up(name: str, seed: int, workdir: Path, calibrator: Calibrator):
    """Import the program and run the workload's warm-up call.

    Returns the workload and the set-up time in reference seconds
    (calibration.py).
    """
    before = calibrator.mark()
    started = perf_counter()
    workload = make_workload(name, seed, workdir)
    workload.warm_up()
    ended = perf_counter()
    return workload, reference_seconds([before, calibrator.mark()], started, ended)


def probe_setups(name: str, seed: int, count: int) -> List[float]:
    """Set-up times of ``count`` fresh interpreters, run one after another."""
    samples = []
    for _ in range(count):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(seed), "--setup-probe"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=120,
            check=False,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"set-up probe for {name} exited with {proc.returncode}")
        samples.append(float(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]))
    return samples


def check_reps(name: str, seed: int, reps) -> Dict[str, int]:
    """Count attempted and failed cells over all repetitions.

    A cell fails when its call raised or its output digest differs from
    the reference: the golden digests for the default seed, the first
    repetition otherwise.  A paper_batch repetition that served any
    cell from the resume cache, or computed fewer cells than it
    announced, fails as a whole.
    """
    expected: Optional[Dict[str, str]] = None
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    if seed == golden.get("seed") and name in golden:
        expected = golden[name]
    reference = expected if expected is not None else reps[0].digests
    attempted = failed = 0
    for rep in reps:
        attempted += rep.attempted
        if name == "paper_batch" and rep.raised == [] and (
            rep.reused_cells != 0 or rep.computed_cells != rep.attempted - rep.trace_cells
        ):
            print(f"paper_batch: {rep.reused_cells} cells reused, {rep.computed_cells} computed", file=sys.stderr)
            failed += rep.attempted
            continue
        bad = set(rep.raised)
        bad.update(label for label in rep.cells if rep.digests.get(label) != reference.get(label))
        if not rep.partial:
            bad.update(set(reference) - set(rep.cells))
        for label in sorted(bad):
            print(f"{name}: output of {label} differs from the reference", file=sys.stderr)
        failed += sum(rep.cells.get(label, 1) for label in bad)
    return {"attempted": attempted, "failed": failed}


def timed_run(workload, seconds: float, calibrator: Calibrator):
    """Repeat the grid until ``seconds`` have passed and MIN_CELL_SAMPLES
    cells were timed; return (timed reps, all reps).

    When only one repetition fit, an untimed check repetition follows,
    so every run compares repeated outputs.
    """
    reps = []
    started = perf_counter()
    samples = 0
    while samples < MIN_CELL_SAMPLES or perf_counter() - started < seconds:
        reps.append(workload.run_rep(calibrator))
        samples += len(reps[-1].cell_latencies)
    checked = reps if len(reps) > 1 else reps + [workload.check_rep()]
    return reps, checked


def end_to_end(reps, setups: List[float]) -> Dict[str, float]:
    """The end-to-end metrics, times in reference seconds."""
    latencies = [x for rep in reps for x in rep.cell_latencies]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(rep.wall_s for rep in reps),
        "cell_p50_s": statistics.median(latencies),
        "cell_p90_s": statistics.quantiles(latencies, n=10)[8],
        "peak_rss_mb": peak_rss_mb(),
    }


def traced_run(workload, seconds: float):
    """Alternate untraced and profiled repetitions; return (reps, per-layer metrics)."""
    from tracing import LayerMap, ProfileReader, layer_metrics

    import repro

    layers = LayerMap(Path(repro.__file__).parent)
    untraced, traced, per_rep = [], [], []
    started = perf_counter()
    while not traced or perf_counter() - started < seconds:
        untraced.append(workload.run_rep())
        profile = cProfile.Profile()
        profile.enable()
        try:
            rep = workload.run_rep()
        finally:
            profile.disable()
        traced.append(rep)
        metrics = layer_metrics(ProfileReader(profile, layers))
        metrics.update(rep_counters(workload, rep))
        per_rep.append(metrics)
    result = {key: statistics.median(m[key] for m in per_rep) for key in per_rep[0]}
    untraced_wall = statistics.median(rep.wall_s for rep in untraced)
    result["trace_overhead"] = statistics.median(rep.wall_s for rep in traced) / untraced_wall
    result["sim.engine.events_per_s"] = statistics.median(rep.events / rep.wall_s for rep in untraced)
    return untraced + traced, result


def rep_counters(workload, rep) -> Dict[str, float]:
    """Per-layer figures read from a repetition's outputs rather than the profile."""
    recovered = rep.cache_recoveries + rep.source_retransmissions
    counters = {
        "mac.link_transmissions": float(rep.link_transmissions),
        "core.cache_recovery_ratio": rep.cache_recoveries / recovered if recovered else 0.0,
        "sim.engine.events": float(rep.events),
        "experiments.results.bytes_written": float(rep.bytes_written),
        "experiments.cells_computed": float(rep.computed_cells),
        "experiments.pickle_bytes_per_cell": 0.0,
    }
    if rep.computed_cells > 0:
        task_bytes = workload.task_pickle_bytes()
        counters["experiments.pickle_bytes_per_cell"] = (task_bytes + rep.result_pickle_bytes) / rep.computed_cells
    return counters


def print_table(title: str, values: Dict[str, float], units: Dict[str, str]) -> None:
    print(title)
    for key, value in values.items():
        print(f"  {key:<36} {value:>16.6g} {units.get(key, '')}")


def run_all(args) -> int:
    """Run every workload in its own interpreter, one after another."""
    combined: Dict[str, object] = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--seed", str(args.seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if not lines or not lines[-1].startswith("{"):
            print(f"{name}: no result (exit code {proc.returncode})", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"] and proc.returncode == 0
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def write_golden() -> int:
    """Record the output digests of one repetition of every workload at the default seed."""
    golden: Dict[str, object] = {"seed": DEFAULT_SEED}
    workdir = _workdir()
    try:
        for name in WORKLOADS:
            workload, _ = set_up(name, DEFAULT_SEED, workdir, Calibrator())
            try:
                first, second = workload.run_rep(), workload.run_rep()
            finally:
                workload.close()
            if first.raised or first.digests != second.digests:
                print(f"{name}: outputs are not repeatable; golden digests not written", file=sys.stderr)
                return 1
            golden[name] = first.digests
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


def _workdir() -> Path:
    workdir = ROOT / ".perfbench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    return workdir


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-golden", action="store_true", help="record golden.json at the default seed")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.write_golden:
        return write_golden()
    if args.workload == "all":
        return run_all(args)

    workdir = _workdir()
    workload = None
    calibrator = Calibrator()
    try:
        if args.setup_probe:
            workload, seconds = set_up(args.workload, args.seed, workdir, calibrator)
            print(json.dumps({"setup_s": seconds}))
            return 0
        setups = [] if args.trace else probe_setups(args.workload, args.seed, SETUP_SAMPLES - 1)
        workload, seconds = set_up(args.workload, args.seed, workdir, calibrator)
        setups.append(seconds)
        if args.trace:
            reps, metrics = traced_run(workload, args.seconds)
            units = metric_units("per_layer")
        else:
            reps, checked = timed_run(workload, args.seconds, calibrator)
            metrics = end_to_end(reps, setups)
            units = metric_units("end_to_end")
        metrics = {key: float(metrics[key]) for key in units}
        counts = check_reps(args.workload, args.seed, reps if args.trace else checked)
    finally:
        if workload is not None:
            workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    host = host_info()
    samples = sum(len(rep.cell_latencies) for rep in reps)
    print(f"host: nproc={host['nproc']} cpu={host['cpu']!r} python={host['python']}")
    print(f"workload {args.workload}, seed {args.seed}: {len(reps)} repetitions, {samples} cell samples")
    print_table("metrics:", metrics, units)
    if not args.trace:
        raw_wall = statistics.median(rep.raw_wall_s for rep in reps)
        print(f"  {'wall_s in host seconds':<36} {raw_wall:>16.6g} s")
    failed_frac = counts["failed"] / counts["attempted"] if counts["attempted"] else 1.0
    print(f"  {'failed_frac':<36} {failed_frac:>16.6g} ratio ({counts['failed']}/{counts['attempted']} cells)")
    if not args.trace and args.workload != "paper_batch":
        events_per_s = statistics.median(rep.events / rep.wall_s for rep in reps)
        print(f"  {'sim_events_per_s':<36} {events_per_s:>16.6g} 1/s")
    correct = counts["failed"] == 0 and counts["attempted"] > 0
    result = {
        "correct": correct,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {key: {"value": value, "unit": units[key]} for key, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
