"""The three benchmark workloads, driven through the program's public calls.

* ``sim_linear`` — the Figure 9 grid at paper parameters, one
  :func:`~repro.experiments.scenarios.linear_scenario` call per cell,
  serially in this process;
* ``sim_mobile`` — the Figure 11 grid at paper parameters, one
  :func:`~repro.experiments.scenarios.mobile_scenario` call per cell,
  serially in this process;
* ``paper_batch`` — :func:`~repro.experiments.presets.run_paper` over
  every paper figure plus the fault workload families, at their smoke
  cell sizes, serially in this process, into a fresh run directory.

A workload's inputs are fully determined by the workload seed: the cell
seeds are spawned from it with :func:`~repro.experiments.parallel.spawn_seeds`.
One *repetition* runs the whole grid once and returns a :class:`Rep`;
``run.py`` repeats it and checks every repetition's output digests.
Given a :class:`~calibration.Calibrator`, a repetition also samples the
host's speed while it runs and reports its times in reference seconds.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pickle
import shutil
import sys
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional

from calibration import Calibrator, reference_seconds

#: Cell seeds per repetition of each simulator workload.
SIM_CELL_SEEDS = {"sim_linear": 6, "sim_mobile": 12}

#: Replications per figure cell in ``paper_batch`` (an integer seed count
#: for :func:`run_paper`, spawned from the workload seed).
PAPER_BATCH_SEEDS = 6

#: Least host seconds between two speed samples during ``run_paper``.
PAPER_BATCH_SAMPLE_EVERY_S = 0.2

#: The Figure 9 grid (chain length x protocol) at the paper's parameters.
LINEAR_GRID = [(size, proto) for size in (3, 5, 7, 9) for proto in ("jtp", "atp", "tcp")]
LINEAR_PARAMS = {"transfer_bytes": 300_000.0, "num_flows": 2, "duration": 1200.0}

#: The Figure 11 grid (waypoint speed x protocol) at the paper's parameters.
MOBILE_GRID = [(speed, proto) for speed in (0.1, 1.0, 5.0) for proto in ("jtp", "atp", "tcp")]
MOBILE_PARAMS = {"num_nodes": 15, "num_flows": 5, "transfer_bytes": 80_000.0, "duration": 1200.0}


def digest(payload: object) -> str:
    """SHA-256 of a canonical JSON rendering (floats keep every digit)."""
    text = json.dumps(payload, sort_keys=True, default=repr, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:32]


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


@dataclass
class Rep:
    """One repetition of a workload's grid."""

    #: Wall time, in reference seconds when calibrated (host seconds otherwise).
    wall_s: float
    #: Time from the moment each cell was asked for until its result
    #: reached the caller, in completion order, in the unit of wall_s.
    cell_latencies: List[float]
    #: Output digest per label (a cell for sim_*, a figure for paper_batch).
    digests: Dict[str, str]
    #: How many cells each label stands for.
    cells: Dict[str, int]
    #: Labels whose call raised (their cells count as failed).
    raised: List[str] = field(default_factory=list)
    #: Whether only part of the grid ran (an untimed check repetition).
    partial: bool = False
    #: Wall time in host seconds.
    raw_wall_s: float = 0.0
    #: Simulated events processed (0 where the simulators are not visible).
    events: int = 0
    #: Summed ScenarioMetrics counters of the rep's cells.
    link_transmissions: int = 0
    cache_recoveries: int = 0
    source_retransmissions: int = 0
    #: paper_batch only: run-directory facts read back after the call.
    reused_cells: int = 0
    computed_cells: int = 0
    trace_cells: int = 0
    bytes_written: int = 0
    result_pickle_bytes: int = 0

    @property
    def attempted(self) -> int:
        return sum(self.cells.values())


class SimGrid:
    """A serial grid of scenario-builder calls (``sim_linear``/``sim_mobile``)."""

    def __init__(self, name: str, seed: int) -> None:
        from repro.experiments import linear_scenario, mobile_scenario, spawn_seeds

        self.name = name
        self.calls: List[tuple] = []
        for cell_seed in spawn_seeds(seed, SIM_CELL_SEEDS[name]):
            if name == "sim_linear":
                for size, proto in LINEAR_GRID:
                    kwargs = dict(LINEAR_PARAMS, num_nodes=size, protocol=proto, seed=cell_seed)
                    self.calls.append((f"n{size}-{proto}-s{cell_seed}", linear_scenario, kwargs))
            else:
                for speed, proto in MOBILE_GRID:
                    kwargs = dict(MOBILE_PARAMS, speed=speed, protocol=proto, seed=cell_seed)
                    self.calls.append((f"v{speed}-{proto}-s{cell_seed}", mobile_scenario, kwargs))
        if name == "sim_linear":
            self._warm = (linear_scenario, {"num_nodes": 3, "transfer_bytes": 8_000.0, "duration": 30.0})
        else:
            self._warm = (mobile_scenario, {"num_nodes": 6, "transfer_bytes": 8_000.0, "duration": 30.0})
        self.grid_size = len(LINEAR_GRID if name == "sim_linear" else MOBILE_GRID)

    def warm_up(self) -> None:
        builder, kwargs = self._warm
        builder(**kwargs)

    def check_rep(self) -> Rep:
        """Rerun the first cell seed's grid, untimed, to check the outputs repeat."""
        return self.run_rep(limit=self.grid_size)

    def run_rep(self, calibrator: Optional[Calibrator] = None, limit: Optional[int] = None) -> Rep:
        """Run every cell once (the first ``limit`` cells, if given).

        With a calibrator, the host's speed is sampled before each cell
        and after the last, outside the cells' timings.  The
        repetition's wall time is the sum of its cell latencies.
        """
        rep = Rep(wall_s=0.0, cell_latencies=[], digests={}, cells={}, partial=limit is not None)
        spans = []
        marks = []
        for label, builder, kwargs in self.calls[:limit]:
            rep.cells[label] = 1
            if calibrator is not None:
                marks.append(calibrator.mark())
            asked = perf_counter()
            try:
                result = builder(**kwargs)
            except Exception:
                traceback.print_exc(file=sys.stderr)
                rep.raised.append(label)
                continue
            spans.append((asked, perf_counter()))
            metrics = result.metrics
            rep.digests[label] = digest(dataclasses.asdict(metrics))
            rep.events += result.network.sim.events_processed
            rep.link_transmissions += metrics.link_transmissions
            rep.cache_recoveries += metrics.cache_recoveries
            rep.source_retransmissions += metrics.source_retransmissions
        rep.raw_wall_s = sum(end - start for start, end in spans)
        if calibrator is None:
            rep.cell_latencies = [end - start for start, end in spans]
        else:
            marks.append(calibrator.mark())
            rep.cell_latencies = [reference_seconds(marks, start, end) for start, end in spans]
        rep.wall_s = sum(rep.cell_latencies)
        return rep

    def close(self) -> None:
        pass


class PaperBatch:
    """``run_paper`` over every figure and fault workload at smoke cell size.

    It runs on the serial backend (``workers=0``).  With a process pool
    the calibration samples would have to run beside busy workers: on the
    reference host they then measured where the scheduler had placed the
    processes, and two sets of ten runs of the same code differed by 52%.
    """

    name = "paper_batch"

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.experiments import ALL_FIGURES, WORKLOAD_JOBS

        self.seed = seed
        self.workdir = workdir
        self.jobs = list(ALL_FIGURES) + list(WORKLOAD_JOBS)
        self.figures = [job.name for job in self.jobs]
        self.overrides = {job.name: dict(job.smoke_kwargs) for job in self.jobs}
        self._runs = 0

    def _fresh_dir(self) -> Path:
        self._runs += 1
        out_dir = self.workdir / f"run-{self._runs}"
        shutil.rmtree(out_dir, ignore_errors=True)
        return out_dir

    def warm_up(self) -> None:
        """Fill lazy state with a one-cell ``run_paper``."""
        from repro.experiments import run_paper

        out_dir = self._fresh_dir()
        run_paper(
            figures=["figure9"],
            seeds=1,
            base_seed=self.seed,
            overrides={"figure9": {"net_sizes": (3,), "protocols": ("jtp",), "transfer_bytes": 8_000, "duration": 30}},
            workers=0,
            out_dir=out_dir,
            profile=False,
        )
        shutil.rmtree(out_dir, ignore_errors=True)

    def task_pickle_bytes(self) -> int:
        """Bytes of the pickled ``(spec, seed)`` tasks of one repetition."""
        from repro.experiments import preset_seeds

        total = 0
        for job in self.jobs:
            if job.kind != "metric":
                continue
            plan = job.planner()(**self.overrides[job.name])
            seeds = preset_seeds(PAPER_BATCH_SEEDS, family=job.family, base_seed=self.seed)
            total += sum(len(pickle.dumps((spec, seed))) for spec in plan.specs for seed in seeds)
        return total

    def check_rep(self) -> Rep:
        return self.run_rep()

    def run_rep(self, calibrator: Optional[Calibrator] = None) -> Rep:
        """One ``run_paper`` call.

        With a calibrator, the host's speed is sampled before and after
        the call and, from its ``progress`` callback between cells, at
        most every PAPER_BATCH_SAMPLE_EVERY_S.
        """
        from repro.experiments import load_run, run_paper

        out_dir = self._fresh_dir()
        rep = Rep(wall_s=0.0, cell_latencies=[], digests={}, cells={})
        rep.trace_cells = sum(1 for job in self.jobs if job.kind == "trace")
        delivered: List[float] = []
        marks = [] if calibrator is None else [calibrator.mark()]

        def progress(name: str, completed: int, total: int) -> None:
            now = perf_counter()
            if completed == 0:
                rep.cells[name] = total
            else:
                delivered.append(now)
            if calibrator is not None and now - marks[-1][0] >= PAPER_BATCH_SAMPLE_EVERY_S:
                marks.append(calibrator.mark())

        started = perf_counter()
        try:
            rows = run_paper(
                figures=self.figures,
                seeds=PAPER_BATCH_SEEDS,
                base_seed=self.seed,
                overrides=self.overrides,
                workers=0,
                out_dir=out_dir,
                progress=progress,
                profile=False,
            )
        except Exception:
            traceback.print_exc(file=sys.stderr)
            rep.raised = list(self.figures)
            rows = {}
        ended = perf_counter()
        rep.raw_wall_s = ended - started
        if calibrator is None:
            rep.wall_s = rep.raw_wall_s
            rep.cell_latencies = [at - started for at in delivered]
        else:
            marks.append(calibrator.mark())
            rep.wall_s = reference_seconds(marks, started, ended)
            rep.cell_latencies = [reference_seconds(marks, started, at) for at in delivered]
        if rep.raised:
            shutil.rmtree(out_dir, ignore_errors=True)
            return rep
        rep.digests = {name: digest(figure_rows) for name, figure_rows in rows.items()}
        counts = load_run(out_dir).metadata.get("cells", {})
        rep.reused_cells = int(counts.get("reused", -1))
        rep.computed_cells = int(counts.get("computed", -1))
        for path in out_dir.rglob("*"):
            if path.is_file():
                rep.bytes_written += path.stat().st_size
        for path in sorted((out_dir / "cells").glob("*.pkl")):
            raw = path.read_bytes()
            rep.result_pickle_bytes += len(raw)
            metrics = pickle.loads(raw).metrics
            rep.link_transmissions += metrics.link_transmissions
            rep.cache_recoveries += metrics.cache_recoveries
            rep.source_retransmissions += metrics.source_retransmissions
        shutil.rmtree(out_dir, ignore_errors=True)
        return rep

    def close(self) -> None:
        pass


WORKLOADS = ("sim_linear", "sim_mobile", "paper_batch")


def make_workload(name: str, seed: int, workdir: Path):
    if name in SIM_CELL_SEEDS:
        return SimGrid(name, seed)
    if name == "paper_batch":
        return PaperBatch(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
