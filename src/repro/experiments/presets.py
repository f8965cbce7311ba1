"""Paper-scale presets and the full-paper driver.

The paper averages every linear-topology figure over **twenty**
independent runs and every random/mobile/testbed figure over **ten**
(Section 4).  The figure functions default to much smaller, laptop-sized
seed lists, so the paper-scale counts live here as named presets instead
of being re-hardcoded by every driver:

* :data:`PAPER_LINEAR` / :data:`PAPER_RANDOM` — the paper's replication
  counts, expanded into concrete seed lists with
  :func:`~repro.experiments.parallel.spawn_seeds`.
* :data:`SMOKE_LINEAR` / :data:`SMOKE_RANDOM` — the scaled-down counts
  used by CI and the benchmark harness, mirroring the paper's 20:10
  linear-to-random replication ratio.  Smoke seed lists are small
  literal seeds (``(1, 2)`` / ``(1,)``) in the style the bench drivers
  have always used, rather than spawned seeds.
* :func:`preset_seeds` — turn a preset name (or an explicit count) plus
  a scenario family into the seed list.
* :func:`run_paper` — regenerate **every** figure of the paper in one
  call.  The metric figures (3, 4, 4b, 6, 9, 10, 11, Table 2) are
  planned up front (:class:`~repro.experiments.figures.FigurePlan`) and
  their grids submitted as **one batched, interleaved stream** over a
  single shared executor backend
  (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`), so
  short cells from one figure keep workers busy while another figure's
  long cells run and the pool never drains at a figure boundary.  The
  serial trace figures (3c, 5, 7, 8) run in-process behind the same
  interface via their row adapters, so the returned mapping holds tidy
  rows for every figure.  With ``out_dir=`` the whole run — rows,
  seeds, preset, backend, git provenance — is persisted as a run
  directory via :mod:`repro.experiments.results`, loadable with
  :func:`~repro.experiments.results.load_run` and renderable with
  ``python -m repro.experiments <run_dir>``.

``run_paper(seeds="smoke", workers=2, out_dir="smoke-run")`` is the CI
smoke invocation: it shrinks every figure to its smoke parameters,
finishes in well under a minute on two workers, and leaves a loadable
run directory behind as the job's artifact.
"""

from __future__ import annotations

import importlib
import sys
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.backends import ExecutorBackend, resolve_backend
from repro.experiments.parallel import ParallelRunner, ScenarioRecord, ScenarioSpec, spawn_seeds
from repro.experiments.results import CellStore, PathLike, cell_key, git_metadata, save_run

if TYPE_CHECKING:  # pragma: no cover - import cycle broken at runtime
    from repro.experiments.figures import FigurePlan

#: Replications per figure cell in the paper's evaluation (Section 4).
PAPER_LINEAR = 20
#: Replications for the random/mobile/testbed figures in the paper.
PAPER_RANDOM = 10
#: Scaled-down replication counts for CI smoke runs and the benchmarks.
SMOKE_LINEAR = 2
SMOKE_RANDOM = 1

#: Seed-count presets by (preset name, scenario family).
PRESETS: Dict[str, Dict[str, int]] = {
    "paper": {"linear": PAPER_LINEAR, "random": PAPER_RANDOM},
    "smoke": {"linear": SMOKE_LINEAR, "random": SMOKE_RANDOM},
}

SeedsLike = Union[str, int, Sequence[int]]


def preset_seeds(
    seeds: SeedsLike,
    family: str = "linear",
    base_seed: int = 0,
) -> Tuple[int, ...]:
    """Resolve a preset name, count or explicit seed list into seeds.

    ``"paper"`` expands the paper's replication count for the scenario
    family (``"linear"`` or ``"random"``) via :func:`spawn_seeds`;
    ``"smoke"`` returns small literal seed lists (``(1, 2)`` for linear
    figures, ``(1,)`` for random ones) in the bench drivers' historical
    style; an ``int`` is a replication count expanded via
    :func:`spawn_seeds`; and an explicit sequence passes through.
    """
    if isinstance(seeds, str):
        try:
            count = PRESETS[seeds][family]
        except KeyError:
            raise ValueError(
                f"unknown preset {seeds!r} or family {family!r}; "
                f"presets: {sorted(PRESETS)}, families: ['linear', 'random']"
            ) from None
        if seeds == "smoke":
            return tuple(range(1, count + 1))
        return tuple(spawn_seeds(base_seed, count))
    if isinstance(seeds, int):
        return tuple(spawn_seeds(base_seed, seeds))
    return tuple(seeds)


@dataclass(frozen=True)
class FigureJob:
    """One figure of the paper: how to run it and how to shrink it for CI.

    ``kind`` selects the execution path: ``"metric"`` figures expose a
    ``<name>_plan()`` builder whose grid joins the batched pool
    submission, while ``"trace"`` figures expose a ``<name>_rows()``
    adapter and run serially in-process (they inspect live simulator
    state, which cannot cross a worker boundary).
    """

    name: str
    family: str
    #: Parameter overrides applied for ``seeds="smoke"`` so a full smoke
    #: sweep stays CI-sized; paper runs use the figure defaults.
    smoke_kwargs: Dict[str, object] = field(default_factory=dict)
    #: ``"metric"`` (batched grid) or ``"trace"`` (serial row adapter).
    kind: str = "metric"
    #: One-line description of what the figure shows in the paper —
    #: printed by ``python -m repro.experiments --list-figures`` and the
    #: README's figure index (tests pin the two against this field).
    description: str = ""
    #: The module exposing the job's ``<name>``/``<name>_plan`` entry
    #: points.  Paper figures live in :mod:`repro.experiments.figures`;
    #: the fault-injection workload families live in
    #: :mod:`repro.experiments.workloads`.
    module: str = "repro.experiments.figures"

    def _module(self):
        return importlib.import_module(self.module)

    def func(self) -> Callable[..., List[dict]]:
        return getattr(self._module(), self.name)

    def planner(self) -> Callable[..., "FigurePlan"]:
        """The figure's ``<name>_plan()`` builder (metric figures only)."""
        return getattr(self._module(), f"{self.name}_plan")

    def rows_func(self) -> Callable[..., List[dict]]:
        """The figure's ``<name>_rows()`` adapter (trace figures only)."""
        return getattr(self._module(), f"{self.name}_rows")


#: The metric figures batched by :func:`run_paper`, in paper order.
METRIC_FIGURES: Tuple[FigureJob, ...] = (
    FigureJob(
        "figure3",
        "linear",
        smoke_kwargs={"net_sizes": (3, 5), "tolerances": (0.0, 0.10), "transfer_bytes": 40_000, "duration": 400},
        description="Total energy and data delivered vs. net size for jtp0/jtp10/jtp20",
    ),
    FigureJob(
        "figure4",
        "linear",
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 50_000, "duration": 500},
        description="Energy per bit, JTP vs. JNC, vs. net size (linear topologies)",
    ),
    FigureJob(
        "figure4b",
        "linear",
        smoke_kwargs={"num_nodes": 5, "transfer_bytes": 50_000, "duration": 500},
        description="Per-node energy in a 7-node linear topology, JTP vs. JNC",
    ),
    FigureJob(
        "figure6",
        "linear",
        smoke_kwargs={"cache_sizes": (2, 10), "net_sizes": (5,), "transfer_bytes": 50_000, "duration": 400},
        description="Source retransmissions vs. in-network cache size for several net sizes",
    ),
    FigureJob(
        "figure9",
        "linear",
        smoke_kwargs={"net_sizes": (3, 5), "transfer_bytes": 60_000, "duration": 400},
        description="Energy per bit and goodput vs. net size, JTP vs. ATP vs. TCP (linear)",
    ),
    FigureJob(
        "figure10",
        "random",
        smoke_kwargs={"net_sizes": (10,), "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        description="Energy per bit and goodput on static random topologies",
    ),
    FigureJob(
        "figure11",
        "random",
        smoke_kwargs={"speeds": (1.0,), "num_nodes": 10, "num_flows": 3, "transfer_bytes": 30_000, "duration": 400},
        description="Energy per bit, goodput and recovery split under mobility",
    ),
    FigureJob(
        "table2",
        "random",
        smoke_kwargs={"num_nodes": 8, "duration": 300},
        description="Testbed-like comparison over stable links with a Poisson workload",
    ),
)

#: The serial trace figures run by :func:`run_paper` via their row
#: adapters.  They inspect live simulator state (trace events, per-flow
#: statistics) and therefore execute in-process, not on the pool; their
#: smoke kwargs shrink each to a CI-sized single run.
TRACE_FIGURES: Tuple[FigureJob, ...] = (
    FigureJob(
        "figure3c",
        "linear",
        smoke_kwargs={"num_nodes": 4, "tolerances": (0.10, 0.20), "transfer_bytes": 40_000, "duration": 400},
        description="Per-packet link-layer attempt bound over time at the third node",
        kind="trace",
    ),
    FigureJob(
        "figure5",
        "linear",
        smoke_kwargs={"num_nodes": 5, "duration": 300, "transfer_bytes": 100_000},
        description="Reception-rate time series of two competing flows, back-off on/off",
        kind="trace",
    ),
    FigureJob(
        "figure7",
        "linear",
        smoke_kwargs={
            "feedback_rates": (0.1, 0.5),
            "num_nodes": 5,
            "duration": 300,
            "long_transfer_bytes": 120_000,
            "short_transfer_bytes": 15_000,
            "num_short_flows": 2,
        },
        description="Energy and queue drops vs. feedback rate, constant vs. variable",
        kind="trace",
    ),
    FigureJob(
        "figure8",
        "linear",
        smoke_kwargs={"num_nodes": 4, "duration": 400, "flow2_start": 120.0, "flow2_duration": 120.0},
        description="Rate adaptation of two competing JTP flows (flip-flop monitor)",
        kind="trace",
    ),
)

#: Paper-order figure names, used to interleave metric and trace jobs.
_PAPER_ORDER = (
    "figure3",
    "figure3c",
    "figure4",
    "figure4b",
    "figure5",
    "figure6",
    "figure7",
    "figure8",
    "figure9",
    "figure10",
    "figure11",
    "table2",
)

#: Every figure :func:`run_paper` regenerates, in paper order.
ALL_FIGURES: Tuple[FigureJob, ...] = tuple(
    sorted(METRIC_FIGURES + TRACE_FIGURES, key=lambda job: _PAPER_ORDER.index(job.name))
)

#: The fault-injection workload families (:mod:`repro.experiments.workloads`).
#: They are metric jobs in every respect — planned grids, batched cells,
#: cell-cache resume — but are listed separately from the paper figures:
#: :func:`run_paper` accepts their names alongside figure names, while
#: :func:`figure_index` (and therefore the README's paper-figure index)
#: stays exactly the paper's figures.
WORKLOAD_JOBS: Tuple[FigureJob, ...] = (
    FigureJob(
        "churn",
        "random",
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "churn_rates": (0.0, 0.02),
            "num_nodes": 10,
            "num_flows": 2,
            "mean_downtime": 20.0,
            "transfer_bytes": 30_000,
            "duration": 300,
        },
        description="Goodput and delivery under Poisson node crash/recover churn",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "partition_heal",
        "linear",
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "outages": (0.0, 20.0),
            "num_nodes": 5,
            "fault_start": 30.0,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience across a clean network partition that heals mid-run",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "flapping_links",
        "linear",
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "flap_rates": (0.0, 0.04),
            "num_nodes": 5,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience under Poisson forced link outages on every chain link",
        module="repro.experiments.workloads",
    ),
    FigureJob(
        "blackout",
        "linear",
        smoke_kwargs={
            "protocols": ("jtp", "tcp"),
            "outages": (0.0, 30.0),
            "num_nodes": 5,
            "fault_start": 30.0,
            "transfer_bytes": 60_000,
            "duration": 240,
        },
        description="Resilience while every link is forced into its bad loss regime",
        module="repro.experiments.workloads",
    ),
)

_JOBS_BY_NAME: Dict[str, FigureJob] = {job.name: job for job in ALL_FIGURES + WORKLOAD_JOBS}


def figure_index() -> List[Tuple[str, str, str]]:
    """``(name, kind, description)`` for every figure, in paper order.

    The single source for the figure listings: ``python -m
    repro.experiments --list-figures`` prints it and the README's
    paper-figure index must name every entry (pinned by the doc tests).
    Workload families are listed by :func:`workload_index` instead.
    """
    return [(job.name, job.kind, job.description) for job in ALL_FIGURES]


def workload_index() -> List[Tuple[str, str, str]]:
    """``(name, kind, description)`` for every fault-injection workload.

    The workload counterpart of :func:`figure_index`: printed by
    ``python -m repro.experiments --list-figures`` under its own
    heading and pinned against ``docs/faults.md`` by the doc tests.
    """
    return [(job.name, job.kind, job.description) for job in WORKLOAD_JOBS]


#: Signature of the ``run_paper(progress=…)`` callback: called as
#: ``progress(figure_name, completed_cells, total_cells)``.
ProgressCallback = Callable[[str, int, int], None]


def run_paper(
    figures: Optional[Sequence[str]] = None,
    backend: Optional[ExecutorBackend] = None,
    seeds: SeedsLike = "paper",
    workers: Optional[int] = None,
    base_seed: int = 0,
    overrides: Optional[Mapping[str, Mapping[str, object]]] = None,
    out_dir: Optional[PathLike] = None,
    resume: bool = True,
    progress: Optional[ProgressCallback] = None,
    profile: Optional[bool] = None,
) -> Dict[str, List[dict]]:
    """Regenerate the paper's figures — one batched submission, one call.

    ``figures`` names a subset (default: all of :data:`ALL_FIGURES`);
    fault-injection workload names from :data:`WORKLOAD_JOBS`
    (``"churn"``, ``"partition_heal"``, …) may be mixed in and run as
    ordinary metric jobs — the default all-figures run regenerates the
    paper only and leaves the workloads opt-in.
    ``seeds`` is a preset name (``"paper"``/``"smoke"``), a replication
    count, or an explicit seed list; ``backend``/``workers`` select the
    executor exactly as in
    :class:`~repro.experiments.parallel.ParallelRunner` (pass at most
    one — the default is the shared persistent process pool).
    ``overrides`` maps figure names to extra keyword arguments, applied
    on top of the smoke shrinkage when ``seeds="smoke"``.

    The metric figures are planned first and all their cells submitted
    to the backend as **one** interleaved task stream
    (:meth:`~repro.experiments.parallel.ParallelRunner.run_grids`), so
    the pool never drains between figures; each figure's rows are then
    aggregated from its demultiplexed slice — bit-identical to calling
    the figure functions one at a time.  The trace figures (3c, 5, 7,
    8) run serially in-process through their row adapters.  Trace
    figures are single-run by construction: their replication seed is a
    figure parameter (override via ``overrides``), not the ``seeds``
    preset.

    ``progress`` streams per-cell completion: the callback is invoked
    as ``progress(figure_name, completed, total)`` — once with
    ``completed=0`` when a figure's work is announced, then once per
    finished cell.  For metric figures ``total`` is the figure's
    ``cells × seeds`` task count and completions arrive during the
    batched submission (in submission order, so a paper-scale run
    reports every figure's percentage while the pool is busy); each
    trace figure is a single in-process job reported as ``0/1`` then
    ``1/1``.  The callback runs on the calling thread and an exception
    it raises aborts the run.

    ``profile`` (default: the ``REPRO_PROFILE`` environment variable)
    turns on the simulation-core profiler (:mod:`repro.sim.profile`)
    for the whole run: aggregate events/sec, per-callback-class time
    attribution and the event-heap high-water mark.  The report covers
    the simulations executed *in this process* — all of them on the
    serial backend, only the trace figures when a worker pool runs the
    metric figures (profile with ``workers=0`` for complete
    attribution) — and is stored under
    ``core_profile`` (with ``out_dir``) or summarised to stderr
    (without).  Expect roughly 2x wall-clock while profiling; results
    are unaffected.

    Returns ``{figure name: rows}`` in paper order.  With ``out_dir``
    the same mapping is persisted as a run directory
    (:func:`~repro.experiments.results.save_run`) whose manifest records
    the preset, resolved per-family seed lists, backend, base seed, git
    provenance, the cell-cache hit/store counts and (when profiling)
    the core profile.

    With ``out_dir`` the run is also **incremental**: every finished
    metric cell is persisted into ``<out_dir>/cells/``
    (:class:`~repro.experiments.results.CellStore`) as it completes, and
    a rerun pointed at the same directory loads already-computed cells
    from the cache instead of re-simulating them — so an interrupted
    paper-scale sweep resumes where it died.  Cells are keyed on the
    figure, scenario, parameters and seed
    (:func:`~repro.experiments.results.cell_key`); the cache as a whole
    is invalidated when the run-level provenance (seed policy, base
    seed, figure parameters) differs from the cached run's.  Cached
    cells are reported through ``progress`` as an up-front burst of
    completions.  ``resume=False`` discards any cached cells and
    recomputes everything (the fresh results are still persisted for
    the next run).  Trace figures are cheap single runs and are never
    cached.  See ``docs/distributed.md`` for the full semantics.
    """
    if figures is None:
        jobs = list(ALL_FIGURES)
    else:
        unknown = sorted(set(figures) - set(_JOBS_BY_NAME))
        if unknown:
            raise ValueError(f"unknown figures {unknown}; known: {sorted(_JOBS_BY_NAME)}")
        if len(set(figures)) != len(list(figures)):
            # Duplicates would be simulated in full and then silently
            # collapsed into one results entry — reject them instead.
            raise ValueError(f"duplicate figure names in {list(figures)}")
        jobs = [_JOBS_BY_NAME[name] for name in figures]
    resolved = resolve_backend(workers=workers, backend=backend)

    from repro.sim import profile as core_profile

    if profile is None:
        profile = core_profile.profile_from_env()
    profiler = core_profile.CoreProfiler() if profile else None

    def job_kwargs(job: FigureJob) -> Dict[str, object]:
        kwargs: Dict[str, object] = {}
        if seeds == "smoke":
            kwargs.update(job.smoke_kwargs)
        if overrides and job.name in overrides:
            kwargs.update(overrides[job.name])
        return kwargs

    # Plan every metric figure up front, submit all their grids as one
    # interleaved batch, then aggregate each figure from its own slice.
    planned = [
        (job, job.planner()(**job_kwargs(job)), preset_seeds(seeds, family=job.family, base_seed=base_seed))
        for job in jobs
        if job.kind == "metric"
    ]
    names = [job.name for job, _, _ in planned]

    store: Optional[CellStore] = None
    provenance: Dict[str, object] = {}
    if out_dir is not None:
        # The run-level provenance the cell cache is gated on — the same
        # fields compare_runs keys on, and verbatim what the manifest
        # metadata records below, so "cache valid" and "runs comparable"
        # can never drift apart.
        provenance = {
            "seeds_arg": seeds if isinstance(seeds, (str, int)) else list(seeds),
            "seeds": {
                family: list(preset_seeds(seeds, family=family, base_seed=base_seed))
                for family in ("linear", "random")
            },
            "base_seed": base_seed,
            # Effective per-figure parameters (smoke shrinkage plus
            # overrides; empty = figure defaults), so an overridden run
            # is distinguishable from a default one when loaded back.
            "figure_params": {job.name: job_kwargs(job) for job in jobs},
        }
        store = CellStore(out_dir, provenance, resume=resume)

    reuse = None
    on_result = None
    if store is not None and planned:
        cache = store

        def _cache_key(grid_index: int, spec: object, seed: int) -> Optional[str]:
            if not isinstance(spec, ScenarioSpec):
                return None
            return cell_key(names[grid_index], spec.scenario, spec.params, seed)

        def reuse(grid_index: int, spec: object, seed: int) -> Optional[ScenarioRecord]:
            key = _cache_key(grid_index, spec, seed)
            if key is None:
                return None
            record = cache.get(key)
            return record if isinstance(record, ScenarioRecord) else None

        def on_result(grid_index: int, spec: object, seed: int, record: ScenarioRecord) -> None:
            key = _cache_key(grid_index, spec, seed)
            if key is not None:
                cache.put(key, record)

    rows_by_name: Dict[str, List[dict]] = {}
    profile_context = nullcontext() if profiler is None else core_profile.profiled(profiler)
    with profile_context:
        if planned:
            grid_progress = None
            if progress is not None:
                totals = [len(plan.specs) * len(seed_list) for _, plan, seed_list in planned]
                for name, total in zip(names, totals, strict=True):
                    progress(name, 0, total)

                def grid_progress(grid_index: int, completed: int, total: int) -> None:
                    progress(names[grid_index], completed, total)

            grouped = ParallelRunner(backend=resolved).run_grids(
                [(plan.specs, seed_list) for _, plan, seed_list in planned],
                progress=grid_progress,
                reuse=reuse,
                on_result=on_result,
            )
            for (job, plan, _), groups in zip(planned, grouped, strict=True):
                rows_by_name[job.name] = plan.aggregate(groups)
        for job in jobs:
            if job.kind == "trace":
                if progress is not None:
                    progress(job.name, 0, 1)
                rows_by_name[job.name] = job.rows_func()(**job_kwargs(job))
                if progress is not None:
                    progress(job.name, 1, 1)

    results = {job.name: rows_by_name[job.name] for job in jobs}
    if out_dir is not None:
        metadata = {
            "driver": "run_paper",
            "seeds_arg": provenance["seeds_arg"],
            "seeds": provenance["seeds"],
            "base_seed": base_seed,
            "backend": resolved.name,
            "workers": resolved.workers,
            "figure_params": provenance["figure_params"],
            "git": git_metadata(),
        }
        if store is not None:
            # How much of the run came from the resume cache: reused =
            # cells loaded from cells/, computed = cells simulated (and
            # persisted) by this invocation.
            metadata["cells"] = {"reused": store.hits, "computed": store.stored}
        if profiler is not None:
            metadata["core_profile"] = profiler.report(top=20)
        save_run(results, out_dir, metadata)
    elif profiler is not None:
        print(profiler.summary(), file=sys.stderr)
    return results
