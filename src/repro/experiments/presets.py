"""Paper-scale presets and the full-paper driver.

The paper averages every linear-topology figure over **twenty**
independent runs and every random/mobile/testbed figure over **ten**
(Section 4).  The figure builders take no seeds at all, so the
paper-scale counts live here as named presets instead of being
re-hardcoded by every driver:

* :data:`PAPER_LINEAR` / :data:`PAPER_RANDOM` — the paper's replication
  counts, expanded into concrete seed lists with
  :func:`~repro.experiments.parallel.spawn_seeds`.
* :data:`SMOKE_LINEAR` / :data:`SMOKE_RANDOM` — the scaled-down counts
  used by CI and the figure bench, mirroring the paper's 20:10
  linear-to-random replication ratio.  Smoke seed lists are small
  literal seeds (``(1, 2)`` / ``(1,)``) rather than spawned seeds.
* :func:`preset_seeds` — turn a preset name (or an explicit count) plus
  a scenario family into the seed list.
* :func:`figure_job` — the registry entry
  (:class:`~repro.experiments.figures.FigureJob`) of a figure or fault
  workload by name: the one name lookup shared by :func:`run_paper`
  and ``python -m repro.plots``.  The entries
  themselves are declared next to their builders, in
  :data:`~repro.experiments.figures.ALL_FIGURES` and
  :data:`~repro.experiments.workloads.WORKLOAD_JOBS`.
* :func:`run_paper` — regenerate **every** figure of the paper in one
  call.  The metric figures (3, 4, 4b, 6, 9, 10, 11, Table 2) are
  planned up front (:class:`~repro.experiments.figures.FigurePlan`) and
  their grids submitted as **one batched, interleaved stream** over a
  single shared executor backend
  (:func:`~repro.experiments.parallel.run_grids`), so
  short cells from one figure keep workers busy while another figure's
  long cells run and the pool never drains at a figure boundary.  The
  serial trace figures (3c, 5, 7, 8) run in-process behind the same
  interface, so the returned mapping holds tidy rows for every
  figure.  With ``out_dir=`` the whole run — rows,
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

import sys
from contextlib import nullcontext
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.experiments.backends import ExecutorBackend, resolve_backend
from repro.experiments.figures import ALL_FIGURES, FigureJob
from repro.experiments.parallel import ScenarioRecord, ScenarioSpec, run_grids, spawn_seeds
from repro.experiments.results import CellStore, PathLike, cell_key, git_metadata, save_run
from repro.experiments.workloads import WORKLOAD_JOBS

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
    figures, ``(1,)`` for random ones); an ``int`` is a replication
    count expanded via :func:`spawn_seeds`; and an explicit sequence
    passes through.
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


_JOBS_BY_NAME: Dict[str, FigureJob] = {job.name: job for job in ALL_FIGURES + WORKLOAD_JOBS}


def figure_job(name: str) -> FigureJob:
    """The registry entry of a paper figure or fault workload, by name.

    Raises :class:`ValueError` naming the known jobs, so a CLI caller
    gets an actionable message instead of a bare ``KeyError``.
    """
    try:
        return _JOBS_BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown figures {[name]}; known: {sorted(_JOBS_BY_NAME)}") from None


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
    :func:`~repro.experiments.parallel.run_grids` (pass at most
    one — the default is the cached
    :class:`~repro.experiments.backends.AsyncBackend` pool, over the
    ``REPRO_ASYNC_ENDPOINT`` agents when that is set).
    ``overrides`` maps figure names to extra keyword arguments, applied
    on top of the smoke shrinkage when ``seeds="smoke"``.

    The metric figures are planned first and all their cells submitted
    to the backend as **one** interleaved task stream
    (:func:`~repro.experiments.parallel.run_grids`), so
    the pool never drains between figures; each figure's rows are then
    aggregated from its demultiplexed slice — bit-identical to running
    each figure's plan on its own.  The trace figures (3c, 5, 7, 8) run
    serially in-process.  Trace
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

    Returns ``{figure name: rows}`` in the requested order (paper order
    by default).  With ``out_dir``
    the same mapping is persisted as a run directory
    (:func:`~repro.experiments.results.save_run`) whose manifest records
    the preset, resolved per-family seed lists, backend, base seed, git
    provenance, the cell-cache hit/store counts, every figure's claim
    verdicts (:meth:`~repro.experiments.figures.FigureJob.check`) and
    (when profiling) the core profile.

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
    if isinstance(figures, str):
        raise ValueError(f"figures must be a sequence of names, not the string {figures!r}")
    requested = [job.name for job in ALL_FIGURES] if figures is None else list(figures)
    if len(set(requested)) != len(requested):
        # Duplicates would be simulated in full and then silently
        # collapsed into one results entry — reject them instead.
        raise ValueError(f"duplicate figure names in {requested}")
    jobs = [figure_job(name) for name in requested]
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
        (job, job.build(**job_kwargs(job)), preset_seeds(seeds, family=job.family, base_seed=base_seed))
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

            grouped = run_grids(
                [(plan.specs, seed_list) for _, plan, seed_list in planned],
                backend=resolved,
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
                rows_by_name[job.name] = job.build(**job_kwargs(job))
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
            # The paper's qualitative claims on these rows; never a cache
            # or comparison key (docs/results.md).
            "claims": {job.name: job.check(results[job.name]) for job in jobs},
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
