"""Experiment harness: one entry point per table and figure of the paper.

* :mod:`repro.experiments.metrics` — turns a finished simulation into the
  metrics the paper reports (energy per delivered bit, goodput, per-node
  energy, queue drops, source retransmissions, cache hits, fairness);
* :mod:`repro.experiments.scenarios` — builders for the paper's scenarios
  (static linear, static random, mobile random, testbed-like);
* :mod:`repro.experiments.runner` — runs scenarios, replicates them over
  seeds and aggregates with confidence intervals;
* :mod:`repro.experiments.backends` — pluggable executor backends
  (:class:`SerialBackend`, and :class:`AsyncBackend`, the one worker
  pool: a scheduler with backpressure, work stealing and retry over
  persistent local worker processes or remote TCP agents, shared per
  worker count by default — ``docs/distributed.md``);
* :mod:`repro.experiments.parallel` — :class:`ParallelRunner` fans
  replications and parameter sweeps out over a backend, returning
  picklable :class:`ScenarioRecord` summaries (bit-identical aggregates
  for any backend and worker count);
* :mod:`repro.experiments.presets` — paper-scale seed presets
  (``PAPER_LINEAR=20``, ``PAPER_RANDOM=10``, smoke presets for CI) and
  the :func:`run_paper` full-paper driver: metric figures batched into
  one interleaved pool submission, trace figures (3c, 5, 7, 8) run
  serially behind the same row interface;
* :mod:`repro.experiments.figures` — one function per figure/table
  (``figure3`` … ``figure11``, ``table2``) returning structured rows,
  each metric figure also exposing its ``figureN_plan()`` grid for
  batching and each trace figure a ``figureN_rows()`` adapter;
* :mod:`repro.experiments.workloads` — the fault-injection resilience
  workload families (``churn``, ``partition_heal``, ``flapping_links``,
  ``blackout``), metric jobs pairing the figure grids with
  :class:`~repro.sim.faults.FaultPlan` schedules (``docs/faults.md``);
* :mod:`repro.experiments.results` — the on-disk results store: run
  directories with per-figure JSON/CSV rows plus a manifest recording
  seeds, preset, backend and git provenance;
* :mod:`repro.experiments.report` — plain-text table rendering, for
  live rows and stored runs (``python -m repro.experiments <run_dir>``;
  ``--list-figures`` prints the figure index).

Image rendering lives in the sibling :mod:`repro.plots` package: every
figure carries a declarative :class:`~repro.plots.spec.PlotSpec`
(``figures.PLOT_SPECS``), and ``python -m repro.plots <run_dir>``
turns a stored run directory into one PNG per figure — or, with
``--compare``, into overlay/delta regression plots of two runs.

Usage::

    from repro.experiments import AsyncBackend, ProgressBars, figures, load_run, run_paper

    # Everything below shares one persistent worker pool (the default):
    all_rows = run_paper(seeds="paper", out_dir="runs/paper")  # full run, persisted
    smoke = run_paper(seeds="smoke", workers=2)    # the CI smoke run
    stored = load_run("runs/paper").rows           # rows back, no re-simulation

    # Paper-scale runs can report per-figure completion while the
    # batched pool submission is in flight; ProgressBars renders live
    # stderr percentage bars (any callable with the same signature
    # works):
    run_paper(seeds="paper", progress=ProgressBars())

    # Figures take the same workers=/backend= knobs individually:
    rows = figures.figure9(workers=4)              # shared 4-worker pool
    rows = figures.figure9(workers=0)              # serial, no pool
    with AsyncBackend(workers=8) as backend:       # private pool
        rows = figures.figure9(backend=backend)

The executor invariant throughout: every run is fully determined by its
seed and records return in submission order, so aggregates are
bit-identical whichever backend runs them.
"""

from repro.experiments.metrics import ScenarioMetrics, collect_metrics, jains_fairness_index
from repro.experiments.scenarios import (
    PAPER_LINK_QUALITY,
    LOSSY_LINK_QUALITY,
    STABLE_LINK_QUALITY,
    ScenarioResult,
    linear_scenario,
    random_scenario,
    mobile_scenario,
    testbed_scenario,
)
from repro.experiments.runner import average_metrics, confidence_interval, replicate
from repro.experiments.backends import (
    AsyncBackend,
    ExecutorBackend,
    SerialBackend,
    close_shared_backends,
    make_backend,
    resolve_backend,
    shared_backend,
    workers_from_env,
)
from repro.experiments.parallel import (
    ParallelRunner,
    ScenarioRecord,
    ScenarioSpec,
    spawn_seeds,
)
from repro.experiments.presets import (
    ALL_FIGURES,
    METRIC_FIGURES,
    PAPER_LINEAR,
    PAPER_RANDOM,
    SMOKE_LINEAR,
    SMOKE_RANDOM,
    TRACE_FIGURES,
    WORKLOAD_JOBS,
    preset_seeds,
    run_paper,
    workload_index,
)
from repro.experiments.progress import ProgressBars
from repro.experiments.results import RunResults, load_run, save_run
from repro.experiments.report import format_run, format_table
from repro.experiments import figures
from repro.experiments import workloads

__all__ = [
    "ScenarioMetrics",
    "collect_metrics",
    "jains_fairness_index",
    "PAPER_LINK_QUALITY",
    "LOSSY_LINK_QUALITY",
    "STABLE_LINK_QUALITY",
    "ScenarioResult",
    "linear_scenario",
    "random_scenario",
    "mobile_scenario",
    "testbed_scenario",
    "average_metrics",
    "confidence_interval",
    "replicate",
    "ExecutorBackend",
    "SerialBackend",
    "AsyncBackend",
    "make_backend",
    "resolve_backend",
    "shared_backend",
    "close_shared_backends",
    "workers_from_env",
    "ParallelRunner",
    "ScenarioRecord",
    "ScenarioSpec",
    "spawn_seeds",
    "ALL_FIGURES",
    "METRIC_FIGURES",
    "TRACE_FIGURES",
    "PAPER_LINEAR",
    "PAPER_RANDOM",
    "SMOKE_LINEAR",
    "SMOKE_RANDOM",
    "WORKLOAD_JOBS",
    "preset_seeds",
    "run_paper",
    "workload_index",
    "ProgressBars",
    "RunResults",
    "load_run",
    "save_run",
    "format_run",
    "format_table",
    "figures",
    "workloads",
]
