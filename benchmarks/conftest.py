"""Shared helpers for the benchmark harness.

``bench_figures.py`` regenerates every figure and table of the paper
through :func:`repro.experiments.presets.run_paper` at bench scale (the
smoke seed preset, the parameters in its ``BENCH_PARAMS``), prints the
rows and requires every paper claim declared on the figure's registry
entry to pass.  The other drivers time the simulation core, the fault
seam, the worker pool, the ablations and the analytic model.  The paper
seed counts live in :mod:`repro.experiments.presets` (``PAPER_LINEAR=20``,
``PAPER_RANDOM=10``).

Invocation (the ``bench_*.py`` names do not match pytest's default
``test_*.py`` collection pattern, so name the files explicitly)::

    python -m pytest benchmarks/bench_figures.py -q -s
    python -m pytest benchmarks/bench_figures.py -q -s -k figure9

The tier-1 correctness gate stays ``python -m pytest -x -q`` from the
repository root; the benchmarks are additive.  Environment knobs:

``REPRO_WORKERS``
    Executor parallelism for the metric figures.  Unset means the
    ``REPRO_ASYNC_ENDPOINT`` agents when that is set, else a persistent
    ``AsyncBackend`` pool with one worker per core;
    ``0`` (or ``1``) means the serial backend — no pool at all.
``REPRO_BENCH_NO_ASSERT``
    When set (non-empty), ``bench_parallel_scaling.py`` skips its
    wall-clock assertions (CI noise) while keeping the bit-identity
    assertions — pool regressions still fail the run.
``REPRO_PROFILE``
    When set (non-empty, not ``0``), ``run_paper`` runs the figures
    under the simulation-core profiler (:mod:`repro.sim.profile`) and
    prints its summary to stderr.  Expect roughly 2x wall-clock while
    profiling; simulation results are unchanged.
"""

from __future__ import annotations

import os
from typing import Callable, Optional

from repro.experiments.backends import workers_from_env


def bench_workers() -> Optional[int]:
    """Worker count for the metric figures (``REPRO_WORKERS``).

    Unset means ``None`` — the figures then use ``resolve_backend()``'s
    default pool (see ``REPRO_WORKERS`` above).  ``0`` and ``1`` both select
    the serial backend; the rows are bit-identical either way, only the
    wall-clock changes.
    """
    return workers_from_env(default=None)


def no_assert_from_env() -> bool:
    """Whether ``REPRO_BENCH_NO_ASSERT`` disables wall-clock assertions."""
    return bool(os.environ.get("REPRO_BENCH_NO_ASSERT", "").strip())


def bench_no_assert() -> bool:
    """Whether wall-clock assertions are disabled (``REPRO_BENCH_NO_ASSERT``)."""
    return no_assert_from_env()


def bench_host() -> dict:
    """Where a bench record was measured: ``{"hostname", "cpu_count"}``.

    Embedded in every committed ``BENCH_*.json`` so a number recorded
    on a 1-CPU container is self-describing — a reader (or a CI
    comparison) can see at a glance that e.g. process-pool speedups
    from such a host say nothing about real hardware.  ``cpu_count``
    honours cgroup/affinity limits where the platform exposes them.
    """
    import platform

    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        cpus = os.cpu_count() or 1
    return {"hostname": platform.node(), "cpu_count": cpus}


def events_per_sec_report(name: str, events: int, seconds: float) -> float:
    """Print one uniform events/sec line and return the rate.

    Every bench driver that reports simulation-core throughput goes
    through this helper so the lines are grep-able across drivers and
    PRs (``<name>: <events> events in <s> s -> <rate> events/s``).
    """
    rate = events / seconds if seconds > 0 else 0.0
    print(f"{name}: {events:,} events in {seconds:.3f} s -> {rate:,.0f} events/s")
    return rate


def run_once(benchmark, experiment: Callable, *args, **kwargs):
    """Run ``experiment(*args, **kwargs)`` exactly once under pytest-benchmark timing.

    The experiments are full simulations taking hundreds of
    milliseconds to a few seconds each; a single round keeps the whole
    harness fast while still recording the wall-clock cost of
    regenerating the figure.
    """
    return benchmark.pedantic(experiment, args=args, kwargs=kwargs, rounds=1, iterations=1)
