"""Parallel-runner scaling — worker speedup and persistent-pool reuse.

Two measurements, both recorded into ``BENCH_parallel.json`` next to
this file so the perf trajectory of the experiment harness is tracked
across PRs:

1. **Worker scaling** — replicates a 10-seed linear scenario at
   workers ∈ {1, 2, 4} (a fresh pool per configuration, so the numbers
   stay comparable with earlier PRs) and records wall-clock plus
   speedup over serial.
2. **Pooled vs. throwaway** — runs a sequence of small figure-sized
   replication calls twice: once creating and tearing down a worker
   pool per call (the pre-backend behaviour) and once through a single
   persistent :class:`~repro.experiments.backends.AsyncBackend`.  The
   pooled run must not be slower — spawn/teardown cost is paid once,
   not once per figure.
3. **Batched grids** — submits several figure plans' grids as one
   interleaved :meth:`~repro.experiments.parallel.ParallelRunner.run_grids`
   batch (the ``run_paper`` path) and per figure via ``run_grid``, and
   asserts records *and* aggregated rows are bit-identical.

Aggregated metrics must be bit-identical between the serial backend and
the worker pool at every worker count, and the batched-grid submission
must match per-figure submission — both are asserted unconditionally.
The wall-clock assertions (≥2× speedup at 4 workers on a ≥4-core box,
pooled ≤ throwaway) are skipped when ``REPRO_BENCH_NO_ASSERT`` is set,
which is how the CI smoke job runs on noisy shared runners.

Run with::

    python -m pytest benchmarks/bench_parallel_scaling.py -q -s
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from conftest import bench_host, bench_no_assert

from repro.experiments import figures
from repro.experiments.backends import AsyncBackend, SerialBackend
from repro.experiments.parallel import ParallelRunner, ScenarioSpec, spawn_seeds
from repro.experiments.runner import summarize

WORKER_COUNTS = (1, 2, 4)
NUM_SEEDS = 10
SCENARIO = ScenarioSpec("linear", {
    "num_nodes": 5, "protocol": "jtp", "transfer_bytes": 30_000, "num_flows": 1, "duration": 400,
})
#: Figure-sized calls for the pooled-vs-throwaway comparison: small
#: grids, so per-call pool start-up is a visible fraction of the work —
#: exactly the regime a full-paper run with many quick figures is in.
REUSE_CALLS = 6
REUSE_SEEDS = 6
REUSE_SCENARIOS = tuple(
    ScenarioSpec("linear", {
        "num_nodes": 3 + (index % 3), "protocol": "jtp", "transfer_bytes": 8_000, "num_flows": 1, "duration": 120,
    })
    for index in range(REUSE_CALLS)
)
RECORD_PATH = Path(__file__).resolve().parent / "BENCH_parallel.json"

SUMMARY_ATTRIBUTES = ("energy_per_bit_microjoules", "goodput_kbps")


def _summaries(records):
    return {attr: summarize(records, attr) for attr in SUMMARY_ATTRIBUTES}


def _scaling_backend(workers):
    return SerialBackend() if workers == 1 else AsyncBackend(workers=workers)


def _run_reuse_calls(runner, seeds):
    return [runner.replicate(spec, seeds) for spec in REUSE_SCENARIOS]


def test_parallel_scaling(benchmark):
    seeds = spawn_seeds(base_seed=0, count=NUM_SEEDS)
    reuse_seeds = spawn_seeds(base_seed=1, count=REUSE_SEEDS)
    wall_clock = {}
    summaries = {}
    reuse = {}

    def run_all():
        # 1. Worker scaling, one throwaway backend per configuration.
        for workers in WORKER_COUNTS:
            backend = _scaling_backend(workers)
            started = time.perf_counter()
            with backend:
                records = ParallelRunner(backend=backend).replicate(SCENARIO, seeds)
            wall_clock[workers] = time.perf_counter() - started
            summaries[workers] = _summaries(records)

        # 2. Pooled vs. throwaway across a sequence of figure-sized calls.
        pool_workers = min(4, os.cpu_count() or 1)
        reuse["workers"] = pool_workers

        started = time.perf_counter()
        throwaway_records = []
        for spec in REUSE_SCENARIOS:
            with AsyncBackend(workers=pool_workers) as backend:
                throwaway_records.append(
                    ParallelRunner(backend=backend).replicate(spec, reuse_seeds)
                )
        reuse["throwaway_s"] = time.perf_counter() - started

        started = time.perf_counter()
        with AsyncBackend(workers=pool_workers) as backend:
            pooled_records = _run_reuse_calls(ParallelRunner(backend=backend), reuse_seeds)
        reuse["pooled_s"] = time.perf_counter() - started

        serial_records = _run_reuse_calls(ParallelRunner(backend=SerialBackend()), reuse_seeds)

        # Cross-backend invariant: bit-identical records everywhere.
        assert pooled_records == serial_records, "persistent pool changed the records"
        assert throwaway_records == serial_records, "throwaway pools changed the records"

        # 3. Batched multi-figure submission (the run_paper path) must
        # demultiplex to exactly what per-figure submission produces.
        plans = [
            figures.figure4b_plan(num_nodes=3, transfer_bytes=6_000, duration=100),
            figures.figure6_plan(cache_sizes=(2, 10), net_sizes=(3,), transfer_bytes=8_000, duration=100),
            figures.table2_plan(num_nodes=6, duration=120),
        ]
        plan_seeds = [reuse_seeds[:2], reuse_seeds[:2], reuse_seeds[:1]]
        grids = [(plan.specs, seeds_) for plan, seeds_ in zip(plans, plan_seeds, strict=True)]
        with AsyncBackend(workers=pool_workers) as backend:
            runner = ParallelRunner(backend=backend)
            batched = runner.run_grids(grids)
            per_figure = [runner.run_grid(list(specs), seeds_) for specs, seeds_ in grids]
        assert batched == per_figure, "batched grids changed the records"
        batched_rows = [plan.aggregate(groups) for plan, groups in zip(plans, batched, strict=True)]
        per_figure_rows = [plan.aggregate(groups) for plan, groups in zip(plans, per_figure, strict=True)]
        assert batched_rows == per_figure_rows, "batched grids changed the figure rows"
        reuse["batched_figures"] = [plan.name for plan in plans]

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    # Correctness first: every worker count must aggregate identically.
    for workers in WORKER_COUNTS[1:]:
        assert summaries[workers] == summaries[1], (
            f"workers={workers} changed the aggregated metrics"
        )

    # Honour cgroup/affinity CPU limits, not just the host core count.
    try:
        usable_cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without sched_getaffinity
        usable_cpus = os.cpu_count() or 1

    record = {
        "bench": "parallel_scaling",
        "scenario": dict(SCENARIO.params, scenario=SCENARIO.scenario),
        "num_seeds": NUM_SEEDS,
        "cpu_count": usable_cpus,
        "host": bench_host(),
        "wall_clock_s": {str(w): round(wall_clock[w], 4) for w in WORKER_COUNTS},
        "speedup_vs_serial": {
            str(w): round(wall_clock[1] / wall_clock[w], 3) for w in WORKER_COUNTS
        },
        "pool_reuse": {
            "calls": REUSE_CALLS,
            "seeds_per_call": REUSE_SEEDS,
            "workers": reuse["workers"],
            "throwaway_pool_s": round(reuse["throwaway_s"], 4),
            "persistent_pool_s": round(reuse["pooled_s"], 4),
            "speedup": round(reuse["throwaway_s"] / reuse["pooled_s"], 3),
        },
        "batched_grids": {
            "figures": reuse["batched_figures"],
            "identical_to_per_figure": True,
        },
    }
    RECORD_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print()
    print(json.dumps(record, indent=2))

    if bench_no_assert():
        return

    # The ≥2x acceptance bar only applies where 4 workers have 4 cores.
    if usable_cpus >= 4:
        assert wall_clock[1] / wall_clock[4] >= 2.0, (
            f"expected >=2x speedup at workers=4, got {wall_clock[1] / wall_clock[4]:.2f}x"
        )
    # Reusing one persistent pool must not lose to a pool per figure call.
    assert reuse["pooled_s"] <= reuse["throwaway_s"], (
        f"persistent pool ({reuse['pooled_s']:.3f}s) slower than throwaway pools "
        f"({reuse['throwaway_s']:.3f}s)"
    )
