"""The paper's figures and tables at bench scale, with their claims checked.

One test per entry of :data:`repro.experiments.figures.ALL_FIGURES`.
Each times ``run_paper`` on that figure alone, with the smoke seed
preset of its family and the parameters in :data:`BENCH_PARAMS`, prints
the rows and the verdict of every claim declared on the entry, and
requires each verdict to be ``"pass"``.  Select one figure with
``-k figure9``.
"""

import pytest
from conftest import bench_workers, run_once

from repro.experiments.figures import ALL_FIGURES
from repro.experiments.presets import preset_seeds, run_paper
from repro.experiments.report import format_run

#: Bench-scale parameters per figure, applied over the builder defaults.
BENCH_PARAMS = {
    "figure3": {"net_sizes": (3, 5, 7), "tolerances": (0.0, 0.10, 0.20), "transfer_bytes": 100_000, "duration": 800},
    "figure3c": {"num_nodes": 4, "tolerances": (0.10, 0.20), "transfer_bytes": 80_000, "duration": 600},
    "figure4": {"net_sizes": (3, 5, 7, 9), "transfer_bytes": 80_000, "duration": 1000},
    "figure4b": {"num_nodes": 7, "transfer_bytes": 80_000, "duration": 1000},
    "figure5": {"num_nodes": 6, "duration": 700, "transfer_bytes": 300_000, "seed": 2},
    "figure6": {"cache_sizes": (2, 5, 10, 30, 100), "net_sizes": (5, 8), "transfer_bytes": 100_000, "duration": 900},
    "figure7": {
        "feedback_rates": (0.05, 0.1, 0.33, 0.5),
        "num_nodes": 8,
        "duration": 700,
        "long_transfer_bytes": 400_000,
        "short_transfer_bytes": 30_000,
        "num_short_flows": 3,
        "seed": 1,
    },
    "figure8": {"num_nodes": 6, "duration": 800, "flow2_start": 250.0, "flow2_duration": 200.0, "seed": 4},
    "figure9": {"net_sizes": (3, 5, 7), "protocols": ("jtp", "atp", "tcp"), "transfer_bytes": 250_000, "duration": 1000},
    "figure10": {
        "net_sizes": (10, 15),
        "protocols": ("jtp", "atp", "tcp"),
        "num_flows": 5,
        "transfer_bytes": 80_000,
        "duration": 900,
    },
    "figure11": {
        "speeds": (0.1, 1.0, 5.0),
        "protocols": ("jtp", "tcp"),
        "num_nodes": 15,
        "num_flows": 4,
        "transfer_bytes": 60_000,
        "duration": 900,
    },
    "table2": {"protocols": ("jtp", "atp", "tcp"), "duration": 1200, "num_nodes": 14},
}


@pytest.mark.parametrize("job", ALL_FIGURES, ids=lambda job: job.name)
def test_figure(benchmark, job):
    results = run_once(
        benchmark,
        run_paper,
        figures=[job.name],
        seeds=preset_seeds("smoke", family=job.family),
        overrides={job.name: BENCH_PARAMS[job.name]},
        workers=bench_workers(),
    )
    verdicts = job.check(results[job.name])
    print()
    print(format_run(results))
    for claim in job.claims:
        print(f"{verdicts[claim.id]:>4}  {claim.id}: {claim.description}")
    assert verdicts and set(verdicts.values()) == {"pass"}, verdicts
