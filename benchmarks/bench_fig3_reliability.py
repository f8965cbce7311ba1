"""Figure 3 — adjustable reliability levels (jtp0 / jtp10 / jtp20).

Regenerates: total energy vs. net size (3a), data delivered vs. net size
with the application requirement (3b), and the per-packet link-layer
attempt bound over time at the third node of a 4-node path (3c).
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_series, format_table


def test_figure3_energy_and_delivery(benchmark):
    rows = run_once(
        benchmark,
        figures.figure3_plan(
            net_sizes=(3, 5, 7), tolerances=(0.0, 0.10, 0.20), transfer_bytes=100_000, duration=800,
        ),
        bench_seeds(), workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["netSize", "protocol", "total_energy_J", "data_delivered_kB", "requirement_kB"],
        title="Figure 3(a,b): energy and delivered data per reliability level",
    ))
    # Delivery must always satisfy the application's requirement (Fig. 3b).
    for row in rows:
        assert row["data_delivered_kB"] >= row["requirement_kB"] - 1.0


def test_figure3c_attempt_bound_series(benchmark):
    series = run_once(
        benchmark, figures.figure3c,
        num_nodes=4, tolerances=(0.10, 0.20), transfer_bytes=80_000, duration=600,
    )
    print()
    for label, points in series.items():
        print(format_series(points, label=f"Figure 3(c) max attempts at node 3 [{label}]"))
        attempts = [a for _, a in points]
        assert attempts, "iJTP must have planned attempts at the third node"
        assert all(1 <= a <= 5 for a in attempts)
    # The more loss-tolerant flow never asks for more effort than the stricter one on average.
    mean = lambda pts: sum(a for _, a in pts) / len(pts)
    assert mean(series["jtp20"]) <= mean(series["jtp10"]) + 0.25
