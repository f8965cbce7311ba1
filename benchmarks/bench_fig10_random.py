"""Figure 10 — JTP vs ATP vs TCP on static random topologies."""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure10_random_topologies(benchmark):
    rows = run_once(
        benchmark,
        figures.figure10_plan(
            net_sizes=(10, 15), protocols=("jtp", "atp", "tcp"), num_flows=5, transfer_bytes=80_000, duration=900,
        ),
        bench_seeds("random"), workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["netSize", "protocol", "energy_per_bit_uJ", "goodput_kbps"],
        title="Figure 10: energy per bit and goodput on static random topologies",
    ))
    for size in sorted({row["netSize"] for row in rows}):
        at_size = {row["protocol"]: row for row in rows if row["netSize"] == size}
        assert at_size["jtp"]["energy_per_bit_uJ"] < at_size["tcp"]["energy_per_bit_uJ"]
        assert at_size["jtp"]["goodput_kbps"] > at_size["tcp"]["goodput_kbps"]
