"""Table 2 — testbed-like comparison over stable, low-loss links.

Regenerates the JAVeLEN-testbed stand-in: 14 nodes, stable indoor-style
links and a Poisson transfer workload, comparing JTP, ATP and TCP on
energy per delivered bit and average goodput.
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_table2_testbed(benchmark):
    rows = run_once(
        benchmark,
        figures.table2_plan(protocols=("jtp", "atp", "tcp"), duration=1200, num_nodes=14),
        bench_seeds("random"), workers=bench_workers(),
    )
    print()
    print(format_table(rows, title="Table 2: testbed-like comparison (stable links)"))
    by_protocol = {row["protocol"]: row for row in rows}
    # The paper's Table 2 ordering on energy per bit: JTP < ATP < TCP.
    assert by_protocol["jtp"]["energy_per_bit_mJ"] <= by_protocol["atp"]["energy_per_bit_mJ"] * 1.1
    assert by_protocol["jtp"]["energy_per_bit_mJ"] < by_protocol["tcp"]["energy_per_bit_mJ"]
