"""Figure 9 — JTP vs ATP vs TCP on static linear topologies.

Regenerates energy per delivered bit (9a) and per-flow goodput (9b)
against network size with two competing end-to-end flows.
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure9_linear_comparison(benchmark):
    rows = run_once(
        benchmark,
        figures.figure9_plan(
            net_sizes=(3, 5, 7), protocols=("jtp", "atp", "tcp"), transfer_bytes=250_000, duration=1000,
        ),
        bench_seeds(), workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["netSize", "protocol", "energy_per_bit_uJ", "goodput_kbps"],
        title="Figure 9: energy per bit and goodput on linear topologies",
    ))
    largest = max(row["netSize"] for row in rows)
    at_largest = {row["protocol"]: row for row in rows if row["netSize"] == largest}
    # The paper's ordering at the longest paths: JTP <= ATP < TCP on energy,
    # JTP >= ATP > TCP on goodput.
    assert at_largest["jtp"]["energy_per_bit_uJ"] <= at_largest["atp"]["energy_per_bit_uJ"] * 1.05
    assert at_largest["jtp"]["energy_per_bit_uJ"] < at_largest["tcp"]["energy_per_bit_uJ"]
    assert at_largest["jtp"]["goodput_kbps"] > at_largest["tcp"]["goodput_kbps"]
    # Energy per bit grows with path length for every protocol.
    for protocol in ("jtp", "atp", "tcp"):
        series = [row["energy_per_bit_uJ"] for row in rows if row["protocol"] == protocol]
        assert series[-1] > series[0]
