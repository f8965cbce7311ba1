"""Figure 4 — JTP vs. JTP-with-No-Caching (JNC).

Regenerates: energy per delivered bit vs. net size (4a) and the
per-node energy distribution on a 7-node chain (4b).
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure4_energy_per_bit(benchmark):
    rows = run_once(
        benchmark,
        figures.figure4_plan(net_sizes=(3, 5, 7, 9), transfer_bytes=80_000, duration=1000),
        bench_seeds(), workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["netSize", "protocol", "energy_per_bit_uJ", "source_rtx"],
        title="Figure 4(a): energy per bit, JTP vs JNC",
    ))
    by_key = {(row["netSize"], row["protocol"]): row for row in rows}
    largest = max(row["netSize"] for row in rows)
    # On the longest path, caching must not cost energy and must do the
    # recovery work the source would otherwise repeat (Section 4.1).
    assert by_key[(largest, "jtp")]["energy_per_bit_uJ"] <= by_key[(largest, "jnc")]["energy_per_bit_uJ"] * 1.05
    assert by_key[(largest, "jtp")]["source_rtx"] < by_key[(largest, "jnc")]["source_rtx"]


def test_figure4b_per_node_energy(benchmark):
    rows = run_once(
        benchmark,
        figures.figure4b_plan(num_nodes=7, transfer_bytes=80_000, duration=1000),
        bench_seeds(), workers=bench_workers(),
    )
    print()
    print(format_table(rows, title="Figure 4(b): per-node energy on a 7-node chain"))
    jtp_total = sum(row["energy_J"] for row in rows if row["protocol"] == "jtp")
    jnc_total = sum(row["energy_J"] for row in rows if row["protocol"] == "jnc")
    assert jtp_total <= jnc_total * 1.1
