"""Figure 11 — mobile random topologies (random waypoint).

Regenerates energy per bit (11a) and goodput (11b) against node speed,
plus the split between end-to-end (source) retransmissions and local
cache recoveries (11c) for JTP.
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure11_mobility(benchmark):
    rows = run_once(
        benchmark,
        figures.figure11_plan(
            speeds=(0.1, 1.0, 5.0), protocols=("jtp", "tcp"),
            num_nodes=15, num_flows=4, transfer_bytes=60_000, duration=900,
        ),
        bench_seeds("random"), workers=bench_workers(),
    )
    print()
    print(format_table(
        rows,
        columns=["speed_mps", "protocol", "energy_per_bit_uJ", "goodput_kbps",
                 "source_rtx_per_kpkt", "cache_hits_per_kpkt"],
        title="Figure 11: protocol comparison under random-waypoint mobility",
    ))
    for speed in (0.1, 1.0, 5.0):
        at_speed = {row["protocol"]: row for row in rows if row["speed_mps"] == speed}
        # JTP delivers more application data per unit time than TCP even as nodes move.
        assert at_speed["jtp"]["goodput_kbps"] > at_speed["tcp"]["goodput_kbps"]
    # Figure 11(c): local caches keep contributing recoveries under mobility.
    jtp_rows = [row for row in rows if row["protocol"] == "jtp"]
    assert any(row["cache_hits_per_kpkt"] > 0 for row in jtp_rows)
