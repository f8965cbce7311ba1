"""Figure 6 — the effect of in-network cache size.

Regenerates the source-retransmission count as a function of cache size
for two network sizes, showing the knee once caches are large enough to
hold a feedback period's worth of packets.
"""

from conftest import bench_seeds, bench_workers, run_once

from repro.experiments import figures
from repro.experiments.report import format_table


def test_figure6_cache_size(benchmark):
    rows = run_once(
        benchmark,
        figures.figure6_plan(
            cache_sizes=(2, 5, 10, 30, 100), net_sizes=(5, 8), transfer_bytes=100_000, duration=900,
        ),
        bench_seeds(), workers=bench_workers(),
    )
    print()
    print(format_table(rows, title="Figure 6: source retransmissions vs cache size"))
    for size in (5, 8):
        series = {row["cache_size"]: row["source_rtx"] for row in rows if row["netSize"] == size}
        # Tiny caches force the source to do the repairs; big caches do not.
        assert series[2] >= series[100]
        assert series[100] <= series[5]
