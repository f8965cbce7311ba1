"""Protocol shoot-out across path lengths (the Figure 9 experiment, small).

Runs two competing bulk transfers end-to-end over linear networks of
increasing length under JTP, the ATP-like explicit-rate baseline and
rate-paced TCP-SACK, and prints energy per delivered bit and per-flow
goodput for each — a scaled-down regeneration of the paper's Figure 9.

The per-seed runs execute on a pluggable backend: by default they fan
out over the shared persistent worker pool, ``--backend async`` builds
a private pool (remote TCP agents when ``REPRO_ASYNC_ENDPOINT`` is set),
and ``--backend serial`` (or ``--workers 0``) runs in-process.
``--seeds N`` scales the replication; ``--paper``
uses the paper's replication count (:data:`PAPER_LINEAR` seeds per
cell).  The printed rows are bit-identical for every backend and worker
count.

``--out DIR`` persists the rows through the results store
(:mod:`repro.experiments.results`): ``DIR`` becomes a run directory with
``figure9.json``/``figure9.csv`` plus a manifest recording the seeds,
backend and git provenance — reload it with ``load_run(DIR)`` or render
it with ``python -m repro.experiments DIR``.  Adding ``--plots`` also
renders the run to ``DIR/plots/figure9.png`` through :mod:`repro.plots`
(matplotlib if installed, the stdlib fallback otherwise).

Run with::

    python examples/protocol_shootout.py [--workers N] [--backend NAME] [--seeds N | --paper] [--out DIR [--plots]]
"""

import argparse

from repro.experiments.backends import BACKENDS, make_backend, resolve_backend
from repro.experiments.figures import figure9
from repro.experiments.presets import PAPER_LINEAR, SMOKE_LINEAR, preset_seeds
from repro.experiments.report import format_table
from repro.experiments.results import git_metadata, save_run


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workers", type=int, default=None,
                        help="worker count (default: one per CPU core; 0 or 1 = serial)")
    parser.add_argument("--backend", choices=sorted(BACKENDS), default=None,
                        help="executor backend (default: the shared persistent worker pool)")
    parser.add_argument("--seeds", type=int, default=None,
                        help=f"independent replications per cell (default: {SMOKE_LINEAR})")
    parser.add_argument("--paper", action="store_true",
                        help=f"use the paper's replication count ({PAPER_LINEAR} seeds per cell)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="persist the rows into run directory DIR via the results store")
    parser.add_argument("--plots", action="store_true",
                        help="with --out: also render the run to DIR/plots/figure9.png")
    args = parser.parse_args()
    if args.plots and not args.out:
        parser.error("--plots needs --out DIR (the plots render from the persisted run)")

    if args.paper:
        seeds = preset_seeds("paper", family="linear")
    elif args.seeds is not None:
        seeds = preset_seeds(args.seeds, family="linear")
    else:
        seeds = preset_seeds("smoke", family="linear")

    if args.backend is not None:
        # Passed verbatim: pooled backends reject workers<=0 loudly
        # rather than silently falling back to a cpu_count pool.
        backend = make_backend(args.backend, workers=args.workers)
    else:
        backend = resolve_backend(workers=args.workers)

    rows = figure9(
        net_sizes=(3, 5, 7),
        protocols=("jtp", "atp", "tcp"),
        seeds=seeds,
        transfer_bytes=200_000,
        duration=1000.0,
        backend=backend,
    )
    if args.out:
        run_dir = save_run(
            {"figure9": rows},
            args.out,
            metadata={
                "driver": "protocol_shootout",
                "seeds": list(seeds),
                "backend": backend.name,
                "workers": backend.workers,
                "git": git_metadata(),
            },
        )
        print(f"rows persisted to {run_dir} (render with: python -m repro.experiments {run_dir})")
        if args.plots:
            from repro.plots import render_run

            for name, path in render_run(run_dir).items():
                print(f"{name} rendered to {path}")
        print()
    print(format_table(
        rows,
        columns=["netSize", "protocol", "energy_per_bit_uJ", "goodput_kbps"],
        title="Energy per bit and goodput vs. path length (2 competing flows)",
    ))
    print()
    print("Expected shape (paper, Figure 9): JTP spends the least energy per bit and")
    print("sustains the highest goodput; TCP pays for its chatty ACK stream and")
    print("loss-driven congestion control, and the gap widens with path length.")


if __name__ == "__main__":
    main()
