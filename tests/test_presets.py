"""Paper-scale presets and the run_paper driver."""

import pytest
from typing import ClassVar, Dict, Set

from repro.experiments.backends import SerialBackend
from repro.experiments.parallel import spawn_seeds
from repro.experiments.figures import ALL_FIGURES, METRIC_FIGURES, TRACE_FIGURES
from repro.experiments.presets import (
    PAPER_LINEAR,
    PAPER_RANDOM,
    SMOKE_LINEAR,
    SMOKE_RANDOM,
    preset_seeds,
    run_paper,
)
from repro.experiments.results import load_run


class TestPresetSeeds:
    def test_paper_counts_match_the_paper(self):
        # Section 4: twenty runs per linear figure cell, ten per random one.
        assert PAPER_LINEAR == 20
        assert PAPER_RANDOM == 10
        assert len(preset_seeds("paper", family="linear")) == PAPER_LINEAR
        assert len(preset_seeds("paper", family="random")) == PAPER_RANDOM

    def test_paper_seeds_are_the_spawned_seeds(self):
        assert preset_seeds("paper", family="linear") == tuple(spawn_seeds(0, PAPER_LINEAR))
        assert preset_seeds("paper", family="linear", base_seed=7) == tuple(spawn_seeds(7, PAPER_LINEAR))

    def test_smoke_seeds_are_the_historical_bench_seeds(self):
        assert preset_seeds("smoke", family="linear") == (1, 2)
        assert preset_seeds("smoke", family="random") == (1,)
        assert SMOKE_LINEAR == 2
        assert SMOKE_RANDOM == 1

    def test_int_count_expands_deterministically(self):
        assert preset_seeds(4) == tuple(spawn_seeds(0, 4))
        assert len(set(preset_seeds(4))) == 4

    def test_explicit_sequence_passes_through(self):
        assert preset_seeds([5, 6, 7]) == (5, 6, 7)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValueError):
            preset_seeds("full")
        with pytest.raises(ValueError):
            preset_seeds("paper", family="ring")


class TestMetricFigures:
    def test_covers_the_metric_only_figures(self):
        names = [job.name for job in METRIC_FIGURES]
        assert names == [
            "figure3",
            "figure4",
            "figure4b",
            "figure6",
            "figure9",
            "figure10",
            "figure11",
            "table2",
        ]

    def test_every_job_resolves_to_a_figure_function(self):
        for job in METRIC_FIGURES:
            assert job.planner() is job.build
            assert job.build.__name__ == f"{job.name}_plan"
            assert job.family in ("linear", "random")
            assert job.kind == "metric"

    def test_covers_the_trace_figures(self):
        assert [job.name for job in TRACE_FIGURES] == [
            "figure3c",
            "figure5",
            "figure7",
            "figure8",
        ]
        for job in TRACE_FIGURES:
            assert job.build.__name__ in (job.name, f"{job.name}_rows")
            assert job.kind == "trace"

    def test_every_job_has_a_one_line_description(self):
        # --list-figures and the README index both print this field.
        for job in ALL_FIGURES:
            assert job.description, job.name
            assert "\n" not in job.description

    def test_figure_index_mirrors_all_figures(self):
        from repro.experiments.presets import figure_index

        index = figure_index()
        assert [name for name, _, _ in index] == [job.name for job in ALL_FIGURES]
        assert all(kind in ("metric", "trace") for _, kind, _ in index)

    def test_all_figures_is_every_figure_in_paper_order(self):
        assert [job.name for job in ALL_FIGURES] == [
            "figure3",
            "figure3c",
            "figure4",
            "figure4b",
            "figure5",
            "figure6",
            "figure7",
            "figure8",
            "figure9",
            "figure10",
            "figure11",
            "table2",
        ]


class TestRunPaper:
    def test_unknown_figure_rejected(self):
        with pytest.raises(ValueError):
            run_paper(figures=["figure3", "figure99"])
        # A str is a sequence of characters; it must be named as such,
        # not split into one-letter "figure names".
        with pytest.raises(ValueError, match="string 'figure9'"):
            run_paper(figures="figure9", seeds="smoke", workers=0)

    def test_generator_of_names_is_consumed_once(self):
        rows = run_paper(
            figures=(name for name in ["table2"]),
            seeds="smoke",
            workers=0,
            overrides={"table2": {"num_nodes": 6, "duration": 120}},
        )
        assert list(rows) == ["table2"]
        assert rows["table2"]

    def test_duplicate_figures_rejected(self):
        # A duplicate would be simulated twice and silently collapsed
        # into one results entry.
        with pytest.raises(ValueError):
            run_paper(figures=["figure3", "figure3"])

    def test_smoke_subset_runs_through_one_backend(self):
        rows_by_figure = run_paper(
            figures=["table2"],
            seeds="smoke",
            backend=SerialBackend(),
        )
        assert set(rows_by_figure) == {"table2"}
        rows = rows_by_figure["table2"]
        assert [row["protocol"] for row in rows] == ["jtp", "atp", "tcp"]
        for row in rows:
            assert row["goodput_kbps"] > 0

    def test_results_are_backend_independent(self):
        kwargs = {
            "figures": ["figure4b"],
            "seeds": "smoke",
            "overrides": {"figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80}},
        }
        serial = run_paper(backend=SerialBackend(), **kwargs)
        pooled = run_paper(workers=2, **kwargs)
        assert pooled == serial

    def test_workers_and_backend_are_mutually_exclusive(self):
        with pytest.raises(ValueError):
            run_paper(figures=["table2"], backend=SerialBackend(), workers=2)

    def test_batched_submission_matches_per_figure_runs(self):
        # Two metric figures through one run_paper call (one batched
        # run_grids submission) must produce the same rows as running
        # each figure alone — and as the figure's own plan.
        from repro.experiments import figures

        overrides = {
            "figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80},
            "table2": {"num_nodes": 6, "duration": 120},
        }
        kwargs = {"seeds": "smoke", "overrides": overrides}
        combined = run_paper(figures=["figure4b", "table2"], backend=SerialBackend(), **kwargs)
        alone_4b = run_paper(figures=["figure4b"], backend=SerialBackend(), **kwargs)
        alone_t2 = run_paper(figures=["table2"], backend=SerialBackend(), **kwargs)
        assert combined["figure4b"] == alone_4b["figure4b"]
        assert combined["table2"] == alone_t2["table2"]
        direct = figures.figure4b_plan(**overrides["figure4b"]).run(
            preset_seeds("smoke", family="linear"), backend=SerialBackend()
        )
        assert combined["figure4b"] == direct

    def test_out_dir_persists_a_loadable_run(self, tmp_path):
        results = run_paper(
            figures=["table2"],
            seeds="smoke",
            backend=SerialBackend(),
            overrides={"table2": {"num_nodes": 6, "duration": 120}},
            out_dir=tmp_path / "run",
        )
        stored = load_run(tmp_path / "run")
        assert stored.rows == results
        assert stored.manifest["figures"] == ["table2"]
        assert stored.metadata["backend"] == "serial"
        assert stored.metadata["seeds_arg"] == "smoke"
        assert stored.metadata["seeds"]["random"] == [1]
        assert stored.metadata["figure_params"]["table2"]["num_nodes"] == 6


class TestRunPaperClaims:
    #: The verdicts a full smoke run produces, pinned as measured so a
    #: claim that flips fails here.  Smoke scale is too small for some
    #: of the paper's orderings; the figure bench requires every claim
    #: to pass at bench scale instead.
    SMOKE_NOT_PASSING: ClassVar[Dict[str, str]] = {
        # One 10-node random topology, one seed: TCP out-delivers JTP.
        "figure10.jtp_goodput_gt_tcp": "fail",
        # One speed, one 10-node seed: TCP out-delivers JTP and no JTP
        # packet is recovered from a cache.
        "figure11.jtp_goodput_gt_tcp": "fail",
        "figure11.cache_recovers_under_mobility": "fail",
        # Smoke cache sizes are (2, 10): the claims compare sizes 2, 5
        # and 100.
        "figure6.tiny_cache_more_source_rtx": "n/a",
        "figure6.big_cache_le_small": "n/a",
    }

    def test_smoke_run_records_every_claim_verdict(self, tmp_path):
        run_paper(seeds="smoke", workers=0, out_dir=tmp_path)
        expected = {
            job.name: {claim.id: self.SMOKE_NOT_PASSING.get(claim.id, "pass") for claim in job.claims}
            for job in ALL_FIGURES
        }
        assert load_run(tmp_path).metadata["claims"] == expected


class TestRunPaperProgress:
    OVERRIDES: ClassVar[Dict[str, Dict[str, object]]] = {
        "figure4b": {"num_nodes": 3, "transfer_bytes": 4_000, "duration": 80},
        "table2": {"num_nodes": 6, "duration": 120},
        "figure3c": {"num_nodes": 4, "transfer_bytes": 8_000, "duration": 80},
    }

    def run(self, **kwargs):
        events = []
        results = run_paper(
            figures=list(self.OVERRIDES),
            seeds="smoke",
            overrides=self.OVERRIDES,
            progress=lambda name, done, total: events.append((name, done, total)),
            **kwargs,
        )
        return results, events

    def test_every_figure_announces_then_completes(self):
        _, events = self.run(backend=SerialBackend())
        # Metric figures: an announcement (0/total) then one event per
        # cell; figure4b has 2 specs x 2 seeds, table2 3 specs x 1 seed.
        assert events[:2] == [("figure4b", 0, 4), ("table2", 0, 3)]
        for name, total in (("figure4b", 4), ("table2", 3)):
            counts = [done for n, done, _ in events if n == name]
            assert counts == list(range(total + 1))
            assert all(t == total for n, _, t in events if n == name)
        # Trace figures are one in-process job: announced, then done.
        assert [e for e in events if e[0] == "figure3c"] == [("figure3c", 0, 1), ("figure3c", 1, 1)]

    def test_progress_leaves_rows_bit_identical(self):
        noisy, _ = self.run(backend=SerialBackend())
        silent = run_paper(
            figures=list(self.OVERRIDES),
            seeds="smoke",
            overrides=self.OVERRIDES,
            backend=SerialBackend(),
        )
        assert noisy == silent

    def test_progress_streams_from_the_process_pool_too(self):
        results, events = self.run(workers=2)
        serial, serial_events = self.run(backend=SerialBackend())
        assert results == serial
        assert events == serial_events  # submission order, not completion order


class TestRunPaperTraceFigures:
    #: The stable row schema of each serial trace figure's adapter.
    EXPECTED_KEYS: ClassVar[Dict[str, Set[str]]] = {
        "figure3c": {"protocol", "time", "attempts"},
        "figure5": {"variant", "series", "time", "rate_pps"},
        "figure7": {"feedback", "feedback_rate_pps", "energy_mJ", "queue_drops", "acks", "delivered_fraction"},
        "figure8": {"series", "time", "value"},
    }

    def test_trace_figures_run_under_run_paper_with_stable_schemas(self):
        results = run_paper(
            figures=list(self.EXPECTED_KEYS),
            seeds="smoke",
            backend=SerialBackend(),
        )
        assert list(results) == list(self.EXPECTED_KEYS)
        for name, rows in results.items():
            assert rows, f"{name} produced no rows"
            for row in rows:
                assert set(row) == self.EXPECTED_KEYS[name], name

    def test_trace_rows_are_json_scalars(self):
        # The results store persists every figure; trace rows must hold
        # flat scalars only (no tuples, objects or nested containers).
        results = run_paper(figures=["figure3c"], seeds="smoke", backend=SerialBackend())
        for row in results["figure3c"]:
            for value in row.values():
                assert isinstance(value, (int, float, str, type(None)))
