"""Tests for the command-line interface."""

import pytest

from repro.cli import main
from repro.data.generators import tdrive_like
from repro.data.io import save_csv


@pytest.fixture(scope="module")
def built_store(tmp_path_factory):
    """A CSV and a store built from it via the CLI."""
    root = tmp_path_factory.mktemp("cli")
    csv_path = str(root / "data.csv")
    store_path = str(root / "store")
    data = tdrive_like(60, seed=41)
    save_csv(csv_path, data)
    code = main(
        [
            "build",
            "--csv",
            csv_path,
            "--store",
            store_path,
            "--bounds",
            "115.8",
            "39.4",
            "117.2",
            "40.6",
            "--resolution",
            "12",
            "--shards",
            "2",
        ]
    )
    assert code == 0
    return csv_path, store_path, data


class TestBuildAndInfo:
    def test_build_writes_only_segment_region_files(self, built_store):
        import os

        _, store_path, _ = built_store
        regions = [
            name for name in os.listdir(store_path)
            if name.startswith("region-")
        ]
        assert regions
        assert all(name.endswith(".seg") for name in regions)

    def test_compact_command_is_gone(self, built_store, capsys):
        """Saved stores are already compact segments: there is no
        ``compact`` subcommand to rewrite them."""
        _, store_path, _ = built_store
        with pytest.raises(SystemExit) as rejected:
            main(["compact", "--store", store_path, "--freeze"])
        assert rejected.value.code == 2
        assert "invalid choice: 'compact'" in capsys.readouterr().err

    def test_info(self, built_store, capsys):
        _, store_path, data = built_store
        assert main(["info", "--store", store_path]) == 0
        out = capsys.readouterr().out
        assert f"trajectories:     {len(data)}" in out
        assert "max resolution:   12" in out

    def test_build_empty_csv_fails(self, tmp_path, capsys):
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("tid,x,y\n")
        code = main(
            ["build", "--csv", str(csv_path), "--store", str(tmp_path / "s")]
        )
        assert code == 1


class TestQueries:
    def test_threshold_by_tid(self, built_store, capsys):
        _, store_path, data = built_store
        tid = data[0].tid
        code = main(
            [
                "threshold",
                "--store",
                store_path,
                "--query-tid",
                tid,
                "--eps",
                "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert tid in out  # the query always finds itself

    def test_topk_by_tid(self, built_store, capsys):
        _, store_path, data = built_store
        tid = data[1].tid
        code = main(
            ["topk", "--store", store_path, "--query-tid", tid, "--k", "3"]
        )
        assert code == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 3
        assert lines[0].startswith(tid)

    def test_query_by_csv(self, built_store, tmp_path, capsys):
        _, store_path, data = built_store
        query_csv = str(tmp_path / "q.csv")
        save_csv(query_csv, [data[2]])
        code = main(
            [
                "threshold",
                "--store",
                store_path,
                "--query-csv",
                query_csv,
                "--eps",
                "0.005",
            ]
        )
        assert code == 0
        assert data[2].tid in capsys.readouterr().out

    def test_range_query(self, built_store, capsys):
        _, store_path, data = built_store
        code = main(
            [
                "range",
                "--store",
                store_path,
                "--window",
                "115.8",
                "39.4",
                "117.2",
                "40.6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # The window is the whole extent: every trajectory matches.
        assert len(out.splitlines()) == len(data)

    def test_unknown_tid_errors(self, built_store, capsys):
        _, store_path, _ = built_store
        code = main(
            [
                "threshold",
                "--store",
                store_path,
                "--query-tid",
                "ghost",
                "--eps",
                "0.01",
            ]
        )
        assert code == 2
        assert "not found" in capsys.readouterr().err

    def test_missing_query_errors(self, built_store):
        _, store_path, _ = built_store
        assert (
            main(["topk", "--store", store_path, "--k", "3"]) == 2
        )

    def test_measure_via_cli(self, built_store, capsys):
        _, store_path, data = built_store

        def topk(measure):
            return main(
                [
                    "topk",
                    "--store",
                    store_path,
                    "--query-tid",
                    data[0].tid,
                    "--k",
                    "2",
                    "--measure",
                    measure,
                ]
            )

        assert topk("dtw") == 0
        lines = [l for l in capsys.readouterr().out.splitlines() if l]
        assert len(lines) == 2
        assert lines[0].startswith(data[0].tid)
        # Only measures the index prunes are choices: argparse rejects
        # the rest before any query runs.
        with pytest.raises(SystemExit) as rejected:
            topk("edr")
        assert rejected.value.code == 2
        assert "invalid choice: 'edr'" in capsys.readouterr().err


class TestChaosCommand:
    def test_chaos_synthetic_masked_run(self, capsys):
        code = main(
            [
                "chaos",
                "--trajectories",
                "40",
                "--queries",
                "3",
                "--seed",
                "3",
                "--retry-attempts",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "chaos report" in out
        assert "RESILIENT" in out
        assert "3/3 queries identical" in out

    def test_chaos_degraded_run(self, capsys):
        code = main(
            [
                "chaos",
                "--trajectories",
                "40",
                "--queries",
                "3",
                "--seed",
                "3",
                "--degraded",
                "--retry-attempts",
                "2",
                "--max-consecutive",
                "50",
                "--unavailable-prob",
                "0.9",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "degraded mode" in out

    def test_chaos_on_saved_store(self, built_store, capsys):
        _, store_path, _ = built_store
        code = main(
            [
                "chaos",
                "--store",
                store_path,
                "--queries",
                "2",
                "--seed",
                "1",
                "--retry-attempts",
                "6",
            ]
        )
        assert code == 0
        assert "chaos report" in capsys.readouterr().out


class TestExplainAndTrace:
    def test_explain_plan(self, built_store, capsys):
        _, store_path, data = built_store
        code = main(
            [
                "explain",
                "--store",
                store_path,
                "--query-tid",
                data[0].tid,
                "--eps",
                "0.01",
            ]
        )
        assert code == 0
        assert "threshold search" in capsys.readouterr().out

    def test_explain_without_eps_errors(self, built_store, capsys):
        _, store_path, data = built_store
        code = main(
            ["explain", "--store", store_path, "--query-tid", data[0].tid]
        )
        assert code == 2
        assert "requires --eps" in capsys.readouterr().err

    def test_explain_analyze_render(self, built_store, capsys):
        _, store_path, data = built_store
        code = main(
            [
                "explain",
                "--store",
                store_path,
                "--query-tid",
                data[0].tid,
                "--eps",
                "0.01",
                "--analyze",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "EXPLAIN ANALYZE threshold" in out
        assert "local filter funnel" in out
        assert "query.threshold" in out
        assert "scan.range" in out

    def test_explain_analyze_json(self, built_store, capsys):
        import json

        _, store_path, data = built_store
        code = main(
            [
                "explain",
                "--store",
                store_path,
                "--query-tid",
                data[0].tid,
                "--k",
                "3",
                "--analyze",
                "--json",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["kind"] == "topk"
        assert payload["trace"]["name"] == "query.topk"
        assert payload["answers"] == 3

    def test_trace_prints_span_tree(self, built_store, capsys):
        _, store_path, data = built_store
        code = main(
            [
                "trace",
                "--store",
                store_path,
                "--query-tid",
                data[0].tid,
                "--eps",
                "0.01",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "query.threshold" in out
        assert "ms" in out

    def test_trace_requires_exactly_one_parameter(self, built_store, capsys):
        _, store_path, data = built_store
        base = ["trace", "--store", store_path, "--query-tid", data[0].tid]
        assert main(base) == 2
        assert (
            main(base + ["--eps", "0.01", "--k", "3"]) == 2
        )

    def test_stats_reports_resilience(self, built_store, capsys):
        _, store_path, _ = built_store
        code = main(["stats", "--store", store_path, "--probes", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert "resilience:" in out
        assert "breaker" in out
        assert "fault counters" in out

    def test_chaos_reports_breaker_and_faults(self, capsys):
        code = main(
            [
                "chaos",
                "--trajectories",
                "40",
                "--queries",
                "2",
                "--seed",
                "3",
                "--retry-attempts",
                "6",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "breaker state:" in out
        assert "fault counters:" in out
