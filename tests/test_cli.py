"""End-to-end tests for the command-line interface (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import _build_parser, main
from repro.timeseries.io import load_series, save_series
from repro.synth.workloads import unexpected_period_series


@pytest.fixture
def series_file(tmp_path):
    path = tmp_path / "series.txt"
    save_series(unexpected_period_series(period=7, repetitions=80, seed=0), path)
    return path


class TestGenerate:
    def test_writes_series_and_reports(self, tmp_path, capsys):
        output = tmp_path / "generated.txt"
        code = main(
            [
                "generate", str(output),
                "--length", "2000", "--period", "10",
                "--max-pat-length", "3", "--f1-size", "5", "--seed", "1",
            ]
        )
        assert code == 0
        assert output.exists()
        assert len(load_series(output)) == 2000
        printed = capsys.readouterr().out
        assert "planted pattern" in printed
        assert "recommended --min-conf" in printed

    def test_invalid_spec_is_clean_error(self, tmp_path, capsys):
        code = main(
            [
                "generate", str(tmp_path / "x.txt"),
                "--length", "10", "--period", "50",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestMine:
    def test_single_period(self, series_file, capsys):
        code = main(
            ["mine", str(series_file), "--period", "7", "--min-conf", "0.6"]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "period 7:" in printed
        assert "burst" in printed

    def test_maximal_flag(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--min-conf", "0.6", "--maximal",
            ]
        )
        assert code == 0
        assert "maximal frequent" in capsys.readouterr().out

    def test_apriori_algorithm(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--algorithm", "apriori",
            ]
        )
        assert code == 0

    def test_period_range(self, series_file, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period-range", "5", "9", "--min-conf", "0.6",
            ]
        )
        assert code == 0
        assert "scans=2" in capsys.readouterr().out

    def test_requires_exactly_one_period_option(self, series_file, capsys):
        assert main(["mine", str(series_file)]) == 2
        assert (
            main(
                [
                    "mine", str(series_file),
                    "--period", "7", "--period-range", "5", "9",
                ]
            )
            == 2
        )

    @pytest.mark.parametrize(
        "flag, extra",
        [
            ("--store-dir", ["--period", "7"]),
            ("--period-range", []),
            ("--maximal", ["--period", "7"]),
        ],
    )
    def test_apriori_rejects_hitset_only_flags(
        self, series_file, tmp_path, capsys, flag, extra
    ):
        store = tmp_path / "store"
        value = {"--store-dir": [str(store)], "--period-range": ["5", "9"]}
        code = main(
            [
                "mine", str(series_file), "--algorithm", "apriori",
                *extra, flag, *value.get(flag, []),
            ]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert flag in err and "--algorithm apriori" in err
        assert not store.exists()

    def test_missing_file_is_clean_error(self, tmp_path, capsys):
        code = main(["mine", str(tmp_path / "nope.txt"), "--period", "7"])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestSuggest:
    def test_ranks_true_period_first(self, series_file, capsys):
        code = main(
            [
                "suggest", str(series_file),
                "--period-range", "4", "12", "--min-conf", "0.6",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        first_line = [
            line for line in printed.splitlines() if "period=" in line
        ][0]
        assert "period=7" in first_line


class TestRules:
    @pytest.fixture
    def rich_series_file(self, tmp_path):
        # Period 10 carries both planted letters (burst@2, dip@7), so
        # two-letter patterns — and hence rules — exist.
        path = tmp_path / "rich.txt"
        save_series(
            unexpected_period_series(period=10, repetitions=120, seed=1), path
        )
        return path

    def test_prints_rules(self, rich_series_file, capsys):
        code = main(
            [
                "rules", str(rich_series_file),
                "--period", "10", "--min-conf", "0.6",
                "--min-rule-conf", "0.6",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "periodic rules" in printed
        assert "=>" in printed

    def test_about_filter(self, rich_series_file, capsys):
        code = main(
            [
                "rules", str(rich_series_file),
                "--period", "10", "--min-conf", "0.6",
                "--min-rule-conf", "0.5", "--about", "dip",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        body = [line for line in printed.splitlines() if "=>" in line]
        assert body
        assert all("dip" in line.split("=>")[1] for line in body)


class TestCycles:
    def test_reports_cycles(self, tmp_path, capsys):
        from repro.timeseries.feature_series import FeatureSeries

        path = tmp_path / "cyclic.txt"
        save_series(FeatureSeries.from_symbols("abcabcabcabc"), path)
        code = main(["cycles", str(path), "--period-range", "2", "4"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "period=3" in printed
        assert "abc" in printed


class TestHeatmap:
    def test_renders_grid(self, series_file, capsys):
        code = main(["heatmap", str(series_file), "--period", "7"])
        assert code == 0
        printed = capsys.readouterr().out
        assert "burst" in printed
        assert "|" in printed


class TestWindows:
    def test_reports_windows(self, series_file, capsys):
        code = main(
            [
                "windows", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--window-periods", "20",
            ]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "windows of 20 periods" in printed
        assert "window 0:" in printed

    def test_invalid_window_is_clean_error(self, series_file, capsys):
        code = main(
            [
                "windows", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--window-periods", "100000",
            ]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestJsonOutput:
    def test_json_written_and_loadable(self, series_file, tmp_path, capsys):
        out = tmp_path / "result.json"
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--min-conf", "0.6",
                "--json", str(out),
            ]
        )
        assert code == 0
        from repro.core.serialize import load_result

        result = load_result(out)
        assert result.period == 7
        assert len(result) >= 1

    def test_json_with_range_rejected(self, series_file, tmp_path, capsys):
        code = main(
            [
                "mine", str(series_file),
                "--period-range", "5", "9",
                "--json", str(tmp_path / "x.json"),
            ]
        )
        assert code == 2


class TestResilienceFlags:
    def test_resume_roundtrip_reports_resumed_shards(
        self, series_file, tmp_path, capsys
    ):
        # Rerunning an identical mine reuses the first run's work through
        # --cache-dir (the scans are skipped) and prints the same patterns.
        args = [
            "mine", str(series_file),
            "--period", "7", "--min-conf", "0.6",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        first = capsys.readouterr().out
        assert "hits=0" in first

        assert main(args) == 0
        second = capsys.readouterr().out
        assert "hits=0" not in second
        assert "scans=0" in second
        patterns = lambda out: [  # noqa: E731
            line
            for line in out.splitlines()
            if line.startswith("  ") and not line.startswith("  [")
        ]
        assert patterns(first) == patterns(second)

    def test_retry_and_timeout_flags_accepted(self, series_file, capsys):
        # Mining runs in one process: the sharded engine's flags are gone
        # and argparse refuses them; serve's request deadline remains.
        for flag in (
            ["--workers", "2"],
            ["--backend", "thread"],
            ["--resume", "j.jsonl"],
            ["--shard-timeout", "30"],
            ["--max-retries", "3"],
            ["--deadline", "60"],
        ):
            with pytest.raises(SystemExit) as exit_info:
                main(["mine", str(series_file), "--period", "7", *flag])
            assert exit_info.value.code == 2
            assert flag[0] in capsys.readouterr().err
        for flag in ("--workers", "--backend"):
            with pytest.raises(SystemExit):
                _build_parser().parse_args(["serve", flag, "2"])
        parsed = _build_parser().parse_args(
            ["serve", "--request-timeout", "5"]
        )
        assert parsed.request_timeout == 5.0
        # ``ppm stream`` has one retirement path; its selector is gone.
        selector = "--" + "strategy"
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["stream", str(series_file), "--period", "7",
                 "--window", "14", selector, "ring"]
            )
        assert exit_info.value.code == 2
        assert selector in capsys.readouterr().err

    def test_maximal_rejects_resilience_flags(
        self, series_file, tmp_path, capsys
    ):
        code = main(
            [
                "mine", str(series_file),
                "--period", "7", "--maximal",
                "--store-dir", str(tmp_path / "store"),
            ]
        )
        assert code == 2
        assert "maximal" in capsys.readouterr().err

    def test_lenient_flag_quarantines_and_warns(self, tmp_path, capsys):
        path = tmp_path / "series.txt"
        path.write_text("a b\n*\n" + "a b\nb\nc\n" * 40)
        strict = main(["mine", str(path), "--period", "3"])
        assert strict == 1
        assert "series.txt:2" in capsys.readouterr().err

        lenient = main(["mine", str(path), "--period", "3", "--lenient"])
        assert lenient == 0
        captured = capsys.readouterr()
        assert "warning: quarantined" in captured.err
        assert "series.txt:2" in captured.err


class TestStream:
    def test_slot_feed_emits_jsonl_windows(self, tmp_path, capsys):
        import json

        feed = tmp_path / "feed.txt"
        feed.write_text("# comment\n" + "a\nb\n" * 8)
        code = main(
            [
                "stream", str(feed),
                "--period", "2", "--window", "8", "--slide", "4",
                "--min-conf", "0.6",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        windows = [json.loads(line) for line in captured.out.splitlines()]
        assert [w["index"] for w in windows] == [0, 1, 2]
        for window in windows:
            assert window["num_periods"] == 4
            assert window["patterns"], "planted pattern must be frequent"
            for row in window["patterns"]:
                assert set(row) == {"pattern", "count", "confidence"}
        assert windows[0]["changes"] is None
        assert windows[1]["changes"]["stable"]
        assert "stream done: 16 slots in, 3 windows out" in captured.err

    def test_event_feed_reorders_and_reports_late(self, tmp_path, capsys):
        import json

        feed = tmp_path / "events.txt"
        lines = []
        for i in range(16):
            lines.append(f"{i}.5 {'a' if i % 2 == 0 else 'b'}")
        # Swap two in-lateness neighbours and add one hopeless straggler.
        lines[4], lines[5] = lines[5], lines[4]
        lines.append("0.25 z")
        feed.write_text("# time feature\n\n" + "\n".join(lines) + "\n")
        argv = [
            "stream", str(feed), "--events",
            "--period", "2", "--window", "8", "--slide", "8",
            "--slot-width", "1.0", "--lateness", "2.0",
        ]
        code = main(argv)
        assert code == 0
        captured = capsys.readouterr()
        windows = [json.loads(line) for line in captured.out.splitlines()]
        assert [w["index"] for w in windows] == [0, 1]
        assert "warning: quarantined 1 late events" in captured.err
        assert "'z'" in captured.err

        # The checkpointed path reads the same feed the same way: the
        # same window lines and the same late-event warnings.
        out = tmp_path / "durable.jsonl"
        code = main(
            argv + ["--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--checkpoint-every", "5", "--out", str(out)]
        )
        assert code == 0
        durable_err = capsys.readouterr().err
        assert out.read_text() == captured.out
        assert [
            line for line in durable_err.splitlines()
            if line.startswith("warning:")
        ] == [
            line for line in captured.err.splitlines()
            if line.startswith("warning:")
        ]

    def test_bad_timestamp_is_clean_error(self, tmp_path, capsys):
        feed = tmp_path / "events.txt"
        feed.write_text("# time feature\n\n0.5 a\nnot-a-time a\n")
        argv = [
            "stream", str(feed), "--events",
            "--period", "2", "--window", "4",
        ]
        # The in-memory and the checkpointed path read the feed alike.
        for extra in ([], ["--checkpoint-dir", str(tmp_path / "ckpt")]):
            code = main(argv + extra)
            assert code == 1
            err = capsys.readouterr().err
            assert (
                f"error: {feed}:4: event lines start with a timestamp, "
                "got 'not-a-time'"
            ) in err, extra

    def test_missing_feed_is_clean_error(self, tmp_path, capsys):
        code = main(
            ["stream", str(tmp_path / "nope.txt"), "--period", "2",
             "--window", "4"]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "error:" in err
        assert "cannot read feed" in err

    def test_bad_geometry_is_clean_error(self, tmp_path, capsys):
        feed = tmp_path / "feed.txt"
        feed.write_text("a\n" * 10)
        code = main(
            ["stream", str(feed), "--period", "4", "--window", "8",
             "--slide", "3"]
        )
        assert code == 1
        assert "multiple" in capsys.readouterr().err
