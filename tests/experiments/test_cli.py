"""Tests for the command-line interface."""

import socket

import pytest

from repro.cli import build_parser, main


def _run(capsys, *argv):
    code = main(list(argv))
    assert code == 0
    return capsys.readouterr().out


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bogus"])


class TestCommands:
    def test_table1(self, capsys):
        out = _run(capsys, "table1")
        assert "SSF (our work)" in out
        assert "A-B" in out

    def test_motivating(self, capsys):
        out = _run(capsys, "motivating")
        assert "SSF" in out

    def test_stats_dataset(self, capsys):
        out = _run(capsys, "stats", "--dataset", "co-author", "--scale", "0.1")
        assert "avg degree" in out

    def test_stats_file(self, capsys, tmp_path):
        path = tmp_path / "net.tsv"
        path.write_text("a b 1\nb c 2\na c 3\n")
        out = _run(capsys, "stats", "--file", str(path))
        assert "nodes" in out

    def test_stats_requires_source(self):
        with pytest.raises(SystemExit):
            main(["stats"])

    def test_table3_single_dataset(self, capsys):
        out = _run(
            capsys,
            "table3",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--epochs", "5",
            "--max-positives", "30",
            "--methods", "CN", "PA",
        )
        assert "CN" in out and "PA" in out

    def test_ksweep(self, capsys):
        out = _run(
            capsys,
            "ksweep",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--epochs", "5",
            "--max-positives", "30",
            "--method", "SSFLR",
            "--ks", "5", "6",
        )
        assert "K sweep" in out

    def test_patterns(self, capsys):
        out = _run(
            capsys,
            "patterns",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--samples", "20",
            "--k", "6",
        )
        assert "pattern frequency" in out

    def test_crossval(self, capsys):
        out = _run(
            capsys,
            "crossval",
            "--dataset", "co-author",
            "--scale", "0.2",
            "--epochs", "5",
            "--max-positives", "30",
            "--method", "CN",
            "--folds", "2",
        )
        assert "AUC" in out


class TestStreamCommand:
    def test_stream(self, capsys):
        out = _run(
            capsys,
            "stream",
            "--dataset", "co-author",
            "--scale", "0.2",
            "--k", "5",
        )
        assert "prequential" in out and "AUC" in out

    def test_no_scored_window_prints_counts_not_nan(self, capsys):
        out = _run(capsys, "stream", "--dataset", "co-author", "--scale", "0.001")
        assert "nan" not in out
        assert "windows: 0 scored, 9 skipped" in out


class TestReportCommand:
    def test_report_to_stdout(self, capsys):
        out = _run(
            capsys,
            "report",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--epochs", "5",
            "--max-positives", "30",
        )
        assert "# Link-prediction report" in out

    def test_report_to_file(self, capsys, tmp_path):
        path = tmp_path / "report.md"
        out = _run(
            capsys,
            "report",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--epochs", "5",
            "--max-positives", "30",
            "--output", str(path),
        )
        assert "written to" in out
        assert path.read_text().startswith("# Link-prediction report")


class TestRecommendCommand:
    def test_recommend(self, capsys):
        out = _run(
            capsys,
            "recommend",
            "--dataset", "co-author",
            "--scale", "0.15",
            "--user", "5",
            "--top", "3",
            "--k", "5",
        )
        assert "suggestions" in out and "score=" in out

    def test_unknown_user(self):
        with pytest.raises(SystemExit):
            main([
                "recommend",
                "--dataset", "co-author",
                "--scale", "0.15",
                "--user", "definitely-not-a-node",
            ])


class TestBadInput:
    """Bad CLI input exits 2 with one argparse error line, before any work."""

    @pytest.fixture
    def handler_calls(self, monkeypatch):
        import repro.cli as cli

        calls = []
        for command in cli._HANDLERS:
            monkeypatch.setitem(
                cli._HANDLERS, command, lambda args: calls.append(args) or ""
            )
        return calls

    def _assert_usage_error(self, capsys, handler_calls, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len([line for line in err.splitlines() if "error:" in line]) == 1
        assert "Traceback" not in err
        assert handler_calls == []
        return err

    @pytest.mark.parametrize("pairs", ["0", "many"])
    def test_profile_pairs_must_be_a_positive_int(
        self, capsys, handler_calls, pairs
    ):
        err = self._assert_usage_error(
            capsys,
            handler_calls,
            ["profile", "--dataset", "contact", "--pairs", pairs],
        )
        assert "--pairs" in err

    @pytest.mark.parametrize(
        "flag", ["--metrics-out", "--trace-out", "--heartbeat", "--continuous-profile"]
    )
    def test_output_path_in_missing_directory(
        self, capsys, handler_calls, tmp_path, flag
    ):
        target = tmp_path / "missing" / "out.json"
        err = self._assert_usage_error(
            capsys,
            handler_calls,
            ["table3", "--dataset", "contact", flag, str(target)],
        )
        assert flag in err

    @pytest.mark.parametrize(
        "argv", [["bench"], ["serve", "--replay", "--nodes", "50", "--queries", "5"]]
    )
    def test_out_path_in_missing_directory(
        self, capsys, handler_calls, tmp_path, argv
    ):
        target = tmp_path / "missing" / "o.json"
        err = self._assert_usage_error(
            capsys, handler_calls, argv + ["--out", str(target)]
        )
        assert f"--out {target}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["report", "--dataset", "co-author", "--scale", "0.1", "--output"],
            ["report", "--metrics", "m.json", "--json-out"],
        ],
    )
    def test_report_path_in_missing_directory(
        self, capsys, handler_calls, tmp_path, argv
    ):
        target = tmp_path / "missing" / "r.md"
        err = self._assert_usage_error(capsys, handler_calls, argv + [str(target)])
        assert f"{argv[-1]} {target}" in err

    @pytest.mark.parametrize("flag", ["--current", "--compare"])
    @pytest.mark.parametrize("content", [None, '{"bench": '])
    def test_unreadable_bench_json_is_a_usage_error(
        self, capsys, tmp_path, flag, content
    ):
        path = tmp_path / "result.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        with pytest.raises(SystemExit) as exc:
            main(["bench", flag, str(path)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert f"{flag} {path}" in errors[0]
        assert "Traceback" not in err

    def test_valid_output_path_reaches_the_handler(
        self, capsys, handler_calls, tmp_path
    ):
        code = main([
            "profile", "--dataset", "contact",
            "--metrics-out", str(tmp_path / "m.json"),
        ])
        assert code == 0
        assert len(handler_calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--methods", "BOGUS"],
            ["table3", "--methods", "CN", "BOGUS"],
            ["ksweep", "--method", "BOGUS"],
            ["crossval", "--method", "BOGUS"],
        ],
    )
    def test_unknown_method_name(self, capsys, handler_calls, argv):
        err = self._assert_usage_error(
            capsys, handler_calls, argv + ["--dataset", "contact"]
        )
        assert "unknown method 'BOGUS'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3", "--dataset", "contact", "--k", "2"],
            ["ksweep", "--dataset", "contact", "--ks", "5", "2"],
            ["crossval", "--dataset", "contact", "--k", "2"],
            ["report", "--dataset", "contact", "--k", "2"],
            ["patterns", "--dataset", "contact", "--k", "2"],
            ["recommend", "--dataset", "contact", "--user", "1", "--k", "2"],
            ["stream", "--dataset", "contact", "--k", "2"],
            ["profile", "--dataset", "contact", "--k", "2"],
            ["bench", "--k", "2"],
            ["serve", "--replay", "--nodes", "100", "--k", "2"],
        ],
    )
    def test_k_below_three(self, capsys, handler_calls, argv):
        err = self._assert_usage_error(capsys, handler_calls, argv)
        assert "must be >= 3, got 2" in err

    def test_serve_requires_replay(self, capsys, handler_calls):
        err = self._assert_usage_error(
            capsys, handler_calls, ["serve", "--nodes", "100"]
        )
        assert "--replay" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats", "--dataset", "contact", "--scale", "0"],
            ["stats", "--dataset", "contact", "--scale", "1.5"],
            ["stats", "--dataset", "contact", "--scale", "nan"],
            ["profile", "--dataset", "contact", "--scale", "-1"],
            ["table3", "--dataset", "contact", "--scale", "2"],
            ["table2", "--scale", "0"],
        ],
    )
    def test_scale_outside_unit_interval(self, capsys, handler_calls, argv):
        err = self._assert_usage_error(capsys, handler_calls, argv)
        assert "--scale" in err
        assert "(0, 1]" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stats"],
            ["ksweep"],
            ["patterns"],
            ["crossval"],
            ["report"],
            ["recommend", "--user", "1"],
            ["stream"],
            ["profile"],
            ["serve", "--replay"],
        ],
    )
    def test_missing_dataset_and_file(self, capsys, handler_calls, argv):
        err = self._assert_usage_error(capsys, handler_calls, argv)
        assert "--dataset or --file" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table3"],
            ["report", "--metrics", "m.json"],
            ["serve", "--replay", "--nodes", "100"],
            ["stats", "--file", "net.tsv", "--scale", "1"],
        ],
    )
    def test_commands_that_need_no_dataset_reach_the_handler(
        self, handler_calls, argv
    ):
        assert main(argv) == 0
        assert len(handler_calls) == 1

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["table3", "--epochs", "0"], "--epochs"),
            (["table3", "--n-jobs", "0"], "--n-jobs"),
            (["ksweep", "--dataset", "contact", "--epochs", "0"], "--epochs"),
            (["crossval", "--dataset", "contact", "--n-jobs", "0"], "--n-jobs"),
            (["report", "--dataset", "contact", "--n-jobs", "0"], "--n-jobs"),
            (["crossval", "--dataset", "contact", "--folds", "0"], "--folds"),
            (["patterns", "--dataset", "contact", "--samples", "0"], "--samples"),
            (
                ["recommend", "--dataset", "contact", "--user", "1", "--top", "0"],
                "--top",
            ),
            (["stream", "--dataset", "contact", "--refit-every", "0"], "--refit-every"),
            (["stream", "--dataset", "contact", "--warmup", "1.5"], "--warmup"),
            (["stream", "--dataset", "contact", "--warmup", "1"], "--warmup"),
            (["serve", "--replay", "--nodes", "100", "--queries", "0"], "--queries"),
            (
                ["serve", "--replay", "--nodes", "100", "--concurrency", "0"],
                "--concurrency",
            ),
            (["serve", "--replay", "--nodes", "100", "--top", "0"], "--top"),
            (["serve", "--replay", "--nodes", "100", "--hot-users", "0"], "--hot-users"),
            (
                ["serve", "--replay", "--nodes", "100", "--event-fraction", "0"],
                "--event-fraction",
            ),
            (
                ["serve", "--replay", "--nodes", "100", "--event-fraction", "1.5"],
                "--event-fraction",
            ),
            (["serve", "--replay", "--nodes", "0"], "--nodes"),
            (["bench", "--nodes", "0"], "--nodes"),
            (["bench", "--pairs", "0"], "--pairs"),
            (["bench", "--pairs", "-3"], "--pairs"),
            (["bench", "--batch", "--batch-pairs", "0"], "--batch-pairs"),
            (
                ["serve", "--replay", "--nodes", "100", "--events-per-batch", "0"],
                "--events-per-batch",
            ),
            (
                ["serve", "--replay", "--nodes", "100", "--events-per-batch", "-3"],
                "--events-per-batch",
            ),
            (
                ["serve", "--replay", "--nodes", "100", "--max-events", "-1"],
                "--max-events",
            ),
            (["serve", "--replay", "--nodes", "100", "--timeout", "0"], "--timeout"),
            (["serve", "--replay", "--nodes", "100", "--timeout", "-1"], "--timeout"),
            (["serve", "--replay", "--nodes", "100", "--timeout", "nan"], "--timeout"),
            (["serve", "--replay", "--nodes", "100", "--timeout", "inf"], "--timeout"),
            (["bench", "--max-regression", "-0.5"], "--max-regression"),
            (["bench", "--max-regression", "nan"], "--max-regression"),
            (["bench", "--max-regression", "1.5"], "--max-regression"),
            (["bench", "--max-regression", "1"], "--max-regression"),
            (["table3", "--max-positives", "-5"], "--max-positives"),
            (
                ["crossval", "--dataset", "contact", "--max-positives", "-1"],
                "--max-positives",
            ),
            (["table3", "--telemetry-port", "70000"], "--telemetry-port"),
            (["table3", "--telemetry-port", "-5"], "--telemetry-port"),
            (["stats", "--file", "net.tsv", "--span", "0"], "--span"),
            (["stats", "--file", "net.tsv", "--span", "-3"], "--span"),
            (["table3", "--telemetry-linger", "-1"], "--telemetry-linger"),
            (["table3", "--telemetry-linger", "nan"], "--telemetry-linger"),
            (["table3", "--telemetry-linger", "inf"], "--telemetry-linger"),
            (
                ["stream", "--dataset", "contact", "--drift-threshold", "nan"],
                "--drift-threshold",
            ),
            (
                ["stream", "--dataset", "contact", "--drift-threshold", "inf"],
                "--drift-threshold",
            ),
            (
                ["stream", "--dataset", "contact", "--drift-threshold=-inf"],
                "--drift-threshold",
            ),
        ],
    )
    def test_count_or_fraction_out_of_range(
        self, capsys, handler_calls, argv, flag
    ):
        err = self._assert_usage_error(capsys, handler_calls, argv)
        assert flag in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--dataset", "contact", "--warmup", "0", "--refit-every", "1"],
            ["serve", "--replay", "--nodes", "1", "--event-fraction", "0.999"],
            ["table3", "--epochs", "1", "--n-jobs", "1"],
            ["bench", "--pairs", "1", "--batch", "--batch-pairs", "1"],
            [
                "serve", "--replay", "--nodes", "100",
                "--max-events", "0", "--events-per-batch", "1",
            ],
            ["serve", "--replay", "--nodes", "100", "--timeout", "0.5"],
            ["bench", "--max-regression", "0"],
            ["table3", "--max-positives", "0"],
            ["stats", "--file", "net.tsv", "--span", "1"],
            ["table3", "--telemetry-linger", "0"],
            ["stream", "--dataset", "contact", "--drift-threshold", "0"],
            ["stream", "--dataset", "contact", "--drift-threshold", "-1"],
        ],
    )
    def test_in_range_counts_and_fractions_reach_the_handler(
        self, handler_calls, argv
    ):
        assert main(argv) == 0
        assert len(handler_calls) == 1

    def test_resume_into_missing_directory(self, capsys, handler_calls, tmp_path):
        missing = tmp_path / "missing"
        err = self._assert_usage_error(
            capsys,
            handler_calls,
            ["table3", "--dataset", "contact", "--resume", str(missing)],
        )
        assert "--resume" in err
        assert not missing.exists()

    def test_telemetry_port_already_bound(self, capsys, handler_calls):
        from repro import obs

        with socket.socket() as taken:
            taken.bind(("127.0.0.1", 0))
            taken.listen()
            port = taken.getsockname()[1]
            err = self._assert_usage_error(
                capsys,
                handler_calls,
                [
                    "profile", "--dataset", "contact", "--scale", "0.05",
                    "--pairs", "2", "--telemetry-port", str(port),
                ],
            )
        assert f"--telemetry-port {port}: cannot bind" in err
        assert not obs.enabled()

    def test_unknown_recommend_user(self, capsys):
        # the handler has to load the network before it can check the node
        with pytest.raises(SystemExit) as exc:
            main([
                "recommend",
                "--dataset", "co-author",
                "--scale", "0.1",
                "--user", "definitely-not-a-node",
            ])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if "error:" in line] == [
            "repro: error: --user definitely-not-a-node: node not in co-author"
        ]

    @pytest.mark.parametrize(
        "argv, reason",
        [
            (
                ["serve", "--replay", "--nodes", "2"],
                "need at least two distinct timestamps to replay",
            ),
            (
                ["serve", "--replay", "--nodes", "3"],
                "only 1 positive pair(s) at the last timestamp",
            ),
            (
                ["crossval", "--dataset", "co-author", "--scale", "0.02"],
                "no timestamp yields >= 10 positive pairs",
            ),
            (
                ["table3", "--file", "{empty}", "--methods", "CN"],
                "cannot build a task from an empty network",
            ),
            (
                ["recommend", "--file", "{one}", "--user", "a"],
                "need at least two distinct timestamps",
            ),
            (["stream", "--file", "{one}"], "need at least two to stream"),
            (
                ["stream", "--dataset", "co-author", "--scale", "0.2", "--warmup", "0.99"],
                "no timestamp is left to score",
            ),
        ],
    )
    def test_network_too_small_to_split(self, capsys, tmp_path, argv, reason):
        # only the handler, after loading the network, can tell.  {empty}
        # is a file with no links, {one} one with one link at one stamp.
        files = {"{empty}": tmp_path / "empty.tsv", "{one}": tmp_path / "one.tsv"}
        files["{empty}"].write_text("")
        files["{one}"].write_text("a b 1\n")
        argv = [str(files.get(arg, arg)) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1 and reason in errors[0]
        assert "Traceback" not in err

    def test_other_handler_errors_still_raise(self, monkeypatch):
        import repro.cli as cli

        def broken(args):
            raise ValueError("not a usage error")

        monkeypatch.setitem(cli._HANDLERS, "stats", broken)
        with pytest.raises(ValueError, match="not a usage error"):
            main(["stats", "--dataset", "contact"])
