"""CLI tests (parser wiring + one end-to-end run command)."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_present(self):
        parser = build_parser()
        for command in (
            "train", "tables", "fig4", "fig5", "fig6", "fig7", "fig8",
            "fig9", "summary", "run", "report", "all",
        ):
            args = parser.parse_args([command])
            assert args.command == command
            assert callable(args.func)
        # Subcommands with required positionals.
        for argv in (
            ["diff", "a.jsonl", "b.jsonl"],
        ):
            args = parser.parse_args(argv)
            assert args.command == argv[0]
            assert callable(args.func)

    def test_global_options(self):
        parser = build_parser()
        args = parser.parse_args(["--seed", "7", "--scale", "0.2", "fig4"])
        assert args.seed == 7
        assert args.scale == 0.2
        assert not args.oracle

    def test_oracle_flag(self):
        args = build_parser().parse_args(["--oracle", "summary"])
        assert args.oracle

    def test_sweep_options(self):
        args = build_parser().parse_args(
            ["--jobs", "4", "run", "--mix", "Sync-1,Sync-2", "--config",
             "2B2S,4B4S", "--schedulers", "linux,colab", "--sanitize"]
        )
        assert args.jobs == 4
        assert args.mix == "Sync-1,Sync-2"
        assert args.config == "2B2S,4B4S"
        assert args.schedulers == "linux,colab"
        assert args.sanitize

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "--mix", "Rand-5", "--config", "4B2S",
             "--schedulers", "linux,gts", "--json", "/tmp/x.json"]
        )
        assert args.mix == "Rand-5"
        assert args.config == "4B2S"
        assert args.schedulers == "linux,gts"
        assert args.json == "/tmp/x.json"

    def test_trace_options(self):
        parser = build_parser()
        args = parser.parse_args(["report"])
        assert args.out is None and args.jsonl is None and args.metrics is None
        assert not (args.task_tracks or args.profile)
        args = parser.parse_args(
            ["report", "--mix", "Comm-1", "--scheduler", "wash",
             "--out", "/tmp/t.json", "--jsonl", "/tmp/t.jsonl",
             "--metrics", "/tmp/m.json", "--profile", "--task-tracks"]
        )
        assert args.mix == "Comm-1"
        assert args.scheduler == "wash"
        assert args.out == "/tmp/t.json"
        assert args.jsonl == "/tmp/t.jsonl"
        assert args.metrics == "/tmp/m.json"
        assert args.profile and args.task_tracks

    def test_trace_timeseries_flag(self):
        parser = build_parser()
        assert not parser.parse_args(["report"]).timeseries
        assert parser.parse_args(["report", "--timeseries"]).timeseries

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_sanitize_flags(self):
        parser = build_parser()
        assert not parser.parse_args(["run"]).sanitize
        assert parser.parse_args(["run", "--sanitize"]).sanitize
        assert not parser.parse_args(["report"]).sanitize
        assert parser.parse_args(["report", "--sanitize"]).sanitize

    def test_lint_options(self):
        parser = build_parser()
        args = parser.parse_args(["lint"])
        assert args.command == "lint"
        assert args.paths == ["src/repro"]
        assert args.format == "text"
        assert not args.list_rules

        args = parser.parse_args(
            ["lint", "a.py", "b/", "--format", "json", "--list-rules"]
        )
        assert args.paths == ["a.py", "b/"]
        assert args.format == "json"
        assert args.list_rules

    def test_analyze_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["analyze"])
        assert excinfo.value.code == 2
        assert "invalid choice: 'analyze'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["trace"],
            ["sweep"],
            ["-v", "run"],
            ["-vv", "report"],
            ["run", "--profile"],
            ["run", "--profile-top", "3"],
            ["run", "--no-progress"],
        ],
        ids=["trace", "sweep", "-v", "-vv", "run-profile", "profile-top",
             "no-progress"],
    )
    def test_retired_verbs_and_options_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "error:" in capsys.readouterr().err


class TestLintCommand:
    def test_clean_tree_exits_zero(self, tmp_path, capsys):
        clean = tmp_path / "repro" / "sim" / "ok.py"
        clean.parent.mkdir(parents=True)
        clean.write_text("x = 1\n")
        assert main(["lint", str(tmp_path)]) == 0
        assert "no violations" in capsys.readouterr().out

    def test_violations_exit_nonzero(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(tmp_path)]) == 1
        assert "DET001" in capsys.readouterr().out

    def test_json_format(self, tmp_path, capsys):
        bad = tmp_path / "repro" / "sim" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text("import time\nnow = time.time()\n")
        assert main(["lint", str(tmp_path), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is False
        assert payload["violations"][0]["code"] == "DET001"

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in (
            "DET001", "DET002", "KERN001", "ERR001",
        ):
            assert code in out
        assert "OBS001" not in out

    def test_repo_source_is_clean(self, capsys):
        import pathlib

        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        assert main(["lint", str(src)]) == 0

    @staticmethod
    def mixed_tree(tmp_path):
        """A per-file DET001 hit and a whole-program ANA001 hit."""
        sim = tmp_path / "repro" / "sim"
        sim.mkdir(parents=True)
        (sim / "clock.py").write_text("import time\nnow = time.time()\n")
        (sim / "digest.py").write_text(
            "import os\n"
            "def run_digest(result):\n"
            "    return os.environ.get('HOME')\n"
        )
        return tmp_path

    @pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
    def test_one_run_reports_both_families_sorted(self, fmt, tmp_path, capsys):
        tree = self.mixed_tree(tmp_path)
        assert main(["lint", str(tree), "--format", fmt]) == 1
        out = capsys.readouterr().out
        if fmt == "text":
            found = [
                (line.split(":")[0], int(line.split(":")[1]), line.split()[1])
                for line in out.splitlines()
                if line.startswith(str(tree))
            ]
            assert out.rstrip().endswith("2 files checked, 2 violations")
        elif fmt == "json":
            found = [
                (v["path"], v["line"], v["code"])
                for v in json.loads(out)["violations"]
            ]
        else:
            found = [
                (
                    r["locations"][0]["physicalLocation"]["artifactLocation"][
                        "uri"
                    ],
                    r["locations"][0]["physicalLocation"]["region"]["startLine"],
                    r["ruleId"],
                )
                for r in json.loads(out)["runs"][0]["results"]
            ]
        sim = tree / "repro" / "sim"
        assert found == [
            (str(sim / "clock.py"), 2, "DET001"),
            (str(sim / "digest.py"), 3, "ANA001"),
        ]

    @pytest.mark.parametrize(
        "name, message",
        [
            ("repr0", "does not exist"),
            ("README.md", "is neither a directory nor a .py file"),
        ],
        ids=["missing", "not-python"],
    )
    def test_mistyped_path_is_an_error(self, name, message, tmp_path, capsys):
        (tmp_path / "README.md").write_text("# not python\n")
        assert main(["lint", str(tmp_path / name)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("colab-repro: error: lint path ")
        assert message in captured.err
        assert captured.err.count("\n") == 1


class TestAnalyzeCommand:
    """The ANA analyses, run by the one ``repro lint`` verb."""

    def test_parser_options(self):
        parser = build_parser()
        args = parser.parse_args(["lint"])
        assert args.format == "text"
        assert args.sarif is None
        args = parser.parse_args(
            ["lint", "src/repro", "--format", "sarif", "--sarif", "out.sarif"]
        )
        assert args.format == "sarif"
        assert args.sarif == "out.sarif"

    def tainted_tree(self, tmp_path):
        bad = tmp_path / "repro" / "sim" / "digest.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import time\n"
            "def run_digest(result):\n"
            "    return time.time()\n"
        )
        return tmp_path

    def test_findings_exit_nonzero_with_chain(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        assert main(["lint", str(tree)]) == 1
        out = capsys.readouterr().out
        assert "ANA001" in out
        assert "via run_digest" in out

    def test_json_format_shares_lint_schema(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        assert main(["lint", str(tree), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["tool"] == "lint"
        assert payload["schema"] == 1
        assert payload["violations"][0]["code"] == "ANA001"
        assert payload["violations"][0]["suppressed"] is False

    def test_sarif_artifact_written(self, tmp_path, capsys):
        tree = self.tainted_tree(tmp_path)
        artifact = tmp_path / "out.sarif"
        assert main(["lint", str(tree), "--sarif", str(artifact)]) == 1
        document = json.loads(artifact.read_text())
        assert document["version"] == "2.1.0"

    def test_list_rules_includes_ana_family(self, capsys):
        from repro.sanitize.lint import registered_rules

        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        codes = [rule.code for rule in registered_rules()]
        assert codes == [
            "ANA001", "DET001", "DET002", "DET003", "ERR001", "KERN001",
            "PERF001",
        ]
        for code in codes:
            assert code in out

    def test_repo_source_is_clean_modulo_baseline(self, capsys):
        import pathlib

        root = pathlib.Path(__file__).resolve().parents[1]
        assert main(
            ["lint", str(root / "src" / "repro"), "--format", "sarif"]
        ) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["runs"][0]["results"] == []


class TestRunCommand:
    def test_run_point_and_json_export(self, tmp_path, capsys):
        out = tmp_path / "point.json"
        code = main(
            [
                "--scale", "0.05", "--oracle",
                "run", "--mix", "Sync-1", "--config", "2B2S",
                "--schedulers", "linux,colab", "--json", str(out),
            ]
        )
        assert code == 0
        stdout = capsys.readouterr().out
        assert "H_ANTT" in stdout
        assert "fairness" in stdout
        payload = json.loads(out.read_text())
        assert payload["count"] == 2
        schedulers = {p["scheduler"] for p in payload["points"]}
        assert schedulers == {"linux", "colab"}

    def test_cross_product_prints_points_behind_a_progress_line(
        self, monkeypatch, capsys
    ):
        argv = [
            "--scale", "0.04", "--oracle", "--no-cache",
            "run", "--mix", "Sync-1,Sync-2", "--config", "2B2S",
            "--schedulers", "linux,colab",
        ]
        assert main(argv) == 0
        captured = capsys.readouterr()
        # stderr is not a terminal here: no progress line.
        assert captured.err == ""
        lines = captured.out.splitlines()
        assert [line.split()[0] for line in lines] == [
            "Sync-1/2B2S/linux", "Sync-1/2B2S/colab",
            "Sync-2/2B2S/linux", "Sync-2/2B2S/colab",
        ]
        assert all("H_ANTT" in line and "fairness" in line for line in lines)

        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines() == lines
        assert captured.err.startswith("\rsweep 0/4 (0%)")
        assert "sweep 4/4 (100%)" in captured.err
        assert captured.err.endswith("\n")

class TestErrorExit:
    """Bad user input ends in one stderr line and exit code 2."""

    BASE = ["--scale", "0.05", "--oracle", "--no-cache", "--no-ledger"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--mix", "Nope-1"], "unknown mix 'Nope-1'"),
            (["run", "--config", "9B9S"], "unknown config '9B9S'"),
            (["report", "--mix", "Nope-1"], "unknown mix 'Nope-1'"),
            (["run", "--schedulers", "lunix"], "unknown scheduler 'lunix'"),
            (
                ["run", "--mix", "Sync-1,Sync-2", "--schedulers", "lunix"],
                "unknown scheduler 'lunix'",
            ),
            (
                ["--jobs", "2", "run", "--mix", "Sync-1,Sync-2",
                 "--schedulers", "lunix"],
                "unknown scheduler 'lunix'",
            ),
            (["run", "--mix", " , "], "no mixes given in ' , '"),
            (["run", "--config", ""], "no configs given in ''"),
            (["run", "--schedulers", ","], "no schedulers given in ','"),
        ],
        ids=[
            "run-mix", "run-config", "trace-mix", "run-scheduler",
            "sweep-scheduler", "pool-sweep-scheduler", "sweep-no-mixes",
            "sweep-no-configs", "sweep-no-schedulers",
        ],
    )
    def test_experiment_error_is_one_line(self, argv, message, capsys):
        assert main(self.BASE + argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"colab-repro: error: {message}")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("jobs", ["1", "2"], ids=["serial", "pool"])
    def test_failed_sweep_finishes_its_progress_line(
        self, jobs, monkeypatch, capsys
    ):
        argv = ["--jobs", jobs, "run", "--mix", "Sync-1",
                "--config", "2B2S", "--schedulers", "linux,lunix"]
        monkeypatch.setattr(sys.stderr, "isatty", lambda: True)
        assert main(self.BASE + argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("\rsweep 0/2 (0%)")
        progress, error, tail = err.split("\n")
        assert "colab-repro" not in progress
        assert error.startswith(
            "colab-repro: error: unknown scheduler 'lunix'"
        )
        assert tail == ""

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["lint", "--list-rules"], 0),
            (
                ["--scale", "0.05", "--oracle", "--no-cache", "--no-ledger",
                 "report", "--mix", "Sync-2", "--json"],
                1,
            ),
        ],
        ids=["closed-before-output", "closed-after-one-line"],
    )
    def test_closed_stdout_exits_without_traceback(self, argv, lines):
        """``repro ... | head -1`` ends quietly with exit code 1.

        Closing the pipe before any output makes the broken pipe certain.
        After one line it is certain too: the JSON report (over 200 kB)
        outgrows the pipe's buffer, so a write is still pending when the
        reader closes.
        """
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        with subprocess.Popen(
            [sys.executable, "-m", "repro", *argv],
            cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        ) as proc:
            for _ in range(lines):
                assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
            assert proc.wait(timeout=120) == 1
        assert "Traceback" not in err and "BrokenPipeError" not in err, err

    def test_simulation_error_keeps_its_traceback(self, monkeypatch):
        from repro import cli
        from repro.errors import SimulationError

        def broken(args):
            raise SimulationError("invariant broke")

        monkeypatch.setattr(cli, "_cmd_tables", broken)
        with pytest.raises(SimulationError, match="invariant broke"):
            main(["tables"])


class TestSanitizedRunCommand:
    def test_run_with_sanitizer_matches_plain_run(self, tmp_path, capsys):
        """End-to-end --sanitize run: completes and is bit-identical."""
        plain = tmp_path / "plain.json"
        checked = tmp_path / "checked.json"
        base = [
            "--scale", "0.05", "--oracle",
            "run", "--mix", "Sync-1", "--config", "2B2S",
            "--schedulers", "linux,colab",
        ]
        assert main(base + ["--json", str(plain)]) == 0
        assert main(base + ["--sanitize", "--json", str(checked)]) == 0
        capsys.readouterr()
        assert json.loads(plain.read_text()) == json.loads(checked.read_text())


class TestDiffCommand:
    def test_identical_traces_exit_zero(self, tmp_path, capsys):
        trace = tmp_path / "a.jsonl"
        trace.write_text('{"t": 1.0, "kind": "dispatch"}\n')
        assert main(["diff", str(trace), str(trace)]) == 0
        assert "identical" in capsys.readouterr().out

    def test_divergent_traces_exit_nonzero(self, tmp_path, capsys):
        a = tmp_path / "a.jsonl"
        b = tmp_path / "b.jsonl"
        a.write_text('{"t": 1.0, "kind": "dispatch"}\n')
        b.write_text('{"t": 2.0, "kind": "dispatch"}\n')
        assert main(["diff", str(a), str(b)]) == 1
        assert "diverge at record 0" in capsys.readouterr().out


@pytest.fixture(autouse=True)
def _isolated_ledger(tmp_path, monkeypatch):
    """Point the run ledger at a per-test directory, never the real one."""
    monkeypatch.setenv("REPRO_LEDGER_DIR", str(tmp_path / "ledger"))


class TestReportCommand:
    BASE = ["--scale", "0.05", "--oracle", "--no-cache"]
    POINT = ["--mix", "Sync-1", "--config", "2B2S", "--scheduler", "colab"]

    def test_fresh_report_renders_attribution_and_quality(self, capsys):
        code = main(self.BASE + ["report"] + self.POINT)
        assert code == 0
        out = capsys.readouterr().out
        assert "running_big" in out
        assert "decisions linked" in out
        assert "colab_pick" in out

    def test_json_report_states_sum_to_turnaround(self, capsys):
        code = main(self.BASE + ["report"] + self.POINT + ["--json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheduler"] == "colab"
        assert payload["attribution"]["tasks"]
        for row in payload["attribution"]["tasks"]:
            total = sum(row["state_ms"].values())
            assert total == pytest.approx(row["turnaround_ms"], abs=1e-6)
        assert payload["decision_quality"]

    def test_report_by_recorded_ledger_id(self, capsys):
        assert main(self.BASE + ["report"] + self.POINT) == 0
        capsys.readouterr()
        assert main(["ledger", "show", "1"]) == 0
        out = capsys.readouterr().out
        assert "ledger run 1" in out
        assert "running_big" in out

    def test_out_writes_chrome_trace_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        jsonl = tmp_path / "events.jsonl"
        metrics = tmp_path / "metrics.json"
        code = main(
            self.BASE + ["report"] + self.POINT + [
                "--out", str(out), "--jsonl", str(jsonl),
                "--metrics", str(metrics), "--json",
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        # The notes go to stderr; stdout stays one JSON document.
        assert json.loads(captured.out)["scheduler"] == "colab"
        assert "perfetto" in captured.err.lower()
        assert captured.err.count("wrote ") == 3

        document = json.loads(out.read_text())
        assert document["displayTimeUnit"] == "ms"
        phases = {e["ph"] for e in document["traceEvents"]}
        assert {"M", "X"} <= phases  # per-core tracks + duration slices

        lines = jsonl.read_text().splitlines()
        assert lines
        for line in lines:
            json.loads(line)

        snapshot = json.loads(metrics.read_text())
        assert "sched.migrations" in snapshot["counters"]
        assert "core.0.utilization" in snapshot["gauges"]
        assert "rq.mean_depth" in snapshot["gauges"]
        assert "futex.total_wait_ms" in snapshot["gauges"]

    def test_no_out_writes_no_trace(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(self.BASE + ["report"] + self.POINT) == 0
        assert "wrote" not in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "ledger"]

    def test_timeseries_adds_counter_tracks(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            self.BASE + ["report"] + self.POINT
            + ["--out", str(out), "--timeseries"]
        )
        assert code == 0
        assert "timeline" in capsys.readouterr().err
        document = json.loads(out.read_text())
        counters = [
            e for e in document["traceEvents"] if e.get("ph") == "C"
        ]
        assert counters
        assert {e["pid"] for e in counters} == {2}
        assert any(e["name"] == "rq.depth.mean" for e in counters)

    def test_task_tracks_emit_task_state_process(self, tmp_path, capsys):
        out = tmp_path / "trace.json"
        code = main(
            self.BASE + ["report"] + self.POINT
            + ["--out", str(out), "--task-tracks"]
        )
        assert code == 0
        capsys.readouterr()
        document = json.loads(out.read_text())
        task_records = [
            r for r in document["traceEvents"] if r.get("pid") == 1
        ]
        assert any(r["ph"] == "X" for r in task_records)

    def test_profile_prints_a_host_time_table(self, capsys):
        code = main(self.BASE + ["report"] + self.POINT + ["--profile"])
        assert code == 0
        table = capsys.readouterr().out.split("\n\n")[-1]
        header, *rows = table.strip().splitlines()
        assert header.startswith("host-time profile (event loop")
        # The costliest buckets first; a short run may have fewer than 8.
        assert 1 <= len(rows) <= 8
        assert all(r.lstrip().startswith("engine.handle.") for r in rows)
        totals = [float(r.split()[1]) for r in rows]
        assert totals == sorted(totals, reverse=True)

    def test_outputs_are_byte_identical_to_the_recorded_ones(self, tmp_path):
        """The files and JSON report of one traced point, pinned by hash.

        The hashes were recorded from the same point's trace, JSONL,
        metrics snapshot and JSON report before ``report`` took over the
        trace exports.  Each run is a fresh process, as recorded: task ids
        count up across runs within one process.
        """
        files = {
            "trace.json": "8b3dc21cb9c32606c6fac932813a3606"
                          "c353f6510edef002acb680d03fd6b727",
            "events.jsonl": "c89ed70b7f39b5e280d9e12e109cb7067"
                            "e6cf40a8690919a6ed4b3fe9c207487",
            "metrics.json": "4c7e32b54c8e8f4540542edbb6a24450"
                            "93eed28d994255fca5d19ee7b4c54bb2",
        }
        root = pathlib.Path(__file__).resolve().parent.parent
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        command = [sys.executable, "-m", "repro", *self.BASE, "report",
                   *self.POINT]
        subprocess.run(
            command + [
                "--timeseries", "--task-tracks", "--out", "trace.json",
                "--jsonl", "events.jsonl", "--metrics", "metrics.json",
            ],
            cwd=tmp_path, env=env, check=True, capture_output=True,
        )
        for name, digest in files.items():
            data = (tmp_path / name).read_bytes()
            assert hashlib.sha256(data).hexdigest() == digest, name

        report = subprocess.run(
            command + ["--json"], cwd=tmp_path, env=env, check=True,
            capture_output=True,
        ).stdout
        assert hashlib.sha256(report).hexdigest() == (
            "1469e8f36a3c84234095304cfc3c304e"
            "3005f0776b20677bfb00669a189bef0c"
        )


class TestLedgerCommands:
    RUN = [
        "--scale", "0.05", "--oracle", "--no-cache",
        "run", "--mix", "Sync-1", "--config", "2B2S",
        "--schedulers", "colab",
    ]
    TREND = [
        "ledger", "trend", "--mix", "Sync-1", "--config", "2B2S",
        "--scheduler", "colab",
    ]

    def test_runs_record_and_trend_judges(self, capsys):
        for _ in range(3):
            assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["ledger", "list"]) == 0
        assert "sweep-point" in capsys.readouterr().out
        assert main(self.TREND) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "REGRESSED" not in out

    def test_trend_exits_nonzero_on_injected_regression(
        self, tmp_path, capsys
    ):
        from repro.obs.ledger import Ledger

        with Ledger(tmp_path / "ledger" / "ledger.db") as ledger:
            for makespan in (10.0, 10.1, 9.9, 13.5):
                ledger.record_run(
                    mix="Sync-1", config="2B2S", scheduler="colab",
                    metrics={"makespan": makespan},
                )
        assert main(self.TREND) == 1
        assert "REGRESSED" in capsys.readouterr().out

    def test_show_and_compare(self, capsys):
        for _ in range(2):
            assert main(self.RUN) == 0
        capsys.readouterr()
        assert main(["ledger", "show", "1", "--json"]) == 0
        record = json.loads(capsys.readouterr().out)
        assert record["scheduler"] == "colab"
        assert main(["ledger", "compare", "1", "2"]) == 0
        assert "makespan" in capsys.readouterr().out

    @pytest.mark.parametrize("foreign", ["text-file", "directory"])
    def test_foreign_ledger_file_is_one_error_line(
        self, foreign, tmp_path, capsys
    ):
        path = tmp_path / "ledger" / "ledger.db"
        if foreign == "directory":
            path.mkdir(parents=True)
        else:
            path.parent.mkdir()
            path.write_text("not a database\n")
        assert main(["ledger", "list"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"colab-repro: error: ledger {path} ")
        assert "--no-ledger" in err
        assert err.count("\n") == 1
        # A run at the default location degrades to a warning.
        assert main(self.RUN) == 0
        assert "run ledger unavailable" in capsys.readouterr().err

    def test_unavailable_default_ledger_warning_names_the_path(
        self, tmp_path, capsys
    ):
        path = tmp_path / "ledger" / "ledger.db"
        path.parent.mkdir()
        path.write_text("not a database\n")
        assert main(self.RUN) == 0
        err = capsys.readouterr().err
        assert err.startswith(
            f"warning: run ledger unavailable, not recording: ledger {path} "
        )
        assert "--no-ledger" in err

    def test_no_ledger_flag_disables_recording(self, capsys):
        assert main(["--no-ledger"] + self.RUN[:4] + self.RUN[4:]) == 0
        capsys.readouterr()
        assert main(["ledger", "list"]) == 0
        assert "empty" in capsys.readouterr().out
