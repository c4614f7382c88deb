"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main, topology_from_json

EXAMPLE_SPECS = Path(__file__).parents[1] / "examples" / "specs"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_figures_defaults(self):
        args = build_parser().parse_args(["figures", "fig3"])
        assert args.ids == ["fig3"]
        assert args.quality == "quick"

    def test_unknown_quality_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figures", "--quality", "turbo"])

    def test_bench_command_is_gone(self, capsys):
        # benchmarks/e2e/run.py replaced it; argparse rejects it in one
        # line, and the help no longer offers it.
        with pytest.raises(SystemExit) as exit_info:
            main(["bench"])
        assert exit_info.value.code == 2
        last_line = capsys.readouterr().err.splitlines()[-1]
        assert "invalid choice: 'bench'" in last_line
        with pytest.raises(SystemExit):
            main(["--help"])
        assert "bench" not in capsys.readouterr().out


class TestRun:
    def test_run_json_output(self, capsys):
        rc = main([
            "run", "--topology", "series", "--rate", "4000",
            "--scale", "50", "--duration", "2", "--warmup", "1", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scenario"] == "2_series"
        assert payload["offered_cps"] == pytest.approx(4000)
        assert payload["throughput_cps"] > 2500

    def test_run_table_output(self, capsys):
        rc = main([
            "run", "--topology", "single", "--mode", "stateless",
            "--rate", "3000", "--scale", "50",
            "--duration", "2", "--warmup", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "throughput_cps" in out

    def test_run_mix_topology(self, capsys):
        rc = main([
            "run", "--topology", "mix", "--external-fraction", "0.5",
            "--rate", "3000", "--scale", "50",
            "--duration", "2", "--warmup", "1", "--json",
        ])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["throughput_cps"] > 1500

    def test_run_json_carries_every_feature_snapshot(self, capsys):
        # --control used to be the one snapshot --json dropped.
        rc = main([
            "run", "--topology", "series", "--rate", "4000",
            "--scale", "50", "--duration", "2", "--warmup", "1",
            "--json", "--no-cache", "--control", "occupancy",
            "--observe", "cpu",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["control"]["proxies"]["P1"]["policy"] == "occupancy"
        assert payload["obs"]["profiles"]["P1"]["jobs"] > 0
        assert "sharded" not in payload


class TestConfigurationErrors:
    """A run that cannot work as configured: one line, exit 2, run at
    most once (it used to be run twice and end in a wrapped traceback);
    a combination the engine refuses is refused before its job runs."""

    @pytest.mark.parametrize("flags, cause", [
        (["--duration", "0"], "need duration > 0"),
        (["--engine", "sharded", "--shards", "2", "--control", "rate"],
         "does not support overload control"),
    ])
    def test_one_line_cause_exit_2_one_execution(
            self, monkeypatch, capsys, flags, cause):
        from repro.harness import parallel

        executions = []
        job = parallel.JOBS["scenario"]
        monkeypatch.setitem(
            parallel.JOBS, "scenario",
            lambda payload: executions.append(1) or job(payload))
        rc = main(["run", "--topology", "series", "--rate", "2000",
                   "--no-cache", *flags])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro run: error: ") and cause in line
        assert len(executions) == (0 if "--shards" in flags else 1)

    @pytest.mark.parametrize("knob, rule", [
        pytest.param(knob, rule, id=knob) for knob, rule in (
            ("monitor_period", "must be finite and positive"),
            ("reject_queue_delay", "must be >= 0"),
            ("max_queue_delay", "must be >= 0"),
            ("hold_time", "must be >= 0"),
        )
    ])
    def test_nan_time_knob_in_a_spec(self, tmp_path, capsys, knob, rule):
        """A NaN period used to hang the run; a NaN delay ran with
        shedding or the admission bound silently off."""
        spec = (EXAMPLE_SPECS / "b2bua_chain.toml").read_text()
        path = tmp_path / "nan.toml"
        path.write_text(spec.replace("[config]\n", f"[config]\n{knob} = nan\n"))
        rc = main(["run", "--spec", str(path), "--no-cache"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line == f"repro run: error: {knob} {rule}: nan"

    def test_figures_shards_without_sharded_engine(self, capsys):
        rc = main(["figures", "fig4", "--shards", "2", "--quality",
                   "quick", "--no-cache", "-j", "1"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro figures: error: ")
        assert "shards= only applies to engine='sharded'" in line

    @pytest.mark.parametrize("command", [
        ["run"], ["sweep", "--start", "1000", "--stop", "2000"],
    ])
    def test_unreadable_spec_file(self, tmp_path, capsys, command):
        missing = tmp_path / "missing.toml"
        rc = main([*command, "--spec", str(missing), "--no-cache"])
        assert rc == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line == (f"repro {command[0]}: error: cannot read spec file "
                        f"{str(missing)!r}: No such file or directory")


class TestSweep:
    SWEEP = [
        "sweep", "--topology", "series", "--policy", "static",
        "--start", "3000", "--stop", "5000", "--step", "1000",
        "--scale", "50", "--duration", "1.5", "--warmup", "0.5",
    ]

    def test_sweep_prints_saturation(self, capsys):
        rc = main(self.SWEEP)
        assert rc == 0
        out = capsys.readouterr().out
        assert "saturation" in out
        assert "offered_cps" in out
        assert out.count("\n") >= 5  # header + 3 load rows

    def test_parallel_flags_parse(self):
        args = build_parser().parse_args(self.SWEEP + ["-j", "2", "--no-cache"])
        assert args.jobs == 2
        assert args.no_cache is True
        assert build_parser().parse_args(self.SWEEP).jobs is None

    def test_sweep_warm_cache_identical_output(self, tmp_path, capsys):
        argv = self.SWEEP + ["--cache-dir", str(tmp_path)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert main(argv) == 0
        second = capsys.readouterr()
        assert second.out == first.out
        assert "hit_rate=100.0%" in second.err

    def test_sweep_dedupes_repeated_loads(self, tmp_path, capsys):
        # Stop is not on the step grid, so the staircase only has the 3
        # grid points; repeating the run exercises the cache, and a
        # degenerate single-point sweep exercises within-batch dedupe.
        argv = [
            "sweep", "--topology", "series", "--policy", "static",
            "--start", "4000", "--stop", "4000", "--step", "1000",
            "--scale", "50", "--duration", "1.5", "--warmup", "0.5",
            "--cache-dir", str(tmp_path),
        ]
        assert main(argv) == 0
        assert "executed=1" in capsys.readouterr().err
        assert main(argv) == 0
        assert "executed=0" in capsys.readouterr().err


class TestCache:
    def test_stats_empty(self, tmp_path, capsys):
        rc = main(["cache", "stats", "--dir", str(tmp_path / "none")])
        assert rc == 0
        assert "0 entries" in capsys.readouterr().out

    def test_stats_json_and_clear(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(TestSweep.SWEEP + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()

        assert main(["cache", "stats", "--dir", cache_dir, "--json"]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 3
        assert stats["bytes"] > 0

        assert main(["cache", "clear", "--dir", cache_dir]) == 0
        assert "3 entries" in capsys.readouterr().out
        assert main(["cache", "stats", "--dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 0

    def test_clear_stale_keeps_current(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "cache")
        assert main(TestSweep.SWEEP + ["--cache-dir", cache_dir]) == 0
        capsys.readouterr()
        assert main(["cache", "clear", "--dir", cache_dir, "--stale",
                     "--json"]) == 0
        removed = json.loads(capsys.readouterr().out)
        assert removed["removed_entries"] == 0  # current version kept
        assert main(["cache", "stats", "--dir", cache_dir, "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["entries"] == 3


class TestFigures:
    def test_unknown_figure_id(self, capsys):
        rc = main(["figures", "fig99"])
        assert rc == 2
        assert "unknown figure ids" in capsys.readouterr().err

    def test_lp_figure_runs(self, capsys):
        rc = main(["figures", "lp"])
        assert rc == 0
        assert "11,247" in capsys.readouterr().out.replace("11247", "11,247")

    def test_figures_is_experiments_under_another_name(self, tmp_path, capsys):
        # EXPERIMENTS.md documents ``figures <id> --json``; it used to
        # exit "unrecognized arguments".
        out = tmp_path / "res.json"
        assert main(["figures", "lp", "--json", str(out)]) == 0
        assert "lp" in json.loads(out.read_text())["experiments"]
        assert capsys.readouterr().out == ""
        assert main(["figures", "lp"]) == 0
        printed = capsys.readouterr().out
        assert main(["experiments", "lp"]) == 0
        assert capsys.readouterr().out == printed


class TestLp:
    def make_spec(self, tmp_path):
        spec = {
            "nodes": {"S1": [10360, 12300], "S2": [10360, 12300]},
            "edges": [["S1", "S2"]],
            "flows": [{"name": "main", "path": ["S1", "S2"], "share": 1.0}],
        }
        path = tmp_path / "topo.json"
        path.write_text(json.dumps(spec))
        return path

    def test_lp_fixed_routing(self, tmp_path, capsys):
        rc = main(["lp", str(self.make_spec(tmp_path))])
        assert rc == 0
        out = capsys.readouterr().out
        assert "admissible load: 11247" in out.replace("11,247", "11247")
        assert "S1" in out and "S2" in out

    def test_lp_free_routing(self, tmp_path, capsys):
        rc = main(["lp", str(self.make_spec(tmp_path)), "--free-routing"])
        assert rc == 0

    def test_topology_from_json_validates(self):
        with pytest.raises(ValueError, match='"nodes"'):
            topology_from_json({"edges": []})

    @pytest.mark.parametrize("content,expected", [
        (None, "cannot read"),
        ("{}", '"nodes"'),
        ("[1, 2]", '"nodes"'),
        ("not json", "not JSON"),
        (json.dumps({"nodes": {"S1": [10360, 12300]},
                     "edges": [["S1", "S9"]]}), "unknown node 'S9'"),
        (json.dumps({"nodes": {"S1": [10360, 12300]},
                     "flows": [{"name": "f", "path": ["S1"],
                                "prices": [[1.0]]}]}),
         "flow 'f': \"prices\" needs one [penalty, relay] pair"),
    ], ids=["missing", "no-nodes", "not-an-object", "not-json",
            "unknown-node", "bad-prices"])
    def test_lp_bad_input_is_one_line(self, tmp_path, capsys, content,
                                      expected):
        path = tmp_path / "topo.json"
        if content is not None:
            path.write_text(content)
        assert main(["lp", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("repro lp: error: ")
        assert expected in err

    def test_lp_bad_backend_rejected(self, tmp_path):
        # One solver, no flag to pick it: any --backend is a usage error.
        for backend in ("glpk", "simplex"):
            with pytest.raises(SystemExit) as done:
                main(["lp", str(self.make_spec(tmp_path)), "--backend",
                      backend])
            assert done.value.code == 2


class TestTopogen:
    def test_topogen_reports_oracle(self, capsys):
        rc = main([
            "topogen", "--family", "mesh", "--size", "12", "--seed", "3",
            "--heterogeneity", "0.4",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mesh topology: 12 proxies" in out
        assert "LP-optimal admitted load" in out
        assert "lp_utilization" in out

    def test_topogen_json_roundtrips_into_lp(self, tmp_path, capsys):
        """The dumped spec must be loadable by ``repro lp``."""
        path = tmp_path / "gen.json"
        rc = main([
            "topogen", "--family", "chain", "--size", "4", "--json",
            str(path),
        ])
        assert rc == 0
        capsys.readouterr()
        rc = main(["lp", str(path)])
        assert rc == 0
        assert "admissible load" in capsys.readouterr().out

    def test_lp_on_a_dump_solves_the_generated_bound(self, tmp_path, capsys):
        """The dump carries each hop's (penalty, relay) prices, so
        ``repro lp`` on it prints topogen's own LP bound."""
        path = tmp_path / "tree.json"
        assert main(["topogen", "--family", "tree", "--size", "7",
                     "--json", str(path)]) == 0
        generated = capsys.readouterr().out.splitlines()[1]
        assert generated == "LP-optimal admitted load: 11682.9 cps"
        assert main(["lp", str(path)]) == 0
        solved = capsys.readouterr().out.splitlines()[0]
        assert solved == "admissible load: 11682.9 cps"


class TestExperiments:
    def test_experiments_json_export(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        rc = main(["experiments", "lp", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert "lp" in payload["experiments"]

    def test_experiments_markdown_export(self, tmp_path):
        out = tmp_path / "exp.md"
        rc = main(["experiments", "lp", "--markdown", str(out)])
        assert rc == 0
        assert out.read_text().startswith("# Experiments")

    def test_unknown_experiment_id(self, capsys):
        rc = main(["experiments", "lp", "nope"])
        assert rc == 2
        captured = capsys.readouterr()
        assert "unknown experiment ids: ['nope']; choose from" in captured.err
        assert captured.out == ""  # nothing ran, not even the valid id

    def test_experiments_stdout_default(self, capsys):
        rc = main(["experiments", "lp"])
        assert rc == 0
        assert "Section 4.1" in capsys.readouterr().out


class TestTrace:
    def test_trace_prints_ladders(self, capsys):
        rc = main([
            "trace", "--topology", "series", "--rate", "100",
            "--scale", "25", "--calls", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "INVITE" in out
        assert "---" in out

    def test_trace_refuses_to_run_sharded_in_place(self, capsys):
        # It used to run the live scenario in one process and exit 0.
        # The spans it records are observe= instrumentation, which the
        # config refuses before the in-place drive could.
        rc = main([
            "trace", "--topology", "series", "--rate", "100",
            "--scale", "25", "--calls", "1",
            "--engine", "sharded", "--shards", "2",
        ])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        (line,) = captured.err.splitlines()
        assert line.startswith("repro trace: error: ")
        assert "does not support observe=" in line


class TestObserveFlags:
    def test_observe_flag_parses_everywhere(self):
        parser = build_parser()
        for argv in (
            ["run", "--observe", "cpu"],
            ["sweep", "--observe", "all"],
            ["figures", "fig3", "--observe", "cpu,telemetry"],
            ["experiments", "lp", "--observe", "none"],
        ):
            assert parser.parse_args(argv).observe == argv[-1]

    def test_engine_flag_parses_everywhere(self):
        parser = build_parser()
        assert parser.parse_args(
            ["run", "--engine", "reference"]).engine == "reference"
        assert parser.parse_args(["figures", "fig3"]).engine is None
        with pytest.raises(SystemExit):
            parser.parse_args(["run", "--engine", "warp"])

    def test_removed_engine_is_a_one_line_error(self, capsys):
        for removed in ("copy", "hybrid"):
            with pytest.raises(SystemExit) as exit_info:
                main(["run", "--engine", removed])
            assert exit_info.value.code == 2
            err = capsys.readouterr().err
            assert "Traceback" not in err
            assert f"unknown engine {removed!r}" in err.splitlines()[-1]
            assert "'turbo' is their bit-identical replacement" in (
                err.splitlines()[-1]
            )

    def test_run_observe_prints_functionality_table(self, capsys):
        rc = main([
            "run", "--topology", "single", "--rate", "2000",
            "--scale", "50", "--duration", "2", "--warmup", "1",
            "--observe", "cpu",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "functionality" in out
        assert "state-create" in out

    def test_run_observe_json_includes_obs(self, capsys):
        rc = main([
            "run", "--topology", "single", "--rate", "2000",
            "--scale", "50", "--duration", "2", "--warmup", "1",
            "--observe", "cpu", "--json",
        ])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["obs"]["profiles"]["P1"]["jobs"] > 0


class TestObsCommand:
    def test_obs_profile_and_telemetry(self, capsys):
        rc = main([
            "obs", "--topology", "series", "--rate", "3000",
            "--scale", "50", "--duration", "2", "--warmup", "1",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "functionality" in out       # CPU profile table
        assert "control-loop telemetry" in out   # telemetry summary
        assert "P1" in out

    def test_obs_spans_and_exports(self, tmp_path, capsys):
        json_path = tmp_path / "obs.json"
        csv_dir = tmp_path / "csv"
        rc = main([
            "obs", "--topology", "single", "--rate", "200",
            "--scale", "50", "--duration", "2", "--warmup", "0.5",
            "--spans", "--calls", "1",
            "--json", str(json_path), "--csv-dir", str(csv_dir),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "setup" in out and "dwell" in out
        payload = json.loads(json_path.read_text())
        assert {"config", "profiles", "telemetry", "spans"} <= set(payload)
        assert (csv_dir / "profile.csv").exists()

    def test_fig3_breakdown_registered(self):
        args = build_parser().parse_args(["figures", "fig3-breakdown"])
        assert args.ids == ["fig3-breakdown"]
