import contextlib
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from nsfd_epi import cli, stability
from nsfd_epi.cli import RunConfig, main
from nsfd_epi.convergence import ConvergenceSettings, Trajectory, Verdict, VerdictStatus
from nsfd_epi.equilibria import EquilibriumKind, all_equilibria
from nsfd_epi.model import ModelVariant, State, validate_params
from nsfd_epi.verification import Scenario, _draw_strict_block, benchmark_params, load_fixture_scenarios

BENCH = ["--bx", "0.6", "--by", "0.4", "--ux", "0.1", "--uy", "0.2"]


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfig:
    def test_round_trip_identity(self):
        config = RunConfig(model="horizontal", e=0.0, beta=0.3, K=1.2, initial_points=[[0.2, 0.4]], steps=500)
        assert RunConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    def test_flags_override_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta": 0.1, "K": 1.0, "e": 0.02, "format": "json"}))
        code, out, _ = run_cli(["equilibria", "--config", str(cfg), "--beta", "0.3"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["params"]["beta"] == 0.3
        assert doc["params"]["K"] == 1.0

    @pytest.mark.parametrize(
        "data", [{"preset": "paper-initials"}, {"initial_points": [[0.1, 0.2], [0.5, 0.6]]}], ids=["preset", "points"]
    )
    def test_start_flags_replace_the_config_files_starts(self, data, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run_cli(["simulate", "--config", str(cfg), "--x0", "0.3", "--y0", "0.25", "--steps", "2"], capsys)
        assert (code, err) == (0, "")
        assert out.splitlines()[1].endswith(" x0=0.3 y0=0.25")

    def test_preset_flag_with_start_flags_is_config_error(self, tmp_path, capsys):
        out_dir = tmp_path / "portrait"
        code, out, err = run_cli(
            ["portrait", "--preset", "paper-initials", "--x0", "0.3", "--y0", "0.3", "--out", str(out_dir)], capsys
        )
        assert (code, out) == (2, "")
        assert err == "error: --preset and --x0/--y0 both name the starts; give one or the other\n"
        assert not out_dir.exists()

    @pytest.mark.parametrize(
        "flags, written",
        [([], None), (["--preset", "paper-initials"], 5), (["--x0", "0.3", "--y0", "0.3"], 1)],
        ids=["file-alone", "preset-flag", "start-flags"],
    )
    def test_config_file_with_preset_and_points_needs_a_flag_to_choose(self, flags, written, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"preset": "paper-initials", "initial_points": [[0.3, 0.3]]}))
        out_dir = tmp_path / "portrait"
        code, out, err = run_cli(["portrait", "--config", str(cfg), "--steps", "3", *flags, "--out", str(out_dir)], capsys)
        if written is None:
            assert (code, out) == (2, "")
            assert err == (
                f"error: config file {cfg} names the starts twice, by preset and by initial_points; give one or the other\n"
            )
            assert not out_dir.exists()
        else:
            assert (code, err) == (0, "")
            assert out == f"wrote {written} trajectories and index.csv to {out_dir}\n"

    def test_unknown_config_key_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"betta": 0.1}))
        code, _, err = run_cli(["equilibria", "--config", str(cfg)], capsys)
        assert code == 2
        assert "betta" in err

    def test_bad_config_value_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"bx": "zero point six"}))
        code, _, err = run_cli(["equilibria", "--config", str(cfg)], capsys)
        assert code == 2
        assert "bx" in err

    @pytest.mark.parametrize(
        "data",
        [
            {"permissive": "false"},
            {"permissive": 0},
            {"steps": 2.7},
            {"steps": True},
            {"window": "1.5"},
            {"bx": True},
            {"h_list": [False]},
            {"initial_points": [[0.1, 0.2, 0.3]]},
            {"initial_points": [["abc", 0.1]]},
            {"format": "yaml"},
            {"model": 3},
            {"preset": "nowhere"},
            {"out": 3},
        ],
        ids=lambda data: json.dumps(data),
    )
    def test_value_of_the_wrong_kind_is_config_error(self, data, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)  # in case "out" were taken
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps(data))
        code, out, err = run_cli(["equilibria", "--config", str(cfg)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith(f"error: bad config value for {next(iter(data))!r}: ")

    @pytest.mark.parametrize("flag", ["--x0", "--y0"])
    def test_bad_start_flag_is_reported_under_its_flag(self, flag, capsys):
        argv = ["simulate", "--x0", "0.1", "--y0", "0.1"]
        argv[argv.index(flag) + 1] = "abc"
        with pytest.raises(SystemExit) as refused:
            main(argv)
        err = capsys.readouterr().err
        assert refused.value.code == 2
        assert err.splitlines()[-1].endswith(f"error: argument {flag}: invalid number value: 'abc'")

    @pytest.mark.parametrize(
        "argv", [["equilibria", "--h", "0.1"], ["verify", "--h", "0.1"], ["equilibria", "--bet", "0.3"]]
    )
    def test_a_prefix_of_a_flag_is_refused_not_read_as_that_flag(self, argv, capsys):
        # "--h" must not pass for "--help" (help, exit 0, the step size dropped), nor "--bet" for "--beta".
        with pytest.raises(SystemExit) as refused:
            main(argv)
        out, err = capsys.readouterr()
        assert (refused.value.code, out) == (2, "")
        assert err.splitlines()[-1] == f"nsfd-epi: error: unrecognized arguments: {' '.join(argv[1:])}"

    @pytest.mark.parametrize("flag", ["--steps=2.7", "--window=true", "--preset=nowhere", "--tol-eq=inf",
                                      "--tol-step=inf", "--tol-eq=0"])
    def test_flag_of_the_wrong_kind_is_config_error(self, flag, capsys):
        code, out, err = run_cli(["simulate", "--steps=3", flag], capsys)
        assert (code, out) == (2, "")
        assert err.splitlines()[-1].startswith("error: ")

    def test_numeric_strings_in_config_are_coerced(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta": "0.3", "steps": 500.0}))
        code, out, _ = run_cli(["equilibria", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["beta"] == 0.3
        # A whole number may come as a float or a string; every number is read as a float.
        cfg.write_text(json.dumps({"steps": 3.0, "window": "7", "h_list": ["0.5", 2], "initial_points": [[1, "0.25"]]}))
        config = cli._build_config(cli._make_parser().parse_args(["simulate", "--config", str(cfg), "--dt=1e-2"]))
        read = (config.steps, config.window, *config.h_list, *config.initial_points[0], config.dt)
        assert read == (3, 7, 0.5, 2.0, 1.0, 0.25, 0.01)
        assert [type(v) for v in read] == [int, int, float, float, float, float, float]


class TestEquilibriaCommand:
    def test_lists_benchmark_equilibria(self, capsys):
        code, out, _ = run_cli(["equilibria", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["reproduction"]["R0"] == pytest.approx(19 / 12, abs=1e-12)
        by_kind = {eq["kind"]: eq for eq in doc["equilibria"]}
        assert by_kind["disease_free"]["point"][0] == pytest.approx(0.8333, abs=1e-4)
        assert by_kind["interior"]["point"] == [pytest.approx(0.1818, abs=1e-4), pytest.approx(0.4545, abs=1e-4)]
        assert all(c["holds"] for c in by_kind["interior"]["conditions"])

    def test_vertical_has_no_interior_entry(self, capsys):
        code, out, _ = run_cli(
            ["equilibria", "--model", "vertical", *BENCH, "--K", "1.2", "--e", "0", "--beta", "0", "--format", "json"],
            capsys,
        )
        assert code == 0
        kinds = [eq["kind"] for eq in json.loads(out)["equilibria"]]
        assert kinds == ["trivial", "disease_free", "susceptible_free"]

    def test_zero_capacity_is_config_error(self, capsys):
        code, _, err = run_cli(["equilibria", "--K", "0"], capsys)
        assert code == 2
        assert "K > 0" in err


class TestStabilityCommand:
    def test_text_prints_the_interior_note_once(self, capsys):
        code, out, _ = run_cli(["stability", "--beta", "0.3"], capsys)
        assert code == 0
        notes = [line.strip() for line in out.splitlines() if line.lstrip().startswith("note:")]
        assert notes == [
            "note: the negative-trace/positive-determinant argument uses b_x >= b_y + e beyond existence"
        ]
        assert out.index("  interior ") < out.index("note:")

    def test_threshold_switch_visible(self, capsys):
        code, out, _ = run_cli(
            ["stability", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.1", "--h", "0.1", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        entry = [e for e in doc["equilibria"] if e["equilibrium"]["kind"] == "disease_free"][0]
        assert all(r["classification"] == "stable" and r["agree"] for r in entry["reports"])

        code, out, _ = run_cli(
            ["stability", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3", "--h", "0.1", "--format", "json"],
            capsys,
        )
        doc = json.loads(out)
        entry = [e for e in doc["equilibria"] if e["equilibrium"]["kind"] == "disease_free"][0]
        assert all(r["classification"] == "saddle" and r["theorem_prediction"] == "unstable" for r in entry["reports"])

    def test_flow_reads_the_map_det_jc_at_r0_near_1(self, capsys):
        # R0 - 1 is about 1e-11, so a Jc eigenvalue is +-2e-12: the flow reads det Jc's sign, as the map does.
        code, out, _ = run_cli(["stability", "--beta", "0.1600000000024"], capsys)
        assert code == 0
        continuous = [line.split() for line in out.splitlines() if line.lstrip().startswith("continuous")]
        assert [(words[4], words[-1]) for words in continuous] == [
            ("source", "n/a"), ("saddle", "agrees"), ("stable", "agrees"),
        ]

    def test_vertical_susceptible_free_predicted_unstable(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--model", "vertical", *BENCH, "--K", "1.2", "--e", "0", "--beta", "0", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        entry = [e for e in doc["equilibria"] if e["equilibrium"]["kind"] == "susceptible_free"][0]
        assert all(r["theorem_prediction"] == "unstable" and r["agree"] for r in entry["reports"])

    # b_x*u_y/b_y = 0.025 < u_x = 0.1: the susceptible-free point is stable, outside the criterion.
    SIDE_CONDITION_FAILS = [
        "stability", "--model", "vertical", "--e", "0", "--beta", "0", "--bx", "0.05", "--permissive",
    ]

    def test_vertical_susceptible_free_not_covered_when_its_side_condition_fails(self, capsys):
        code, out, _ = run_cli([*self.SIDE_CONDITION_FAILS, "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        entry = [e for e in doc["equilibria"] if e["equilibrium"]["kind"] == "susceptible_free"][0]
        assert [(r["classification"], r["theorem_prediction"], r["agree"]) for r in entry["reports"]] == [
            ("stable", "not_covered", False)
        ] * 2

        code, out, _ = run_cli([*self.SIDE_CONDITION_FAILS, "--format", "csv"], capsys)
        assert code == 0
        rows = [line.split(",") for line in out.splitlines() if line.startswith("susceptible_free,")]
        assert [(row[7], row[8], row[9]) for row in rows] == [("stable", "not_covered", "0")] * 2

        code, out, _ = run_cli(self.SIDE_CONDITION_FAILS, capsys)
        assert code == 0
        block = out.split("susceptible_free")[1].splitlines()[1:]
        assert len(block) == 2
        assert all(line.split()[-4:] == ["stable", "theorem:", "not_covered", "n/a"] for line in block)


class TestSimulateCommand:
    ARGS = [
        "simulate", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3",
        "--scheme", "nsfd", "--h", "0.1", "--x0", "1.2", "--y0", "0.15",
    ]

    def test_csv_shape_and_verdict(self, tmp_path, capsys):
        out_file = tmp_path / "run.csv"
        code, _, _ = run_cli(self.ARGS + ["--out", str(out_file)], capsys)
        assert code == 0
        lines = out_file.read_text().strip().splitlines()
        header_idx = lines.index("n,t,X,Y")
        first = lines[header_idx + 1].split(",")
        assert first[:2] == ["0", "0.0"]
        assert lines[-1].startswith("# verdict=converged")
        assert "equilibrium=interior" in lines[-1]
        final = lines[-2].split(",")
        assert float(final[2]) == pytest.approx(0.1818, abs=1e-3)
        assert float(final[3]) == pytest.approx(0.4545, abs=1e-3)

    def test_byte_identical_reruns(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(self.ARGS + ["--out", str(a)], capsys)[0] == 0
        assert run_cli(self.ARGS + ["--out", str(b)], capsys)[0] == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rk4_without_infected_births_converges_to_the_disease_free_point(self, capsys):
        # The listing now holds the points at b_y = 0, so the monitor has one to match.
        code, out, err = run_cli(["simulate", "--by", "0", "--permissive", "--scheme", "rk4"], capsys)
        assert code == 0 and "error" not in err
        assert out.splitlines()[-1].startswith("# verdict=converged n=12015 equilibrium=disease_free ")

    def test_zero_steps_writes_initial_row_only(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--steps", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        data = [line for line in lines if line and not line.startswith("#")]
        assert data == ["n,t,X,Y", "0,0.0,1.2,0.15"]
        assert lines[-1] == "# verdict=max_steps n=0"

    @pytest.mark.parametrize(
        "flags", [["--h", "-1"], ["--h", "nan"], ["--scheme", "rk4", "--dt", "-1"]], ids=["h-negative", "h-nan", "dt"]
    )
    def test_zero_steps_checks_the_step_size(self, flags, capsys):
        code, out, err = run_cli(["simulate", "--steps", "0", *flags], capsys)
        assert code == 3
        assert out == "" and "must be finite and positive" in err

    @pytest.mark.parametrize("steps", ["0", "5"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("scheme", ["nsfd", "rk4", "euler"])
    def test_start_that_is_not_finite_is_runtime_error(self, scheme, value, steps, capsys):
        argv = ["simulate", f"--scheme={scheme}", f"--x0={value}", "--y0=0.1", f"--steps={steps}"]
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == "" and err == f"error: initial state ({value}, 0.1) is not finite\n"

    def test_euler_demo_records_negative_state(self, capsys):
        code, out, _ = run_cli(
            [
                "simulate", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3",
                "--scheme", "euler", "--dt", "10", "--x0", "0.1", "--y0", "0.9", "--steps", "100",
            ],
            capsys,
        )
        assert code == 0
        lines = out.strip().splitlines()
        row1 = lines[lines.index("n,t,X,Y") + 2].split(",")
        assert float(row1[2]) == pytest.approx(-0.27, abs=1e-12)
        assert lines[-1].startswith("# verdict=diverged")

    def test_json_format(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--format", "json", "--steps", "50"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["n"][0] == 0 and doc["X"][0] == 1.2 and doc["Y"][0] == 0.15
        assert doc["verdict"]["status"] in {"converged", "max_steps"}

    def test_infected_axis_start_is_runtime_error(self, capsys):
        code, _, err = run_cli(
            ["simulate", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3", "--scheme", "nsfd",
             "--x0", "0", "--y0", "0.5"],
            capsys,
        )
        assert code == 3
        assert "undefined" in err

    @pytest.mark.parametrize(
        "x0, y0, verdict",
        [
            ("0", "0.5", "# verdict=converged n=924 equilibrium=susceptible_free X=0.0 Y=0.6"),
            ("1e-320", "0.6", "# verdict=converged n=50 equilibrium=susceptible_free X=0.0 Y=0.6"),
        ],
        ids=["infected-axis", "subnormal-x"],
    )
    def test_general_model_with_e_zero_runs_as_the_horizontal_one(self, x0, y0, verdict, capsys):
        # With e = 0 the general map forms no Y^2/X, so neither start is refused or overflows.
        rows = {}
        for model in ("general", "horizontal"):
            argv = ["simulate", "--model", model, "--e", "0", "--beta", "0.42", "--K", "1.2", "--x0", x0, "--y0", y0]
            code, out, err = run_cli(argv, capsys)
            assert (code, err) == (0, "")
            lines = out.splitlines()
            assert lines[1].startswith(f"# model={model} ")
            rows[model] = lines[2:]
        assert rows["general"] == rows["horizontal"]
        assert rows["general"][-1] == verdict

    def test_huge_dt_is_runtime_error(self, capsys):
        # From the default start (0.1, 0.1), the first RK4 step at dt = 1e308 overflows.
        code, _, err = run_cli(["simulate", "--scheme", "rk4", "--dt", "1e308", "--steps", "2"], capsys)
        assert code == 3
        assert err == "error: rk4 update overflowed at step 1 from (0.1, 0.1)\n"

    @pytest.mark.parametrize("scheme, step", [("rk4", "--dt"), ("nsfd", "--h")])
    def test_huge_step_takes_steps_as_given(self, scheme, step, capsys):
        # --steps is a step count under every scheme, never steps * dt, so 2 steps of 1e308 run.
        argv = ["simulate", f"--scheme={scheme}", "--x0", "0", "--y0", "0", step, "1e308", "--steps", "2"]
        code, out, err = run_cli(argv, capsys)
        assert (code, err) == (0, "")
        lines = out.splitlines()
        assert lines[lines.index("n,t,X,Y") + 1 :] == ["0,0.0,0.0,0.0", "1,1e+308,0.0,0.0", "2,inf,0.0,0.0",
                                                     "# verdict=max_steps n=2"]

    def test_huge_h_writes_infinite_times_without_warning(self, package_env):
        proc = subprocess.run(
            [sys.executable, "-m", "nsfd_epi.cli", "simulate", "--h", "1e308", "--steps", "3"],
            capture_output=True,
            text=True,
            env=package_env,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        rows = lines[lines.index("n,t,X,Y") + 1 : -1]
        assert [row.split(",")[:2] for row in rows] == [["0", "0.0"], ["1", "1e+308"], ["2", "inf"], ["3", "inf"]]

    def test_multiple_points_rejected(self, capsys):
        code, _, err = run_cli(self.ARGS + ["--x0", "0.5", "--y0", "0.5"], capsys)
        assert code == 2
        assert "portrait" in err


class TestPortraitCommand:
    def test_writes_bundle_with_index(self, tmp_path, capsys):
        out_dir = tmp_path / "portrait"
        code, _, _ = run_cli(
            [
                "portrait", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.1",
                "--scheme", "nsfd", "--h", "0.1", "--preset", "paper-initials",
                "--format", "csv", "--out", str(out_dir),
            ],
            capsys,
        )
        assert code == 0
        files = sorted(p.name for p in out_dir.iterdir())
        assert files == ["index.csv"] + [f"trajectory_{i:02d}.csv" for i in range(1, 6)]
        index_rows = out_dir.joinpath("index.csv").read_text().strip().splitlines()[1:]
        assert len(index_rows) == 5
        for row in index_rows:
            fields = row.split(",")
            assert fields[4] == "converged"
            assert float(fields[5]) == pytest.approx(0.8333, abs=1e-3)
            assert float(fields[6]) == pytest.approx(0.0, abs=1e-3)

    def test_single_point_bundle(self, tmp_path, capsys):
        out_dir = tmp_path / "single"
        code, _, _ = run_cli(
            ["portrait", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.1",
             "--scheme", "nsfd", "--h", "0.1", "--x0", "0.7", "--y0", "0.6", "--format", "csv",
             "--out", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["index.csv", "trajectory_01.csv"]

    @pytest.mark.parametrize("scheme", ["nsfd", "rk4", "euler"])
    def test_runs_of_different_lengths_write_what_each_writes_alone(self, scheme, tmp_path, capsys):
        """The runs share the longest run's ``n,t`` cells; each file and index row must still be its own."""
        interior = next(
            eq.point for eq in all_equilibria(RunConfig(beta=0.3).params(), ModelVariant.GENERAL)
            if eq.kind is EquilibriumKind.INTERIOR
        )
        # Diverged at step 0 (one row), converged, and two runs that end at the step budget.
        starts = [(2e6, 0.1), (interior.X, interior.Y), (0.3, 0.3), (0.1, 0.1)]
        base = ["portrait", "--beta", "0.3", "--scheme", scheme, "--steps", "300"]

        def portrait(points, out_dir):
            argv = base + [f"--{axis}0={value!r}" for point in points for axis, value in zip("xy", point)]
            assert run_cli([*argv, "--out", str(out_dir)], capsys)[0] == 0
            return argv

        argv = portrait(starts, tmp_path / "all")
        index = (tmp_path / "all" / "index.csv").read_text().splitlines()
        assert [row.split(",")[4] for row in index[1:]] == ["diverged", "converged", "max_steps", "max_steps"]
        lengths = []
        for i, start in enumerate(starts, start=1):
            alone = tmp_path / f"alone_{i}"
            portrait([start], alone)
            name = f"trajectory_{i:02d}.csv"
            text = (tmp_path / "all" / name).read_text()
            assert text == (alone / "trajectory_01.csv").read_text()
            header, row = (alone / "index.csv").read_text().splitlines()
            assert index[i] == f"{i}," + row.removeprefix("1,").replace("trajectory_01.csv", name)
            lengths.append(text.count("\n") - 4)  # two comments, the header and the verdict
        assert index[0] == header and len(index) == len(starts) + 1
        assert lengths[0] == 1 and 1 < lengths[1] < lengths[2] == lengths[3] == 301

        config = cli._build_config(cli._make_parser().parse_args(argv))
        for s0 in config.points():
            run = cli._simulate_one(config, s0)
            assert run.states.dtype == np.float64 and run.states.flags.c_contiguous
            assert run.states.shape == (len(run.steps), 2)

    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(["portrait", "--preset", "nope", "--out", "unused"], capsys)
        assert code == 2
        assert "preset" in err

    @pytest.mark.parametrize("fmt", [[], ["--format", "csv"], ["--format", "text"]], ids=["default", "csv", "text"])
    def test_stdout_is_config_error_for_csv(self, fmt, tmp_path, monkeypatch, capsys):
        # The --out test comes before the runs: no trajectory is computed.
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(cli, "_simulate_one", lambda *args: pytest.fail("portrait ran before testing --out"))
        for out_args in (["--out", "-"], []):
            code, out, err = run_cli(["portrait", "--steps", "3", *fmt, *out_args], capsys)
            assert code == 2
            assert out == "" and "error: portrait with csv output needs --out" in err
            assert list(tmp_path.iterdir()) == []

    def test_json_to_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, _ = run_cli(["portrait", "--steps", "3", "--format", "json", "--out", "-"], capsys)
        assert code == 0
        assert [t["n"] for t in json.loads(out)["trajectories"]] == [[0, 1, 2, 3]]
        assert list(tmp_path.iterdir()) == []


class TestSweepCommand:
    @pytest.mark.parametrize("beta", ["0.3", "0.1600000000024"])  # the second puts R0 within about 1e-11 of 1
    def test_uniform_across_step_sizes(self, capsys, beta):
        code, out, _ = run_cli(
            ["sweep", *BENCH, "--K", "1", "--e", "0.02", "--beta", beta, "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["all_uniform"]
        assert [e["h"] for e in doc["equilibria"][0]["per_h"]] == [0.01, 0.1, 1.0, 10.0, 50.0]
        for entry in doc["equilibria"]:
            assert entry["uniform"] and entry["matches_continuous"]


class TestVerifyCommand:
    def test_list_names_without_running(self, capsys):
        code, out, _ = run_cli(["verify", "--list"], capsys)
        assert code == 0
        names = out.strip().splitlines()
        assert "converges:general-endemic" in names
        assert "jury-eigenvalue-oracle" in names

    def test_subset_passes(self, capsys):
        code, out, _ = run_cli(["verify", "--only", "converges:vertical"], capsys)
        assert code == 0
        assert "PASS" in out and "FAIL" not in out

    def test_tightened_tolerance_is_the_designed_failure(self, capsys):
        # Expected limits are quoted to 4 decimals, so a 1e-9 match
        # tolerance must fail: the forced-failure demonstration.
        code, out, _ = run_cli(["verify", "--only", "converges:vertical", "--tol-eq", "1e-9"], capsys)
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-3"])
    def test_match_tolerance_must_be_finite_and_positive(self, capsys, tol):
        # "d > nan" is always false, so a NaN (or infinite) tolerance
        # would pass every convergence check vacuously.
        code, out, err = run_cli(["verify", "--only", "converges", f"--tol-eq={tol}"], capsys)
        assert code == 2
        assert out == ""
        assert "--tol-eq must be finite and positive" in err

    def test_unmatched_filter_is_config_error(self, capsys):
        code, _, err = run_cli(["verify", "--only", "no-such-check"], capsys)
        assert code == 2
        assert err == "error: no checks match --only 'no-such-check'\n"

    def test_fixture_scenarios_from_seed_dir(self, tmp_path, monkeypatch, capsys):
        fixture = {
            "name": "fixture-vertical",
            "model": "vertical",
            "params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2},
            "expected_kind": "disease_free",
            "expected_point": [1.0, 0.0],
        }
        (tmp_path / "case.json").write_text(json.dumps(fixture))
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(tmp_path))
        code, out, _ = run_cli(["verify", "--list"], capsys)
        assert code == 0
        assert "converges:fixture-vertical" in out.splitlines()
        code, out, _ = run_cli(["verify", "--only", "fixture-vertical"], capsys)
        assert code == 0
        assert "PASS" in out

    def test_fixture_of_the_wrong_kind_fails(self, tmp_path, monkeypatch, capsys):
        """The runs reach the expected point, the horizontal interior point, but it is not of the expected kind."""
        fixture = {
            "name": "wrong-kind",
            "model": "horizontal",
            "params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2, "beta": 0.3},
            "expected_kind": "susceptible_free",
            "expected_point": [0.0476, 0.5952],
        }
        (tmp_path / "case.json").write_text(json.dumps(fixture))
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(tmp_path))
        code, out, err = run_cli(["verify", "--only", "wrong-kind"], capsys)
        assert (code, err) == (1, "")
        assert out.splitlines() == [
            "FAIL  converges:wrong-kind  continuous run from (0.1, 0.1) converged to the interior point, "
            "not the susceptible_free point",
            "0/1 checks passed",
        ]

    def test_fixture_run_settings_are_read(self, tmp_path):
        fixture = {
            "name": "fixture-horizontal",
            "model": "horizontal",
            "params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2, "beta": 0.3},
            "expected_kind": "interior",
            "expected_point": [0.0476, 0.5952],
            "h": 0.5,
            "dt": 0.02,
            "t_max": 3000,
            "max_steps": 40000,
        }
        (tmp_path / "case.json").write_text(json.dumps(fixture))
        (scenario,) = load_fixture_scenarios(tmp_path)
        assert (scenario.h, scenario.dt, scenario.t_max, scenario.max_steps) == (0.5, 0.02, 3000.0, 40000)
        assert (scenario.params.beta, scenario.params.e) == (0.3, 0.0)

    def test_fixture_that_is_not_an_object_is_config_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.json").write_text("[]")
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(tmp_path))
        code, _, err = run_cli(["verify", "--list"], capsys)
        assert code == 2
        assert err.startswith(f"error: bad scenario fixture {tmp_path / 'bad.json'}: ")

    def test_bad_fixture_is_config_error(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "bad.json").write_text(json.dumps({"name": "x"}))
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(tmp_path))
        code, _, err = run_cli(["verify", "--list"], capsys)
        assert code == 2
        assert "fixture" in err

    @pytest.mark.parametrize(
        "change",
        [
            {"expected_point": [1.0, 0.0, 0.0]},
            {"expected_point": [1.0, float("nan")]},
            {"expected_point": 1.0},
            {"model": "diagonal"},
            {"expected_kind": "chaotic"},
            {"model": "horizontal", "params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2, "e": 0.02}},
            {"params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2, "betta": 0.3}},
            {"max_step": 10},
            {"params": []},
            {"params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2}},
            {"params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": True}},
            {"params": {"bx": 10**400, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2}},
            {"max_steps": 2.7},
            {"expected_point": [True, False]},
        ],
        ids=["three-entry-point", "nan-point", "scalar-point", "model", "kind", "params-misfit", "misspelled-rate",
             "unknown-key", "params-list", "missing-rate", "boolean-rate", "rate-past-float-range", "fractional-budget",
             "boolean-point"],
    )
    @pytest.mark.parametrize("args", [["verify", "--list"], ["verify", "--only", "fixture"]], ids=["list", "run"])
    def test_fixture_is_validated_at_load(self, tmp_path, monkeypatch, capsys, change, args):
        fixture = {
            "name": "fixture-vertical",
            "model": "vertical",
            "params": {"bx": 0.6, "by": 0.4, "ux": 0.1, "uy": 0.2, "K": 1.2},
            "expected_kind": "disease_free",
            "expected_point": [1.0, 0.0],
        }
        (tmp_path / "bad.json").write_text(json.dumps({**fixture, **change}))
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(tmp_path))
        code, _, err = run_cli(args, capsys)
        assert code == 2
        assert f"bad scenario fixture {tmp_path / 'bad.json'}: " in err

    @pytest.mark.parametrize("args", [["verify", "--list"], ["verify", "--only", "fixture"]], ids=["list", "run"])
    def test_seed_dir_that_is_a_file_is_config_error(self, tmp_path, monkeypatch, capsys, args):
        seed = tmp_path / "fixture.json"
        seed.write_text("{}")
        monkeypatch.setenv("NSFD_EPI_SEED_DIR", str(seed))
        assert run_cli(args, capsys) == (2, "", f"error: NSFD_EPI_SEED_DIR={seed} is not a directory\n")


def test_closed_stdout_exits_quietly(package_env):
    # The pipe's read end is closed before each command starts, as by a `| head -1`
    # that has already left, so the first write fails whatever the pipe's capacity.
    # The rows (about 1 MB) fail in the writer; the short text fails at main's flush.
    for args in (["simulate", "--scheme", "rk4", "--beta", "0.3", "--steps", "100000"], ["equilibria"]):
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "nsfd_epi.cli", *args], stdout=write_end, stderr=subprocess.PIPE,
                env=package_env, timeout=60,
            )
        finally:
            os.close(write_end)
        assert (proc.returncode, proc.stderr) == (141, b""), args


def test_console_entry_point_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "nsfd_epi.cli", "equilibria", "--beta", "0.3", "--format", "json"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "general"


# Run in a fresh interpreter: notes which of numpy, orjson and argparse are
# loaded after importing the CLI and after each command, then prints the
# simulate output.  argparse stays out while every command line is plain;
# orjson comes in with the first JSON document.
NUMPY_PROBE = """
import contextlib, io, json, sys
from nsfd_epi.cli import main
lazy = {"numpy", "orjson", "argparse"}
loaded = {"import": sorted(lazy & sys.modules.keys())}
for args in (["equilibria"], ["sweep"], ["verify", "--list"], ["stability", "--format", "json"],
             ["simulate", "--steps", "5"]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(args) == 0
    loaded[args[0]] = sorted(lazy & sys.modules.keys())
print(json.dumps(loaded))
print(out.getvalue(), end="")
"""


def test_commands_without_arrays_start_without_numpy(package_env, capsys):
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE], capture_output=True, text=True, timeout=60, env=package_env
    )
    assert proc.returncode == 0, proc.stderr
    loaded, simulated = proc.stdout.split("\n", 1)
    assert json.loads(loaded) == {
        "import": [], "equilibria": [], "sweep": [], "verify": [],
        "stability": ["orjson"], "simulate": ["numpy", "orjson"],
    }
    assert simulated == run_cli(["simulate", "--steps", "5"], capsys)[1]


class TestOutOfRangeInputs:
    """Inputs whose arithmetic leaves the float range exit 3 with an error line, never a traceback."""

    @pytest.mark.parametrize(
        "args",
        [["stability", "--uy", "2.2e-313", "--permissive", "--h", "2.2e-313"]],
        ids=["jacobian-underflow"],
    )
    def test_domain_error(self, args, capsys):
        # The interior point's Y^2/X bracket overflows, so the weight phi1/(1 + phi1 D1) is 0.
        code, _, err = run_cli(args, capsys)
        assert code == 3
        assert "out of floating-point range" in err.splitlines()[-1]

    @pytest.mark.parametrize(
        "args",
        [
            ["stability", "--bx", "1e300"],
            ["sweep", "--bx", "1.3e154", "--by", "1.3e154", "--ux", "2.9", "--uy", "1.3e154", "--beta", "2.9"],
            ["stability", "--K", "1e300"],
            ["stability", "--beta", "0.3", "--h", "1e-8", "--h", "1e200"],
            ["sweep", "--beta", "0.3", "--h", "1e-9", "--h", "0.1", "--h", "10"],
        ],
        ids=["jacobian-overflow", "sweep-overflow", "capacity-overflow", "tiny-and-huge-h", "sweep-tiny-h"],
    )
    def test_discrete_verdicts_match_the_flow(self, args, capsys):
        # Entries, h or K far from 1 leave the map's verdicts what the flow's are.
        code, out, err = run_cli([*args, "--format", "json"], capsys)
        assert code == 0 and "error" not in err
        doc = json.loads(out)
        listed = doc["equilibria"]
        if args[0] == "stability":
            reported = [eq for eq in listed if eq["reports"]]
            assert len(reported) >= 2
            for eq in reported:
                continuous, *discrete = [rep["classification"] for rep in eq["reports"]]
                assert discrete == [continuous] * len(doc["h_list"]), eq["equilibrium"]["kind"]
        else:
            assert len(listed) >= 2
            for eq in listed:
                assert {h["classification"] for h in eq["per_h"]} == {eq["continuous"]}, eq
                assert eq["uniform"] and eq["matches_continuous"]

    # Each case: its arguments and the points listed as existing.  The
    # interior point's quadratic coefficients leave the float range.
    OVERFLOWING_INTERIOR = {
        "interior-K-overflow": (
            ["--K", "1e300"], [("trivial", 0.0, 0.0), ("disease_free", 8.333333333333334e299, 0.0)]
        ),
        "interior-b_y-underflow": (
            ["--by", "2.2e-313", "--bx", "1", "--ux", "0", "--uy", "1e-313", "--e", "0", "--beta", "0", "--permissive"],
            [("trivial", 0.0, 0.0), ("disease_free", 1.0, 0.0), ("susceptible_free", 0.0, 0.5454545454525039)],
        ),
        # The coefficients are finite: at --bx 1e300 B^2 overflows, in the next case Y* alone does.
        "interior-discriminant-overflow": (["--bx", "1e300"], [("trivial", 0.0, 0.0), ("disease_free", 1.0, 0.0)]),
        "interior-point-overflow": (
            ["--bx", "1.3e154", "--by", "1.3e154", "--ux", "2.9", "--uy", "1.3e154", "--beta", "2.9"],
            [("trivial", 0.0, 0.0), ("disease_free", 1.0, 0.0)],
        ),
    }

    @pytest.mark.parametrize("case", OVERFLOWING_INTERIOR)
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_equilibria_list_the_points_that_exist(self, case, fmt, capsys):
        args, existing = self.OVERFLOWING_INTERIOR[case]
        code, out, err = run_cli(["equilibria", *args, "--format", fmt], capsys)
        assert code == 0 and "error" not in err
        if fmt == "json":
            listed = json.loads(out)["equilibria"]
            assert [(eq["kind"], *eq["point"]) for eq in listed if eq["exists"]] == existing
            assert listed[-1]["kind"] == "interior" and listed[-1]["point"] == [None, None]
            assert listed[-1]["conditions"][-1] == {
                "name": "coefficients in floating-point range", "holds": False, "margin": None,
            }
        elif fmt == "csv":
            rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
            assert [(kind, float(x), float(y)) for kind, x, y, exists, _ in rows if exists == "1"] == existing
            assert rows[-1][:4] == ["interior", "nan", "nan", "0"]
            assert rows[-1][4].endswith("coefficients in floating-point range")
        else:
            assert [line.split()[0] for line in out.splitlines() if line.endswith("  exists")] == [
                kind for kind, _, _ in existing
            ]
            words = " ".join(out.split())
            assert "interior (nan, nan) does not exist" in words
            assert "coefficients in floating-point range FAILS margin +nan" in words

    # u_y = 0 passes --permissive: every point can be computed, R0 cannot.
    UNDEFINED_R0 = {
        "defaults": ([], [("trivial", 0.0, 0.0), ("disease_free", 0.8333333333333333, 0.0)]),
        "e-zero": (
            ["--e", "0"],
            [("trivial", 0.0, 0.0), ("disease_free", 0.8333333333333333, 0.0), ("susceptible_free", 0.0, 1.0)],
        ),
    }

    @pytest.mark.parametrize("case", UNDEFINED_R0)
    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_equilibria_list_the_points_when_r0_is_undefined(self, case, fmt, capsys):
        args, existing = self.UNDEFINED_R0[case]
        code, out, err = run_cli(["equilibria", "--uy", "0", "--permissive", *args, "--format", fmt], capsys)
        assert code == 0 and "error" not in err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["reproduction"] == {"V0": None, "H0": None, "R0": None, "xbar_negative": None}
            assert [(eq["kind"], *eq["point"]) for eq in doc["equilibria"] if eq["exists"]] == existing
        elif fmt == "csv":
            assert "# V0=nan H0=nan R0=nan" in out.splitlines()
            rows = [line.split(",") for line in out.splitlines() if not line.startswith("#")][1:]
            assert [(kind, float(x), float(y)) for kind, x, y, exists, _ in rows if exists == "1"] == existing
        else:
            assert "R0 = nan (V0 = nan, H0 = nan)" in out.splitlines()
            listed = [" ".join(line.split()) for line in out.splitlines() if line.endswith("  exists")]
            assert listed == [f"{kind} ({x:.6g}, {y:.6g}) exists" for kind, x, y in existing]

    @pytest.mark.parametrize("fmt", ["text", "json", "csv"])
    def test_equilibria_list_no_disease_free_point_without_births(self, fmt, capsys):
        # b_x = 0 passes --permissive: K(1 - u_x/b_x) is undefined, so E1 does not exist.
        code, out, err = run_cli(["equilibria", "--bx", "0", "--permissive", "--format", fmt], capsys)
        assert code == 0 and "error" not in err
        if fmt == "json":
            doc = json.loads(out)
            assert doc["reproduction"]["R0"] is None
            assert doc["equilibria"][1] == {
                "kind": "disease_free", "point": [None, 0.0], "exists": False,
                "conditions": [
                    {"name": "b_x > u_x", "holds": False, "margin": -0.1},
                    {"name": "b_x > 0", "holds": False, "margin": 0.0},
                ],
            }
        elif fmt == "csv":
            assert "# V0=nan H0=nan R0=nan" in out.splitlines()
            assert "disease_free,nan,0.0,0,b_x > u_x;b_x > 0" in out.splitlines()
        else:
            assert "R0 = nan (V0 = nan, H0 = nan)" in out.splitlines()
            words = " ".join(out.split())
            assert "disease_free (nan, 0) does not exist b_x > u_x FAILS margin -0.1 b_x > 0 FAILS" in words

    BY_ZERO = {
        "general": ([], ["interior"]),
        "horizontal": (["--model", "horizontal", "--e", "0"], ["susceptible_free", "interior"]),
        "vertical": (["--model", "vertical", "--e", "0", "--beta", "0"], ["susceptible_free"]),
    }

    @pytest.mark.parametrize("case", BY_ZERO)
    def test_equilibria_list_the_points_without_infected_births(self, case, capsys):
        # b_y = 0 passes --permissive: the Y-axis point and the general interior are undefined.
        args, missing = self.BY_ZERO[case]
        code, out, err = run_cli(["equilibria", "--by", "0", "--permissive", *args, "--format", "json"], capsys)
        assert code == 0 and "error" not in err
        listed = json.loads(out)["equilibria"]
        assert [(eq["kind"], eq["exists"]) for eq in listed] == [
            ("trivial", True), ("disease_free", True), *((kind, False) for kind in missing),
        ]
        for eq in listed[2:]:
            if eq["kind"] == "susceptible_free" or case == "general":
                assert eq["point"][1] is None
                assert eq["conditions"][-1] == {"name": "b_y > 0", "holds": False, "margin": 0.0}

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    def test_analysis_without_births_skips_the_disease_free_point(self, command, capsys):
        code, out, err = run_cli([command, "--bx", "0", "--permissive", "--format", "json"], capsys)
        assert code == 0 and "error" not in err
        listed = json.loads(out)["equilibria"]
        if command == "stability":
            assert [(eq["equilibrium"]["kind"], len(eq["reports"])) for eq in listed] == [
                ("trivial", 2), ("disease_free", 0), ("interior", 0),
            ]
        else:
            assert [(eq["kind"], eq["continuous"]) for eq in listed] == [("trivial", "saddle")]

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    def test_overflowing_quadratic_lists_eigenvalues(self, command, capsys):
        # At K = 1e300 the squared trace of the disease-free point's matrix
        # overflows, but its eigenvalues (about 8.33e298 and -0.5) do not.
        code, out, err = run_cli([command, "--K", "1e300", "--format", "json"], capsys)
        assert code == 0 and err == ""
        listed = json.loads(out)["equilibria"]
        if command == "stability":
            e1 = listed[1]
            assert e1["equilibrium"]["kind"] == "disease_free"
            continuous = e1["reports"][0]
            assert continuous["regime"] == "continuous" and continuous["classification"] == "saddle"
            assert continuous["eigenvalues"] == [[pytest.approx(8.3333333333e298), 0.0], [-0.5, 0.0]]
        else:
            assert [(eq["kind"], eq["continuous"]) for eq in listed] == [("trivial", "source"), ("disease_free", "saddle")]

    # The horizontal model's disease-free point: b_y Y/K overflows, so Jc holds -inf.
    NON_FINITE_JC = [
        "--model", "horizontal", "--bx", "7.698882330111818e-24", "--by", "2.973827052366007e+128", "--ux", "0",
        "--uy", "1.6673362787634752e-41", "--K", "2.0892778635522588e+227", "--e", "0",
        "--beta", "1.5896682892121024e-259", "--h", "2759.4635580217646", "--permissive",
    ]

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    def test_a_jacobian_that_is_not_finite_is_refused(self, command, capsys):
        code, out, err = run_cli([command, *self.NON_FINITE_JC], capsys)
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "error: eigenvalues of (-3.3212587670418355e-32, 0.0, -inf, -inf): "
            "the characteristic quadratic is out of floating-point range"
        )

    # The trivial point at h = 7.47e233: the multipliers, about 2.9e-17 and 3.3e457, make a saddle.
    PRINTED_OVERFLOW = [
        "--bx", "0", "--by", "4.3747620421144325e+223", "--ux", "7.0677599900031544e-217", "--uy", "0",
        "--K", "5.89956611837978e+34", "--e", "2.6756405045193972e-14", "--beta", "0",
        "--h", "7.470632174208838e+233", "--permissive", "--format", "json",
    ]

    def test_sweep_reports_the_verdict_where_only_the_printed_multipliers_overflow(self, capsys):
        code, out, err = run_cli(["sweep", *self.PRINTED_OVERFLOW], capsys)
        assert code == 0 and "error" not in err
        (trivial,) = json.loads(out)["equilibria"]
        assert (trivial["kind"], trivial["continuous"], trivial["per_h"][0]["classification"]) == (
            "trivial", "saddle", "saddle",
        )
        code, out, err = run_cli(["stability", *self.PRINTED_OVERFLOW], capsys)
        assert (code, out) == (3, "")
        assert err.splitlines()[-1] == (
            "error: multipliers ((inf+0j), 0j) at h = 7.470632174208838e+233 are out of floating-point range"
        )

    # The trivial point: its multipliers overflow at the first h, and W(h) at the second.
    TWO_REFUSALS = [
        "--model", "vertical", "--bx", "0", "--by", "1.0948745553849556e+184", "--ux", "7.236167913269007e+23",
        "--uy", "1.6218993649656602e-290", "--K", "22292252640436.207", "--e", "0", "--beta", "0",
        "--h", "6.26923643580809e+135", "--h", "3.125030521048249e+299", "--permissive",
    ]

    @pytest.mark.parametrize("command", ["stability", "sweep"])
    def test_each_h_is_refused_in_turn(self, command, capsys):
        """Both commands refuse the second h's weights: ``stability`` classifies every h before it solves a number."""
        code, out, err = run_cli([command, *self.TWO_REFUSALS], capsys)
        assert (code, out, err.splitlines()[-1]) == (
            3,
            "",
            "error: discrete linearization at (0.0, 0.0) with h = 3.125030521048249e+299"
            " is out of floating-point range",
        )

    def test_huge_capacity_simulates_without_limit_matching(self, capsys):
        # Only the interior point is not computable, so the run matches the
        # other equilibria; K * DIVERGENCE_FACTOR is inf, so no finite state diverges.
        code, out, _ = run_cli(["simulate", "--K", "1e300", "--steps", "3"], capsys)
        assert code == 0
        assert out.splitlines()[-1] == "# verdict=max_steps n=3"


class TestUnwritableOut:
    @pytest.mark.parametrize(
        "args",
        [["simulate", "--steps", "3"], ["portrait", "--format", "json", "--steps", "3"], ["equilibria"]],
        ids=["simulate", "portrait-json", "equilibria"],
    )
    def test_directory_is_config_error(self, args, tmp_path, capsys):
        code, _, err = run_cli([*args, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err == f"error: cannot write --out {tmp_path}: Is a directory\n"

    def test_missing_parent_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(["simulate", "--steps", "3", "--out", str(tmp_path / "no" / "run.csv")], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write --out {tmp_path / 'no' / 'run.csv'}: ")

    def test_portrait_directory_that_is_a_file_is_config_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("")
        code, _, err = run_cli(["portrait", "--steps", "3", "--out", str(taken)], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot write --out {taken}: ")

    def test_config_that_is_a_directory_is_config_error(self, tmp_path, capsys):
        code, _, err = run_cli(["equilibria", "--config", str(tmp_path)], capsys)
        assert code == 2
        assert err.startswith(f"error: cannot read config file {tmp_path}: ")


# The trajectory writers as they were when they walked the arrays one
# numpy scalar at a time.  The column-wise writers must give the same bytes.


def ref_trajectory_csv(config, s0, run):
    fmt = cli._fmt
    step_txt = f"h={fmt(config.h)}" if config.scheme == "nsfd" else f"dt={fmt(config.dt)}"
    lines = [
        "# nsfd-epi simulate",
        f"# model={config.model} scheme={config.scheme} {step_txt} steps={config.steps} "
        + " ".join(f"{k}={fmt(v)}" for k, v in cli._params_dict(config).items())
        + f" x0={fmt(s0.X)} y0={fmt(s0.Y)}",
        "n,t,X,Y",
    ]
    for n, t, (x, y) in zip(run.steps, run.times, run.states):
        lines.append(f"{int(n)},{fmt(t)},{fmt(x)},{fmt(y)}")
    lines.append(cli._verdict_comment(run.verdict))
    return "\n".join(lines)


def ref_trajectory_json(config, s0, run):
    return {
        "config": config.to_dict(),
        "initial": [s0.X, s0.Y],
        "n": [int(n) for n in run.steps],
        "t": [float(t) for t in run.times],
        "X": [float(x) for x in run.states[:, 0]],
        "Y": [float(y) for y in run.states[:, 1]],
        "verdict": cli._verdict_dict(run.verdict),
    }


EDGE_FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, math.inf, -math.inf, math.nan]
cells = st.one_of(st.sampled_from(EDGE_FLOATS), st.floats())
VERDICTS = [
    Verdict(VerdictStatus.MAX_STEPS, at_step=3),
    Verdict(VerdictStatus.DIVERGED, at_step=0),
    Verdict(VerdictStatus.CONVERGED, kind=EquilibriumKind.INTERIOR, point=State(0.25, -0.0), at_step=2**62),
]


# 0, the ends of the range that orjson writes in repr's notation, and values past them; then each
# decade whose exponent repr pads (1e-06 to 1e-09) and the first it does not, at both ends and negated.
NOTATION_FLOATS = [
    1e-4, math.nextafter(1e-4, 0), 1e-5, math.nextafter(1e16, 0), 1e16, 5e-324, -5e-324, 0.0, -0.0,
    math.nan, math.inf, -math.inf, sys.float_info.max, -sys.float_info.max,
] + [
    sign * x
    for end in (1e-6, 1e-7, 1e-8, 1e-9, 1e-10)
    for x in (end, math.nextafter(end, 0), math.nextafter(end, 1))
    for sign in (1.0, -1.0)
]


def recorded_case(values, verdict=VERDICTS[0]):
    """A ``trajectories()`` case that records every step, one per value: t is the value, (X, Y) two of its neighbours."""
    times = np.array(values, dtype=np.float64)
    states = np.column_stack([np.roll(times, 1), np.roll(times, -3)])
    run = Trajectory(np.arange(len(times), dtype=np.int64), times, states, verdict)
    return RunConfig(), State(values[0], values[-1]), run, cli._heads(run)


@st.composite
def trajectories(draw):
    """A run that records some of the steps 0..last, with the ``n,t`` cells of every step, as portrait shares them."""
    steps = sorted(draw(st.sets(st.integers(0, 40), min_size=1, max_size=12)))
    times = np.array(draw(st.lists(cells, min_size=steps[-1] + 1, max_size=steps[-1] + 1)), dtype=np.float64)
    states = draw(st.lists(st.tuples(cells, cells), min_size=len(steps), max_size=len(steps)))
    verdict = draw(st.sampled_from(VERDICTS))
    every = Trajectory(np.arange(steps[-1] + 1, dtype=np.int64), times, np.zeros((steps[-1] + 1, 2)), verdict)
    run = Trajectory(np.array(steps, dtype=np.int64), times[steps], np.array(states, dtype=np.float64), verdict)
    config = RunConfig(scheme=draw(st.sampled_from(["nsfd", "rk4"])), h=draw(cells), dt=draw(cells))
    return config, State(draw(cells), draw(cells)), run, cli._heads(every)


@settings(max_examples=300, deadline=None)
@given(case=trajectories())
@example(case=recorded_case(NOTATION_FLOATS))
@example(case=recorded_case(NOTATION_FLOATS[::-1], VERDICTS[2]))
def test_trajectory_writers_match_the_scalar_loops(case):
    config, s0, run, heads = case
    assert cli._heads(run) == [f"{int(n)},{cli._fmt(t)}" for n, t in zip(run.steps, run.times)]
    assert cli._trajectory_csv(config, s0, run, heads) == ref_trajectory_csv(config, s0, run)
    new, ref = cli._trajectory_json(config, s0, run), ref_trajectory_json(config, s0, run)
    assert json.dumps(new, indent=2) == json.dumps(ref, indent=2)


def test_csv_rows_match_repr_across_blocks():
    """Over 2 * ROW_BLOCK + 1 rows, each row is its step number and ``",".join(map(repr, row))`` of its t, X, Y."""
    rng = np.random.default_rng(5)
    n = 2 * cli.ROW_BLOCK + 1
    cells = np.ldexp(rng.random((n, 3)), rng.integers(-20, 60, (n, 3))) * rng.choice([-1.0, 1.0], (n, 3))
    cells.flat[::7] = np.resize(NOTATION_FLOATS, cells.flat[::7].shape)
    cells[-1] = NOTATION_FLOATS[:3]
    run = Trajectory(np.arange(n, dtype=np.int64), cells[:, 0].copy(), cells[:, 1:].copy(), VERDICTS[0])
    lines = cli._trajectory_csv(RunConfig(), State(0.1, 0.1), run, cli._heads(run)).split("\n")
    assert lines[3:-1] == [f"{i}," + ",".join(map(repr, row)) for i, row in enumerate(cells.tolist())]


def test_float_cells_match_repr():
    """Seeded: ``_float_cells`` writes what ``repr`` writes, over random bit patterns and decimal exponents.

    The mantissas at decimal exponents -12 to 20 run once shuffled and
    once in order of magnitude, so that some blocks hold cells of every
    decade and others of one decade alone, ending in it or starting in it.
    """
    rng = np.random.default_rng(22)
    bits = rng.integers(0, 2**64, 40_000, dtype=np.uint64).view(np.float64)
    decimal = rng.uniform(1.0, 10.0, 30_000) * 10.0 ** rng.integers(-12, 21, 30_000) * rng.choice([-1.0, 1.0], 30_000)
    values = np.concatenate([bits, decimal, decimal[np.argsort(np.abs(decimal))], NOTATION_FLOATS])
    assert list(cli._float_cells(values)) == list(map(repr, values.tolist()))


@pytest.mark.parametrize(
    "flags",
    [
        [],
        ["--beta=0.3", "--x0=1.2", "--y0=0.15"],
        ["--scheme=rk4", "--steps=40"],
        ["--scheme=euler", "--dt=10", "--x0=0.1", "--y0=0.9", "--beta=0.3", "--steps=100"],
        ["--h=1e308", "--steps=3"],
    ],
    ids=["default", "converges", "rk4", "euler-diverges", "infinite-times"],
)
def test_simulate_json_matches_the_scalar_builder(flags, capsys):
    argv = ["simulate", "--format=json", *flags]
    code, out, _ = run_cli(argv, capsys)
    assert code == 0
    config = cli._build_config(cli._make_parser().parse_args(argv))
    s0 = config.points()[0]
    assert out == json.dumps(ref_trajectory_json(config, s0, cli._simulate_one(config, s0)), indent=2) + "\n"


# The JSON writer against json.dumps(indent=2), the oracle it replaces.


class IntSub(int):
    pass


class StrSub(str):
    pass


JSON_STRINGS = st.one_of(st.text(), st.sampled_from(['"', "\\", "\x00\x1f\n\t", "é", "\u2028", "\ud800", "😀", ""]))
JSON_INTS = st.integers(-(2**70), 2**70)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    JSON_INTS,
    cells,
    JSON_STRINGS,
    cells.map(np.float64),
    JSON_INTS.map(IntSub),
    JSON_STRINGS.map(StrSub),
)
JSON_DOCS = st.recursive(
    JSON_LEAVES,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(st.one_of(JSON_STRINGS, JSON_INTS, cells, st.booleans(), st.none()), children, max_size=4),
    ),
    max_leaves=40,
)


def nested(depth):
    doc = []
    for _ in range(depth):
        doc = [doc]
    return doc


# The examples below are each case where orjson's bytes differ from json's or orjson refuses the document:
# non-finite floats (alone, and beside a None, which orjson also writes as null); floats that orjson writes
# with an exponent or in fixed notation below 1e-4 (5.6095191361280416e-05 is a rate of the benchmark's
# analysis traffic; 1e40 defeats an exponent test that matches only e1 to e3); characters json escapes; ints
# past 64 bits; numpy scalars; non-string keys; nesting past orjson's limit.  -0.0, the subclasses and the
# tuples are cases where the two modules agree.
@settings(max_examples=300, deadline=None)
@given(doc=JSON_DOCS)
@example(doc={"é\"\\\x00": [-0.0, math.nan, [], {}, ()], "": {"x": [[{}]], "y": " 😀"}})
@example(doc=math.nan)
@example(doc=math.inf)
@example(doc=-math.inf)
@example(doc=[None, math.nan])
@example(doc={"h": None, "x": [1.0, math.inf]})
@example(doc=[None, -math.inf, None])
@example(doc=1e-5)
@example(doc={"e": 5.6095191361280416e-05})
@example(doc=[9.99e-05])
@example(doc=1e16)
@example(doc=[1e40])
@example(doc=5e-324)
@example(doc=-0.0)
@example(doc="é")
@example(doc=["\u2028"])
@example(doc={"x": "\ud800"})
@example(doc="\x7f")
@example(doc=2**64)
@example(doc=[IntSub(3), {StrSub("k"): StrSub("v")}])
@example(doc={"x": np.float64(0.1)})
@example(doc=(1, (2.5, "a"), []))
@example(doc=nested(300))
@example(doc={1: 2, 2.5: [None], True: {}, None: "n", math.nan: 0})
def test_json_writer_matches_json_dumps(doc):
    assert cli._json_text(doc) == json.dumps(doc, indent=2)


def test_json_writer_refuses_what_json_refuses():
    for doc in ({"x": {1, 2}}, [np.int64(1)], {"x": object()}):
        with pytest.raises(TypeError):
            json.dumps(doc, indent=2)
        with pytest.raises(TypeError):
            cli._json_text(doc)


class JsonDumpsCalled(Exception):
    pass


def refuse_json_dumps(*args, **kwargs):
    raise JsonDumpsCalled


# The documents of the benchmark's analysis traffic are written by orjson alone, stability's with its
# continuous report's "h": null among them; a rate in [1e-5, 1e-4) sends a document to json.
@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", "--beta", "0.3"],
        ["stability", "--beta", "0.3", "--h", "0.1", "--h", "10"],
        ["stability"],
        ["sweep", "--beta", "0.3"],
    ],
    ids=" ".join,
)
def test_json_commands_skip_json_dumps(argv, capsys, monkeypatch):
    argv = [*argv, "--format", "json"]
    written = run_cli(argv, capsys)
    monkeypatch.setattr(cli.json, "dumps", refuse_json_dumps)
    assert run_cli(argv, capsys) == written
    with pytest.raises(JsonDumpsCalled):
        main([*argv, "--e", "5.6095191361280416e-05"])


@pytest.mark.parametrize(
    "argv",
    [
        ["equilibria", "--beta", "0.3"],
        ["equilibria", "--model", "vertical", "--K", "1.2", "--e", "0", "--beta", "0"],
        ["equilibria", "--bx", "1e300", "--permissive"],  # a NaN point and NaN margins print null
        ["stability", "--beta", "0.3", "--h", "0.1", "--h", "10"],
        ["stability", "--model", "horizontal", "--K", "1.2", "--e", "0", "--h", "1e-8", "--h", "1", "--h", "1e200"],
        ["sweep", "--beta", "0.3"],
        ["sweep", "--model", "vertical", "--K", "1.2", "--e", "0", "--beta", "0", "--h", "0.5", "--h", "50"],
        ["simulate", "--beta", "0.3", "--steps", "20"],
        ["simulate", "--h", "1e308", "--steps", "3"],  # the times after the start are infinite
        ["portrait", "--steps", "3", "--x0", "0.1", "--y0", "0.2", "--x0", "1.5", "--y0", "0.5"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_every_json_command_prints_indent_2_json(argv, capsys):
    code, out, _ = run_cli([*argv, "--format", "json"], capsys)
    assert code == 0
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("command", ["equilibria", "stability", "sweep"])
def test_every_command_refuses_rates_the_vertical_model_does_not_use(command, capsys):
    """The defaults e = 0.02 and beta = 0.1 contradict the vertical variant: each listing exits 3, as simulate does."""
    code, out, err = run_cli([command, "--model", "vertical"], capsys)
    assert (code, out) == (3, "")
    assert err == "error: vertical variant requires e = 0 and beta = 0, got e = 0.02, beta = 0.1\n"


def test_readme_stability_json_keeps_its_bytes(capsys):
    code, out, _ = run_cli(["stability", "--beta", "0.3", "--h", "0.1", "--h", "10", "--format", "json"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "806a92ee9b5f4db1cca1f8104a20ecba6d15d5cd0c13ef5a0ace69c4ce856ba1"
    )


def test_parser_is_built_once_and_reused(capsys):
    sequence = [
        ["stability", "--h", "0.5", "--h", "1", "--format", "json"],
        ["stability", "--format", "json"],
        ["--help"],
        ["--help"],
    ]

    def outcome(argv):
        try:
            code = main(argv)
        except SystemExit as exc:  # --help
            code = exc.code
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    fresh = []
    for argv in sequence:
        cli._make_parser.cache_clear()
        fresh.append(outcome(argv))
    cli._make_parser.cache_clear()
    reused = [outcome(argv) for argv in sequence]
    assert reused == fresh
    assert cli._make_parser.cache_info().misses == 1
    assert json.loads(reused[1][1])["h_list"] == [0.1]


# Values a flag's reader and choices take, written with no leading "-" so
# that they are plain in either form; and values plain only as --flag=value.
PLAIN_NUMBERS = ["0.5", "7", "1e300", "inf", "nan"]
PLAIN_VALUES = PLAIN_NUMBERS + ["", "x", "a=b", "paper-initials"]
EQUALS_ONLY_VALUES = ["-0.5", "-1e-3", "-inf", "-", "--x"]
# Token runs that argparse must see: abbreviations, negative values after a
# space, a switch given a value, help, "--", unknown flags, another
# command's flags, a refused choice or type, positionals.
HOSTILE_TOKENS = [
    ["--bet", "0.1"], ["--bet=0.1"], ["--b", "1"], ["--tol", "1"], ["--p"], ["--bx=-inf"], ["--bx", "-1e-3"],
    ["--bx", "-0.5"], ["--out", "-"], ["--permissive=1"], ["--list=1"], ["-h"], ["--help"], ["--"], ["--nope", "1"],
    ["--list"], ["--only", "x"], ["--x0", "0.1"], ["--model", "nope"], ["--format", "xml"], ["--x0", "abc"],
    ["--tol-eq", "abc"], ["--h", "0.1"], ["--h=0.1"], ["x"],
]


def plain_value(flag):
    if flag.choices is not None:
        return st.sampled_from(flag.choices)
    return st.sampled_from(PLAIN_NUMBERS if flag.read is not None else PLAIN_VALUES)


@st.composite
def command_lines(draw):
    """An argv and whether it is plain: an exact command, then only its flags, each in a form ``_read_argv`` reads."""
    command = draw(st.sampled_from([*cli.COMMANDS, "verif", "-h"]))
    plain = command in cli.COMMANDS
    flags = cli.COMMANDS[command][1] if plain else cli.PARAM_FLAGS
    argv = [command]
    for _ in range(draw(st.integers(0, 8))):
        if draw(st.integers(0, 4)) == 0:
            argv += draw(st.sampled_from(HOSTILE_TOKENS))
            plain = False
            continue
        flag = draw(st.sampled_from(flags))
        if flag.action == "store_true":
            argv.append(flag.flag)
        elif draw(st.booleans()):
            argv += [flag.flag, draw(plain_value(flag))]
        elif flag.read is not None or flag.choices is not None:
            argv.append(f"{flag.flag}={draw(plain_value(flag))}")
        else:
            argv.append(f"{flag.flag}={draw(st.sampled_from(PLAIN_VALUES + EQUALS_ONLY_VALUES))}")
    if draw(st.integers(0, 5)) == 0:  # a value flag with no value after it
        argv.append(draw(st.sampled_from([f.flag for f in flags if f.action != "store_true"])))
        plain = False
    return argv, plain


def argparse_reading(argv):
    """argparse's namespace for ``argv``, each value as its repr (so nan equals nan), or the code it exits with."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = cli._make_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code
    return {key: repr(value) for key, value in vars(namespace).items()}


@settings(max_examples=500, deadline=None)
@given(case=command_lines())
@example(case=(["stability", "--bet", "0.1"], False))
@example(case=(["stability", "--b", "1"], False))
@example(case=(["stability", "--bx=-inf"], True))
@example(case=(["stability", "--bx", "-1e-3"], False))
@example(case=(["stability", "--bx", "-0.5"], False))
@example(case=(["equilibria", "--permissive=1"], False))
@example(case=(["sweep", "-h"], False))
@example(case=(["simulate", "--", "--bx", "1"], False))
@example(case=(["portrait", "--nope", "1"], False))
@example(case=(["equilibria", "--x0", "0.1"], False))
@example(case=(["verify", "--model", "general"], False))
@example(case=(["simulate", "--model", "nope"], False))
@example(case=(["simulate", "--x0", "abc"], False))
@example(case=(["stability", "--format"], False))
@example(case=(["stability", "--h", "1", "--h=2", "--bx", "1", "--bx", "2", "--permissive", "--permissive"], True))
@example(case=(["equilibria", "--h", "0.1"], False))
@example(case=(["equilibria", "--h=0.1"], False))
@example(case=(["sweep", "--h", "0.1"], True))
@example(case=(["sweep", "--h=0.1"], True))
def test_the_flag_reader_reads_as_argparse_or_declines(case):
    """``_read_argv`` reads every plain argv, and whatever it reads, argparse reads alike, None defaults included."""
    argv, plain = case
    read = cli._read_argv(argv)
    if plain:
        assert read is not None
    if read is not None:
        assert {key: repr(value) for key, value in vars(read).items()} == argparse_reading(argv)


# The flag grammar of the commands, and the contents of a --config file.
# Values are passed as --flag=value, so that argparse reads "-inf" or
# "-1e-05" as a value and not as an option.
SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.2e-313, 1.3e154, -1.3e154, 1e300, -1e300]
cli_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(-3.0, 3.0), st.floats())
start_floats = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf]), cli_floats)
OUT_TARGETS = (None, "-", "file", "existing-file", "dir", "missing-parent")
# Checks that take milliseconds, and a name that matches none.
CHEAP_CHECKS = [
    "interior-equilibrium-algebra",
    "reproduction-number-threshold",
    "step-size-independence",
    "jury-eigenvalue-oracle",
    "no-such-check",
]
# Config values of every JSON type.  The strings are plain relative
# names, because "out" may take one and the test runs in tmp_path.
config_texts = st.sampled_from(["", "x", "7", "general", "rk4", "json", "paper-initials", "-"])
config_values = st.one_of(
    cli_floats,
    st.integers(-2, 40),
    config_texts,
    st.none(),
    st.booleans(),
    st.lists(cli_floats, max_size=2),
    st.lists(st.lists(cli_floats, max_size=3), max_size=2),
)
config_files = st.one_of(
    st.none(),
    st.dictionaries(
        st.sampled_from([f.name for f in fields(RunConfig)] + ["betta"]), config_values, max_size=4
    ).map(json.dumps),
    st.sampled_from(["[]", "3", "null", "{", ""]),
)


@st.composite
def cli_cases(draw):
    def flag(name, strategy):
        return f"--{name}={draw(strategy)!r}"

    def maybe(name, strategy):
        return [flag(name, strategy)] if draw(st.booleans()) else []

    command = draw(st.sampled_from(["equilibria", "stability", "simulate", "portrait", "sweep", "verify"]))
    if command == "verify":
        listing = draw(st.booleans())
        argv = ["verify", *(["--list"] if listing else [])]
        if not listing or draw(st.booleans()):
            argv.append(f"--only={draw(st.sampled_from(CHEAP_CHECKS))}")
        return argv + maybe("tol-eq", cli_floats), None, None
    argv = [command]
    argv += [f"--model={m}" for m in draw(st.lists(st.sampled_from(["general", "horizontal", "vertical"]), max_size=1))]
    for name in ("bx", "by", "ux", "uy", "K", "e", "beta"):
        argv += maybe(name, cli_floats)
    argv += ["--permissive"] if draw(st.booleans()) else []
    argv += [f"--format={f}" for f in draw(st.lists(st.sampled_from(["csv", "json", "text"]), max_size=1))]
    if command != "equilibria":
        argv += [f"--h={h!r}" for h in draw(st.lists(cli_floats, max_size=3))]
    if command in ("simulate", "portrait"):
        # Always given, so that a config file's steps never sets a long run.
        argv.append(flag("steps", st.integers(-2, 40)))
        argv += [f"--scheme={s}" for s in draw(st.lists(st.sampled_from(["nsfd", "rk4", "euler"]), max_size=1))]
        argv += maybe("dt", cli_floats)
        n_points = draw(st.integers(0, 3))
        argv += [flag("x0", start_floats) for _ in range(n_points)]
        argv += [flag("y0", cli_floats) for _ in range(draw(st.sampled_from([n_points, n_points, n_points + 1])))]
        argv += [f"--preset={p}" for p in draw(st.lists(st.sampled_from(["paper-initials", "nowhere"]), max_size=1))]
        argv += maybe("tol-eq", cli_floats) + maybe("tol-step", cli_floats) + maybe("window", st.integers(-1, 60))
    return argv, draw(st.sampled_from(OUT_TARGETS)), draw(config_files)


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=cli_cases())
@example(case=(["equilibria", "--K=1e300"], None, None))
@example(case=(["simulate", "--K=1e300", "--steps=3"], None, None))
@example(case=(["equilibria", "--by=2.2e-313", "--bx=1.0", "--ux=0.0", "--uy=0.0", "--e=0.0", "--beta=0.0",
                "--permissive"], None, None))
@example(case=(["stability", "--bx=1e300"], None, None))
@example(case=(["sweep", "--bx=1.3e154", "--by=1.3e154", "--ux=2.9", "--uy=1.3e154", "--beta=2.9"], None, None))
@example(case=(["stability", "--uy=2.2e-313", "--permissive", "--h=2.2e-313"], None, None))
# 1 + phi1 D1 is exactly 0 at h = 0.1: W's entry is infinite.
@example(case=(["stability", "--uy=-1.3e+154", "--e=0.0", "--beta=-5.4560717808184424e+16", "--permissive"], None, None))
@example(case=(["simulate", "--steps=3"], "dir", None))
@example(case=(["portrait", "--format=json", "--steps=3"], "dir", None))
@example(case=(["portrait", "--steps=3"], "-", None))
@example(case=(["simulate", "--x0=nan", "--y0=0.1", "--steps=0"], None, None))
@example(case=(["equilibria"], None, '{"window": Infinity}'))
@example(case=(["verify", "--only=jury-eigenvalue-oracle", "--tol-eq=nan"], None, None))
def test_cli_exits_with_a_documented_code(tmp_path, monkeypatch, case):
    argv, out, config = case
    monkeypatch.chdir(tmp_path)  # a relative --out, such as a config file's, lands here
    (tmp_path / "dir").mkdir(exist_ok=True)
    (tmp_path / "existing-file").write_text("")
    targets = {
        "-": "-",
        "file": tmp_path / "out.txt",
        "existing-file": tmp_path / "existing-file",
        "dir": tmp_path / "dir",
        "missing-parent": tmp_path / "missing" / "out.txt",
    }
    if out is not None:
        argv = [*argv, f"--out={targets[out]}"]
    if config is not None:
        (tmp_path / "run.json").write_text(config)
        argv = [*argv, f"--config={tmp_path / 'run.json'}"]
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the command line
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    if code in (2, 3):
        assert stderr.getvalue().splitlines()[-1].startswith("error: ")
    assert not (tmp_path / "-").exists()


# Every RunConfig field that simulate takes as --flag=value, by flag
# (--permissive takes no value; --h sets h and h_list).
VALUE_FLAGS = {
    f.flag: f.dest
    for f in cli.COMMANDS["simulate"][1]
    if f.dest in RunConfig.__dataclass_fields__ and f.action != "store_true"
}
TEXT_FIELDS = {f.name for f in fields(RunConfig) if "str" in f.type}


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_flag_and_a_config_value_are_read_alike(tmp_path, monkeypatch, data):
    """``--flag=v`` and a config file's ``{"field": v}`` give one exit code and, on exit 0, one RunConfig.

    A flag carries text, written here as JSON writes v unless v is a
    string; a text field is drawn at text values only, since no flag can
    carry a number or null to it.  The run itself is stubbed out, as its
    outcome is a function of the RunConfig alone.
    """
    flag = data.draw(st.sampled_from(sorted(VALUE_FLAGS)))
    name = VALUE_FLAGS[flag]
    value = data.draw(config_texts if name in TEXT_FIELDS else config_values)
    ran = []

    def run_start_only(config, s0):
        ran.append(repr(config))
        return Trajectory(np.zeros(1, np.int64), np.zeros(1), np.array([s0]), Verdict(VerdictStatus.MAX_STEPS))

    def outcome(argv):
        ran.clear()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            try:
                code = main(["simulate", *argv])
            except SystemExit as exc:  # argparse refuses a choice
                code = exc.code
        return code, (ran[0] if code == 0 else None)

    monkeypatch.chdir(tmp_path)  # a value of "out" lands here
    monkeypatch.setattr(cli, "_simulate_one", run_start_only)
    text = value if isinstance(value, str) else json.dumps(value)
    from_file = {name: value, "h_list": [value]} if name == "h" else {name: value}
    (tmp_path / "run.json").write_text(json.dumps(from_file))
    assert outcome([f"{flag}={text}"]) == outcome([f"--config={tmp_path / 'run.json'}"])


# What each config command needs beyond the rates to run quickly and write to stdout.
QUICK_FLAGS = {"simulate": ["--steps", "3"], "portrait": ["--steps", "3", "--format", "json"]}


@pytest.mark.parametrize("command", ["equilibria", "stability", "simulate", "portrait", "sweep"])
def test_every_config_command_checks_its_parameters_once(command, capsys):
    """A strict violation exits 2 with each violation's line once; --permissive warns once per violation."""
    argv = [command, "--ux", "0.3", "--uy", "0.2", *QUICK_FLAGS.get(command, [])]
    violations = validate_params(RunConfig(ux=0.3, uy=0.2).params())
    assert violations
    code, out, err = run_cli(argv, capsys)
    assert (code, out) == (2, "")
    assert err == "".join(f"error: parameter violation: {v}\n" for v in violations) + "error: invalid parameters\n"
    code, out, err = run_cli([*argv, "--permissive"], capsys)
    assert code == 0 and out
    assert err == "".join(f"warning: {v}\n" for v in violations)


@pytest.mark.parametrize("command", ["equilibria", "stability", "simulate", "portrait", "sweep"])
def test_permissive_forgives_only_the_biological_violations(command, capsys):
    """A rate that is not finite fails with or without --permissive; only without it is u_y <= u_x an error too."""
    argv = [command, "--bx", "inf", "--ux", "0.3", "--uy", "0.2", *QUICK_FLAGS.get(command, [])]
    finite = "error: parameter violation: b_x finite: b_x = inf is not finite\n"
    order = "error: parameter violation: u_y > u_x: infected death rate u_y = 0.2 does not exceed u_x = 0.3\n"
    assert run_cli([*argv, "--permissive"], capsys) == (2, "", finite + "error: invalid parameters\n")
    assert run_cli(argv, capsys) == (2, "", finite + order + "error: invalid parameters\n")


def test_run_config_defaults_are_the_librarys():
    """RunConfig restates the benchmark set, the detector's thresholds and a scenario's step budget."""
    config = RunConfig()
    assert config.params() == benchmark_params(ModelVariant.GENERAL, 0.1)
    assert config.settings() == ConvergenceSettings()
    assert config.steps == Scenario.__dataclass_fields__["max_steps"].default


def command_outcome(argv, cwd):
    """``main(argv)`` run in ``cwd``: its exit code and the sha256 of its stdout, of its stderr and of the files it wrote.

    The files' digest runs over each file's path relative to ``cwd`` and its
    bytes, in path order; it is None where none was written.  ``run.json``
    is the config file the table reads, not output.
    """
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = main(argv)
        except SystemExit as exc:  # help, or a command line argparse refuses
            code = exc.code
    written = sorted(p for p in cwd.rglob("*") if p.is_file() and p.name != "run.json")
    files = hashlib.sha256()
    for path in written:
        files.update(path.relative_to(cwd).as_posix().encode() + b"\0" + path.read_bytes())
    return (
        code,
        hashlib.sha256(stdout.getvalue().encode()).hexdigest(),
        hashlib.sha256(stderr.getvalue().encode()).hexdigest(),
        files.hexdigest() if written else None,
    )


# The config file that the table's --config rows read.
PARITY_CONFIG = {"beta": 0.3, "format": "csv", "h_list": [0.5, 5.0]}
EMPTY = hashlib.sha256(b"").hexdigest()
# Command lines, run in an empty directory holding PARITY_CONFIG as run.json, with the exit code and
# the sha256 of stdout, of stderr and of the files written (see command_outcome), recorded at commit
# 4e4e9b6, where each command's handler still checked its parameters and wrote its own text.  They
# cover every command in every format, --out to a file, to "-" and to a directory, every help, and
# each documented error: exit 2 for config, exit 3 for domain, exit 1 for a failed check.
PARITY = [
    ("equilibria", 0, "18ba05baf13e1a0a648573e7de2d045a04154797dcba5a1df15dd33423be7463", EMPTY, None),
    ("equilibria --format csv --beta 0.3", 0, "7b7c9786666bf69e4f9b8ea04d226b5b0c7651b536a83747d294405c77e01ee9", EMPTY, None),
    ("equilibria --format json --model horizontal --K 1.2 --e 0", 0, "f6c7d7af9ea4f9b23ac0b443dd753386fd6c6d7a8255128fb693a4b1bcd3d074", EMPTY, None),
    ("equilibria --format text --model vertical --K 1.2 --e 0 --beta 0", 0, "9c0bbbc42bd3ac1b8728b7fd988ef078cf9281969ea1be1f069b2a75cd5e5683", EMPTY, None),
    ("equilibria --by 0 --permissive --format json", 0, "3a0059ec2be25ed29109fc9ebca9f3b0f987b75b0addab0fca698daa3e9d5992", EMPTY, None),
    ("stability", 0, "85e02f9df7df7335fdec4e0fb98dad7f33422ea0e48549c4cde56250d18f9638", EMPTY, None),
    ("stability --format csv --beta 0.3 --h 0.1 --h 10", 0, "ba16a3503e209bee9eed2f9b735599484be4a10ced8d10e5256ab657e5899fee", EMPTY, None),
    ("stability --format json --model horizontal --K 1.2 --e 0 --h 1e-8 --h 1 --h 1e200", 0, "fd78e1e8ba9cf5f5852f39d7a04401acabde465751784246e9c635aaa4ee1f1b", EMPTY, None),
    ("stability --format text --ux 0.3 --uy 0.2 --permissive", 0, "618fb243be7b7c0255412c5924e4aa62e987ed6ee04526b0e0ad77423f07fb53", "e239e0010127f40bf6073ffb1bcb4b333329aa704b0e143fa510e78b1827b297", None),
    ("sweep", 0, "f4d87a7c68ac85a31393b770be1d757997a9028938ffd86b99880e7856d87f96", EMPTY, None),
    ("sweep --format csv --beta 0.3", 0, "30950630c5cc3b537021ec1fcbf69d58a5ba5d30f16ac45efbeb6f7001bf2d55", EMPTY, None),
    ("sweep --format json --model horizontal --K 1.2 --e 0 --beta 0.42 --h 0.5 --h 50", 0, "933149d7bb01a4ff095be08f536da0f51a9c32f2a86128607d2bd455ab9a6224", EMPTY, None),
    ("sweep --config run.json", 0, "8a1f15150d58c7719eb693134815965019524d397d476d5cf90fecb9b7d3fe4f", EMPTY, None),
    ("simulate --steps 30", 0, "20a77ba2456c506458d94b79f60347cd4f557e8bb4791591a753e1a25838d585", EMPTY, None),
    ("simulate --format csv --beta 0.3 --steps 20 --x0 0.5 --y0 0.3", 0, "7623a3afb6aa8d79311bb99091a9ea2c50d7694ee683526b07a1efa3baa169c6", EMPTY, None),
    ("simulate --format json --scheme rk4 --steps 10 --dt 0.1", 0, "b48505f6fabb4492d9b94169926225609ac5798b8584a7b37f70a3cb325a51a5", EMPTY, None),
    ("simulate --format text --scheme euler --dt 0.5 --steps 10 --x0 0.1 --y0 0.9", 0, "3183f3cfded9cafb8b25c4c23787494e415b045ccd554fd657abcfdaf5bdc6a2", EMPTY, None),
    ("simulate --h 5 --beta 0.3", 0, "05c1a89cd71591d637aecf5fad901b5c18f943ed98efe3cf614a5851050f7e65", EMPTY, None),
    ("simulate --model horizontal --K 1.2 --e 0 --beta 0.42 --h 2 --steps 200 --config run.json", 0, "3985ce9dc7c5ce8d27ad4a2daf8d79ff6bf09aadc01c64d6df4419559c9583ed", EMPTY, None),
    ("portrait --format json --steps 5 --x0 0.1 --y0 0.2 --x0 1.5 --y0 0.5", 0, "8b1b127d56d0d8147c462d167fcb8bc045177ad4f5c5efb8a4a038cfe82017a9", EMPTY, None),
    ("portrait --preset paper-initials --steps 40 --out portrait", 0, "8c7907381c6372ce305011233cdd27c8ec8b2df0543890f84dd57fb2f4330a61", EMPTY, "e69321e9154c6adaba56b7b29a9be0c347ef09f666eb97e3ecb21e22df7e9880"),
    ("portrait --format text --scheme rk4 --steps 10 --out portrait", 0, "f2fb7e638010e665dd45a285390b8f2cd3f8f1a474cbb942d68b2b457a1af187", EMPTY, "70d311819b23bbd9ca2afc61e43a71c75d355ec889e997052069a440b566c7c1"),
    ("portrait --format json --steps 3 --out portrait.json", 0, EMPTY, EMPTY, "a686568bb07906790d681430575c3eb36318aa7a8fe369fb5ad949689a17cad9"),
    ("equilibria --format json --out eq.json", 0, EMPTY, EMPTY, "7eea2a963a7fa7995177281e2ebfb6fa71b79cae06654e01bd774ee23e817703"),
    ("stability --format csv --out -", 0, "f431f58c31b2d6ac9d65e7234b42790a9732173e422d8c8e1d0fbaa6f44f6f31", EMPTY, None),
    ("simulate --steps 5 --out run.csv", 0, EMPTY, EMPTY, "a556967f7adb92ea20fd063448974f7402e5ad4155fe96410bf4ef2d107c1a85"),
    ("sweep --out missing/sweep.txt", 2, EMPTY, "72ac3cbc55b55fca38505364f92f945ed49c115a6a5bb4c7f29e948409c8a22c", None),
    ("simulate --steps 3 --out .", 2, EMPTY, "fc54914d6ff5e087d4ed99e1d73b4e65fc89451a9ac4119050b37731f4586849", None),
    ("-h", 0, "b8b7878d130919100bcfe3ba63df3beac13181ee8120d4037fde5530cb68c0b6", EMPTY, None),
    ("equilibria -h", 0, "f7028a8afecc3dd516c1c0fb939c2dc7f8ce594d8ad7d0732aaf15f3f31c6781", EMPTY, None),
    ("stability -h", 0, "f88c2262b7597583037031477fd45da9cafa274e4989fd02aaa29cf7f3522359", EMPTY, None),
    ("simulate -h", 0, "87a672ac70ec58b34757028c8037661630e8d4b60061d987bb5f9d0b57e318ae", EMPTY, None),
    ("portrait -h", 0, "c9fb45987baa8a7488943e0b504223e9ae73fc3bd4aadf285f0ebe214b9cb752", EMPTY, None),
    ("sweep -h", 0, "19d53d37231211beb2ce6ecabbc16da6c0b297741defc8180625a2f99b743c13", EMPTY, None),
    ("verify -h", 0, "3d6f4d9bf9e920bbbb987e7165d82c0308ff140d58b8e123b8a37fc05b36f7e0", EMPTY, None),
    ("equilibria --ux 0.3 --uy 0.2", 2, EMPTY, "82a65cd42cee555d5bc245551fe3c1f1dd269eae012445b0421d457e1f6e4dc5", None),
    ("simulate --ux 0.3 --uy 0.2 --steps 3", 2, EMPTY, "82a65cd42cee555d5bc245551fe3c1f1dd269eae012445b0421d457e1f6e4dc5", None),
    ("portrait --ux 0.3 --uy 0.2 --permissive --steps 3 --format json", 0, "b5d65300480cceb266a89b2dcce26fdaf7d2fede89fbc1b6017f4193e7cc6c56", "e239e0010127f40bf6073ffb1bcb4b333329aa704b0e143fa510e78b1827b297", None),
    ("portrait --steps 3", 2, EMPTY, "c1dae28252ed26b4838692b3522390b08f4a99181c8370f9710d11c29506b041", None),
    ("simulate --preset paper-initials --steps 3", 2, EMPTY, "33a23ba888f348a93e4abf598da45e362ae151da80deb76db2d1b0654728652e", None),
    ("equilibria --config nowhere.json", 2, EMPTY, "c6d6fd254a758e09b96a1711ae9168b4ec8493ecf50ea5757b4158e1c22cba37", None),
    ("equilibria --format xml", 2, EMPTY, "95178012dd9087922ea3f97a8911c34cb57c96136f96d363dc5b2856ca5036b5", None),
    ("stability --model vertical", 3, EMPTY, "e2d0f3f8ddf87caa64af02328e4cd8ac76975b745f0a9f88b8ec9367009cd495", None),
    ("simulate --x0 1e-320 --y0 1 --h 1 --beta 0.3", 3, EMPTY, "494531fe25337e45c7bc822100a93482134e1f828bb6d2fa0497c9f26e5766e5", None),
    ("stability --by 0 --permissive", 3, EMPTY, "5d9aa21c997e6debf253776e17cc95335d903d979568a68b65d08b8f65cc9d30", None),
    ("verify --list", 0, "2a9dc03c40f48f7bb55e4ab2ac4ad3dbcf3ae84c1cfe7662bb6fde0faa60be1a", EMPTY, None),
    ("verify --only jury-eigenvalue-oracle", 0, "d2b8c327586d9eabc0ef4f773cb477b2a4210317e7a079609418269ba7d750c9", EMPTY, None),
    ("verify --only converges:vertical --tol-eq 1e-9", 1, "ad89ce29d99147dd02ea913a0947772b87fa6e9ef7e8c0263f6b71893b69735b", EMPTY, None),
    ("verify --only no-such-check", 2, EMPTY, "48dd44189169123e22e6014bbf572087bf702e988242f8ede2c679d72fa5cc53", None),
]


# The rows whose text argparse writes, help and its own errors, were recorded on Python 3.11, and
# argparse words and lays out that text differently in other versions.
ARGPARSE_TEXT = pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="argparse's text differs by Python version")


@pytest.mark.parametrize(
    "argv, code, out, err, files",
    [
        pytest.param(*row, id=row[0], marks=ARGPARSE_TEXT if row[0].endswith("-h") or "xml" in row[0] else ())
        for row in PARITY
    ],
)
def test_outputs_keep_their_recorded_bytes(argv, code, out, err, files, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal's width
    monkeypatch.delenv(cli.SEED_DIR_ENV, raising=False)
    (tmp_path / "run.json").write_text(json.dumps(PARITY_CONFIG))
    assert command_outcome(argv.split(), tmp_path) == (code, out, err, files)


def count_eigenvalue_solves(monkeypatch):
    calls = []
    real = stability.eigenvalues2

    def spy(m):
        calls.append(m)
        return real(m)

    monkeypatch.setattr(stability, "eigenvalues2", spy)
    return calls


@pytest.mark.parametrize(
    "argv",
    [
        *(["sweep", "--format", fmt] for fmt in ("text", "csv", "json")),
        *(["verify", "--only", name] for name in ("step-size", "theorem", "reproduction")),
    ],
    ids=lambda argv: "-".join(argv[::2]),
)
def test_only_stability_solves_eigenvalues(argv, monkeypatch, capsys):
    calls = count_eigenvalue_solves(monkeypatch)
    code, _, _ = run_cli(argv, capsys)
    assert (code, calls) == (0, [])
    run_cli(["stability"], capsys)
    assert calls  # the spy sees the solves of the command that prints them


# Any positive double from the smallest subnormal up; the step sizes draw from it directly, since
# filtering the zeros out of extreme_rates rejected enough draws to fail Hypothesis's health check.
positive_rates = st.builds(math.ldexp, st.floats(0.5, 1.0, exclude_max=True), st.integers(-1073, 1024))
extreme_rates = st.one_of(st.just(0.0), positive_rates)


def set_argv(variant, rates, h_list, extra):
    """The flags of one parameter set, with e = 0 off the general model and beta = 0 in the vertical one."""
    if variant is not ModelVariant.GENERAL:
        rates[5] = 0.0
    if variant is ModelVariant.VERTICAL:
        rates[6] = 0.0
    flags = [arg for name, v in zip(("bx", "by", "ux", "uy", "K", "e", "beta"), rates) for arg in (f"--{name}", repr(v))]
    return ["--model", variant.value, *flags, *(arg for h in h_list for arg in ("--h", repr(h))), *extra]


@st.composite
def extreme_sets(draw):
    """Any non-negative rates of any variant, with 1-3 positive step sizes and --permissive."""
    variant = draw(st.sampled_from(list(ModelVariant)))
    rates = [draw(extreme_rates) for _ in range(7)]
    h_list = draw(st.lists(positive_rates, min_size=1, max_size=3))
    return set_argv(variant, rates, h_list, ["--permissive"])


@st.composite
def analysis_sets(draw):
    """A strict set from the acceptance checks' sampler, or any non-negative rates with --permissive."""
    if draw(st.booleans()):
        (lane,), _ = _draw_strict_block(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 1)
        params, variant, _ = lane
        rates = [params.b_x, params.b_y, params.u_x, params.u_y, params.K, params.e, params.beta]
        return set_argv(variant, rates, draw(st.lists(st.floats(1e-3, 1e3), min_size=1, max_size=3)), [])
    return draw(extreme_sets())


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=analysis_sets())
@example(argv=TestOutOfRangeInputs.PRINTED_OVERFLOW[:-2])
@example(argv=TestOutOfRangeInputs.NON_FINITE_JC)
def test_sweep_classifies_as_stability_prints(argv, capsys):
    """Where ``stability`` prints its reports, ``sweep`` gives each existing point the same verdicts at each h.

    ``sweep`` refuses only what ``stability`` refuses too; ``stability`` alone refuses numbers it prints.
    """
    code, out, _ = run_cli(["stability", *argv, "--format", "json"], capsys)
    sweep_code, sweep_out, _ = run_cli(["sweep", *argv, "--format", "json"], capsys)
    assert code in (0, 2, 3) and sweep_code in (0, 2, 3)
    if sweep_code != 0:
        assert code == sweep_code
    if code != 0:
        return
    assert sweep_code == 0
    printed = [
        (eq["equilibrium"]["kind"], [(r["h"], r["classification"]) for r in eq["reports"]])
        for eq in json.loads(out)["equilibria"]
        if eq["reports"]
    ]
    swept = [
        (eq["kind"], [(None, eq["continuous"])] + [(en["h"], en["classification"]) for en in eq["per_h"]])
        for eq in json.loads(sweep_out)["equilibria"]
    ]
    assert swept == printed


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=extreme_sets(), fmt=st.sampled_from(["text", "csv", "json"]))
@example(argv=TestOutOfRangeInputs.TWO_REFUSALS, fmt="text")
@example(argv=TestOutOfRangeInputs.PRINTED_OVERFLOW[:-2], fmt="json")
@example(argv=TestOutOfRangeInputs.NON_FINITE_JC, fmt="csv")
def test_stability_refuses_where_sweep_refuses(argv, fmt, capsys):
    """``stability`` refuses wherever ``sweep`` with the same --h list refuses, with the same message.

    Only where ``sweep`` prints its verdicts may ``stability`` refuse a number that it alone prints.
    """
    sweep_code, _, sweep_err = run_cli(["sweep", *argv, "--format", fmt], capsys)
    code, _, err = run_cli(["stability", *argv, "--format", fmt], capsys)
    if sweep_code != 0:
        assert (code, err.splitlines()[-1]) == (sweep_code, sweep_err.splitlines()[-1])
    elif code != 0:
        last = err.splitlines()[-1]
        assert code == 3 and ("eigenvalues of" in last or "multipliers" in last)
