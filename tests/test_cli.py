import json
import subprocess
import sys

import pytest

from nsfd_epi.cli import RunConfig, main

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

    def test_numeric_strings_in_config_are_coerced(self, tmp_path, capsys):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"beta": "0.3", "steps": 500.0}))
        code, out, _ = run_cli(["equilibria", "--config", str(cfg), "--format", "json"], capsys)
        assert code == 0
        assert json.loads(out)["params"]["beta"] == 0.3


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

    def test_vertical_susceptible_free_predicted_unstable(self, capsys):
        code, out, _ = run_cli(
            ["stability", "--model", "vertical", *BENCH, "--K", "1.2", "--e", "0", "--beta", "0", "--format", "json"],
            capsys,
        )
        assert code == 0
        doc = json.loads(out)
        entry = [e for e in doc["equilibria"] if e["equilibrium"]["kind"] == "susceptible_free"][0]
        assert all(r["theorem_prediction"] == "unstable" and r["agree"] for r in entry["reports"])


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

    def test_zero_steps_writes_initial_row_only(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--steps", "0"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        data = [line for line in lines if line and not line.startswith("#")]
        assert data == ["n,t,X,Y", "0,0.0,1.2,0.15"]
        assert lines[-1] == "# verdict=max_steps n=0"

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

    def test_huge_dt_is_runtime_error(self, capsys):
        # --steps 2 at dt = 1e308 asks for t_max = inf.
        code, _, err = run_cli(["simulate", "--scheme", "rk4", "--dt", "1e308", "--steps", "2"], capsys)
        assert code == 3
        assert "t_max = inf" in err

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

    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(["portrait", "--preset", "nope", "--out", "unused"], capsys)
        assert code == 2
        assert "preset" in err


class TestSweepCommand:
    def test_uniform_across_step_sizes(self, capsys):
        code, out, _ = run_cli(
            ["sweep", *BENCH, "--K", "1", "--e", "0.02", "--beta", "0.3", "--format", "json"],
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
        code, _, _ = run_cli(["verify", "--only", "no-such-check"], capsys)
        assert code == 2

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
        ],
        ids=["three-entry-point", "nan-point", "scalar-point", "model", "kind", "params-misfit"],
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


def test_console_entry_point_runs(package_env):
    proc = subprocess.run(
        [sys.executable, "-m", "nsfd_epi.cli", "equilibria", "--beta", "0.3", "--format", "json"],
        capture_output=True,
        text=True,
        env=package_env,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["model"] == "general"
