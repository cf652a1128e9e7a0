"""CLI contract: exit codes, trace files, config precedence, sweeps."""

from __future__ import annotations

import json
import math

import pytest

from cycproj.cli import main
from cycproj.scenarios import build_scenario
from cycproj.traceio import read_trace_csv
from cycproj.verify import run_suite


def run_cli(*argv) -> int:
    return main(list(argv))


class TestRun:
    def test_tripod_summary(self, tmp_path, capsys):
        out = tmp_path / "tripod.csv"
        code = run_cli("run", "tripod", "--n", "100", "--start", "endpoint",
                       "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "verdict=NotRegular" in text
        assert "final_r=1" in text

    def test_integer_params_stay_integers(self, tmp_path):
        out = tmp_path / "tripod.json"
        assert run_cli("run", "tripod", "--n", "10", "--format", "json",
                       "--out", str(out)) == 0
        k = json.loads(out.read_text())["params"]["k"]
        assert k == 3 and isinstance(k, int)
        out = tmp_path / "plane.json"
        assert run_cli("run", "plane-two-sets", "--epsilon", "1", "--n", "10",
                       "--format", "json", "--out", str(out)) == 0
        assert isinstance(json.loads(out.read_text())["params"]["epsilon"], float)

    def test_bad_flag_returns_usage_code(self, capsys):
        assert run_cli("run", "tripod", "--format", "xml") == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert run_cli("run", "unknown-name") == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_unknown_start_is_usage_error(self, tmp_path, capsys):
        code = run_cli("run", "tripod", "--start", "nowhere",
                       "--out", str(tmp_path / "x.csv"))
        assert code == 2

    def test_csv_columns_and_roundtrip(self, tmp_path):
        out = tmp_path / "two-sets.csv"
        code = run_cli("run", "plane-two-sets", "--epsilon", "0.5", "--n", "200",
                       "--out", str(out))
        assert code == 0
        columns = read_trace_csv(out)
        assert list(columns) == ["n", "r", "s", "a", "b", "x", "y"]
        assert len(columns["n"]) == 201
        # recompute r from the stored points
        space = build_scenario("plane-two-sets", epsilon=0.5).space
        points = [space.from_coords((x, y)) for x, y in zip(columns["x"], columns["y"])]
        for i in range(200):
            r = space.distance(points[i], points[i + 1])
            assert abs(r - columns["r"][i]) <= 1e-9
        # diagnostics NaN padding shows up as empty cells -> None
        assert columns["s"][0] is None
        assert columns["a"][0] is None
        assert columns["r"][200] is None

    def test_json_summary_schema(self, tmp_path):
        out = tmp_path / "run.json"
        code = run_cli("run", "two-lines", "--n", "50", "--format", "json",
                       "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        for key in ("scenario", "params", "n", "verdict", "final_r",
                    "liminf_r", "slope", "sums"):
            assert key in payload
        assert payload["verdict"] == "Regular"
        assert payload["sums"]["r_sq"] > 0.0
        assert payload["trace"]["r"]

    def test_explicit_start_coords(self, tmp_path, capsys):
        code = run_cli("run", "plane-two-sets", "--n", "5",
                       "--start-coords", "2.0,0.5", "--out", str(tmp_path / "c.csv"))
        assert code == 0
        assert "start=explicit" in capsys.readouterr().out

    @pytest.mark.parametrize("scenario, text, coords", [
        ("plane-two-sets", "2.0,0.5", [2.0, 0.5]),
        ("tripod", "0:0.3,1:0.2", [0.0, 0.3, 1.0, 0.2]),
        ("twisted-chain", "0.05,0.02,1.7", [0.05, 0.02, 1.7]),
    ])
    def test_start_coords_forms(self, tmp_path, scenario, text, coords):
        out = tmp_path / "start.csv"
        assert run_cli("run", scenario, "--n", "3", "--start-coords", text,
                       "--out", str(out)) == 0
        columns = read_trace_csv(out)
        space = build_scenario(scenario).space
        assert [columns[name][0] for name in space.coord_names] == coords

    @pytest.mark.parametrize("scenario, text", [
        ("plane-two-sets", "1,2,3"),        # wrong number of values
        ("twisted-chain", "0.01,0.02"),
        ("tripod", "0:0.3:0:0.2"),          # grouping that does not fit the space
        ("tripod", "0.7:0.3,1:0.2"),        # non-integral leg
        ("plane-two-sets", "a,b"),          # not a number
    ])
    def test_bad_start_coords_are_usage_errors(self, tmp_path, scenario, text):
        assert run_cli("run", scenario, "--start-coords", text,
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_numerical_failure_exits_3(self, tmp_path, capsys):
        out = tmp_path / "fail.csv"
        code = run_cli("run", "plane-two-sets", "--n", "5",
                       "--start-coords", "1e300,0", "--out", str(out))
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err
        assert out.exists()  # partial trace still written

    def test_numerical_failure_writes_json_when_asked(self, tmp_path, capsys):
        out = tmp_path / "fail.json"
        code = run_cli("run", "plane-two-sets", "--n", "5", "--start-coords", "1e300,0",
                       "--format", "json", "--out", str(out))
        assert code == 3
        with open(out, encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["n"] == 0
        assert payload["failed"] is True
        assert "within one ulp of x0" in payload["failure"]
        assert payload["trace"]["point_indices"] == [0]
        assert payload["trace"]["points"] == [[1e300, 0.0]]
        assert payload["trace"]["r"] == []

    def test_out_dir_env_var(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("CYCPROJ_OUT_DIR", str(tmp_path))
        code = run_cli("run", "two-lines", "--n", "10")
        assert code == 0
        assert (tmp_path / "two-lines-n10.csv").exists()


class TestConfigFile:
    def test_config_supplies_defaults_and_flags_win(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("n=25\nepsilon=1.0\nformat=json\n# comment\n")
        out = tmp_path / "out.json"
        code = run_cli("run", "plane-two-sets", "--config", str(config),
                       "--n", "30", "--out", str(out))
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["n"] == 30  # flag wins over config
        assert payload["params"]["epsilon"] == 1.0  # config fills the gap

    @pytest.mark.parametrize("line", ["format=xml", "n=abc"])
    def test_config_values_are_validated_like_flags(self, tmp_path, line):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        assert run_cli("run", "tripod", "--config", str(config),
                       "--out", str(tmp_path / "x.csv")) == 2

    def test_malformed_config(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("this is not a pair\n")
        assert run_cli("run", "tripod", "--config", str(config)) == 2


class TestRate:
    def test_rate_prints_slope(self, tmp_path, capsys):
        out = tmp_path / "rate.csv"
        code = run_cli("rate", "plane-two-sets", "--epsilon", "0.5", "--n", "2000",
                       "--rate-window", "100", "2000", "--out", str(out))
        assert code == 0
        text = capsys.readouterr().out
        assert "rate: slope=" in text
        slope = float(text.split("slope=")[1].split()[0])
        assert -0.75 < slope < -0.45
        assert "sqrt(n)*r" in text

    def test_tripod_rate_is_flat(self, tmp_path, capsys):
        code = run_cli("rate", "tripod", "--n", "100", "--rate-window", "1", "99",
                       "--out", str(tmp_path / "t.csv"))
        assert code == 0
        slope = float(capsys.readouterr().out.split("rate: slope=")[1].split()[0])
        assert abs(slope) <= 1e-9

    @staticmethod
    def rate_line(text: str) -> str:
        return next(line for line in text.splitlines() if line.startswith("rate: "))

    def test_rate_window_sets_the_fit_as_in_run(self, tmp_path, capsys):
        base = ["plane-two-sets", "--n", "2000", "--rate-window", "100", "200"]
        assert run_cli("rate", *base, "--out", str(tmp_path / "rate.csv")) == 0
        rate = self.rate_line(capsys.readouterr().out)
        assert "at n=100:" in rate and "at n=200:" in rate
        assert run_cli("run", *base, "--out", str(tmp_path / "run.csv")) == 0
        assert self.rate_line(capsys.readouterr().out) == rate

    def test_config_rate_window_applies_and_default_is_tenth_to_end(self, tmp_path, capsys):
        config = tmp_path / "rate.cfg"
        config.write_text("rate_window=100 200\n")
        base = ["rate", "plane-two-sets", "--n", "2000", "--out", str(tmp_path / "r.csv")]
        assert run_cli(*base, "--config", str(config)) == 0
        rate = self.rate_line(capsys.readouterr().out)
        assert "at n=100:" in rate and "at n=200:" in rate
        assert run_cli(*base) == 0
        rate = self.rate_line(capsys.readouterr().out)
        assert "at n=200:" in rate and "at n=1999:" in rate


class TestVerify:
    @pytest.mark.parametrize("suite", ["two-set", "counterexamples"])
    def test_claim_suite_passes(self, suite, capsys):
        assert run_cli("verify", suite) == 0
        text = capsys.readouterr().out
        assert "checks passed" in text
        assert "FAIL" not in text

    def test_claim_suite_bounds_are_pinned(self):
        tols = {r.name: r.tol for suite in ("two-set", "counterexamples")
                for r in run_suite(suite)}
        assert tols == {
            "two-set-step-chain": 1e-12,
            "two-set-gap-chain": 1e-12,
            "two-set-energy": 1e-12,
            "two-set-monotone": 1e-12,
            "two-set-energy-sum": 1e-9,
            "two-lines-chains": 1e-12,
            "two-lines-geometric-ratio": 1e-9,
            "tripod-projection-isometry": 1e-9,
            "tripod-orientation-reversal": 1e-9,
            "tripod-cycle-involution": 1e-9,
            "tripod-pairwise-distance": 1e-6,
            "chain-cycle-rotation": 1e-12,
            "chain-power-steps": 1e-9,
        }

    def test_unknown_suite(self, capsys):
        assert run_cli("verify", "bogus") == 2


class TestSweep:
    def test_epsilon_sweep_ordered(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run_cli("sweep", "plane-two-sets", "--param", "epsilon",
                       "--values", "0.25,0.5,1.0", "--n", "300", "--out", str(out))
        assert code == 0
        results = json.loads(out.read_text())
        assert [r["grid_index"] for r in results] == [0, 1, 2]
        assert [r["params"]["epsilon"] for r in results] == [0.25, 0.5, 1.0]

    def test_k_sweep_reports_integers(self, tmp_path):
        out = tmp_path / "k.json"
        assert run_cli("sweep", "tripod", "--param", "k", "--values", "3,4",
                       "--n", "10", "--out", str(out)) == 0
        ks = [entry["params"]["k"] for entry in json.loads(out.read_text())]
        assert ks == [3, 4] and all(isinstance(k, int) for k in ks)

    def test_jobs_do_not_change_output(self, tmp_path):
        seq = tmp_path / "seq.json"
        par = tmp_path / "par.json"
        base = ["sweep", "two-lines", "--param", "theta",
                "--values", "0.3,0.6,0.9", "--n", "50"]
        assert run_cli(*base, "--out", str(seq)) == 0
        assert run_cli(*base, "--out", str(par), "--jobs", "3") == 0
        assert seq.read_bytes() == par.read_bytes()

    def test_empty_grid(self, tmp_path):
        out = tmp_path / "empty.json"
        code = run_cli("sweep", "plane-two-sets", "--param", "epsilon",
                       "--values", "", "--out", str(out))
        assert code == 0
        assert json.loads(out.read_text()) == []

    def test_chain_sweep_liminf(self, tmp_path):
        out = tmp_path / "chain.json"
        code = run_cli("sweep", "twisted-chain", "--param", "alpha",
                       "--values", "0.5,1.0,2.0", "--n", "200", "--out", str(out))
        assert code == 0
        results = json.loads(out.read_text())
        for entry in results:
            alpha = entry["params"]["alpha"]
            expected = 2.0 * 0.1 * abs(math.sin(alpha / 2.0))
            assert entry["liminf_r"] == pytest.approx(expected, abs=1e-9)
            assert entry["verdict"] == "NotRegular"

    def test_start_coords_apply_to_every_run(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.5",
                       "--n", "50", "--start-coords", "7,0", "--out", str(out)) == 0
        assert run_cli("run", "plane-two-sets", "--epsilon", "0.5", "--n", "50",
                       "--start-coords", "7,0", "--format", "json",
                       "--out", str(tmp_path / "run.json")) == 0
        run = json.loads((tmp_path / "run.json").read_text())
        assert json.loads(out.read_text())[0]["final_r"] == run["final_r"]

    @pytest.mark.parametrize("options", [
        [],
        ["--rate-window", "100", "2000"],
        ["--start-coords", "1e300,0"],
    ], ids=["default", "rate-window", "first-cycle-failure"])
    def test_entry_matches_run_summary(self, tmp_path, options):
        sweep_out, run_out = tmp_path / "sweep.json", tmp_path / "run.json"
        sweep_code = run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.5",
                             "--n", "2000", *options, "--out", str(sweep_out))
        run_code = run_cli("run", "plane-two-sets", "--epsilon", "0.5", "--n", "2000",
                           *options, "--format", "json", "--out", str(run_out))
        assert sweep_code == run_code
        [entry] = json.loads(sweep_out.read_text())
        assert entry.pop("grid_index") == 0
        payload = json.loads(run_out.read_text())
        del payload["trace"]
        assert entry == payload

    def test_failed_runs_recorded_and_exit_nonzero(self, tmp_path):
        out = tmp_path / "bad.json"
        code = run_cli("sweep", "plane-two-sets", "--param", "epsilon",
                       "--values", "0.5,-1.0", "--n", "20", "--out", str(out))
        assert code == 2  # as `run --epsilon -1` exits
        results = json.loads(out.read_text())
        assert "error" in results[1]
        assert results[0]["verdict"]

    def test_mid_run_failure_carries_its_text(self, tmp_path):
        # six ulps below 2**23 the steps move x by one ulp until cycle 6 fails
        options = ["--n", "50", "--stride", "4",
                   f"--start-coords={2.0**23 - 6 * 2.0**-30!r},0"]
        run_out, sweep_out = tmp_path / "run.json", tmp_path / "sweep.json"
        assert run_cli("run", "plane-two-sets", "--epsilon", "0.25", *options,
                       "--format", "json", "--out", str(run_out)) == 3
        payload = json.loads(run_out.read_text())
        assert payload["n"] == 6 and payload["failed"] is True
        assert "does not move x0" in payload["failure"]
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.25",
                       *options, "--out", str(sweep_out)) == 3
        [entry] = json.loads(sweep_out.read_text())
        assert entry["failure"] == payload["failure"]
        # a usage error in the same sweep outranks the numerical failure
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.25,-1",
                       *options, "--out", str(sweep_out)) == 2
        failed, usage = json.loads(sweep_out.read_text())
        assert failed["failure"] == payload["failure"] and "error" in usage
        # a run that completes has no failure key
        assert run_cli("run", "plane-two-sets", "--n", "50", "--format", "json",
                       "--out", str(run_out)) == 0
        assert "failure" not in json.loads(run_out.read_text())
