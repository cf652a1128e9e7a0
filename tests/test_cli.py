"""CLI contract: exit codes, trace files, config precedence, sweeps."""

from __future__ import annotations

import concurrent.futures
import json
import math
import multiprocessing
import os
import random
import signal
import time

import pytest

from cycproj.cli import main
from cycproj.scenarios import build_scenario
from cycproj.traceio import read_trace_csv
from cycproj.verify import run_suite


def run_cli(*argv) -> int:
    return main(list(argv))


EXTREMES = (0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e8, 1e300, 1.7e308)

# at epsilon 0.25, six ulps below 2**23, plane-two-sets fails numerically at cycle 6
FAILS_AT_CYCLE_6 = ["--n", "50", f"--start-coords={2.0**23 - 6 * 2.0**-30!r},0"]


def extreme_run_argv(rng: random.Random) -> list[str]:
    """A ``run`` command line whose scenario parameter and start come from EXTREMES."""
    def value():
        return rng.choice(EXTREMES) * rng.choice((1.0, -1.0))

    scenario = rng.choice(("plane-two-sets", "plane-two-sets", "two-lines", "twisted-chain",
                           "tripod"))
    if scenario == "tripod":
        param = ["--k", str(rng.choice((3, 5)))]
        coords = ",".join(f"{rng.randrange(4)}:{rng.choice(EXTREMES)!r}" for _ in range(2))
    elif scenario == "twisted-chain":
        param = ["--alpha", repr(rng.choice((0.0, 1.0, 1e300)))]
        coords = ",".join(repr(value()) for _ in range(3))
    else:
        param = (["--epsilon", repr(rng.choice((0.01, 0.5, 2.0, 50.0)))]
                 if scenario == "plane-two-sets"
                 else ["--theta", repr(rng.choice((1e-300, 1.0, 3.0)))])
        coords = f"{value()!r},{value()!r}"
    return ["run", scenario, *param, f"--start-coords={coords}", "--n", "10",
            "--format", "json"]


def interrupt_the_first_run(args):
    """A sweep run that interrupts its own process at theta 0.3 and sleeps at the others."""
    if args.theta == 0.3:
        os.kill(os.getpid(), signal.SIGINT)
    time.sleep(10.0)


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
        # the projection tolerance is fixed
        assert run_cli("run", "tripod", "--tol", "1e-9") == 2
        assert "unrecognized arguments: --tol" in capsys.readouterr().err

    def test_help_returns_zero(self, capsys):
        assert run_cli("--help") == 0
        assert "usage" in capsys.readouterr().out

    def test_unknown_scenario_is_usage_error(self, capsys):
        assert run_cli("run", "unknown-name") == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_bad_epsilon_is_usage_error(self, tmp_path, capsys):
        assert run_cli("run", "plane-two-sets", "--epsilon", "-1",
                       "--out", str(tmp_path / "x.csv")) == 2
        assert capsys.readouterr().err == "error: epsilon must be positive, got -1.0\n"

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

    def test_tied_start_is_usage_error(self, tmp_path, capsys):
        # height 0.5 is half a loop from disc 2, so two of its lifts tie
        out = tmp_path / "tie.csv"
        code = run_cli("run", "twisted-chain", "--n", "5",
                       "--start-coords", "0.05,0,0.5", "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err.startswith("error: two lifts of disc 2 ")
        assert not out.exists()

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

    def test_failure_before_the_rate_window_exits_3(self, tmp_path, capsys):
        # the window cannot be fitted, but the failure is numerical, not a usage error
        plain, windowed = tmp_path / "plain.json", tmp_path / "windowed.json"
        assert run_cli("run", "plane-two-sets", "--epsilon", "0.25", *FAILS_AT_CYCLE_6,
                       "--format", "json", "--out", str(plain)) == 3
        capsys.readouterr()
        assert run_cli("run", "plane-two-sets", "--epsilon", "0.25", *FAILS_AT_CYCLE_6,
                       "--rate-window", "10", "40", "--format", "json", "--out", str(windowed)) == 3
        captured = capsys.readouterr()
        assert "rate: " not in captured.out
        assert captured.err.startswith("numerical failure after 6 cycles: ")
        payload = json.loads(windowed.read_text())
        assert payload["n"] == 6 and payload["failed"] is True
        # the summary keeps the slope the run without a window reports
        assert payload == json.loads(plain.read_text())
        # a window past the end of a completed run stays a usage error
        assert run_cli("run", "plane-two-sets", "--n", "50", "--rate-window", "60", "80",
                       "--out", str(tmp_path / "done.csv")) == 2
        assert "lies outside the trace (n=50)" in capsys.readouterr().err

    def test_extreme_inputs_exit_by_the_contract(self, tmp_path, capsys):
        # 0 for a run, 2 for a usage error, 3 for a numerical failure with its flagged trace
        rng = random.Random(0)
        seen = set()
        for i in range(200):
            argv = extreme_run_argv(rng)
            out = tmp_path / f"{i}.json"
            code = run_cli(*argv, "--out", str(out))
            assert code in (0, 2, 3), argv
            if code != 2:
                payload = json.loads(out.read_text())
                assert payload["failed"] is (code == 3), argv
                assert bool(payload.get("failure")) is (code == 3), argv
            seen.add(code)
        assert seen == {0, 2, 3}
        capsys.readouterr()

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

    @pytest.mark.parametrize("line", ["format=xml", "n=abc", "tol=1e-9"])
    def test_config_values_are_validated_like_flags(self, tmp_path, line):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        assert run_cli("run", "tripod", "--config", str(config),
                       "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("line, message", [
        ("format=xml", "argument --format: invalid choice: 'xml'"),
        ("n=abc", "argument --n: invalid int value: 'abc'"),
    ], ids=["format", "n"])
    def test_config_errors_name_the_flag(self, tmp_path, capsys, line, message):
        config = tmp_path / "bad.cfg"
        config.write_text(line + "\n")
        assert run_cli("run", "tripod", "--config", str(config),
                       "--out", str(tmp_path / "x.csv")) == 2
        assert message in capsys.readouterr().err

    def test_config_start_coords_may_start_with_a_minus(self, tmp_path):
        config = tmp_path / "start.cfg"
        config.write_text("start_coords=-0.5,0\n")
        out = tmp_path / "start.csv"
        assert run_cli("run", "plane-two-sets", "--n", "3", "--config", str(config),
                       "--out", str(out)) == 0
        columns = read_trace_csv(out)
        assert (columns["x"][0], columns["y"][0]) == (-0.5, 0.0)

    @pytest.mark.parametrize("line", ["jobs=2", "param=alpha", "values=1,2", "config=other.cfg"])
    def test_sweep_config_takes_only_run_options(self, tmp_path, capsys, line):
        config = tmp_path / "sweep.cfg"
        config.write_text(line + "\n")
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.5",
                       "--n", "5", "--config", str(config),
                       "--out", str(tmp_path / "sweep.json")) == 2
        assert "unknown config key" in capsys.readouterr().err
        assert not (tmp_path / "sweep.json").exists()

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

    def test_failure_before_the_default_window_exits_3(self, tmp_path, capsys):
        # the default window [5, 50] begins where the run has failed
        out = tmp_path / "rate.csv"
        assert run_cli("rate", "plane-two-sets", "--epsilon", "0.25", *FAILS_AT_CYCLE_6,
                       "--out", str(out)) == 3
        captured = capsys.readouterr()
        assert "rate: " not in captured.out
        assert captured.err.startswith("numerical failure after 6 cycles: ")
        assert read_trace_csv(out)["n"][-1] == 6.0  # the partial trace, flagged by the exit code

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

    @pytest.mark.parametrize("words", ["100", "100 200 300"], ids=["one", "three"])
    def test_config_rate_window_needs_two_words(self, tmp_path, capsys, words):
        config = tmp_path / "rate.cfg"
        config.write_text(f"rate_window={words}\n")
        assert run_cli("rate", "plane-two-sets", "--config", str(config),
                       "--out", str(tmp_path / "r.csv")) == 2
        err = capsys.readouterr().err
        assert "config key 'rate_window' takes 2 values" in err
        assert "plane-two-sets" not in err
        assert not (tmp_path / "r.csv").exists()

    def test_rate_window_flag_wins_over_config(self, tmp_path, capsys):
        config = tmp_path / "rate.cfg"
        config.write_text("rate_window=100 200\n")
        assert run_cli("rate", "plane-two-sets", "--n", "2000", "--config", str(config),
                       "--rate-window", "300", "400", "--out", str(tmp_path / "r.csv")) == 0
        rate = self.rate_line(capsys.readouterr().out)
        assert "at n=300:" in rate and "at n=400:" in rate


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
            "two-lines-step-chain": 1e-12,
            "two-lines-gap-chain": 1e-12,
            "two-lines-energy": 1e-12,
            "two-lines-monotone": 1e-12,
            "two-lines-energy-sum": 1e-9,
            "two-lines-geometric-ratio": 1e-9,
            "two-lines-regular": 0.0,
            "tripod-projection-isometry": 1e-9,
            "tripod-orientation-reversal": 1e-9,
            "tripod-cycle-swaps-ends": 1e-9,
            "tripod-cycle-involution": 1e-9,
            "tripod-pairwise-distance": 1e-6,
            "chain-cycle-rotation": 1e-12,
            "chain-power-steps": 1e-9,
            "chain-power-not-regular": 0.0,
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

    def test_pool_starts_no_more_workers_than_runs(self, tmp_path, monkeypatch, capsys):
        requested = []

        class RecordingPool:
            """Runs the grid in this process and records the worker count asked for."""

            def __init__(self, max_workers, **kwargs):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        base = ["sweep", "two-lines", "--param", "theta", "--values", "0.3,0.6,0.9",
                "--n", "5", "--out", str(tmp_path / "sweep.json")]
        assert run_cli(*base, "--jobs", "8") == 0
        assert requested == [3]
        for jobs in ("0", "-1"):
            assert run_cli(*base, "--jobs", jobs) == 2
            assert "--jobs must be at least 1" in capsys.readouterr().err
        assert requested == [3]

    def test_interrupted_worker_ends_the_sweep_at_once(self, tmp_path, monkeypatch, capsys):
        # a worker that took the interrupt for a failed run would go on to the
        # next grid value, and the pool's exit would wait for every run left
        monkeypatch.setattr("cycproj.cli._run", interrupt_the_first_run)
        t0 = time.monotonic()
        code = run_cli("sweep", "two-lines", "--param", "theta", "--values", "0.3,0.6",
                       "--jobs", "2", "--out", str(tmp_path / "sweep.json"))
        assert code == 3
        assert time.monotonic() - t0 < 5.0
        assert multiprocessing.active_children() == []
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: a worker process died: ")
        assert not (tmp_path / "sweep.json").exists()

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

    def test_first_cycle_failure_keeps_its_params(self, tmp_path):
        # a run with nothing to classify still reports the grid value it ran at
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.5,1.0",
                       "--n", "5", "--start-coords=1e300,0", "--out", str(out)) == 3
        entries = json.loads(out.read_text())
        assert [entry["params"] for entry in entries] == [{"epsilon": 0.5}, {"epsilon": 1.0}]
        for entry in entries:
            assert entry["n"] == 0 and entry["failed"] is True and entry["verdict"] is None
            assert "within one ulp of x0" in entry["failure"]

    def test_failure_before_the_rate_window_is_a_failed_entry(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert run_cli("sweep", "plane-two-sets", "--param", "epsilon", "--values", "0.25",
                       *FAILS_AT_CYCLE_6, "--rate-window", "10", "40",
                       "--out", str(out)) == 3
        [entry] = json.loads(out.read_text())
        assert "error" not in entry
        assert entry["n"] == 6 and entry["failed"] is True
        assert "does not move x0" in entry["failure"]

    def test_failed_runs_recorded_and_exit_nonzero(self, tmp_path):
        out = tmp_path / "bad.json"
        code = run_cli("sweep", "plane-two-sets", "--param", "epsilon",
                       "--values", "0.5,-1.0", "--n", "20", "--out", str(out))
        assert code == 2  # as `run --epsilon -1` exits
        results = json.loads(out.read_text())
        assert "error" in results[1]
        assert results[0]["verdict"]

    def test_tied_start_is_usage_error(self, tmp_path):
        out = tmp_path / "tie.json"
        code = run_cli("sweep", "twisted-chain", "--param", "alpha", "--values", "1.0",
                       "--n", "5", "--start-coords", "0.05,0,0.5", "--out", str(out))
        assert code == 2  # as `run` exits on the same start
        [entry] = json.loads(out.read_text())
        assert entry["error"].startswith("two lifts of disc 2 ")

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
