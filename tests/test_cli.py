"""End-to-end tests of the command-line interface (in-process)."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import requ_gap
from requ_gap import network
from requ_gap import cli
from requ_gap.cli import main
from requ_gap.hats import BuiltHat
from requ_gap.network import deserialize, realize
import numpy as np


def run(argv):
    return main(argv)


class TestBuildHat:
    def test_writes_network_and_verify_report(self, tmp_path):
        out = tmp_path / "hat.json"
        code = run(
            ["build-hat", "--n", "1", "--L", "5", "--M", "2", "--d", "1",
             "--out", str(out)]
        )
        assert code == 0
        net = deserialize(out.read_bytes())
        assert net.depth() == 5
        report = json.loads((tmp_path / "hat.json.verify.json").read_text())
        assert report["pass"]
        assert report["max_rel_err"] <= 1e-9

    def test_precondition_violation_exits_2(self, tmp_path, capsys):
        code = run(["build-hat", "--L", "4", "--out", str(tmp_path / "x.json")])
        assert code == 2
        assert "precondition" in capsys.readouterr().err

    def test_stdout_mode(self, capsys):
        code = run(["build-hat", "--n", "1", "--L", "5"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["pass"]


class TestVerifyHat:
    def test_pass_roundtrip_against_file(self, tmp_path):
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        report_out = tmp_path / "verify.json"
        code = run(
            ["verify-hat", "--M", "2", "--network", str(out), "--out", str(report_out)]
        )
        assert code == 0
        report = json.loads(report_out.read_text())
        assert report["pass"] and report["file_matches"]

    def test_mismatched_params_fail_file_compare(self, tmp_path):
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        code = run(["verify-hat", "--M", "4", "--network", str(out)])
        assert code == 1

    def test_bad_params_exit_2(self):
        assert run(["verify-hat", "--M", "0.5"]) == 2

    @staticmethod
    def _edit_stored(tmp_path, edit, indent=None):
        """Build the M=2 hat, apply edit to its JSON layers, rewrite the file
        with json.dumps(doc, indent=indent), re-verify."""
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        edit(doc["layers"])
        out.write_text(json.dumps(doc, indent=indent))
        report_out = tmp_path / "verify.json"
        code = run(["verify-hat", "--M", "2", "--network", str(out), "--out", str(report_out)])
        return code, json.loads(report_out.read_text())

    def test_weight_one_ulp_off_fails_file_compare(self, tmp_path):
        def nudge(layers):
            entry = layers[2]["entries"][0]
            entry[2] = float(np.nextafter(entry[2], np.inf))

        code, report = self._edit_stored(tmp_path, nudge)
        assert code == 1 and report["file_matches"] is False and report["pass"]

    def test_swapped_entries_fail_file_compare(self, tmp_path):
        def swap(layers):
            entries = layers[2]["entries"]
            entries[0], entries[1] = entries[1], entries[0]

        code, report = self._edit_stored(tmp_path, swap)
        assert code == 1 and report["file_matches"] is False

    def test_extra_explicit_zero_still_matches(self, tmp_path, monkeypatch):
        def add_zero(layers):
            layer = layers[1]
            taken = {(i, j) for i, j, _ in layer["entries"]}
            free = next(
                (i, j) for i in range(layer["rows"]) for j in range(layer["cols"])
                if (i, j) not in taken
            )
            layer["entries"].append([*free, 0.0])

        calls = self._count_codec_calls(monkeypatch)
        code, report = self._edit_stored(tmp_path, add_zero)
        assert code == 0 and report["file_matches"] is True
        assert calls["deserialize"] == 1

    def test_other_bytes_of_the_same_network_match(self, tmp_path):
        code, report = self._edit_stored(tmp_path, lambda layers: None, indent=1)
        assert code == 0 and report["file_matches"] is True

    def test_truncated_file_exits_2(self, tmp_path, capsys):
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        out.write_bytes(out.read_bytes()[:-1])
        assert run(["verify-hat", "--M", "2", "--network", str(out)]) == 2
        assert capsys.readouterr().err.startswith("verify-hat: invalid JSON")

    @staticmethod
    def _count_codec_calls(monkeypatch) -> dict:
        calls = {"serialize": 0, "deserialize": 0}
        for name in calls:
            original = getattr(network, name)

            def counting(*args, name=name, original=original):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(network, name, counting)
        return calls

    def test_build_hat_output_is_matched_by_its_bytes(self, tmp_path, monkeypatch):
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        calls = self._count_codec_calls(monkeypatch)
        assert run(["verify-hat", "--M", "2", "--network", str(out)]) == 0
        assert calls == {"serialize": 1, "deserialize": 0}

    def test_each_command_materializes_the_hat_once(self, tmp_path, monkeypatch):
        calls = []
        materialize = BuiltHat._materialize

        def counting(hat):
            calls.append(hat.params)
            return materialize(hat)

        monkeypatch.setattr(BuiltHat, "_materialize", counting)
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        assert len(calls) == 1
        assert run(["verify-hat", "--M", "2", "--network", str(out)]) == 0
        assert len(calls) == 2


class TestRates:
    def test_worked_example(self, tmp_path, capsys):
        code = run(["rates", "--alpha", "1", "--d", "1", "--depth-cap", "5"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_flat"] == 15.5
        assert doc["lower_rate"] == pytest.approx(1 / 16.5)
        assert doc["upper_rate"] == pytest.approx(64 / 23.5)

    def test_numeric_estimate_included(self, capsys):
        code = run(["rates", "--n-max", "10000"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_numeric"] == pytest.approx(15.5, abs=0.1)

    def test_unbounded_policy_degenerate_exit_1(self, capsys):
        code = run(["rates", "--depth-cap", "inf"])
        assert code == 1
        assert json.loads(capsys.readouterr().out)["degenerate"]

    def test_unbounded_policy_writes_null_exponents(self, capsys):
        assert run(["rates", "--depth-cap", "inf"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_flat"] is None and doc["gamma_sharp"] is None


class TestLipschitz:
    def test_bound_dominates_empirical(self, capsys):
        code = run(["lipschitz", "--n", "1", "--L", "5", "--M", "1", "--d", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"]
        assert doc["ratio_log2"] <= 0.0


class TestSweepCommands:
    def test_hardness_requires_out(self, capsys):
        assert run(["hardness"]) == 2
        assert "--out" in capsys.readouterr().err

    def test_hardness_csv_and_sidecar(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run(
            ["hardness", "--algorithm", "zero", "--m-list", "4,16,64",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "m,measured_avg_error,lower_bound,unseen_count,amplitude,pass"
        assert len(lines) == 4
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sidecar["pass"]
        assert sidecar["config"]["gamma"] == 15.0  # default: closed form - 0.5

    def test_hardness_rerun_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["hardness", "--algorithm", "grid", "--m-list", "4,16", "--seed", "3"]
        assert run(argv + ["--out", str(a)]) == 0
        assert run(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_hardness_json_format(self, tmp_path):
        out = tmp_path / "sweep.json"
        code = run(
            ["hardness", "--m-list", "4,16", "--format", "json", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["rows"][0]["m"] == 4

    def test_hardness_unknown_algorithm_exit_2(self, tmp_path, capsys):
        code = run(
            ["hardness", "--algorithm", "oracle", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2

    def test_mc_hardness(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run(["mc-hardness", "--m-list", "4,16", "--out", str(out)])
        assert code == 0
        sidecar = json.loads((tmp_path / "mc.csv.json").read_text())
        assert all(r["budget_ok"] for r in sidecar["rows"])

    def test_upper_bound(self, tmp_path):
        out = tmp_path / "ub.csv"
        code = run(
            ["upper-bound", "--m-list", "16,64,256,1024", "--out", str(out)]
        )
        assert code == 0
        sidecar = json.loads((tmp_path / "ub.csv.json").read_text())
        assert sidecar["fitted_exponent"] <= sidecar["params"]["slope_target"]


class TestConfigHandling:
    def test_config_file_merged(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0, "d": 2}))
        code = run(["rates", "--config", str(cfg)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["alpha"] == 2.0 and doc["config"]["d"] == 2

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alpha": 2.0}))
        code = run(["rates", "--config", str(cfg), "--alpha", "3"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["config"]["alpha"] == 3.0

    def test_unknown_keys_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"alfa": 2.0}))
        code = run(["rates", "--config", str(cfg)])
        assert code == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_invalid_json_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert run(["rates", "--config", str(cfg)]) == 2


class TestSumCheck:
    def test_default_pass(self, capsys):
        code = run(["sum-check"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"]
        assert doc["sum_max_err"] <= 1e-12
        assert doc["sum_weight_count"] <= doc["sum_weight_bound"]

    def test_bad_width_exit_2(self):
        assert run(["sum-check", "--M1", "0.5"]) == 2


class TestEnvironment:
    def test_results_identical_across_caps(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["hardness", "--m-list", "4,16", "--out", str(a)]) == 0
        assert run(["hardness", "--m-list", "4,16", "--out", str(b)]) == 0
        assert a.read_text() == b.read_text()

    def test_import_loads_no_scipy(self):
        code = (
            "import sys, requ_gap.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(requ_gap.__file__).parents[1])}
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        assert done.stdout.strip() == "[]"


class TestInvalidInput:
    CASES = {
        "hardness-grid-res-0": ["hardness", "--grid-res", "0"],
        "upper-bound-grid-res-1": ["upper-bound", "--m-list", "16,64", "--grid-res", "1"],
        "verify-hat-missing-network": ["verify-hat", "--network", "/nonexistent.json"],
        "missing-config": ["rates", "--config", "/nonexistent.json"],
        "build-hat-M-nan": ["build-hat", "--M", "nan"],
        "build-hat-M-inf": ["build-hat", "--M", "inf"],
        "build-hat-y-nan": ["build-hat", "--y", "nan"],
        "rates-alpha-nan": ["rates", "--alpha", "nan"],
        "rates-alpha-inf": ["rates", "--alpha", "inf"],
        "rates-theta-c-nan": ["rates", "--theta-c", "nan"],
        "hardness-alpha-nan": ["hardness", "--alpha", "nan"],
        "hardness-gamma-inf": ["hardness", "--gamma", "inf"],
        "hardness-d-0": ["hardness", "--d", "0"],
        "mc-hardness-d-0": ["mc-hardness", "--d", "0"],
        "upper-bound-d-0": ["upper-bound", "--d", "0"],
        "upper-bound-c2-overflow": ["upper-bound", "--m-list", "16,64", "--depth-cap", "10"],
        "rates-sweep-flags": ["rates", "--format", "csv", "--m-list", "4", "--grid-res", "3"],
        "lipschitz-M-1e300": ["lipschitz", "--M", "1e300"],
        "build-hat-M-1e300": ["build-hat", "--M", "1e300", "--n", "1", "--L", "5"],
        "lipschitz-output-overflow": [
            "lipschitz", "--L", "10", "--depth-cap", "10", "--scale", "256"
        ],
        "verify-hat-output-overflow": [
            "verify-hat", "--L", "10", "--depth-cap", "10", "--scale", "256"
        ],
        "hardness-grid-res-100000": [
            "hardness", "--algorithm", "grid", "--d", "2", "--m-list", "4",
            "--grid-res", "100000",
        ],
        "verify-hat-points-true": ["verify-hat"],
        "verify-hat-points-2.5": ["verify-hat"],
        "build-hat-points-string": ["build-hat"],
        "sum-check-points-0": ["sum-check"],
        "sum-check-points-negative": ["sum-check"],
        "lipschitz-samples-150.7": ["lipschitz"],
        "build-hat-n-1.9": ["build-hat"],
        "build-hat-L-5.7": ["build-hat"],
        "verify-hat-d-true": ["verify-hat"],
        "rates-d-true": ["rates"],
        "rates-n-max-1000.5": ["rates"],
        "rates-n-max-negative": ["rates"],
        "hardness-d-2.5": ["hardness"],
        "mc-hardness-draws-30.9": ["mc-hardness"],
        "sum-check-target-depth-5.5": ["sum-check"],
        "lipschitz-depth-cap-7.5": ["lipschitz"],
        "rates-depth-cap-flag-7.5": ["rates", "--depth-cap", "7.5"],
        "sum-check-points-1e13": ["sum-check"],
        "build-hat-points-above-cap": ["build-hat"],
        "verify-hat-points-above-cap": ["verify-hat"],
        "lipschitz-samples-above-cap": ["lipschitz"],
        "build-hat-n-1e300": ["build-hat"],
        "rates-n-max-1e20": ["rates", "--n-max", "100000000000000000000"],
        "rates-n-max-beyond-int64": ["rates", "--n-max", "10000000000000000000"],
    }

    # the --config file of a case, for keys that have no flag
    CONFIGS = {
        "verify-hat-points-true": {"points": True},
        "verify-hat-points-2.5": {"points": 2.5},
        "build-hat-points-string": {"points": "10"},
        "sum-check-points-0": {"points": 0},
        "sum-check-points-negative": {"points": -5},
        "lipschitz-samples-150.7": {"samples": 150.7},
        "build-hat-n-1.9": {"n": 1.9, "L": 5},
        "build-hat-L-5.7": {"n": 1, "L": 5.7},
        "verify-hat-d-true": {"d": True},
        "rates-d-true": {"d": True},
        "rates-n-max-1000.5": {"n_max": 1000.5},
        "rates-n-max-negative": {"n_max": -1},
        "hardness-d-2.5": {"d": 2.5},
        "mc-hardness-draws-30.9": {"draws": 30.9},
        "sum-check-target-depth-5.5": {"target_depth": 5.5},
        "lipschitz-depth-cap-7.5": {"depth_cap": 7.5},
        "sum-check-points-1e13": {"points": 10_000_000_000_000},
        "build-hat-points-above-cap": {"points": cli._MAX_POINTS + 1},
        "verify-hat-points-above-cap": {"points": cli._MAX_POINTS + 1},
        "lipschitz-samples-above-cap": {"samples": cli._MAX_POINTS + 1},
        "build-hat-n-1e300": {"n": 1e300},
    }

    # what the message must name, where the failure has a specific cause
    NAMED = {
        "lipschitz-output-overflow": "gain 2**1023.0",
        "verify-hat-output-overflow": "gain 2**1023.0",
        "hardness-grid-res-100000": "10000000000 test offsets",
        "verify-hat-points-true": "points",
        "verify-hat-points-2.5": "points",
        "build-hat-points-string": "points",
        "sum-check-points-0": "points",
        "sum-check-points-negative": "points",
        "lipschitz-samples-150.7": "samples",
        "build-hat-n-1.9": "n must be an integer",
        "build-hat-L-5.7": "L must be an integer",
        "verify-hat-d-true": "d must be an integer",
        "rates-d-true": "d must be an integer",
        "rates-n-max-1000.5": "n_max must be an integer",
        "rates-n-max-negative": "n_max must be an integer",
        "hardness-d-2.5": "d must be an integer",
        "mc-hardness-draws-30.9": "draws must be an integer",
        "sum-check-target-depth-5.5": "target_depth must be an integer",
        "lipschitz-depth-cap-7.5": "depth_cap must be an integer",
        "rates-depth-cap-flag-7.5": "depth_cap must be an integer",
        "sum-check-points-1e13": "points must be an integer",
        "build-hat-points-above-cap": "points must be an integer",
        "verify-hat-points-above-cap": "points must be an integer",
        "lipschitz-samples-above-cap": "samples must be an integer",
        "build-hat-n-1e300": "n must be an integer",
        "rates-n-max-1e20": "n_max must be an integer",
        "rates-n-max-beyond-int64": "n_max must be an integer",
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_without_traceback_or_nan(self, case, tmp_path, capsys):
        argv = self.CASES[case]
        if case in self.CONFIGS:
            config = tmp_path / "config.json"
            config.write_text(json.dumps(self.CONFIGS[case]))
            argv = argv + ["--config", str(config)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"{argv[0]}: ")
        assert self.NAMED.get(case, "") in captured.err
        written = [p.read_text() for p in tmp_path.iterdir()]
        for text in [captured.out, captured.err, *written]:
            for word in ("Traceback", "NaN", "Infinity"):
                assert word not in text

    def test_single_m_sidecar_is_strict_json(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["hardness", "--m-list", "4", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "one.csv.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["fitted_exponent"] is None
