"""End-to-end tests of the command-line interface (in-process)."""

import argparse
import hashlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import threading
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


    PINNED = {
        "n2-L6-d2": (
            ["--n", "2", "--L", "6", "--d", "2", "--depth-cap", "7"],
            "47c11d5b3d0985d46d2cd748fdaeed58dcf904bbafda3be6262b0d0737601619",
        ),
        "n3-L7-d1": (
            ["--n", "3", "--L", "7", "--d", "1", "--depth-cap", "7"],
            "82e33c2c2a8524a099a51a39d9558b5f66499e86319625b8aa7b426e109fa577",
        ),
        "n1-L9-d4": (
            ["--n", "1", "--L", "9", "--d", "4", "--depth-cap", "9"],
            "997d5b3fbe4c8176930ed4c466664cad9fb460d921a56ee344a3ac54b2bb1fb6",
        ),
        # the benchmark's hat.json: 720,938 weights, indices of six digits
        "n4-L7-d1": (
            ["--n", "4", "--L", "7", "--d", "1", "--depth-cap", "7"],
            "9dc23a76246d10f485f93ddb3fff832df390592fe2e5a3e798dfc3bfc8e04313",
        ),
        # 390,625 row triples, 1,171,875 middle rows: indices cross 10**6 inside a run
        "n5-L7-d1": (
            ["--n", "5", "--L", "7", "--d", "1", "--depth-cap", "7"],
            "ea4a09ab518f51ff96ea2c9513d367af5d42af5fb36964722ba5265c12dd9742",
        ),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_hat_bytes_are_pinned(self, case, tmp_path):
        argv, digest = self.PINNED[case]
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--scale", "256", *argv, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    def test_build_hat_holds_less_than_half_the_expanded_hat(self, tmp_path):
        # the n=3, L=7 hat has 72,209 weights; a few verification points,
        # set in the config, keep the peak the hat's own
        argv = ["build-hat", "--n", "3", "--L", "7", "--M", "2", "--scale", "256",
                "--depth-cap", "7", "--config", str(tmp_path / "config.json")]
        (tmp_path / "config.json").write_text('{"points": 100}')
        assert run(argv + ["--out", str(tmp_path / "warm.json")]) == 0
        tracemalloc.start()
        try:
            assert run(argv + ["--out", str(tmp_path / "hat.json")]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        net = deserialize((tmp_path / "hat.json").read_bytes())
        arrays = sum(
            a.nbytes
            for layer in net.layers
            for a in (layer.weights.rows, layer.weights.cols, layer.weights.vals,
                      layer.bias.idx, layer.bias.vals)
        )
        assert net.weight_count() == 72_209
        assert peak < arrays / 2

    def test_non_finite_weight_leaves_no_file(self, tmp_path, monkeypatch, capsys):
        describe = BuiltHat._describe

        def with_inf(hat):
            net = describe(hat)
            last = net.layers[-1]
            w = last.weights
            inf = network.SparseMatrix(w.shape, w.rows, w.cols, np.full(w.nnz, np.inf))
            return network.StridedNetwork(net.layers[:-1] + (network.Layer(inf, last.bias),))

        monkeypatch.setattr(BuiltHat, "_describe", with_inf)
        # a finite report, so that only the network stops the write
        monkeypatch.setattr(cli, "verify_hat", lambda hat, **kwargs: {"pass": True})
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 2
        assert "not finite" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


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

    # c(1)**(1/8) rounds up at these scales: its float eighth power is above
    # c(1), and the default C used to store 3.0000000000000004 at scale 3
    @pytest.mark.parametrize("scale", [3, 5, 6, 7, 11, 13])
    def test_default_C_stores_no_weight_above_c(self, scale, capsys):
        code = run(["verify-hat", "--n", "1", "--L", "5", "--M", "2", "--scale", str(scale)])
        report = json.loads(capsys.readouterr().out)
        assert report["max_norm"] <= scale
        assert report["pass"] and code == 0

    def test_C_whose_eighth_power_exceeds_c_exits_2(self, capsys):
        C = 3**0.125
        assert C**8 > 3
        argv = ["verify-hat", "--n", "1", "--L", "5", "--M", "2", "--scale", "3", "--C", repr(C)]
        assert run(argv) == 2
        assert "precondition violated: C**8 <= c(n)" in capsys.readouterr().err

    # c falls like log(2n)**-2: c(1) = 2082, and the n = 1 hat has a weight
    # budget of 51, where c(51) = 47
    FALLING_C = ["verify-hat", "--M", "2", "--kappa-c", "-2", "--scale", "1000"]

    def test_default_C_meets_c_at_the_weight_budget_where_c_falls(self, capsys):
        code = run(self.FALLING_C)
        report = json.loads(capsys.readouterr().out)
        assert report["budget"] == 51
        assert report["max_norm"] <= 47
        assert report["pass"] and code == 0

    def test_explicit_C_above_c_at_the_weight_budget_fails(self, capsys):
        # 2.5**8 = 1526 is at most c(1), so the hat builds, but above c(51)
        code = run(self.FALLING_C + ["--C", "2.5"])
        report = json.loads(capsys.readouterr().out)
        assert report["max_norm"] > 47
        assert not report["pass"] and code == 1

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
    def _verify(tmp_path, capsys, data: bytes, pipe: bool) -> tuple:
        """verify-hat of the M=2 hat against data, read from a file or from
        a pipe (its /dev/fd path; a pipe cannot seek): exit code, report
        and stderr."""
        argv = ["verify-hat", "--M", "2", "--out", str(tmp_path / "verify.json")]
        if not pipe:
            path = tmp_path / "stored.json"
            path.write_bytes(data)
            code = run(argv + ["--network", str(path)])
        else:
            read_end, write_end = os.pipe()

            def feed():
                with open(write_end, "wb") as fh:
                    try:
                        fh.write(data)
                    except BrokenPipeError:
                        pass

            writer = threading.Thread(target=feed)
            writer.start()
            try:
                code = run(argv + ["--network", f"/dev/fd/{read_end}"])
            finally:
                os.close(read_end)
                writer.join(timeout=10)
            assert not writer.is_alive()
        report = tmp_path / "verify.json"
        text = report.read_text() if report.exists() else None
        report.unlink(missing_ok=True)
        return code, text, capsys.readouterr().err

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
    def test_a_pipe_gives_what_a_file_gives(self, tmp_path, capsys):
        out = tmp_path / "hat.json"
        assert run(["build-hat", "--M", "2", "--out", str(out)]) == 0
        data = out.read_bytes()
        edited = data.replace(b"]]}", b"]] }", 1)
        nudged = json.loads(data)
        entry = nudged["layers"][2]["entries"][0]
        entry[2] = float(np.nextafter(entry[2], np.inf))
        cases = [data, edited, json.dumps(nudged).encode(), data[:-1]]
        results = [
            [self._verify(tmp_path, capsys, case, pipe) for pipe in (False, True)]
            for case in cases
        ]
        assert [from_file[0] for from_file, _ in results] == [0, 0, 1, 2]
        for from_file, from_pipe in results:
            assert from_pipe == from_file

    @staticmethod
    def _count_codec_calls(monkeypatch) -> dict:
        calls = {"encode": 0, "deserialize": 0}
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
        assert calls == {"encode": 1, "deserialize": 0}

    def test_only_a_differing_file_expands_the_hat(self, tmp_path, monkeypatch):
        calls = []
        expand = network.StridedNetwork.expand

        def counting(net):
            calls.append(net)
            return expand(net)

        monkeypatch.setattr(network.StridedNetwork, "expand", counting)
        out = tmp_path / "hat.json"
        argv = ["--M", "2", "--n", "2", "--L", "6", "--depth-cap", "6"]
        assert run(["build-hat", *argv, "--out", str(out)]) == 0
        assert len(calls) == 0
        assert run(["verify-hat", *argv, "--network", str(out)]) == 0
        assert len(calls) == 0
        doc = json.loads(out.read_text())
        entry = doc["layers"][2]["entries"][-1]
        entry[2] = float(np.nextafter(entry[2], np.inf))
        out.write_text(json.dumps(doc))
        assert run(["verify-hat", *argv, "--network", str(out)]) == 1
        assert len(calls) == 1


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

    def test_numeric_exponent_past_the_float_range_is_null(self, capsys):
        # 2**1023 is finite, the growth term of the numeric fit is not
        assert run(["rates", "--depth-cap", "1023", "--n-max", "1000"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["gamma_numeric"] is None and not doc["degenerate"]
        assert "Infinity" not in out

    @pytest.mark.parametrize("n_max", [100, 101])
    def test_too_few_grid_points_write_null_numeric_exponent(self, n_max, capsys):
        # [100, n_max] holds one or two integers: the three-column fit is
        # undetermined, so there is no estimate
        assert run(["rates", "--n-max", str(n_max)]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["gamma_numeric"] is None and not doc["degenerate"]
        assert "NaN" not in out

    def test_three_grid_points_fit_the_exponent(self, capsys):
        assert run(["rates", "--n-max", "102"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["gamma_flat"] == 15.5
        assert doc["gamma_numeric"] == pytest.approx(15.5, abs=1e-6)

    def test_unbounded_policy_writes_null_numeric_exponent(self, capsys):
        assert run(["rates", "--depth-cap", "inf", "--n-max", "100"]) == 1
        doc = json.loads(capsys.readouterr().out)
        assert doc["degenerate"]
        assert doc["gamma_numeric"] is None
        assert doc["gamma_flat"] is None and doc["gamma_sharp"] is None

    def test_any_dimension_runs(self, capsys):
        # rates reads d only as a number; the hat commands' bound on d
        # (TestInvalidInput) does not apply
        assert run(["rates", "--d", "1000000000"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["d"] == 1_000_000_000


class TestLipschitz:
    def test_bound_dominates_empirical(self, capsys):
        code = run(["lipschitz", "--n", "1", "--L", "5", "--M", "1", "--d", "1"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["pass"]
        assert doc["ratio_log2"] <= 0.0

    def test_bound_log2_past_the_float_range_is_null(self, capsys):
        # (2**L - 1) / 2 * log2(n) overflows at L = 1023
        assert run(["lipschitz", "--L", "1023", "--depth-cap", "inf"]) == 0
        out = capsys.readouterr().out
        doc = json.loads(out)
        assert doc["bound_log2"] is None and doc["overflow"] is True
        assert "Infinity" not in out


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

    # the keys of each sweep sidecar's params and of each of its rows
    SIDECAR_KEYS = {
        "hardness": (
            "4,16",
            "alpha d decay_exponent_theoretical gamma grid_resolution",
            "amplitude center_only lower_bound m measured_avg_error pass unseen_count",
        ),
        "mc-hardness": (
            "4,16",
            "alpha d decay_exponent_theoretical draws gamma grid_resolution",
            "amplitude budget_ok lower_bound m mean_sample_count measured_avg_error"
            " pass unseen_count",
        ),
        "upper-bound": (
            "16,64",
            "alpha d gamma grid_resolution reconstruction slope_target",
            "amplitude lower_bound m measured_avg_error pass unseen_count",
        ),
    }

    @pytest.mark.parametrize("command", SIDECAR_KEYS)
    def test_sidecar_keys(self, command, tmp_path):
        m_list, params, row = self.SIDECAR_KEYS[command]
        out = tmp_path / "sweep.csv"
        assert run([command, "--m-list", m_list, "--out", str(out)]) == 0
        sidecar = json.loads((tmp_path / "sweep.csv.json").read_text())
        assert sorted(sidecar["params"]) == params.split()
        assert [sorted(r) for r in sidecar["rows"]] == [row.split()] * 2

    # sweeps whose CSV bytes pin every nearest index and every rounding of
    # the error arithmetic; the d=2 digest is the sweep-mc-d2 reference in
    # bench/reference.json
    PINNED = {
        "mc-hardness-d2": (
            ["mc-hardness", "--d", "2", "--m-list", "16,64,256,1024", "--seed", "0"],
            "e9145dbcc18174bb8acf6db9045f821ee743e6af8b26bf77e4c96abfc9ecd882",
        ),
        "mc-hardness-d2-seed-1": (
            ["mc-hardness", "--d", "2", "--m-list", "16,64,256,1024", "--seed", "1"],
            "b80eae2d878ffb728bd515410ff4ebca3534e05d13a7d2ae197bee07d342324d",
        ),
        "mc-hardness-d3-to-1024": (
            ["mc-hardness", "--d", "3", "--m-list", "16,64,256,1024"],
            "99131245e9ff37fe9abcf774d9cbf690e7eb9399c873308df57813149e5f4f30",
        ),
        "mc-hardness-d3": (
            ["mc-hardness", "--d", "3", "--m-list", "16,64"],
            "6129418a535bca97dc100fd2b0b477a39a8fa05f23d28e0cd270bff4031aa6c1",
        ),
        # draws whose cells screen every sample of their own draw: d = 5,
        # and d = 1 below four samples
        "mc-hardness-d5": (
            ["mc-hardness", "--d", "5", "--m-list", "32", "--grid-res", "3"],
            "aab92be7c38acc6722d556e85abdb773701df3cdb53c0363406e2d3ca188b0ee",
        ),
        "mc-hardness-d1": (
            ["mc-hardness", "--d", "1", "--m-list", "2,3,4,16"],
            "3765e1e133374e8c573f438fc9f7aa2024007e740e4eeb1a837734f451b38550",
        ),
        "hardness-random-d4": (
            ["hardness", "--algorithm", "random", "--d", "4", "--m-list", "16,81",
             "--grid-res", "5"],
            "85630e182c7bc4fad9bce4aa001eb5605ccd2a648afd7792a50eee99d857ec8a",
        ),
        # cells of more than 2**14 test points: 129**2 + 1 and 27**3 + 1
        "hardness-random-d2-res-129": (
            ["hardness", "--algorithm", "random", "--d", "2", "--m-list", "16,64",
             "--grid-res", "129"],
            "7d0fd457af9ec420d14abffec3b1a91e1f31de3f8d39ceea729914530ff04d6d",
        ),
        "hardness-random-d3-res-27": (
            ["hardness", "--algorithm", "random", "--d", "3", "--m-list", "64",
             "--grid-res", "27"],
            "a310f94215457248e0198cec7a2fa0c4e417e3df5454400494c8c67d19c532bf",
        ),
        # stencil sweeps with seen cells: multilinear, nearest grid node, zero
        "hardness-grid-multilinear-d3": (
            ["hardness", "--algorithm", "grid-multilinear", "--d", "3",
             "--m-list", "100,200,300,343"],
            "adfbc8c7ec5b80c969eebbeaa84a67d35a5849aef1c68bc91fea41630a93f5c5",
        ),
        "hardness-grid-multilinear-d2": (
            ["hardness", "--algorithm", "grid-multilinear", "--d", "2",
             "--m-list", "25,100,121,400"],
            "4be95f9eea21d633e84cdbb61f76a9934560f46b3231b0549f8ebc4e7fd7fd18",
        ),
        "hardness-grid-multilinear-d4": (
            ["hardness", "--algorithm", "grid-multilinear", "--d", "4",
             "--m-list", "100,625", "--grid-res", "5"],
            "852ab2fb4d9ed68fefd3f7d4a639f4f60f126c5fa95938590021639923bd45aa",
        ),
        "hardness-grid-multilinear-d5": (
            ["hardness", "--algorithm", "grid-multilinear", "--d", "5",
             "--m-list", "500", "--grid-res", "3"],
            "654b84ba4d510a8a020201ae00a1585c3f8bb822cc1e88288e2257b75cc81deb",
        ),
        "hardness-grid-d3": (
            ["hardness", "--algorithm", "grid", "--d", "3", "--m-list", "30,100"],
            "163a846b28a63d9bfde0fd935b0d62f90408ca32d716a39ea417da6d519c4f34",
        ),
        "hardness-zero-d2": (
            ["hardness", "--algorithm", "zero", "--d", "2", "--m-list", "20,80"],
            "a3b70efae03834e15f9f475eaad9abcbf059243d93cbdccde4cbeececdb646b1",
        ),
    }

    @pytest.mark.parametrize("case", PINNED)
    def test_sweep_csv_bytes_are_pinned(self, case, tmp_path):
        argv, digest = self.PINNED[case]
        out = tmp_path / "sweep.csv"
        assert run(argv + ["--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


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

    def test_echo_holds_the_typed_keys_read(self, tmp_path, capsys):
        assert run(["rates", "--depth-cap", "7"]) == 0
        assert json.loads(capsys.readouterr().out)["config"]["depth_cap"] == 7
        out = tmp_path / "mc.csv"
        assert run(["mc-hardness", "--out", str(out)]) == 0
        config = json.loads((tmp_path / "mc.csv.json").read_text())["config"]
        assert config["m_list"] == [4, 16, 64]
        assert "algorithm" not in config and config["draws"] == 30

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


def without_echoes(err: str, config) -> str:
    """err without the repr of each value config supplies: a rejected value
    is echoed, and a string value may read 'NaN'."""
    for value in config.values() if isinstance(config, dict) else ():
        err = err.replace(repr(value), "")
    return err


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
        "rates-alpha-null": ["rates"],
        "rates-alpha-list": ["rates"],
        "rates-alpha-true": ["rates"],
        "rates-alpha-string": ["rates"],
        "rates-scale-null": ["rates"],
        "build-hat-M-null": ["build-hat"],
        "build-hat-y-number": ["build-hat"],
        "build-hat-C-true": ["build-hat"],
        "build-hat-C-1e300": ["build-hat"],
        "sum-check-M1-null": ["sum-check"],
        "sum-check-M1-1e300": ["sum-check"],
        "sum-check-M1-flag-1e300": ["sum-check", "--M1", "1e300"],
        "hardness-algorithm-list": ["hardness"],
        "hardness-kappa1-removed": ["hardness"],
        "hardness-kappa1-flag-removed": ["hardness", "--kappa1", "0.5"],
        "mc-hardness-algorithm": ["mc-hardness"],
        "verify-hat-network-5": ["verify-hat"],
        "verify-hat-network-true": ["verify-hat"],
        "hardness-m-list-empty": ["hardness", "--m-list", ","],
        "rates-config-not-object": ["rates"],
        "rates-d-flag-2.5": ["rates", "--d", "2.5"],
        "rates-depth-cap-flag-abc": ["rates", "--depth-cap", "abc"],
        "hardness-m-list-flag-4,x": ["hardness", "--m-list", "4,x"],
        "hardness-family-above-cap": [
            "hardness", "--d", "20", "--m-list", "4", "--grid-res", "2",
        ],
        "build-hat-d-2000000": ["build-hat", "--n", "1", "--d", "2000000"],
        "verify-hat-d-2000000": ["verify-hat", "--n", "1", "--d", "2000000"],
        "lipschitz-d-2000000": ["lipschitz", "--n", "1", "--d", "2000000"],
        "build-hat-d-1e9": ["build-hat"],
        "verify-hat-d-above-middle-rows": ["verify-hat"],
        "lipschitz-d-above-batch": ["lipschitz"],
        "build-hat-L-1024": ["build-hat", "--L", "1024", "--depth-cap", "inf"],
        "hardness-depth-cap-1024": ["hardness", "--depth-cap", "1024"],
        "rates-depth-cap-1024": ["rates", "--depth-cap", "1024"],
        "build-hat-gain-far-past-double": [
            "build-hat", "--L", "40", "--scale", "256", "--depth-cap", "40", "--M", "2",
        ],
        "lipschitz-gain-far-past-double": [
            "lipschitz", "--L", "40", "--scale", "256", "--depth-cap", "40", "--M", "2",
        ],
        "build-hat-gain-near-1-L22": ["build-hat", "--d", "2", "--L", "22", "--depth-cap", "22"],
        "lipschitz-gain-near-1-L22": ["lipschitz", "--d", "2", "--L", "22", "--depth-cap", "22"],
        "build-hat-gain-near-1-L1023": [
            "build-hat", "--d", "2", "--L", "1023", "--depth-cap", "1023",
        ],
        "lipschitz-gain-near-1-L1023": [
            "lipschitz", "--d", "2", "--L", "1023", "--depth-cap", "1023",
        ],
        "sum-check-M1-string-NaN": ["sum-check"],
        # C1's supremum lies far past the scan, near n = 1e281
        "hardness-c1-past-the-scan": [
            "hardness", "--theta-c", "0.5", "--kappa-c", "-50", "--depth-cap", "5",
            "--gamma", "20",
        ],
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
        "rates-alpha-null": {"alpha": None},
        "rates-alpha-list": {"alpha": [1]},
        "rates-alpha-true": {"alpha": True},
        "rates-alpha-string": {"alpha": "2"},
        "rates-scale-null": {"scale": None},
        "build-hat-M-null": {"M": None},
        "build-hat-y-number": {"y": 0.5},
        "build-hat-C-true": {"C": True},
        "build-hat-C-1e300": {"C": 1e300},
        "sum-check-M1-null": {"M1": None},
        "sum-check-M1-1e300": {"M1": 1e300},
        "hardness-algorithm-list": {"algorithm": ["grid"]},
        "hardness-kappa1-removed": {"kappa1": 0.5},
        "mc-hardness-algorithm": {"algorithm": "grid"},
        "verify-hat-network-5": {"network": 5},
        "verify-hat-network-true": {"network": True},
        "rates-config-not-object": 5,
        "build-hat-d-1e9": {"d": 1_000_000_000},
        "verify-hat-d-above-middle-rows": {"d": 1_333_334, "points": 1},
        "lipschitz-d-above-batch": {"d": 83_887, "samples": 100},
        "sum-check-M1-string-NaN": {"M1": "NaN"},
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
        "rates-alpha-null": "alpha must be a finite number",
        "rates-alpha-list": "alpha must be a finite number",
        "rates-alpha-true": "alpha must be a finite number",
        "rates-alpha-string": "alpha must be a finite number",
        "rates-scale-null": "scale must be a finite number",
        "build-hat-M-null": "M must be a finite number",
        "build-hat-y-number": "y must be a list of finite numbers",
        "build-hat-C-true": "C must be a finite number",
        "build-hat-C-1e300": "C must be a finite number",
        "sum-check-M1-null": "M1 must be a finite number",
        "sum-check-M1-1e300": "M1 must be a finite number",
        "sum-check-M1-flag-1e300": "M1 must be a finite number",
        "hardness-algorithm-list": "algorithm must be one of",
        "hardness-kappa1-removed": "unknown config keys: ['kappa1']",
        "hardness-kappa1-flag-removed": "unrecognized arguments: --kappa1 0.5",
        "mc-hardness-algorithm": "unknown config keys: ['algorithm']",
        "verify-hat-network-5": "network must be a path",
        "verify-hat-network-true": "network must be a path",
        "hardness-m-list-empty": "m_list must be non-empty",
        "rates-config-not-object": "config must be a JSON object",
        "rates-d-flag-2.5": "argument --d: invalid int value: '2.5'",
        "rates-depth-cap-flag-abc": "argument --depth-cap: invalid number value",
        "hardness-m-list-flag-4,x": "argument --m-list: invalid integer list value",
        "hardness-family-above-cap": "4**20 family centers",
        "build-hat-d-2000000": "d must be an integer in [1, 838] with points=10000",
        "verify-hat-d-2000000": "d must be an integer in [1, 838] with points=10000",
        "lipschitz-d-2000000": "d must be an integer in [1, 91] with samples=1000",
        "build-hat-d-1e9": "d must be an integer in [1, 838] with points=10000",
        "verify-hat-d-above-middle-rows": "d must be an integer in [1, 1333333] with points=1",
        "lipschitz-d-above-batch": "d must be an integer in [1, 289] with samples=100",
        "build-hat-L-1024": "L must be an integer in [1, 1023], got 1024",
        "hardness-depth-cap-1024": 'depth_cap must be an integer in [1, 1023] or "inf"',
        "rates-depth-cap-1024": 'depth_cap must be an integer in [1, 1023] or "inf"',
        "build-hat-gain-far-past-double": "gain 2**1.1e+12 is too large",
        "lipschitz-gain-far-past-double": "gain 2**1.1e+12 is too large",
        "build-hat-gain-near-1-L22": "gain at L=22 would have 2**25.7 bits",
        "lipschitz-gain-near-1-L22": "gain at L=22 would have 2**25.7 bits",
        "build-hat-gain-near-1-L1023": "gain at L=1023 would have 2**1026.7 bits",
        "lipschitz-gain-near-1-L1023": "gain at L=1023 would have 2**1026.7 bits",
        "sum-check-M1-string-NaN": "M1 must be a finite number in (-inf, 1.157920892373162e+77), got 'NaN'",
        "hardness-c1-past-the-scan": "amplitude 0.0 outside (0, 1]",
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
        # every file the command wrote, not the config it read
        written = [p.read_text() for p in tmp_path.iterdir() if p.name != "config.json"]
        err = without_echoes(captured.err, self.CONFIGS.get(case))
        for text in [captured.out, err, *written]:
            for word in ("Traceback", "NaN", "Infinity"):
                assert word not in text

    @pytest.mark.parametrize(
        "case",
        [
            "build-hat-gain-far-past-double", "lipschitz-gain-far-past-double",
            "build-hat-gain-near-1-L22", "lipschitz-gain-near-1-L22",
            "build-hat-gain-near-1-L1023", "lipschitz-gain-near-1-L1023",
        ],
    )
    def test_gain_far_past_double_is_rejected_at_once(self, case, tmp_path):
        # the exact gain would have about 2**45 bits, or, near 1, more than
        # 2**24 (_MAX_GAIN_BITS)
        start = time.perf_counter()
        assert main(self.CASES[case] + ["--out", str(tmp_path / "out")]) == 2
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("argv", [[], ["frob"]])
    def test_missing_or_unknown_command_exits_2(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("requ-gap: ") and "usage" not in captured.err

    @pytest.mark.parametrize("argv", [["--version"], ["--help"], ["rates", "--help"]])
    def test_help_and_version_exit_0(self, argv, capsys):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0

    def test_single_m_sidecar_is_strict_json(self, tmp_path):
        out = tmp_path / "one.csv"
        assert run(["hardness", "--m-list", "4", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        text = (tmp_path / "one.csv.json").read_text()
        doc = json.loads(text, parse_constant=reject)
        assert doc["fitted_exponent"] is None


# the option strings each subcommand's parser accepts
FLAGS = {
    "build-hat": "--C --L --M --d --n --y",
    "verify-hat": "--C --L --M --d --n --network --y",
    "rates": "--alpha --d --n-max",
    "lipschitz": "--C --L --M --d --n --norm",
    "hardness": "--algorithm --alpha --d --format --gamma --grid-res --m-list",
    "mc-hardness": "--alpha --d --draws --format --gamma --grid-res --m-list",
    "upper-bound": "--alpha --d --format --gamma --grid-res --m-list --reconstruction",
    "sum-check": "--M1 --M2 --target-depth --y1 --y2",
}
COMMON_FLAGS = "-h --help --config --out --seed"
POLICY_FLAGS = "--theta-c --kappa-c --scale --depth-cap"


def test_each_command_takes_its_flags(monkeypatch, capsys):
    parsers = []
    parse = argparse.ArgumentParser.parse_known_args

    def recording(parser, *args, **kwargs):
        parsers.append(parser)
        return parse(parser, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", recording)
    assert main(["rates"]) == 0
    (commands,) = (a for a in parsers[0]._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(FLAGS)
    for name, parser in commands.choices.items():
        want = set(f"{COMMON_FLAGS} {FLAGS[name]}".split())
        if name != "sum-check":
            want |= set(POLICY_FLAGS.split())
        assert {s for a in parser._actions for s in a.option_strings} == want, name


# valid values of each config key, small enough that a command runs fast
SMALL = {
    "theta_c": [0.0, 0.5], "kappa_c": [0.0, 1.0], "scale": [1.0, 256.0],
    "depth_cap": [5, 7.0, "inf"], "n": [1, 2], "L": [5, 6], "C": [None, 1.0, 1],
    "M": [1.0, 2], "d": [1, 2.0], "y": [None, [0.5], [0.25, 0.75]],
    "points": [1, 2000], "network": [None], "alpha": [1.0, 2], "n_max": [0, 100, 1000],
    "R": [1.0, 2.0], "norm": ["l1", "linf", "unit-cube-l1", "unit-cube-linf"],
    "samples": [100, 2000], "gamma": [None, 15.0],
    "algorithm": ["grid", "grid-multilinear", "random", "zero"], "draws": [30],
    "reconstruction": ["nearest", "multilinear"], "M1": [1.0, 4], "y1": [0.25, 0.0],
    "M2": [2.0, 1], "y2": [0.75, 1.0], "target_depth": [3, 5],
}
WRONG_TYPE = st.one_of(
    st.none(), st.booleans(), st.text(max_size=4), st.lists(st.integers(0, 2), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=1),
)
OUT_OF_RANGE = st.sampled_from(
    [0, -1, -0.5, 2.5, 1e300, -1e300, 2**53 + 1, 10**400, math.nan, math.inf, -math.inf]
)
# the keys each command reads, and the argv that keeps its run small
READS = {
    "build-hat": ("n L C M d y points", []),
    "verify-hat": ("n L C M d y points network", []),
    "rates": ("alpha d n_max", []),
    "lipschitz": ("n L C M d y R norm samples", []),
    "hardness": ("alpha d gamma algorithm", ["--m-list", "4,16,64"]),
    "mc-hardness": ("alpha d gamma draws", ["--m-list", "4,16,64"]),
    "upper-bound": ("alpha d gamma reconstruction", ["--m-list", "16,64"]),
    "sum-check": ("M1 y1 M2 y2 target_depth points", []),
}
POLICY_KEYS = ["theta_c", "kappa_c", "scale", "depth_cap"]
SIZES = {"points", "samples", "draws", "n_max"}  # always drawn, so never the default


@pytest.mark.parametrize("command", READS)
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_any_config_value_exits_cleanly(command, data):
    keys, argv = READS[command]
    keys = keys.split() + ([] if command == "sum-check" else POLICY_KEYS)
    config = data.draw(st.fixed_dictionaries(
        {k: st.sampled_from(SMALL[k]) for k in keys if k in SIZES},
        optional={k: st.sampled_from(SMALL[k]) for k in keys if k not in SIZES},
    ))
    for key in data.draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        config[key] = data.draw(st.one_of(WRONG_TYPE, OUT_OF_RANGE))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(config))
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = main([command, *argv, "--config", str(path), "--out", f"{tmp}/out"])
        written = [p.read_text() for p in Path(tmp).iterdir() if p != path]
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith(f"{command}: ")
    for text in [out.getvalue(), without_echoes(err.getvalue(), config), *written]:
        for word in ("Traceback", "NaN", "Infinity"):
            assert word not in text
