"""Self-test of the benchmark on reduced-size workloads.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

COUNT_UNITS = {"count", "bytes", "ratio"}


def _bench(*argv, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "bench" / "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def _child(workload, tmp_path, tag, seed=0):
    result = tmp_path / f"{tag}.json"
    subprocess.run(
        [sys.executable, str(BENCH / "child.py"), "--workload", workload,
         "--seed", str(seed), "--trace", "1", "--reduced",
         "--reference", str(BENCH / "reference.json"),
         "--workdir", str(tmp_path / tag), "--result", str(result)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        check=True, capture_output=True, timeout=170,
    )
    return json.loads(result.read_text())


def test_metric_tables_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_reduced_workload_repeats_counters_and_digests(workload, tmp_path):
    first = _child(workload, tmp_path, "a")
    second = _child(workload, tmp_path, "b")
    for outcome in (first, second):
        assert outcome["failed"] == 0, outcome["problems"]
    assert first["digests"] and first["digests"] == second["digests"]
    assert first["bytes_written"] == second["bytes_written"]
    counters = [k for k, unit in run.PER_LAYER.items() if unit in COUNT_UNITS and k in first["metrics"]]
    assert counters
    assert {k: first["metrics"][k] for k in counters} == {k: second["metrics"][k] for k in counters}


def test_end_to_end_report_contract():
    proc = _bench("--workload", "hat-roundtrip-n4", "--reduced", "--seconds", "0")
    assert proc.returncode == 0, proc.stderr
    report = _last_json(proc.stdout)
    assert set(report) == {"correct", "attempted", "failed", "metrics"}
    assert report["correct"] is True and report["failed"] == 0 and report["attempted"] == 4 * run.MIN_PASSES
    assert {k: v["unit"] for k, v in report["metrics"].items()} == run.END_TO_END
    assert report["metrics"]["ok_frac"]["value"] == 1.0
    assert proc.stderr.count('digests {"hat.json": "') == run.MIN_PASSES


def test_crashed_child_counts_its_pass_as_failed(tmp_path):
    proc = _bench("--workload", "sweep-mc-d2", "--reduced", "--seconds", "0",
                  "--reference", str(tmp_path / "missing.json"))
    assert proc.returncode == 0, proc.stderr
    report = _last_json(proc.stdout)
    assert report["correct"] is False
    assert report["failed"] == report["attempted"] == run.MIN_PASSES
    assert report["metrics"]["ok_frac"]["value"] == 0.0
    assert "child exited with status 1" in proc.stderr


@pytest.mark.parametrize(
    "workload,artifact",
    [("sweep-grid-d3", "hardness.csv"), ("hat-roundtrip-n4", "hat.json")],
)
def test_wrong_reference_digest_drops_ok_frac(workload, artifact, tmp_path):
    reference = json.loads((BENCH / "reference.json").read_text())
    reference["digests"][f"{workload}/reduced"] = {artifact: {"*": "0" * 64}}
    path = tmp_path / "reference.json"
    path.write_text(json.dumps(reference))
    proc = _bench("--workload", workload, "--reduced", "--seconds", "0",
                  "--reference", str(path))
    assert proc.returncode == 0, proc.stderr
    report = _last_json(proc.stdout)
    assert report["correct"] is False and report["failed"] >= 1
    assert report["metrics"]["ok_frac"]["value"] < 1.0
    assert "sha256 differs" in proc.stderr


def test_without_sources_exits_nonzero_and_prints_nothing(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "sweep-grid-d3", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_uninstall_restores_every_wrapped_name():
    sys.path.insert(0, str(ROOT / "src"))
    import requ_gap.cli as cli
    import requ_gap.hats as hats
    import tracing

    before_cli = dict(vars(cli))
    before_cls = dict(vars(hats.BuiltHat))
    saved = tracing.install(tracing.Tracer())
    assert cli.serialize is not before_cli["serialize"]
    assert vars(hats.BuiltHat)["network"] is not before_cls["network"]
    tracing.uninstall(saved)
    assert dict(vars(cli)) == before_cli
    assert dict(vars(hats.BuiltHat)) == before_cls
