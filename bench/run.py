"""requ-gap benchmark: three CLI workloads, end-to-end and per-layer metrics.

Usage, from the repository root:

    python3 bench/run.py --workload sweep-grid-d3 --seed 0 --seconds 40 --trace 0

Workloads: ``sweep-grid-d3``, ``sweep-mc-d2``, ``hat-roundtrip-n4`` (see
``workloads.py``).  Every workload run happens in a fresh interpreter with
``src`` on ``PYTHONPATH``; nothing is installed.

``--trace 0`` reports the end-to-end metrics: ``wall_s`` (median over the
passes, each in a fresh interpreter, of the in-process time of the command
list after import; a pass starts only if it is expected to end within
``--seconds``, except that there are always three),
``setup_s`` (median of several fresh-interpreter ``import requ_gap.cli``
timings), ``peak_rss_mb`` (median over the passes of the child's
``ru_maxrss``) and ``ok_frac`` (commands with the expected exit status and
correct artifacts over commands attempted).

``--trace 1`` reports the per-layer metrics: a ``-X importtime`` breakdown of
set-up, the per-layer times, self times and counters of one traced pass,
and the tracing overhead: the traced pass's wall time minus the mean of two
untraced passes run before and after it, each pass in its own interpreter.  The spans are written
to ``.bench_build/traces/``.

A pass whose child interpreter dies, or is stopped at the run's time
limit, counts every command of the pass as failed; the run goes on.  The
artifact digests of every pass are logged to standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The program exits
with status 2, printing no result, when the requ_gap sources are missing,
and with status 1 when ``import requ_gap.cli`` fails.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = tuple(workloads.WORKLOADS)
SETUP_SAMPLES = 5
MIN_PASSES = 3  # a median needs three; those of hat-roundtrip-n4 take about 43 s
IMPORTTIME_SAMPLES = 3
DEADLINE_S = 170.0  # a run must end within 180 s whatever --seconds is

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "ok_frac": "ratio"}

PER_LAYER = {
    "setup.scipy_import_s": "s",
    "setup.numpy_import_s": "s",
    "setup.requ_gap_self_s": "s",
    "setup.import_total_s": "s",
    "cli.hardness_s": "s",
    "cli.mc_hardness_s": "s",
    "cli.build_hat_s": "s",
    "cli.verify_hat_s": "s",
    "cli.lipschitz_s": "s",
    "cli.sum_check_s": "s",
    "cli.self_s": "s",
    "cli.bytes_written": "bytes",
    "sampling.average_error_s": "s",
    "sampling.average_error_calls": "count",
    "sampling.average_error_p50_s": "s",
    "sampling.average_error_p90_s": "s",
    "sampling.stencil_s": "s",
    "sampling.build_family_s": "s",
    "sampling.build_algorithm_s": "s",
    "sampling.count_unseen_s": "s",
    "sampling.test_points": "count",
    "sampling.cells_total": "count",
    "sampling.cells_seen": "count",
    "sampling.seen_ratio": "ratio",
    "sampling.stencil_bytes_computed": "bytes",
    "sampling.self_s": "s",
    "hats.build_hat_s": "s",
    "hats.verify_hat_s": "s",
    "hats.realize_s": "s",
    "hats.closed_form_s": "s",
    "hats.scaled_unit_ball_bump_s": "s",
    "hats.materialize_s": "s",
    "hats.materialize_calls": "count",
    "hats.materialize_useful_ratio": "ratio",
    "hats.self_s": "s",
    "network.serialize_s": "s",
    "network.serialize_calls": "count",
    "network.serialize_bytes": "bytes",
    "network.deserialize_s": "s",
    "network.deserialize_bytes": "bytes",
    "network.realize_s": "s",
    "network.sum_networks_s": "s",
    "network.depth_extend_s": "s",
    "network.weights": "count",
    "network.self_s": "s",
    "rates.empirical_lipschitz_s": "s",
    "rates.bounds_s": "s",
    "rates.self_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
}

_IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import requ_gap.cli; "
    "print(repr(time.perf_counter() - t))"
)


class BenchError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed operation)."""


def _failed_pass(commands: int, wall: float, problem: str) -> dict:
    """The outcome of a pass whose child wrote no result: every command failed.

    ``peak_rss_mb`` is the largest ``ru_maxrss`` of any child ended so far,
    this one included."""
    return {
        "wall": wall,
        "attempted": commands,
        "failed": commands,
        "problems": [problem],
        "digests": {},
        "bytes_written": 0,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
    }


class Runner:
    """Starts the benchmark's child interpreters against ``ROOT/src``."""

    def __init__(self, workdir: Path, deadline: float):
        self.workdir = workdir
        self.deadline = deadline
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        prior = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + prior if prior else "")

    def out_of_time(self) -> bool:
        return time.monotonic() >= self.deadline

    def _run(self, argv) -> subprocess.CompletedProcess:
        """Runs a child; one still running at the deadline is killed and reaped."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise subprocess.TimeoutExpired(argv, 0)
        return subprocess.run(
            [sys.executable, *argv], cwd=ROOT, env=self.env,
            capture_output=True, text=True, timeout=remaining,
        )

    def python(self, *argv: str) -> subprocess.CompletedProcess:
        """A set-up child: if it fails, nothing can be measured."""
        try:
            proc = self._run(argv)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"child timed out: {argv[:2]}") from exc
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            raise BenchError(f"child exited with status {proc.returncode}: {argv[:2]}")
        return proc

    def import_seconds(self) -> float:
        return float(self.python("-c", _IMPORT_TIMER).stdout.strip().splitlines()[-1])

    def importtime_breakdown(self) -> dict:
        """Self time per package group from ``python -X importtime``."""
        stderr = self.python("-X", "importtime", "-c", "import requ_gap.cli").stderr
        groups = {"scipy": 0.0, "numpy": 0.0, "requ_gap": 0.0}
        total = 0.0
        for line in stderr.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            self_us, _, name = line[len("import time:"):].split("|")
            seconds = int(self_us) * 1e-6
            total += seconds  # self times partition the whole import
            package = name.strip().split(".")[0]
            if package in groups:
                groups[package] += seconds
        return {
            "setup.scipy_import_s": groups["scipy"],
            "setup.numpy_import_s": groups["numpy"],
            "setup.requ_gap_self_s": groups["requ_gap"],
            "setup.import_total_s": total,
        }

    def workload_pass(self, args, tag, trace=0, deep=False, spans=None) -> dict:
        """One pass of the workload's command list in a fresh interpreter."""
        result = self.workdir / f"{tag}.json"
        commands = len(workloads.WORKLOADS[args.workload](args.seed, self.workdir / tag, args.reduced))
        argv = [
            str(BENCH / "child.py"), "--workload", args.workload, "--seed", str(args.seed),
            "--trace", str(trace), "--reference", str(args.reference),
            "--workdir", str(self.workdir / tag), "--result", str(result),
        ]
        if args.reduced:
            argv.append("--reduced")
        if deep:
            argv.append("--deep")
        if spans is not None:
            argv += ["--spans", str(spans)]
        t0 = time.monotonic()
        try:
            proc = self._run(argv)
            fault = None if proc.returncode == 0 else f"child exited with status {proc.returncode}"
            if fault is None and not result.is_file():
                fault = "child wrote no result"
            if fault is not None:
                sys.stderr.write(proc.stderr[-4000:])
        except subprocess.TimeoutExpired:
            fault = "child stopped at the time limit"
        if fault is None:
            outcome = json.loads(result.read_text())
        else:
            outcome = _failed_pass(commands, time.monotonic() - t0, fault)
        for problem in outcome["problems"]:
            print(f"{args.workload} {tag}: {problem}", file=sys.stderr)
        digests = json.dumps(outcome["digests"], sort_keys=True)
        print(f"{args.workload} {tag}: wall {outcome['wall']:.3f} s, digests {digests}", file=sys.stderr)
        return outcome


def _passes(runner: Runner, args) -> list[dict]:
    """Fresh-interpreter passes while the next is expected to end within
    ``--seconds``, at least MIN_PASSES unless the run's time limit comes first.

    Each pass pays what a CLI call pays after import, including work done
    lazily on first use.  A pass whose artifacts differ from those of the
    first pass that wrote any counts at least one failed operation."""
    passes, start = [], time.monotonic()
    while True:
        t0 = time.monotonic()
        outcome = runner.workload_pass(args, f"pass-{len(passes)}", deep=not passes)
        first = next((p["digests"] for p in passes if p["digests"]), None)
        if first is not None and outcome["digests"] != first:
            print(f"{args.workload}: artifacts differ between passes", file=sys.stderr)
            outcome["failed"] = max(outcome["failed"], 1)
        passes.append(outcome)
        now = time.monotonic()
        if runner.out_of_time() or (
            len(passes) >= MIN_PASSES and now - start + (now - t0) > args.seconds
        ):
            return passes


def measure(runner: Runner, args) -> dict:
    runner.import_seconds()  # warm-up: byte-compiles a fresh checkout
    if not args.trace:
        setup = [runner.import_seconds() for _ in range(SETUP_SAMPLES)]
        runs = _passes(runner, args)
        values = {
            "wall_s": statistics.median(r["wall"] for r in runs),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in runs),
        }
        units = END_TO_END
    else:
        samples = [runner.importtime_breakdown() for _ in range(IMPORTTIME_SAMPLES)]
        # untraced passes on both sides of the traced one, so that drift in
        # machine speed does not read as tracing overhead
        before = runner.workload_pass(args, "untraced-0", deep=True)
        spans = ROOT / ".bench_build" / "traces" / f"{args.workload}-seed{args.seed}.json"
        traced = runner.workload_pass(args, "traced", trace=1, spans=spans)
        after = runner.workload_pass(args, "untraced-1")
        untraced = (before["wall"] + after["wall"]) / 2
        # a traced pass that failed to report measured no layer
        values = dict(traced.get("metrics") or dict.fromkeys(PER_LAYER, 0.0))
        values.update({k: statistics.median(s[k] for s in samples) for k in samples[0]})
        values["cli.bytes_written"] = traced["bytes_written"]
        values["trace.untraced_wall_s"] = untraced
        values["trace.traced_wall_s"] = traced["wall"]
        values["trace.overhead_s"] = traced["wall"] - untraced
        runs, units = [before, traced, after], PER_LAYER
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    values["ok_frac"] = (attempted - failed) / attempted
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": values[k], "unit": unit} for k, unit in units.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true",
                    help="small inputs with the same commands (self-test)")
    ap.add_argument("--reference", type=Path, default=BENCH / "reference.json",
                    help="reference digests to check artifacts against")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "requ_gap" / "cli.py").is_file():
        print(f"bench: no requ_gap sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_build" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        report = measure(Runner(workdir, time.monotonic() + DEADLINE_S), args)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
