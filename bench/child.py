"""Run one pass of a workload's command lines in this (fresh) interpreter.

Started by ``run.py``; not meant to be run by hand.  Imports ``requ_gap.cli``,
runs the workload's command list once through ``cli.main(argv)`` and times
it, then checks the artifacts outside the timed region.  ``peak_rss_mb`` is
the high-water mark after the commands, before any check runs.  With
``--trace 1`` the layer wrappers are installed around the commands and the
per-layer metrics are computed from the spans.  The result is written as
JSON to ``--result``.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import tracing
from workloads import WORKLOADS, CheckContext, reference_digests, sha256_file


def _run_command(cli, argv) -> tuple[int | None, str | None]:
    try:
        return cli.main(list(argv)), None
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), None
    except Exception as exc:  # any crash is a failed operation, not an abort
        return None, f"raised {type(exc).__name__}: {exc}"


def _check(command, ctx) -> list[str]:
    try:
        return command.check(ctx)
    except Exception as exc:  # a missing or unreadable artifact fails the command
        return [f"check raised {type(exc).__name__}: {exc}"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reduced", action="store_true")
    ap.add_argument("--deep", action="store_true", help="also run the generic-path cross-check")
    ap.add_argument("--reference", type=Path, required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path, default=None)
    args = ap.parse_args(argv)

    import requ_gap.cli as cli

    reference = json.loads(args.reference.read_text())
    digests = reference_digests(reference, args.workload, args.reduced, args.seed)
    out = args.workdir
    out.mkdir(parents=True)
    commands = WORKLOADS[args.workload](args.seed, out, args.reduced)

    tracer = tracing.Tracer() if args.trace else None
    saved = tracing.install(tracer) if tracer else []
    outcomes, wall = [], 0.0
    for command in commands:
        t0 = time.perf_counter()
        outcomes.append(_run_command(cli, command.argv))
        wall += time.perf_counter() - t0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracing.uninstall(saved)

    ctx = CheckContext(out=out, seed=args.seed, digests=digests, deep=args.deep)
    problems, digests_seen, failed = [], {}, 0
    for command, (status, error) in zip(commands, outcomes):
        faults = [error] if error else []
        if status != 0:
            faults.append(f"exit status {status}, expected 0")
        else:
            faults += _check(command, ctx)
        for artifact in command.hashed:
            if (out / artifact).exists():
                digests_seen[artifact] = sha256_file(out / artifact)
        if faults:
            failed += 1
            problems.extend(f"{command.name}: {p}" for p in faults)
    bytes_written = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    shutil.rmtree(out)

    result = {
        "wall": wall,
        "attempted": len(commands),
        "failed": failed,
        "problems": problems,
        "digests": digests_seen,
        "bytes_written": bytes_written,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        result["metrics"] = tracing.layer_metrics(tracer)
        if args.spans is not None:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.span_records()))
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
