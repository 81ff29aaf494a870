"""Workload definitions and artifact checks for the requ-gap benchmark.

A workload is a fixed list of ``requ-gap`` command lines.  A command counts
as ok only when it exits with status 0 and its check accepts the artifacts
it wrote.  The reduced variants keep the same commands at sizes small
enough for the self-test.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Defaults the CLI applies to the sweep commands used here; the generic
# cross-check rebuilds the sweep's smallest row from them.
_SWEEP_POLICY = dict(kind="parametric", theta_c=0.0, kappa_c=0.0, scale=1.0, depth_cap=5)
_SWEEP_ALPHA = 1.0
_MC_DRAWS = 30
_GRID_RESOLUTION = 9


@dataclass(frozen=True)
class Command:
    """One CLI call, the artifacts to hash, and the check of its outputs.

    Every command of these workloads is expected to exit with status 0."""

    name: str
    argv: tuple[str, ...]
    check: Callable[["CheckContext"], list[str]]
    hashed: tuple[str, ...] = ()


@dataclass(frozen=True)
class CheckContext:
    """What a check may look at: the pass directory and the run settings."""

    out: Path
    seed: int
    digests: dict  # artifact file name -> reference sha256 (missing: none recorded)
    deep: bool  # run the generic-path cross-check (done once per run)


def sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _digest_problems(ctx: CheckContext, names) -> list[str]:
    problems = []
    for name in names:
        want = ctx.digests.get(name)
        if want is not None and sha256_file(ctx.out / name) != want:
            problems.append(f"{name}: sha256 differs from the reference")
    return problems


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text())


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _read_sweep_csv(path: Path, m_list) -> tuple[list[dict], list[str]]:
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if [int(r["m"]) for r in rows] != list(m_list):
        problems.append(f"{path.name}: rows do not cover m-list {list(m_list)}")
        return rows, problems
    for r in rows:
        m = int(r["m"])
        for key in ("measured_avg_error", "lower_bound", "amplitude"):
            if not math.isfinite(float(r[key])):
                problems.append(f"{path.name}: m={m} {key} is not finite")
        if int(r["unseen_count"]) < m:
            problems.append(f"{path.name}: m={m} unseen_count < m")
        if r["pass"] != "true":
            problems.append(f"{path.name}: m={m} pass is not true")
    return rows, problems


def _generic_reference(kind: str, m: int, d: int, seed: int) -> float:
    """The smallest row's average error recomputed on the per-member path."""
    import numpy as np
    from requ_gap import (
        GrowthPolicy,
        average_error,
        build_adversarial_family,
        gamma_closed_form,
        grid_algorithm,
        uniform_random_algorithm,
    )

    policy = GrowthPolicy(**_SWEEP_POLICY)
    gamma = gamma_closed_form(policy)[0] - 0.5
    family = build_adversarial_family(m, d, _SWEEP_ALPHA, gamma, policy)
    if kind == "grid-multilinear":
        alg = grid_algorithm(m, d, "multilinear")
        return average_error(family, alg, _GRID_RESOLUTION, method="generic").average
    errors = [
        average_error(
            family,
            uniform_random_algorithm(m, d, rng=np.random.default_rng([seed, m, k])),
            _GRID_RESOLUTION,
            method="generic",
        ).average
        for k in range(_MC_DRAWS)
    ]
    return float(np.mean(errors))


def _sweep_check(artifact: str, kind: str, d: int, m_list):
    def check(ctx: CheckContext) -> list[str]:
        rows, problems = _read_sweep_csv(ctx.out / artifact, m_list)
        problems += _digest_problems(ctx, [artifact])
        if ctx.deep and artifact not in ctx.digests and not problems:
            m = m_list[0]
            want = _generic_reference(kind, m, d, ctx.seed)
            got = float(rows[0]["measured_avg_error"])
            if got != want:
                problems.append(
                    f"{artifact}: m={m} error {got!r} != generic path {want!r}"
                )
        return problems

    return check


def _sweep_grid_d3(seed: int, out: Path, reduced: bool) -> list[Command]:
    m_list = (8, 27) if reduced else (100, 200, 300, 343)
    artifact = "hardness.csv"
    argv = (
        "hardness", "--algorithm", "grid-multilinear", "--d", "3",
        "--m-list", ",".join(map(str, m_list)),
        "--seed", str(seed), "--out", str(out / artifact),
    )
    check = _sweep_check(artifact, "grid-multilinear", 3, m_list)
    return [Command("hardness", argv, check, hashed=(artifact,))]


def _sweep_mc_d2(seed: int, out: Path, reduced: bool) -> list[Command]:
    m_list = (4, 16) if reduced else (16, 64, 256, 1024)
    artifact = "mc-hardness.csv"
    argv = (
        "mc-hardness", "--d", "2", "--m-list", ",".join(map(str, m_list)),
        "--seed", str(seed), "--out", str(out / artifact),
    )
    check = _sweep_check(artifact, "random", 2, m_list)
    return [Command("mc-hardness", argv, check, hashed=(artifact,))]


# ---------------------------------------------------------------------------
# hat round trip
# ---------------------------------------------------------------------------

def _pass_check(name: str, extra=None):
    def check(ctx: CheckContext) -> list[str]:
        report = _read_json(ctx.out / name)
        problems = [] if report.get("pass") is True else [f"{name}: pass is not true"]
        if extra is not None:
            problems += extra(report)
        return problems

    return check


def _verify_extra(report: dict) -> list[str]:
    problems = []
    if report.get("file_matches") is not True:
        problems.append("verify.json: file_matches is not true")
    rel = report.get("max_rel_err")
    if not (isinstance(rel, (int, float)) and rel <= 1e-9):
        problems.append(f"verify.json: max_rel_err {rel!r} > 1e-9")
    return problems


def _hat_roundtrip_n4(seed: int, out: Path, reduced: bool) -> list[Command]:
    if reduced:
        hat = ("--n", "2", "--L", "5", "--M", "2", "--d", "1",
               "--scale", "256", "--depth-cap", "5")
    else:
        hat = ("--n", "4", "--L", "7", "--M", "2", "--d", "1",
               "--scale", "256", "--depth-cap", "7")
    s = ("--seed", str(seed))
    network = str(out / "hat.json")

    def build_check(ctx: CheckContext) -> list[str]:
        problems = _digest_problems(ctx, ["hat.json"])
        sidecar = _read_json(ctx.out / "hat.json.verify.json")
        if sidecar.get("pass") is not True:
            problems.append("hat.json.verify.json: pass is not true")
        return problems

    return [
        Command("build-hat", ("build-hat", *hat, *s, "--out", network),
                build_check, hashed=("hat.json",)),
        Command("verify-hat",
                ("verify-hat", *hat, *s, "--network", network,
                 "--out", str(out / "verify.json")),
                _pass_check("verify.json", _verify_extra)),
        Command("lipschitz", ("lipschitz", *hat, *s, "--out", str(out / "lipschitz.json")),
                _pass_check("lipschitz.json")),
        Command("sum-check", ("sum-check", *s, "--out", str(out / "sum-check.json")),
                _pass_check("sum-check.json")),
    ]


# workload name -> (seed, output directory, reduced) -> command list
WORKLOADS: dict[str, Callable[[int, Path, bool], list[Command]]] = {
    "sweep-grid-d3": _sweep_grid_d3,
    "sweep-mc-d2": _sweep_mc_d2,
    "hat-roundtrip-n4": _hat_roundtrip_n4,
}


def reference_digests(reference: dict, workload: str, reduced: bool, seed: int) -> dict:
    """Artifact -> recorded sha256 for this workload variant and seed.

    Reduced variants are keyed ``<workload>/reduced``; ``"*"`` marks an
    artifact whose bytes do not depend on the seed."""
    label = f"{workload}/reduced" if reduced else workload
    table = reference.get("digests", {}).get(label, {})
    found = {}
    for artifact, by_seed in table.items():
        want = by_seed.get(str(seed), by_seed.get("*"))
        if want is not None:
            found[artifact] = want
    return found
