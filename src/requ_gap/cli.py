"""Command-line interface: build/verify hat networks, compute rate and
Lipschitz bounds, and run hardness / upper-bound sweeps.

Configuration comes from an optional JSON file (--config) merged with
command-line flags (flags win); every emitted artifact embeds the typed
keys its command read, so it is self-describing.  Exit status encodes the
scientific pass/fail of the command, not merely crash-freedom.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable
from pathlib import Path

import numpy as np

from . import __version__
from .hats import (
    _MAX_MIDDLE_ROWS,
    BumpSpec,
    HatBuildParams,
    build_hat,
    choose_amplitude_base,
    lambda_network,
    verify_hat,
)
from .network import (
    GrowthPolicy,
    depth_extend,
    encode,
    realize,
    serialize,  # noqa: F401  (bench/tracing.py wraps it on this module)
    stored_as,
    sum_networks,
)
from .rates import (
    LipschitzBoundInput,
    empirical_lipschitz,
    gamma_closed_form,
    gamma_numeric,
    lipschitz_bound,
    rate_window,
)
from .sampling import (
    grid_algorithm,
    run_hardness_sweep,
    run_mc_sweep,
    run_upper_bound_sweep,
    uniform_mc,
    uniform_random_algorithm,
    zero_algorithm,
)


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises a ConfigError, its message led by the
    command's name, where argparse would print usage and exit with 2."""

    def error(self, message):
        raise ConfigError(f"{self.prog.split()[-1]}: {message}")


# points or samples a command evaluates, at most
_MAX_POINTS = 1 << 20
# coordinates in one batch of points or samples (their count times d), at most
_MAX_COORDS = 1 << 23
# any other integer, at most: every integer up to it is exact in float64
_MAX_INT = 1 << 53

# A key's kind is (what a valid value is, check, flag type): check(value)
# returns the typed value or raises ValueError; a flag's text is converted
# by its argparse type, so check sees the same form from a flag and a file.
def _integer(low=1, high=_MAX_INT, inf=False):
    def check(value):
        if inf and value == "inf":
            return value
        if type(value) is float and value.is_integer():
            value = int(value)
        if type(value) is not int or not low <= value <= high:
            raise ValueError
        return value
    def number(text):
        # --depth-cap 7.5 reaches check as 7.5, to be rejected naming the key
        return text if text == "inf" else float(text)

    flag = number if inf else int
    return f"an integer in [{low}, {high}]" + (' or "inf"' if inf else ""), check, flag


def _real(below=math.inf, null=False):
    def check(value):
        if null and value is None:
            return value
        # a bool is no number; abs() <= max rejects NaN, inf and huge ints
        if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:
            raise ValueError
        if not value < below:
            raise ValueError
        return float(value)
    bounds = f" in (-inf, {below})" if below != math.inf else ""
    return "a finite number" + bounds + (" or null" if null else ""), check, float


def _choice(*options):
    def check(value):
        if type(value) is not str or value not in options:
            raise ValueError
        return value
    return f"one of {list(options)}", check, str


def _path(value):
    if value is not None and type(value) is not str:
        raise ValueError
    return value


def _reals(value):
    if value is not None and type(value) is not list:
        raise ValueError
    return value if value is None else [_real()[1](v) for v in value]


def _floats(text: str) -> list[float]:
    return [float(v) for v in text.split(",")]


# argparse names a flag's type by its __name__ in a conversion error
_floats.__name__ = "number list"


_ALGORITHMS = {
    "grid": lambda m, d, seed: grid_algorithm(m, d, "nearest"),
    "grid-multilinear": lambda m, d, seed: grid_algorithm(m, d, "multilinear"),
    "random": lambda m, d, seed: uniform_random_algorithm(m, d, seed=seed),
    "zero": lambda m, d, seed: zero_algorithm(m, d),
}

# every config key: its default and its kind
_KEYS = {
    "theta_c": (0.0, _real()),
    "kappa_c": (0.0, _real()),
    "scale": (1.0, _real()),
    # 2.0**L is finite up to L = 1023
    "depth_cap": (5, _integer(high=1023, inf=True)),
    "n": (1, _integer()),
    "L": (5, _integer(high=1023)),
    "C": (None, _real(below=2.0**128, null=True)),  # C**8 finite
    "M": (1.0, _real()),
    "d": (1, _integer()),
    "y": (None, ("a list of finite numbers or null", _reals, _floats)),
    "points": (10_000, _integer(high=_MAX_POINTS)),
    "network": (None, ("a path or null", _path, str)),
    "alpha": (1.0, _real()),
    "n_max": (0, _integer(low=0)),
    "R": (1.0, _real()),
    "norm": ("unit-cube-l1", _choice("l1", "linf", "unit-cube-l1", "unit-cube-linf")),
    "samples": (1000, _integer(high=_MAX_POINTS)),
    "gamma": (None, _real(null=True)),
    "algorithm": ("grid", _choice(*_ALGORITHMS)),
    "draws": (30, _integer()),
    "reconstruction": ("nearest", _choice("nearest", "multilinear")),
    "M1": (1.0, _real(below=2.0**256)),  # M1**4 finite
    "y1": (0.25, _real()),
    "M2": (2.0, _real(below=2.0**256)),  # M2**4 finite
    "y2": (0.75, _real()),
    "target_depth": (5, _integer()),
}

# the keys each command reads, a key with a flag written as that flag
_POLICY = ("--theta-c", "--kappa-c", "--scale", "--depth-cap")
_HAT = (*_POLICY, "--n", "--L", "--C", "--M", "--d")
_SWEEP = (*_POLICY, "--alpha", "--d", "--gamma")
_COMMANDS = {
    "build-hat": (*_HAT, "--y", "points"),
    "verify-hat": (*_HAT, "--y", "--network", "points"),
    "rates": (*_POLICY, "--alpha", "--d", "--n-max"),
    "lipschitz": (*_HAT, "--norm", "y", "R", "samples"),
    "hardness": (*_SWEEP, "--algorithm"),
    "mc-hardness": (*_SWEEP, "--draws"),
    "upper-bound": (*_SWEEP, "--reconstruction"),
    "sum-check": ("--M1", "--y1", "--M2", "--y2", "--target-depth", "points"),
}
_COMMAND_DEFAULTS = {"sum-check": {"points": 1000}}


def _key(name: str) -> str:
    return name.removeprefix("--").replace("-", "_")


def _merge_config(args) -> dict:
    """The keys args.command reads: table defaults, then --config, then
    flags, each checked once against its kind and returned typed."""
    cfg = {_key(name): _KEYS[_key(name)][0] for name in _COMMANDS[args.command]}
    cfg.update(_COMMAND_DEFAULTS.get(args.command, {}))
    if args.config:
        with open(args.config, "rb") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON: {exc}") from exc
        if type(file_cfg) is not dict:
            raise ConfigError("config must be a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key, value in cfg.items():
        flag = getattr(args, key, None)  # None also for a key with no flag
        value = value if flag is None else flag
        what, check, _ = _KEYS[key][1]
        try:
            cfg[key] = check(value)
        except ValueError:
            raise ConfigError(f"{key} must be {what}, got {value!r}") from None
    return cfg


def _policy_from(cfg) -> GrowthPolicy:
    return GrowthPolicy(
        kind="parametric",
        theta_c=cfg["theta_c"],
        kappa_c=cfg["kappa_c"],
        scale=cfg["scale"],
        depth_cap=math.inf if cfg["depth_cap"] == "inf" else cfg["depth_cap"],
    )


def _write(
    args, doc: dict, artifact: Iterable[bytes] | None = None, sidecar: str = ".json"
) -> None:
    """Write doc as strict JSON to --out, or to stdout without --out.  With
    an artifact, an iterable of byte pieces, --out receives the pieces one
    after another and doc goes to --out + sidecar.  A NaN or infinite value
    in doc raises ValueError before anything is written."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    if artifact is not None:
        with out.open("wb") as fh:
            fh.writelines(artifact)
        out = Path(f"{out}{sidecar}")
    out.write_text(text)


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) when x is infinite or NaN."""
    return x if math.isfinite(x) else None


def _hat_params(cfg) -> HatBuildParams:
    # d is bounded before anything of its size is allocated: by the batch of
    # points and the hat's 3 d middle rows, or by the 2 (d + 1) batches of
    # samples x d coordinates of lipschitz: d (d + 1) <= _MAX_COORDS // samples
    batch = "samples" if "samples" in cfg else "points"
    high = _MAX_COORDS // cfg[batch]
    if batch == "points":
        high = min(high, _MAX_MIDDLE_ROWS // 3)
    else:
        high = (math.isqrt(4 * high + 1) - 1) // 2
    if cfg["d"] > high:
        raise ConfigError(
            f"d must be an integer in [1, {high}] with {batch}={cfg[batch]}, got {cfg['d']}"
        )
    policy = _policy_from(cfg)
    C = cfg["C"]
    if C is None:
        C = choose_amplitude_base(policy, cfg["n"], cfg["d"], cfg["L"])
    y = [0.5] * cfg["d"] if cfg["y"] is None else cfg["y"]
    spec = BumpSpec(d=cfg["d"], M=cfg["M"], y=tuple(y), p=2)
    return HatBuildParams(n=cfg["n"], L=cfg["L"], C=C, spec=spec, policy=policy)


def cmd_build_hat(args) -> int:
    cfg = _merge_config(args)
    hat = build_hat(_hat_params(cfg))
    report = verify_hat(hat, num_points=cfg["points"], seed=args.seed or 0)
    report["config"] = cfg
    # encode checks the weights before --out is opened; the pieces go
    # straight to the file
    _write(args, report, encode(hat.strided) if args.out else None, sidecar=".verify.json")
    return 0 if report["pass"] else 1


def cmd_verify_hat(args) -> int:
    cfg = _merge_config(args)
    hat = build_hat(_hat_params(cfg))
    report = verify_hat(hat, num_points=cfg["points"], seed=args.seed or 0)
    if cfg["network"]:
        with open(cfg["network"], "rb") as stream:
            report["file_matches"] = stored_as(stream, hat.strided)
    report["config"] = {k: v for k, v in cfg.items() if k != "network"}
    _write(args, report)
    return 0 if report["pass"] and report.get("file_matches", True) else 1


def cmd_rates(args) -> int:
    cfg = _merge_config(args)
    policy = _policy_from(cfg)
    window = rate_window(cfg["alpha"], cfg["d"], policy)
    payload = {
        "config": cfg,
        # an unbounded policy has infinite exponents (degenerate): null
        "gamma_flat": _finite_or_none(window.gamma_flat),
        "gamma_sharp": _finite_or_none(window.gamma_sharp),
        "lower_rate": window.lower_rate,
        "upper_rate": window.upper_rate,
        "degenerate": window.degenerate,
        "method": "closed-form",
    }
    if cfg["n_max"] >= 100:
        # null when the exponent is infinite: for unbounded depth (the
        # degenerate window) or a growth term past the float range; and
        # when n_max < 102 leaves the fit undetermined (NaN)
        payload["gamma_numeric"] = (
            None if window.degenerate
            else _finite_or_none(gamma_numeric(policy, cfg["n_max"])[0])
        )
    _write(args, payload)
    return 0 if not payload["degenerate"] else 1


def cmd_lipschitz(args) -> int:
    cfg = _merge_config(args)
    params = _hat_params(cfg)
    hat = build_hat(params)
    inp = LipschitzBoundInput(
        L=params.L,
        C=params.C,
        n=hat.weight_budget(),
        R=cfg["R"],
        d=params.spec.d,
        norm=cfg["norm"],
    )
    bound = lipschitz_bound(inp)
    norm = "linf" if cfg["norm"].endswith("linf") else "l1"
    emp = empirical_lipschitz(
        hat.realize,
        (np.zeros(params.spec.d), np.ones(params.spec.d)),
        samples=cfg["samples"],
        norm=norm,
        seed=args.seed or 0,
    )
    ratio_log2 = (math.log2(emp) - bound.log2) if emp > 0 else -math.inf
    payload = {
        "config": cfg,
        # null for an overflowing bound (see "overflow"), for a log2 past
        # the float range and for the ratio of a zero empirical constant
        "bound_log2": _finite_or_none(bound.log2),
        "bound": _finite_or_none(bound.value),
        "overflow": bound.overflow,
        "empirical": emp,
        "ratio_log2": _finite_or_none(ratio_log2),
        "pass": bool(emp <= bound.value or math.log2(max(emp, 1e-300)) <= bound.log2),
    }
    _write(args, payload)
    return 0 if payload["pass"] else 1


def _resolve_gamma(cfg, policy) -> float:
    if cfg["gamma"] is not None:
        return cfg["gamma"]
    flat, _ = gamma_closed_form(policy)
    if not math.isfinite(flat):
        raise ConfigError("gamma must be given explicitly for unbounded policies")
    return flat - 0.5


def _sweep_command(args, m_list: list[int], run) -> int:
    """The steps shared by the sweep commands.  ``run(cfg, **sweep)`` runs
    the sweep given the keyword arguments all sweep runners take."""
    if not args.out:
        raise ConfigError("--out is required")
    cfg = _merge_config(args)
    policy = _policy_from(cfg)
    gamma = _resolve_gamma(cfg, policy)
    m_list = m_list if args.m_list is None else args.m_list
    report = run(
        cfg,
        m_list=m_list,
        d=cfg["d"],
        alpha=cfg["alpha"],
        gamma=gamma,
        policy=policy,
        grid_resolution=9 if args.grid_res is None else args.grid_res,
        seed=args.seed or 0,
    )
    envelope = json.loads(report.to_json())
    envelope["config"] = {**cfg, "gamma": gamma, "m_list": m_list}
    csv = [report.to_csv().encode()] if (args.format or "csv") == "csv" else None
    _write(args, envelope, csv)
    return 0 if report.passed else 1


def cmd_hardness(args) -> int:
    def run(cfg, **sweep):
        make = _ALGORITHMS[cfg["algorithm"]]
        return run_hardness_sweep(lambda m: make(m, sweep["d"], sweep["seed"]), **sweep)

    return _sweep_command(args, [4, 16, 64, 256], run)


def cmd_mc_hardness(args) -> int:
    def run(cfg, **sweep):
        return run_mc_sweep(lambda m: uniform_mc(m, sweep["d"]), draws=cfg["draws"], **sweep)

    return _sweep_command(args, [4, 16, 64], run)


def cmd_upper_bound(args) -> int:
    def run(cfg, **sweep):
        return run_upper_bound_sweep(reconstruction=cfg["reconstruction"], **sweep)

    return _sweep_command(args, [16, 64, 256, 1024, 4096], run)


def cmd_sum_check(args) -> int:
    cfg = _merge_config(args)
    net1 = lambda_network(cfg["M1"], cfg["y1"])
    net2 = lambda_network(cfg["M2"], cfg["y2"])
    extended = depth_extend(net1, cfg["target_depth"])
    summed = sum_networks(extended, net2)
    rng = np.random.default_rng(args.seed or 0)
    x = rng.uniform(-1.0, 2.0, size=(cfg["points"], 1))
    target = realize(net1, x) + realize(net2, x)
    got = realize(summed, x)
    ext_err = float(np.max(np.abs(realize(extended, x) - realize(net1, x))))
    sum_err = float(np.max(np.abs(got - target)))
    w_bound = 9 * max(extended.weight_count(), net2.weight_count())
    payload = {
        "config": cfg,
        "depth_extend_max_err": ext_err,
        "sum_max_err": sum_err,
        "sum_weight_count": summed.weight_count(),
        "sum_weight_bound": w_bound,
        "pass": bool(
            ext_err <= 1e-12
            and sum_err <= 1e-12
            and summed.weight_count() <= w_bound
        ),
    }
    _write(args, payload)
    return 0 if payload["pass"] else 1


def _parse_m_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v]


_parse_m_list.__name__ = "integer list"


def main(argv=None) -> int:
    parser = _Parser(
        prog="requ-gap",
        description="ReQU network constructions, rate bounds and sampling experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, keys in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("hardness", "mc-hardness", "upper-bound"):
            p.add_argument("--grid-res", type=int, default=None)
            p.add_argument("--m-list", type=_parse_m_list, default=None)
            p.add_argument("--format", choices=("csv", "json"), default=None)
        for flag in keys:
            if flag.startswith("--"):
                p.add_argument(flag, type=_KEYS[_key(flag)][1][2])
    try:
        args, unknown = parser.parse_known_args(argv)
    except ConfigError as exc:
        # flag text its type cannot convert, or a missing or unknown command
        print(exc, file=sys.stderr)
        return 2
    if unknown:
        print(f"{args.command}: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        # looked up at call time, so a cmd_* wrapped on the module (bench/tracing.py) runs
        return globals()[f"cmd_{_key(args.command)}"](args)
    except (ValueError, OSError) as exc:
        # invalid input (ConfigError is a ValueError) or an unreadable file
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
