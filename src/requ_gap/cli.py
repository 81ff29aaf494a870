"""Command-line interface: build/verify hat networks, compute rate and
Lipschitz bounds, and run hardness / upper-bound sweeps.

Configuration comes from an optional JSON file (--config) merged with
command-line flags (flags win); every emitted artifact embeds the fully
resolved configuration so it is self-describing.  Exit status encodes the
scientific pass/fail of the command, not merely crash-freedom.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .hats import (
    BumpSpec,
    HatBuildParams,
    build_hat,
    choose_amplitude_base,
    verify_hat,
)
from .network import (
    GrowthPolicy,
    depth_extend,
    realize,
    serialize,
    stored_as,
    sum_networks,
)
from .hats import lambda_network
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


def _merge_config(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    if args.config:
        with open(args.config, "rb") as fh:
            try:
                file_cfg = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"invalid config JSON: {exc}") from exc
        unknown = set(file_cfg) - set(defaults)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in defaults:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            cfg[key] = flag
    return cfg


def _policy_from(cfg) -> GrowthPolicy:
    depth_cap = cfg["depth_cap"]
    if depth_cap in ("inf", math.inf):
        depth_cap = math.inf
    elif isinstance(depth_cap, str) and depth_cap.isdecimal():
        depth_cap = int(depth_cap)  # the --depth-cap flag is text, to allow "inf"
    else:
        depth_cap = _config_int(cfg, "depth_cap")
    return GrowthPolicy(
        kind="parametric",
        theta_c=float(cfg["theta_c"]),
        kappa_c=float(cfg["kappa_c"]),
        scale=float(cfg["scale"]),
        depth_cap=depth_cap,
    )


_POLICY_DEFAULTS = {"theta_c": 0.0, "kappa_c": 0.0, "scale": 1.0, "depth_cap": 5}


def _write(args, doc: dict, artifact: bytes | None = None, sidecar: str = ".json") -> None:
    """Write doc as strict JSON to --out, or to stdout without --out.  With
    an artifact, --out receives the artifact and doc goes to --out + sidecar.
    A NaN or infinite value in doc raises ValueError before anything is
    written."""
    text = json.dumps(doc, indent=2, sort_keys=True, default=str, allow_nan=False) + "\n"
    if not args.out:
        sys.stdout.write(text)
        return
    out = Path(args.out)
    if artifact is not None:
        out.write_bytes(artifact)
        out = Path(f"{out}{sidecar}")
    out.write_text(text)


def _finite_or_none(x: float) -> float | None:
    """x, or None (JSON null) when x is infinite or NaN."""
    return x if math.isfinite(x) else None


# points or samples a command evaluates, at most
_MAX_POINTS = 1 << 20
# any other integer, at most: every integer up to it is exact in float64
_MAX_INT = 1 << 53


def _config_int(cfg, key: str, low: int = 1, high: int = _MAX_INT) -> int:
    """cfg[key] as an integer in [low, high]; a boolean, a string, a
    non-integral number or a value out of range is a ConfigError naming the
    key."""
    value = cfg[key]
    integral = type(value) is int or (type(value) is float and value.is_integer())
    if not integral or not low <= value <= high:
        raise ConfigError(f"{key} must be an integer in [{low}, {high}], got {value!r}")
    return int(value)


def _hat_params(cfg) -> HatBuildParams:
    policy = _policy_from(cfg)
    n, L, d = (_config_int(cfg, key) for key in ("n", "L", "d"))
    y = cfg["y"]
    if y is None:
        y = [0.5] * d
    elif isinstance(y, str):
        y = [float(v) for v in y.split(",")]
    C = cfg["C"]
    if C is None:
        C = choose_amplitude_base(policy, n)
    spec = BumpSpec(d=d, M=float(cfg["M"]), y=tuple(y), p=2)
    return HatBuildParams(n=n, L=L, C=float(C), spec=spec, policy=policy)


_HAT_DEFAULTS = {
    "n": 1,
    "L": 5,
    "C": None,
    "M": 1.0,
    "d": 1,
    "y": None,
    "points": 10_000,
    **_POLICY_DEFAULTS,
}


def cmd_build_hat(args) -> int:
    cfg = _merge_config(args, _HAT_DEFAULTS)
    points = _config_int(cfg, "points", high=_MAX_POINTS)
    hat = build_hat(_hat_params(cfg))
    report = verify_hat(hat, num_points=points, seed=args.seed or 0)
    report["config"] = cfg
    _write(args, report, serialize(hat.network) if args.out else None, sidecar=".verify.json")
    return 0 if report["pass"] else 1


def cmd_verify_hat(args) -> int:
    cfg = _merge_config(args, {**_HAT_DEFAULTS, "network": None})
    points = _config_int(cfg, "points", high=_MAX_POINTS)
    hat = build_hat(_hat_params(cfg))
    report = verify_hat(hat, num_points=points, seed=args.seed or 0)
    if cfg["network"]:
        data = Path(cfg["network"]).read_bytes()
        report["file_matches"] = stored_as(data, hat.network)
    report["config"] = {k: v for k, v in cfg.items() if k != "network"}
    _write(args, report)
    return 0 if report["pass"] and report.get("file_matches", True) else 1


_RATES_DEFAULTS = {"alpha": 1.0, "d": 1, "n_max": 0, **_POLICY_DEFAULTS}


def cmd_rates(args) -> int:
    cfg = _merge_config(args, _RATES_DEFAULTS)
    policy = _policy_from(cfg)
    n_max = _config_int(cfg, "n_max", low=0)
    window = rate_window(float(cfg["alpha"]), _config_int(cfg, "d"), policy)
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
    if n_max >= 100:
        est = gamma_numeric(policy, n_max)
        payload["gamma_numeric"] = est[0]
    _write(args, payload)
    return 0 if not payload["degenerate"] else 1


_LIP_DEFAULTS = {
    **_HAT_DEFAULTS,
    "R": 1.0,
    "norm": "unit-cube-l1",
    "samples": 1000,
}


def cmd_lipschitz(args) -> int:
    cfg = _merge_config(args, _LIP_DEFAULTS)
    samples = _config_int(cfg, "samples", high=_MAX_POINTS)
    params = _hat_params(cfg)
    hat = build_hat(params)
    inp = LipschitzBoundInput(
        L=params.L,
        C=params.C,
        n=hat.weight_budget(),
        R=float(cfg["R"]),
        d=params.spec.d,
        norm=cfg["norm"],
    )
    bound = lipschitz_bound(inp)
    norm = "linf" if cfg["norm"].endswith("linf") else "l1"
    emp = empirical_lipschitz(
        hat.realize,
        (np.zeros(params.spec.d), np.ones(params.spec.d)),
        samples=samples,
        norm=norm,
        seed=args.seed or 0,
    )
    ratio_log2 = (math.log2(emp) - bound.log2) if emp > 0 else -math.inf
    payload = {
        "config": cfg,
        "bound_log2": bound.log2,
        # null for an overflowing bound (see "overflow") and for the
        # ratio of a zero empirical constant
        "bound": _finite_or_none(bound.value),
        "overflow": bound.overflow,
        "empirical": emp,
        "ratio_log2": _finite_or_none(ratio_log2),
        "pass": bool(emp <= bound.value or math.log2(max(emp, 1e-300)) <= bound.log2),
    }
    _write(args, payload)
    return 0 if payload["pass"] else 1


_SWEEP_DEFAULTS = {
    "d": 1,
    "alpha": 1.0,
    "gamma": None,
    "algorithm": "grid",
    "kappa1": None,
    "draws": 30,
    **_POLICY_DEFAULTS,
}

_ALGORITHMS = {
    "grid": lambda m, d, seed: grid_algorithm(m, d, "nearest"),
    "grid-multilinear": lambda m, d, seed: grid_algorithm(m, d, "multilinear"),
    "random": lambda m, d, seed: uniform_random_algorithm(m, d, seed=seed),
    "zero": lambda m, d, seed: zero_algorithm(m, d),
}


def _resolve_gamma(cfg, policy) -> float:
    if cfg["gamma"] is not None:
        return float(cfg["gamma"])
    flat, _ = gamma_closed_form(policy)
    if not math.isfinite(flat):
        raise ConfigError("gamma must be given explicitly for unbounded policies")
    return flat - 0.5


def _sweep_command(args, defaults: dict, m_list: list[int], run) -> int:
    """The steps shared by the sweep commands.  ``run(cfg, **sweep)`` runs
    the sweep given the keyword arguments all sweep runners take."""
    if not args.out:
        raise ConfigError("--out is required")
    cfg = _merge_config(args, defaults)
    policy = _policy_from(cfg)
    gamma = _resolve_gamma(cfg, policy)
    report = run(
        cfg,
        m_list=args.m_list or m_list,
        d=_config_int(cfg, "d"),
        alpha=float(cfg["alpha"]),
        gamma=gamma,
        policy=policy,
        grid_resolution=9 if args.grid_res is None else args.grid_res,
        seed=args.seed or 0,
    )
    envelope = json.loads(report.to_json())
    envelope["config"] = {**cfg, "gamma": gamma, "m_list": list(args.m_list or [])}
    csv = report.to_csv().encode() if (args.format or "csv") == "csv" else None
    _write(args, envelope, csv)
    return 0 if report.passed else 1


def cmd_hardness(args) -> int:
    def run(cfg, **sweep):
        if cfg["algorithm"] not in _ALGORITHMS:
            raise ConfigError(f"unknown algorithm {cfg['algorithm']!r}")
        make = _ALGORITHMS[cfg["algorithm"]]
        return run_hardness_sweep(
            lambda m: make(m, sweep["d"], sweep["seed"]),
            kappa1_override=cfg["kappa1"],
            **sweep,
        )

    return _sweep_command(args, _SWEEP_DEFAULTS, [4, 16, 64, 256], run)


def cmd_mc_hardness(args) -> int:
    def run(cfg, **sweep):
        return run_mc_sweep(
            lambda m: uniform_mc(m, sweep["d"]),
            draws=_config_int(cfg, "draws"),
            kappa1_override=cfg["kappa1"],
            **sweep,
        )

    return _sweep_command(args, _SWEEP_DEFAULTS, [4, 16, 64], run)


def cmd_upper_bound(args) -> int:
    def run(cfg, **sweep):
        return run_upper_bound_sweep(reconstruction=cfg["reconstruction"], **sweep)

    defaults = {**_SWEEP_DEFAULTS, "reconstruction": "nearest"}
    return _sweep_command(args, defaults, [16, 64, 256, 1024, 4096], run)


_SUM_DEFAULTS = {
    "M1": 1.0,
    "y1": 0.25,
    "M2": 2.0,
    "y2": 0.75,
    "target_depth": 5,
    "points": 1000,
}


def cmd_sum_check(args) -> int:
    cfg = _merge_config(args, _SUM_DEFAULTS)
    points = _config_int(cfg, "points", high=_MAX_POINTS)
    net1 = lambda_network(float(cfg["M1"]), float(cfg["y1"]))
    net2 = lambda_network(float(cfg["M2"]), float(cfg["y2"]))
    extended = depth_extend(net1, _config_int(cfg, "target_depth"))
    summed = sum_networks(extended, net2)
    rng = np.random.default_rng(args.seed or 0)
    x = rng.uniform(-1.0, 2.0, size=(points, 1))
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="requ-gap",
        description="ReQU network constructions, rate bounds and sampling experiments",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "build-hat": cmd_build_hat,
        "verify-hat": cmd_verify_hat,
        "rates": cmd_rates,
        "lipschitz": cmd_lipschitz,
        "hardness": cmd_hardness,
        "mc-hardness": cmd_mc_hardness,
        "upper-bound": cmd_upper_bound,
        "sum-check": cmd_sum_check,
    }
    extra_flags = {
        "build-hat": ["n", "L", "C", "M", "d", "y"],
        "verify-hat": ["n", "L", "C", "M", "d", "y", "network"],
        "rates": ["alpha", "d", "n_max"],
        "lipschitz": ["n", "L", "C", "M", "d", "norm"],
        "hardness": ["alpha", "d", "gamma", "algorithm", "kappa1"],
        "mc-hardness": ["alpha", "d", "gamma", "kappa1", "draws"],
        "upper-bound": ["alpha", "d", "gamma", "reconstruction"],
        "sum-check": ["M1", "y1", "M2", "y2", "target_depth"],
    }
    types = {
        "n": int, "L": int, "d": int, "n_max": int, "draws": int,
        "target_depth": int, "alpha": float, "gamma": float, "C": float,
        "M": float, "M1": float, "M2": float, "y1": float, "y2": float,
        "kappa1": float, "scale": float, "theta_c": float, "kappa_c": float,
    }
    for name, func in commands.items():
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--seed", type=int, default=None)
        if name in ("hardness", "mc-hardness", "upper-bound"):
            p.add_argument("--grid-res", type=int, default=None)
            p.add_argument("--m-list", type=_parse_m_list, default=None)
            p.add_argument("--format", choices=("csv", "json"), default=None)
        for key in ("theta_c", "kappa_c", "scale", "depth_cap"):
            if name != "sum-check":
                p.add_argument(
                    f"--{key.replace('_', '-')}",
                    type=types.get(key, str),
                    default=None,
                    dest=key,
                )
        for key in extra_flags[name]:
            p.add_argument(
                f"--{key.replace('_', '-')}",
                type=types.get(key, str),
                default=None,
                dest=key,
            )
        p.set_defaults(func=func)
    args, unknown = parser.parse_known_args(argv)
    if unknown:
        print(f"{args.command}: unrecognized arguments: {' '.join(unknown)}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # invalid input (ConfigError is a ValueError) or an unreadable file
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
