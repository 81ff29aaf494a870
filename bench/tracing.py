"""Timing wrappers around the public functions of the requ_gap layers.

``install`` replaces every public function of ``network``, ``hats``,
``rates``, ``sampling`` and ``cli`` with a wrapper that records a span, in
every ``requ_gap`` namespace that bound the function (``cli`` imported most
of them by name).  ``BuiltHat`` methods and properties are wrapped on the
class.  ``uninstall`` restores the originals.  Spans stay in memory; each is
(name, start, end, parent index, run id), where a run is one top-level call
(one ``cli.main`` command line in the benchmark).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
from collections import Counter
from time import perf_counter

LAYERS = ("network", "hats", "rates", "sampling", "cli")

# per-layer metric -> span names whose outermost calls it sums
_TIMED = {
    "sampling.average_error_s": ("sampling.average_error",),
    "sampling.stencil_s": ("sampling.linear_stencil",),
    "sampling.build_family_s": ("sampling.build_adversarial_family",),
    "sampling.build_algorithm_s": (
        "sampling.grid_algorithm",
        "sampling.uniform_random_algorithm",
        "sampling.zero_algorithm",
    ),
    "sampling.count_unseen_s": ("sampling.count_unseen",),
    "hats.build_hat_s": ("hats.build_hat",),
    "hats.verify_hat_s": ("hats.verify_hat",),
    "hats.realize_s": ("hats.BuiltHat.realize",),
    "hats.closed_form_s": ("hats.BuiltHat.closed_form",),
    "hats.scaled_unit_ball_bump_s": ("hats.scaled_unit_ball_bump",),
    "hats.materialize_s": ("hats.BuiltHat.network",),
    "network.serialize_s": ("network.serialize",),
    "network.deserialize_s": ("network.deserialize",),
    "network.realize_s": ("network.realize",),
    "network.sum_networks_s": ("network.sum_networks",),
    "network.depth_extend_s": ("network.depth_extend",),
    "rates.empirical_lipschitz_s": ("rates.empirical_lipschitz",),
    "rates.bounds_s": (
        "rates.lipschitz_bound",
        "rates.rate_window",
        "rates.gamma_closed_form",
        "rates.gamma_numeric",
        "sampling.reconstruction_error_bound",
    ),
}

CLI_COMMANDS = ("hardness", "mc-hardness", "build-hat", "verify-hat", "lipschitz", "sum-check")

_COUNTERS = (
    "sampling.stencil_points",
    "sampling.stencil_bytes",
    "sampling.cells_total",
    "sampling.cells_seen",
    "hats.materialize_calls",
    "network.serialize_calls",
    "network.serialize_bytes",
    "network.deserialize_bytes",
    "network.weights",
)


class Tracer:
    """In-memory span recorder plus the work counters the hooks fill."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, run]
        self._stack: list[int] = []
        self._run = 0
        self.counters = Counter({k: 0 for k in _COUNTERS})
        self._materialized: set = set()

    def wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack:
                self._run += 1
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._run]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def span_records(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "run": r}
            for n, s, e, p, r in self.spans
        ]


# ---------------------------------------------------------------------------
# hooks: counters measured where the work happens
# ---------------------------------------------------------------------------

def _on_stencil(tracer, args, result):
    idx, w = result
    tracer.counters["sampling.stencil_points"] += len(args[0])
    tracer.counters["sampling.stencil_bytes"] += idx.nbytes + w.nbytes


def _on_algorithm(tracer, args, result):
    # the stencil is a closure built per algorithm, so wrap each one returned
    if result.linear_stencil is not None:
        stencil = tracer.wrap("sampling.linear_stencil", result.linear_stencil, _on_stencil)
        object.__setattr__(result, "linear_stencil", stencil)


def _on_count_unseen(tracer, args, result):
    total = args[0].num_centers
    tracer.counters["sampling.cells_total"] += total
    tracer.counters["sampling.cells_seen"] += total - result


def _on_materialize(tracer, args, result):
    tracer.counters["hats.materialize_calls"] += 1
    # useful = distinct networks per command line; repeats rebuild the same one
    tracer._materialized.add((tracer._run, repr(args[0].params)))


def _on_serialize(tracer, args, result):
    tracer.counters["network.serialize_calls"] += 1
    tracer.counters["network.serialize_bytes"] += len(result)
    tracer.counters["network.weights"] += args[0].weight_count()


def _on_deserialize(tracer, args, result):
    tracer.counters["network.deserialize_bytes"] += len(args[0])


_HOOKS = {
    "sampling.grid_algorithm": _on_algorithm,
    "sampling.uniform_random_algorithm": _on_algorithm,
    "sampling.zero_algorithm": _on_algorithm,
    "sampling.count_unseen": _on_count_unseen,
    "hats.BuiltHat.network": _on_materialize,
    "network.serialize": _on_serialize,
    "network.deserialize": _on_deserialize,
}


# ---------------------------------------------------------------------------
# install / uninstall
# ---------------------------------------------------------------------------

def install(tracer: Tracer) -> list[tuple]:
    """Wrap the layers' public callables; returns what ``uninstall`` restores."""
    import requ_gap.cli  # noqa: F401  (imports every layer)

    namespaces = [
        mod for name, mod in sys.modules.items()
        if name == "requ_gap" or name.startswith("requ_gap.")
    ]
    saved = []
    for layer in LAYERS:
        mod = sys.modules[f"requ_gap.{layer}"]
        for attr, fn in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            traced = tracer.wrap(name, fn, _HOOKS.get(name))
            for ns in namespaces:
                for bound, value in list(vars(ns).items()):
                    if value is fn:
                        saved.append((ns, bound, fn))
                        setattr(ns, bound, traced)

    cls = sys.modules["requ_gap.hats"].BuiltHat
    for attr, member in list(vars(cls).items()):
        if attr.startswith("_"):
            continue
        name = f"hats.BuiltHat.{attr}"
        hook = _HOOKS.get(name)
        if inspect.isfunction(member):
            replacement = tracer.wrap(name, member, hook)
        elif isinstance(member, functools.cached_property):
            replacement = functools.cached_property(tracer.wrap(name, member.func, hook))
            replacement.__set_name__(cls, attr)
        elif isinstance(member, property):
            replacement = property(tracer.wrap(name, member.fget, hook))
        else:
            continue
        saved.append((cls, attr, member))
        setattr(cls, attr, replacement)
    return saved


def uninstall(saved: list[tuple]) -> None:
    for owner, attr, original in reversed(saved):
        setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def _outermost(spans, names) -> list[int]:
    """Indices of spans named in ``names`` with no ancestor also named there."""
    names = set(names)
    found = []
    for i, (name, _, _, parent, _) in enumerate(spans):
        if name not in names:
            continue
        while parent >= 0 and spans[parent][0] not in names:
            parent = spans[parent][3]
        if parent < 0:
            found.append(i)
    return found


def _quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer times, self times and counters from one traced run."""
    spans = tracer.spans
    dur = [e - s for _, s, e, _, _ in spans]
    child_time = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            child_time[parent] += dur[i]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = sum(
            dur[i] - child_time[i] for i, sp in enumerate(spans) if sp[0].startswith(layer + ".")
        )
    for metric, names in _TIMED.items():
        metrics[metric] = sum(dur[i] for i in _outermost(spans, names))
    for command in CLI_COMMANDS:
        name = "cli.cmd_" + command.replace("-", "_")
        metrics[f"cli.{command.replace('-', '_')}_s"] = sum(dur[i] for i in _outermost(spans, [name]))

    calls = sorted(dur[i] for i in _outermost(spans, ["sampling.average_error"]))
    c = tracer.counters
    metrics.update({
        "sampling.average_error_calls": len(calls),
        "sampling.average_error_p50_s": _quantile(calls, 50) if calls else 0.0,
        "sampling.average_error_p90_s": _quantile(calls, 90) if calls else 0.0,
        "sampling.test_points": c["sampling.stencil_points"],
        "sampling.cells_total": c["sampling.cells_total"],
        "sampling.cells_seen": c["sampling.cells_seen"],
        "sampling.seen_ratio": (
            c["sampling.cells_seen"] / c["sampling.cells_total"] if c["sampling.cells_total"] else 0.0
        ),
        "sampling.stencil_bytes_computed": c["sampling.stencil_bytes"],
        "hats.materialize_calls": c["hats.materialize_calls"],
        "hats.materialize_useful_ratio": (
            len(tracer._materialized) / c["hats.materialize_calls"]
            if c["hats.materialize_calls"] else 0.0
        ),
        "network.serialize_calls": c["network.serialize_calls"],
        "network.serialize_bytes": c["network.serialize_bytes"],
        "network.deserialize_bytes": c["network.deserialize_bytes"],
        "network.weights": c["network.weights"],
        "trace.spans": len(spans),
    })
    return metrics

