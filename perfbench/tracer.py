"""Spans around the library's layer boundaries, recorded from outside.

The tracer replaces each public callable named in TARGETS by a wrapper that
records one span (id, parent id, name, start, end) per call.  A name bound
with `from ... import` lives on in every module that imported it, so every
module-level reference to the original object inside orbifold_index is
replaced, including references held in module-level dicts and class
attributes (Cyclotomic.__rmul__ is the same function as __mul__).

Spans stay in memory; per-layer numbers are derived once the round ends.
A layer's self time is the duration of its spans minus the time covered by
their child spans.  Work done by code that is not wrapped is charged to the
nearest wrapped caller.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
import time
from collections import Counter, defaultdict

# span name -> (module, dotted attribute); the span name's first part is
# the layer
TARGETS = {
    "scalars.mul": ("orbifold_index.scalars", "Cyclotomic.__mul__"),
    "scalars.inverse": ("orbifold_index.scalars", "Cyclotomic.inverse"),
    "scalars.trig_sums": ("orbifold_index.scalars", "trig_sums"),
    "ring.ring_mul": ("orbifold_index.ring", "ring_mul"),
    "ring.invert_unit": ("orbifold_index.ring", "invert_unit"),
    "bundles.ch_line": ("orbifold_index.bundles", "ch_line"),
    "bundles.ch_cotangent": ("orbifold_index.bundles", "ch_cotangent"),
    "bundles.ch_lambda_plus": ("orbifold_index.bundles", "ch_lambda_plus"),
    "bundles.ch_lambda_minus": ("orbifold_index.bundles", "ch_lambda_minus"),
    "bundles.ch_s20_cotangent": ("orbifold_index.bundles", "ch_s20_cotangent"),
    "bundles.ch_s20_lambda_plus": ("orbifold_index.bundles", "ch_s20_lambda_plus"),
    "bundles.ch_symbol": ("orbifold_index.bundles", "ch_symbol"),
    "bundles.ch_thom": ("orbifold_index.bundles", "ch_thom"),
    "index.correction_at": ("orbifold_index.index", "correction_at"),
    "index.correction_sum": ("orbifold_index.index", "correction_sum"),
    # the uncached evaluator behind correction_sum, which the verify
    # correction suite calls directly; its children tell the route
    "index.evaluate": ("orbifold_index.index", "_correction_sum"),
    "identities.correction_sum_fast": ("orbifold_index.identities", "correction_sum_fast"),
    "identities.verify_inverse": ("orbifold_index.identities", "verify_inverse_vec"),
    "identities.convolve": ("orbifold_index.identities", "fold_convolve"),
    "identities.rationalize": ("orbifold_index.identities", "rationalize_vec"),
    "identities.sum_inv_one_minus_cos": ("orbifold_index.identities", "sum_inv_one_minus_cos"),
    "applications.hitchin_report": ("orbifold_index.applications", "hitchin_report"),
    "applications.lebrun_report": ("orbifold_index.applications", "lebrun_report"),
    "applications.ricci_flat_moduli_dim": ("orbifold_index.applications", "ricci_flat_moduli_dim"),
    "applications.feasible_self_intersections": ("orbifold_index.applications",
                                                 "feasible_self_intersections"),
    "applications.whitney_massey_values": ("orbifold_index.applications", "whitney_massey_values"),
    "applications.h0_bound": ("orbifold_index.applications", "h0_bound"),
    "cli.main": ("orbifold_index.cli", "main"),
}

# per-layer metrics: name -> unit; every traced run reports all of them
LAYER_METRICS = {
    "scalars.mul.count": "count",
    "scalars.mul.self_s": "s",
    "scalars.inverse.count": "count",
    "scalars.inverse.self_s": "s",
    "scalars.trig_sums.self_s": "s",
    "scalars.cyclotomic_polynomial.calls": "count",
    "scalars.cyclotomic_polynomial.misses": "count",
    "ring.ring_mul.count": "count",
    "ring.invert_unit.count": "count",
    "ring.self_s": "s",
    "bundles.char.calls": "count",
    "bundles.char.misses": "count",
    "bundles.char.hit_ratio": "ratio",
    "bundles.char.entries": "count",
    "bundles.self_s": "s",
    "index.correction_at.count": "count",
    "index.correction_sum.calls": "count",
    "index.correction_sum.misses": "count",
    "index.correction_sum.hit_ratio": "ratio",
    "index.route.pipeline": "count",
    "index.route.identities": "count",
    "index.self_s": "s",
    "identities.correction_sum_fast.self_s": "s",
    "identities.verify_inverse.count": "count",
    "identities.convolve.count": "count",
    "identities.convolve.madds": "madd_computed",
    "identities.sum_inv_one_minus_cos.self_s": "s",
    "identities.rationalize.self_s": "s",
    "applications.count": "count",
    "applications.self_s": "s",
    "cli.main.count": "count",
    "cli.self_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _resolve(module: str, dotted: str):
    obj = sys.modules.get(module)
    for part in dotted.split("."):
        obj = getattr(obj, part, None)
    return obj


def _rebind(modules, original, wrapper) -> None:
    """Point every module global, module-level dict entry and class
    attribute that holds `original` at `wrapper`."""
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, wrapper)
            elif isinstance(value, dict):
                for key, v in value.items():
                    if v is original:
                        value[key] = wrapper
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                for key, v in list(vars(value).items()):
                    if v is original:
                        setattr(value, key, wrapper)


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, int, str, int, int]] = []
        self.madds = 0  # computed from argument sizes, not measured
        self.missing: list[str] = []
        self._stack = [-1]
        self._next_id = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        counts_madds = name == "identities.convolve"

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if counts_madds:  # fold_convolve(p, a, b): len(a) * len(b)
                self.madds += len(args[1]) * len(args[2])
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, name, t0, t1))
        return span

    def install(self) -> None:
        """Wrap every target that exists; record the ones that do not."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "orbifold_index" or n.startswith("orbifold_index.")]
        for name, (module, dotted) in TARGETS.items():
            original = _resolve(module, dotted)
            if original is None:
                self.missing.append(name)
            else:
                _rebind(modules, original, self._wrap(name, original))

    def metrics(self) -> dict[str, float]:
        """Counts and self times per span name and per layer."""
        child_ns: dict[int, int] = defaultdict(int)
        children: dict[int, set[str]] = defaultdict(set)
        for _sid, parent, name, t0, t1 in self.spans:
            child_ns[parent] += t1 - t0
            children[parent].add(name)
        count: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        route: Counter = Counter()
        for sid, _parent, name, t0, t1 in self.spans:
            count[name] += 1
            own = (t1 - t0 - child_ns[sid]) / 1e9
            self_s[name] += own
            self_s[name.split(".")[0]] += own
            if name == "index.evaluate":
                if "identities.correction_sum_fast" in children[sid]:
                    route["identities"] += 1
                elif "index.correction_at" in children[sid]:
                    route["pipeline"] += 1
        apps = sum(n for k, n in count.items() if k.startswith("applications."))
        return {
            "scalars.mul.count": count["scalars.mul"],
            "scalars.mul.self_s": self_s["scalars.mul"],
            "scalars.inverse.count": count["scalars.inverse"],
            "scalars.inverse.self_s": self_s["scalars.inverse"],
            "scalars.trig_sums.self_s": self_s["scalars.trig_sums"],
            "ring.ring_mul.count": count["ring.ring_mul"],
            "ring.invert_unit.count": count["ring.invert_unit"],
            "ring.self_s": self_s["ring"],
            "bundles.self_s": self_s["bundles"],
            "index.correction_at.count": count["index.correction_at"],
            "index.route.pipeline": route["pipeline"],
            "index.route.identities": route["identities"],
            "index.self_s": self_s["index"],
            "identities.correction_sum_fast.self_s": self_s["identities.correction_sum_fast"],
            "identities.verify_inverse.count": count["identities.verify_inverse"],
            "identities.convolve.count": count["identities.convolve"],
            "identities.convolve.madds": self.madds,
            "identities.sum_inv_one_minus_cos.self_s":
                self_s["identities.sum_inv_one_minus_cos"],
            "identities.rationalize.self_s": self_s["identities.rationalize"],
            "applications.count": apps,
            "applications.self_s": self_s["applications"],
            "cli.main.count": count["cli.main"],
            "cli.self_s": self_s["cli"],
        }

    def dump(self, path) -> None:
        """Write the spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as f:
            for sid, parent, name, t0, t1 in self.spans:
                f.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                    "start_ns": t0, "end_ns": t1}) + "\n")


# ---------------------------------------------------------------------------
# exact cache counters: read from functools.lru_cache, no tracing needed
# ---------------------------------------------------------------------------

def find_caches() -> dict[str, object]:
    """The lru_cache tables the per-layer cache metrics read, by name.
    Call before Tracer.install, which hides them behind wrappers."""
    modules = sys.modules
    found = {f"bundles.{n}": f for n, f in vars(modules["orbifold_index.bundles"]).items()
             if n.startswith("ch_")}
    found["index.correction_sum"] = getattr(modules["orbifold_index.index"],
                                            "correction_sum", None)
    found["scalars.cyclotomic_polynomial"] = getattr(modules["orbifold_index.scalars"],
                                                     "cyclotomic_polynomial", None)
    return {k: f for k, f in found.items() if hasattr(f, "cache_info")}


def cache_snapshot(caches: dict[str, object]) -> dict[str, tuple[int, int, int]]:
    """(hits, misses, entries) per table."""
    snap = {}
    for key, f in caches.items():
        info = f.cache_info()
        snap[key] = (info.hits, info.misses, info.currsize)
    return snap


def cache_metrics(before: dict, after: dict) -> dict[str, float]:
    """Calls, misses, hit ratios and entries over one round, from the
    snapshots taken before and after it."""
    def delta(prefix):
        keys = [k for k in after if k.startswith(prefix)]
        hits = sum(after[k][0] - before[k][0] for k in keys)
        misses = sum(after[k][1] - before[k][1] for k in keys)
        calls = hits + misses
        return calls, misses, hits / calls if calls else 0.0, sum(after[k][2] for k in keys)

    c_calls, c_misses, c_ratio, c_entries = delta("bundles.")
    s_calls, s_misses, s_ratio, _ = delta("index.correction_sum")
    p_calls, p_misses, _, _ = delta("scalars.cyclotomic_polynomial")
    return {
        "bundles.char.calls": c_calls,
        "bundles.char.misses": c_misses,
        "bundles.char.hit_ratio": c_ratio,
        "bundles.char.entries": c_entries,
        "index.correction_sum.calls": s_calls,
        "index.correction_sum.misses": s_misses,
        "index.correction_sum.hit_ratio": s_ratio,
        "scalars.cyclotomic_polynomial.calls": p_calls,
        "scalars.cyclotomic_polynomial.misses": p_misses,
    }
