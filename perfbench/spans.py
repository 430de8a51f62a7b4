"""Layer spans and counters for the traced run of the benchmark.

Wrappers go around the package's public functions at each module boundary
and are installed only for the traced rounds; untraced rounds run the
package exactly as shipped.  A span records its name, start, end, parent
span and case; spans stay in memory and are written out when the run ends.
Self time is a span's duration minus the durations of its direct children
(the benchmark is single-threaded, so children never overlap).
"""

from __future__ import annotations

import json
import sys
from collections import Counter
from time import perf_counter

# Wrapped functions by layer.  The map from Pluecker coordinates is built in
# toric but belongs to the matching field, so it counts as matching work.
SPANS = {
    "cli": {"cli": ["main"]},
    "matching": {
        "matching": ["matching_ideal", "weight_matrix", "sort_generators"],
        "toric": ["plucker_map_from_matching_field"],
    },
    "cellular": {
        "cellular": ["check_layer_containment", "relabel_f", "graph_G", "is_cointerval"]
    },
    "algebra": {"algebra": ["minor_expand"]},
    "groebner": {
        "groebner": [
            "verify_theorem_main",
            "is_groebner",
            "s_polynomial",
            "attainable_initial_supports",
        ]
    },
    "resolution": {
        "resolution": [
            "linear_quotients_certificate",
            "colon_by_monomial",
            "betti_from_certificate",
            "betti_oracle",
        ]
    },
    "toric": {"toric": ["kernel_slice", "flatness_check"]},
    "linalg": {"linalg": ["rational_rank", "homogeneous_feasible"]},
}

# Methods whose calls are counted, without a span: (module, class, method).
COUNTED = {
    "algebra.monomial_new": ("algebra", "Monomial", "__init__"),
    "algebra.order_key_calls": ("algebra", "WeightOrder", "key"),
}


class Tracer:
    """Records spans and call counts while ``enabled`` is true."""

    def __init__(self):
        self.spans: list[list] = []  # [name, layer, start, end, parent, case]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()
        self.enabled = False
        self.case = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.case])
            stack.append(idx)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][2] = start
                spans[idx][3] = end

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, name: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if self.enabled:
                counts[name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Wrap every target wherever the package binds it.

        A target that no longer exists is recorded in ``missing``, so the
        metrics built on it are reported absent rather than zero.
        """
        modules = [
            m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "matchfields" or name.startswith("matchfields."))
        ]
        for layer, by_module in SPANS.items():
            for module, names in by_module.items():
                home = sys.modules.get(f"matchfields.{module}")
                for name in names:
                    original = getattr(home, name, None)
                    if original is None:
                        self.missing.add(f"{module}.{name}")
                        continue
                    wrapper = self._span(f"{module}.{name}", layer, original)
                    for m in modules:
                        for attr, value in list(vars(m).items()):
                            if value is original:
                                self._restore.append((m, attr, value))
                                setattr(m, attr, wrapper)
        for metric, (module, cls_name, method) in COUNTED.items():
            cls = getattr(sys.modules.get(f"matchfields.{module}"), cls_name, None)
            original = vars(cls).get(method) if cls is not None else None
            if original is None:
                self.missing.add(metric)
                continue
            self._restore.append((cls, method, original))
            setattr(cls, method, self._counter(metric, original))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path) -> None:
        """Write the spans as one JSON object per line."""
        with open(path, "w") as fh:
            for name, layer, start, end, parent, case in self.spans:
                fh.write(json.dumps({
                    "name": name, "layer": layer, "start": start, "end": end,
                    "parent": parent, "case": case,
                }) + "\n")

    def summary(self) -> dict:
        """Totals per span name: calls, duration and self time; durations of
        spans by the name or layer of their parent; and the total of the
        root spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, _, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        by_name: dict[str, dict] = {}
        under: Counter = Counter()
        roots = 0.0
        for idx, (name, layer, start, end, parent, _) in enumerate(spans):
            entry = by_name.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0})
            entry["calls"] += 1
            entry["total"] += end - start
            entry["self"] += end - start - child[idx]
            if parent >= 0:
                under[(spans[parent][0], name)] += end - start
                under[(spans[parent][1], name)] += end - start
            else:
                roots += end - start
        return {"by_name": by_name, "under": under, "root_total": roots}
