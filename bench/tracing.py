"""Per-layer spans recorded from outside the program.

While a ``Tracer`` is installed, the public functions that one meanconvex
layer calls in another are replaced, in every meanconvex module that binds
them, by wrappers that record a span: name, start, end and the span that
called it. The ``fn`` of every catalog function is wrapped too, so each
evaluation of the user function f is a span of its own. Spans are kept in
memory for one request and folded into totals after it ends, outside the
timed call. Nothing under ``src/`` changes.

A layer's self time is the duration of its spans minus the part covered by
their child spans.
"""

from __future__ import annotations

import functools
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

from meanconvex import catalog, convexity, popoviciu, sampling, weights

# span name -> (owner, attribute) of each wrapped public function or method.
WRAPPED = {
    "sampling.triples": (sampling.SamplePlan, "triples"),
    "sampling.pairs_with_t": (sampling.SamplePlan, "pairs_with_t"),
    "sampling.scalar_pairs": (sampling.SamplePlan, "scalar_pairs"),
    "weights.classify_additivity": (weights, "classify_additivity"),
    "weights.classify_multiplicativity": (weights, "classify_multiplicativity"),
    "convexity.verify_class": (convexity, "verify_class"),
    "convexity.verify_extended_class": (convexity, "verify_extended_class"),
    "popoviciu.verify_theorem": (popoviciu, "verify_theorem"),
    "popoviciu.chained_check": (popoviciu, "chained_check"),
    "popoviciu.equality_max_residual": (popoviciu, "equality_max_residual"),
    "popoviciu.theorem_margins": (popoviciu, "theorem_margins"),
    "popoviciu.popoviciu_sides": (popoviciu, "popoviciu_sides"),
    "popoviciu.hlawka_margins": (popoviciu, "hlawka_margins"),
    "catalog.run_audit": (catalog, "run_audit"),
    "catalog.builtin_functions": (catalog, "builtin_functions"),
    "catalog.make_function": (catalog, "make_function"),
}

# (name, unit, better) of every per-layer metric, in print order.
PER_LAYER = [
    ("setup.python_s", "s", "lower"),
    ("setup.numpy_import_s", "s", "lower"),
    ("setup.meanconvex_import_s", "s", "lower"),
    ("sampling.calls", "count", "lower"),
    ("sampling.points", "count", "lower"),
    ("sampling.busy_s", "s", "lower"),
    ("fn.calls", "count", "lower"),
    ("fn.busy_s", "s", "lower"),
    ("fn.points_per_sample", "points/sample", "lower"),
    ("fn.distinct_frac", "ratio", "higher"),
    ("weights.classify.calls", "count", "lower"),
    ("weights.classify.busy_s", "s", "lower"),
    ("convexity.verify_class.busy_s", "s", "lower"),
    ("convexity.self_s", "s", "lower"),
    ("convexity.usable_frac", "ratio", "higher"),
    ("popoviciu.verify_theorem.busy_s", "s", "lower"),
    ("popoviciu.chained_check.busy_s", "s", "lower"),
    ("popoviciu.equality.busy_s", "s", "lower"),
    ("popoviciu.self_s", "s", "lower"),
    ("popoviciu.theorem_margins.calls", "count", "lower"),
    ("popoviciu.theorem_margins.points_per_call", "points/call", "higher"),
    ("popoviciu.theorem_margins.busy_s", "s", "lower"),
    ("popoviciu.replay.calls", "count", "lower"),
    ("popoviciu.replay.busy_s", "s", "lower"),
    ("popoviciu.usable_frac", "ratio", "higher"),
    ("catalog.run_audit.busy_s", "s", "lower"),
    ("catalog.self_s", "s", "lower"),
    ("catalog.errors", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.errors", "count", "lower"),
    ("cli.search.violating_frac", "ratio", "higher"),
    ("cli.search.witness_margin_tol", "tol", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def _ratio(num: float, den: float) -> float:
    """num / den, or 0 where the layer did no work on this workload."""
    return num / den if den else 0.0


class Tracer:
    """Spans around layer boundaries, folded into per-layer totals."""

    def __init__(self, tol: float):
        self.tol = tol
        self.active = False  # only spans inside a request are recorded
        # [name, start, end, parent index, f name or None, result or f argument]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.count = defaultdict(int)
        self.latencies: list[float] = []
        self.witness_margins: list[float] = []
        self._undo: list[tuple] = []

    # -- installing the wrappers -------------------------------------------

    def __enter__(self) -> "Tracer":
        for name, (owner, attr) in WRAPPED.items():
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if (getattr(module, "__name__", "").partition(".")[0] == "meanconvex"
                        and getattr(module, attr, None) is original):
                    self._patch(module, attr, wrapper)
        # catalog functions are built through catalog.PointFunction
        real = convexity.PointFunction

        def traced_point_function(name, fn, domain, positive_on_domain=True):
            return real(name, self._wrap_fn(name, fn), domain, positive_on_domain)

        self._patch(catalog, "PointFunction", traced_point_function)
        families = popoviciu.EQUALITY_FAMILIES
        for key, (tid, f) in list(families.items()):
            traced = traced_point_function(f.name, f.fn, f.domain,
                                           f.positive_on_domain)
            self._undo.append((families, key, (tid, f), True))
            families[key] = (tid, traced)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value, is_item in reversed(self._undo):
            if is_item:
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def _wrap(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, tracer.stack[-1], None, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                rec[5] = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                tracer.stack.pop()
            return rec[5]
        return wrapper

    def _wrap_fn(self, fname: str, fn):
        if getattr(fn, "traced_fn", False):
            return fn
        tracer = self

        def traced(x):
            if not tracer.active:
                return fn(x)
            rec = ["fn", 0.0, 0.0, tracer.stack[-1], fname, x]
            tracer.spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(x)
            finally:
                rec[2] = perf_counter()
        traced.traced_fn = True
        return traced

    # -- one request ---------------------------------------------------------

    def begin_request(self) -> None:
        self.spans = [["cli.main", 0.0, 0.0, -1, None, None]]
        self.stack = [0]
        self.active = True

    def end_request(self, start: float, end: float) -> None:
        self.active = False
        self.spans[0][1:3] = [start, end]

    def record(self, outcome) -> None:
        """Fold the finished request's spans into the totals."""
        spans, count = self.spans, self.count
        covered = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        f_args = defaultdict(list)
        one_point_margins = []
        for i, (name, start, end, parent, fname, result) in enumerate(spans):
            self.busy[name] += end - start
            self.calls[name] += 1
            self.self_s[name.partition(".")[0]] += end - start - covered[i]
            if result is None:  # the root span, or a call that raised
                continue
            if name == "fn":
                f_args[fname].append(np.ravel(result))
            elif name.startswith("sampling."):
                count["sampling.points"] += len(result[0])
            elif name == "convexity.verify_class":
                count["convexity.usable"] += result.samples_tested
                count["convexity.drawn"] += result.samples_tested + result.skipped
            elif name == "popoviciu.verify_theorem":
                count["popoviciu.usable"] += result.triples_tested
                count["popoviciu.drawn"] += result.triples_tested + result.skipped
            elif name == "popoviciu.chained_check":
                for link in result.links:
                    count["popoviciu.usable"] += link.samples
                    count["popoviciu.drawn"] += link.samples + link.skipped
            elif name == "popoviciu.theorem_margins":
                count["popoviciu.theorem_margins.points"] += result.size
                count["popoviciu.usable"] += int(np.isfinite(result).sum())
                count["popoviciu.drawn"] += result.size
                if parent == 0 and result.size == 1:
                    one_point_margins.append(float(result[0]))
            elif name == "catalog.run_audit":
                count["catalog.errors"] += sum(fd.outcome == "error" for fd in result)
        for arrays in f_args.values():
            points = np.concatenate(arrays)
            count["fn.points"] += points.size
            count["fn.distinct"] += np.unique(points).size
        if outcome.case.argv[0] == "search" and outcome.exit_code == 0:
            # the last one-point call re-evaluates the final witness
            trials = one_point_margins[:-1]
            count["search.trials"] += len(trials)
            count["search.violating"] += sum(m < -self.tol for m in trials)
            if outcome.payload is not None:
                self.witness_margins.append(
                    outcome.payload["min_margin"] / outcome.payload["config"]["tol"])
        count["cli.errors"] += outcome.exit_code == 2
        count["samples"] += outcome.samples
        self.latencies.append(outcome.seconds)
        self.spans, self.stack = [], []

    # -- totals --------------------------------------------------------------

    def metrics(self, untraced_median_s: float) -> dict[str, float]:
        busy, calls, count = self.busy, self.calls, self.count
        sampling_names = [n for n in WRAPPED if n.startswith("sampling.")]
        classify_names = ["weights.classify_additivity",
                          "weights.classify_multiplicativity"]
        return {
            "sampling.calls": sum(calls[n] for n in sampling_names),
            "sampling.points": count["sampling.points"],
            "sampling.busy_s": sum(busy[n] for n in sampling_names),
            "fn.calls": calls["fn"],
            "fn.busy_s": busy["fn"],
            "fn.points_per_sample": _ratio(count["fn.points"], count["samples"]),
            "fn.distinct_frac": _ratio(count["fn.distinct"], count["fn.points"]),
            "weights.classify.calls": sum(calls[n] for n in classify_names),
            "weights.classify.busy_s": sum(busy[n] for n in classify_names),
            "convexity.verify_class.busy_s": busy["convexity.verify_class"],
            "convexity.self_s": self.self_s["convexity"],
            "convexity.usable_frac": _ratio(count["convexity.usable"],
                                            count["convexity.drawn"]),
            "popoviciu.verify_theorem.busy_s": busy["popoviciu.verify_theorem"],
            "popoviciu.chained_check.busy_s": busy["popoviciu.chained_check"],
            "popoviciu.equality.busy_s": busy["popoviciu.equality_max_residual"],
            "popoviciu.self_s": self.self_s["popoviciu"],
            "popoviciu.theorem_margins.calls": calls["popoviciu.theorem_margins"],
            "popoviciu.theorem_margins.points_per_call": _ratio(
                count["popoviciu.theorem_margins.points"],
                calls["popoviciu.theorem_margins"]),
            "popoviciu.theorem_margins.busy_s": busy["popoviciu.theorem_margins"],
            "popoviciu.replay.calls": calls["popoviciu.popoviciu_sides"],
            "popoviciu.replay.busy_s": busy["popoviciu.popoviciu_sides"],
            "popoviciu.usable_frac": _ratio(count["popoviciu.usable"],
                                            count["popoviciu.drawn"]),
            "catalog.run_audit.busy_s": busy["catalog.run_audit"],
            "catalog.self_s": self.self_s["catalog"],
            "catalog.errors": count["catalog.errors"],
            "cli.self_s": self.self_s["cli"],
            "cli.errors": count["cli.errors"],
            "cli.search.violating_frac": _ratio(count["search.violating"],
                                                count["search.trials"]),
            # the weakest witness: the margin closest to -tol
            "cli.search.witness_margin_tol": max(self.witness_margins, default=0.0),
            "trace.overhead_frac": (float(np.median(self.latencies))
                                    / untraced_median_s - 1.0),
        }
