"""Spans and counters around the layers of polyfred, installed from outside.

The tracer replaces functions at the names their callers bind them (for
example ``layerpot.invertibility_scan``, ``layerpot.smoothed_distance``,
``np.linalg.svd`` and ``scipy.optimize.brentq``) with wrappers that record a
span (name, start, end, parent, query id) and read counts from arguments and
return values, never from the program's private state.  Nothing is
installed in untraced runs.  Spans stay in memory until the run ends.

Each span's self time (its duration minus its child spans) is charged to
exactly one per-layer metric, so the self times of a query add up to the
query's root span.
"""

from __future__ import annotations

import inspect
import math
import time
from collections import Counter

ROOT = "cli.query"

# span name -> per-layer self-time metric
SELF_METRIC = {
    ROOT: "cli.self_s",
    "geometry.parse": "geometry.parse_s",
    "geometry.unfold": "geometry.unfold_s",
    "geometry.desingularize": "geometry.desingularize_s",
    "geometry.smoothed_distance": "geometry.smoothed_distance_s",
    "groupoid.build": "groupoid.build_s",
    "groupoid.limit_operator": "groupoid.limit_operator_s",
    "mellin.scan": "mellin.scan_s",
    "mellin.symbol": "mellin.symbol_s",
    "mellin.quad": "mellin.symbol_s",
    "mellin.tail_majorant": "mellin.tail_majorant_s",
    "mellin.small_svd": "mellin.small_svd_s",
    "mellin.window": "mellin.window_s",
    "mellin.det_grid": "mellin.det_grid_s",
    "mellin.line_determinant": "mellin.root_s",
    "mellin.brentq": "mellin.root_s",
    "layerpot.verdict": "layerpot.verdict_self_s",
    "layerpot.domain_windows": "layerpot.domain_windows_self_s",
    "layerpot.mesh": "layerpot.mesh_s",
    "layerpot.assemble": "layerpot.assemble_s",
    "layerpot.weight": "layerpot.weight_s",
    "layerpot.svd": "layerpot.svd_s",
    "layerpot.svd_gesvd": "layerpot.svd_s",
    "layerpot.study": "layerpot.study_self_s",
    "layerpot.solve": "layerpot.solve_s",
    "layerpot.lu_solve": "layerpot.solve_s",
    "layerpot.potential": "layerpot.potential_s",
}

# span name -> call-count metric
CALL_METRIC = {
    "geometry.smoothed_distance": "geometry.smoothed_distance_calls",
    "groupoid.limit_operator": "groupoid.limit_operator_calls",
    "mellin.window": "mellin.window_calls",
    "mellin.line_determinant": "mellin.line_determinant_calls",
    "mellin.brentq": "mellin.brentq_calls",
    "mellin.quad": "mellin.quad_calls",
    "layerpot.svd": "layerpot.svd_calls",
    "layerpot.svd_gesvd": "layerpot.svd_fallbacks",
}

COUNT_METRICS = (
    "mellin.scan_calls.wedge", "mellin.scan_calls.generic",
    "mellin.xi_samples", "mellin.xi_max_doublings", "layerpot.nodes",
    "layerpot.svd_flops_computed", "layerpot.potential_targets")


class Tracer:
    def __init__(self):
        self.spans = []              # [name, start, end, parent index, query id]
        self.stack = []
        self.counts = Counter()
        self.query = None
        self._installed = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.query])
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def parent_name(self, idx: int):
        parent = self.spans[idx][3]
        return self.spans[parent][0] if parent >= 0 else None

    # -- wrappers ----------------------------------------------------------

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Replace ``owner.attr``.  ``name`` is a span name or a function of
        the current innermost span name; ``count(idx, args, kwargs, result)``
        records counters.  A missing attribute is skipped, so the tracer
        outlives refactors of the program."""
        orig = getattr(owner, attr, None)
        if orig is None:
            return
        tracer = self

        def wrapper(*args, **kwargs):
            span = name if isinstance(name, str) else name(
                tracer.spans[tracer.stack[-1]][0] if tracer.stack else "")
            idx = tracer.open(span)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer.close(idx)
            if count is not None:
                count(idx, args, kwargs, result)
            return result

        wrapper.__wrapped__ = orig
        setattr(owner, attr, wrapper)
        self._installed.append((owner, attr, orig))

    def remove(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    def install(self, cli, layerpot, mellin, np, scipy) -> None:
        counts = self.counts
        scan_sig = inspect.signature(mellin.invertibility_scan)

        def scan(idx, args, kwargs, res):
            op = scan_sig.bind(*args, **kwargs)
            op.apply_defaults()
            kind = "wedge" if op.arguments["op"].vertex_id == "wedge" else "generic"
            counts[f"mellin.scan_calls.{kind}"] += 1
            counts["mellin.xi_max_doublings"] += round(
                math.log2(res.xi_max_used / op.arguments["xi_max"]))
            if self.parent_name(idx) == "layerpot.verdict":
                counts["scan.in_verdict"] += 1

        def samples(idx, args, kwargs, res):
            counts["mellin.xi_samples"] += len(res.xi)

        def verdict(idx, args, kwargs, res):
            counts["verdict.strata"] += len(res.per_vertex)
            if self.parent_name(idx) == ROOT and self.query.startswith("window/"):
                counts["verdict.from_cli"] += 1

        def mesh(idx, args, kwargs, res):
            counts["layerpot.nodes"] += res.size

        def svd(idx, args, kwargs, res):
            if self.spans[idx][0] == "layerpot.svd":
                n = min((args[0] if args else kwargs["a"]).shape[-2:])
                counts["layerpot.svd_flops_computed"] += 8.0 / 3.0 * n ** 3

        def targets(idx, args, kwargs, res):
            counts["layerpot.potential_targets"] += len(
                np.atleast_2d(np.asarray(args[0])))

        def svd_layer(parent):
            return "mellin.small_svd" if parent.startswith("mellin.") \
                else "layerpot.svd"

        w = self.wrap
        w(cli, "parse_domain", "geometry.parse")
        w(layerpot, "unfold", "geometry.unfold")
        w(layerpot, "desingularize_boundary", "geometry.desingularize")
        w(layerpot, "smoothed_distance", "geometry.smoothed_distance")
        w(layerpot, "build_groupoid", "groupoid.build")
        w(layerpot, "limit_operator", "groupoid.limit_operator")
        w(layerpot, "invertibility_scan", "mellin.scan", scan)
        w(mellin, "invertibility_scan", "mellin.scan", scan)
        w(mellin, "symbol_on_line", "mellin.symbol", samples)
        w(mellin, "tail_majorant", "mellin.tail_majorant")
        w(layerpot, "admissible_weight_window", "mellin.window")
        w(mellin, "_dense_line_determinants", "mellin.det_grid")
        w(mellin, "line_determinant", "mellin.line_determinant")
        w(scipy.optimize, "brentq", "mellin.brentq")
        w(scipy.integrate, "quad", "mellin.quad")
        w(np.linalg, "svd", svd_layer, svd)
        w(scipy.linalg, "svd", "layerpot.svd_gesvd")
        w(np.linalg, "solve", "layerpot.lu_solve")
        w(layerpot, "fredholm_verdict", "layerpot.verdict", verdict)
        w(layerpot, "domain_windows", "layerpot.domain_windows")
        w(layerpot, "graded_mesh", "layerpot.mesh", mesh)
        w(layerpot, "assemble_np", "layerpot.assemble")
        w(layerpot, "weighted_discrete_operator", "layerpot.weight")
        w(layerpot, "min_singular_value_study", "layerpot.study")
        w(layerpot, "solve_dirichlet", "layerpot.solve")
        w(layerpot, "double_layer_potential", "layerpot.potential", targets)
        w(layerpot, "panel_potentials", "layerpot.potential", targets)

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Self time per layer, call counts and counters over all spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {m: 0.0 for m in SELF_METRIC.values()}
        out.update({m: 0 for m in CALL_METRIC.values()})
        out.update({m: 0 for m in COUNT_METRICS})
        for (name, start, end, _, _), inner in zip(self.spans, child):
            out[SELF_METRIC[name]] += (end - start) - inner
            if name in CALL_METRIC:
                out[CALL_METRIC[name]] += 1
        for m in COUNT_METRICS:
            out[m] = self.counts[m]
        strata = self.counts["verdict.strata"]
        out["mellin.scan_reuse_frac"] = (
            1.0 - self.counts["scan.in_verdict"] / strata if strata else 0.0)
        out["cli.margin_curve_verdicts"] = self.counts["verdict.from_cli"]
        return out

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {"span_names": names,
                "spans": [[index[n], s, e, p, q] for n, s, e, p, q in self.spans]}
