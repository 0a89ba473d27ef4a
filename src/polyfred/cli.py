"""Command line front-end: analyze | window | solve | study.

Exit codes for analyze: 0 Fredholm, 1 not Fredholm, 2 inconclusive, 3+
error.  All reports echo the configuration and the tool version; tables can
be written as JSON or CSV.
"""

from __future__ import annotations

import ast
import cmath
import contextlib
import csv
import json
import math
import operator
import re
import sys

import click
import numpy as np

from . import __version__, layerpot, mellin
from .geometry import parse_domain


# -- boundary data mini-expressions ---------------------------------------

_NUMBER = re.compile(r"\d+\.\d*|\.\d+|\d+")
_BINARY = {ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
           ast.Div: operator.truediv, ast.Pow: operator.pow}
_UNARY = {ast.UAdd: operator.pos, ast.USub: operator.neg}
_PARTS = {"re": lambda v: complex(v).real, "im": lambda v: complex(v).imag}


class ExprError(ValueError):
    """Malformed boundary-data expression."""


def parse_boundary_data(text: str):
    """Compile a small closed expression grammar into a function g(x, y).

    Supported: numerals (12, 1.5, 2., .5), x, y, z (= x + i y), pi,
    + - * / ^ (or **), unary + and -, parentheses, and the harmonic tags
    re(...) / im(...).  Python's parser reads the text; only these nodes
    are compiled.  g evaluates on Python floats and raises ExprError where
    the value is not a finite real number.
    """
    bad = re.search(r"[^\w\s.+\-*/^()]", text)
    if bad:
        raise ExprError(f"bad character near {text[bad.start():]!r}")
    # one space per whitespace run lets Python read the text as one line;
    # leading zeros, which Python forbids on integers, are dropped
    src = re.sub(r"(?<![\w.])0+(?=\d)", "",
                 " ".join(text.split())).replace("^", "**")

    def compile_node(node):
        if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
            op = _BINARY[type(node.op)]
            left, right = compile_node(node.left), compile_node(node.right)
            return lambda env: op(left(env), right(env))
        if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
            op, inner = _UNARY[type(node.op)], compile_node(node.operand)
            return lambda env: op(inner(env))
        if isinstance(node, ast.Constant):
            numeral = ast.get_source_segment(src, node)
            if _NUMBER.fullmatch(numeral):        # no 1e3, 0x10, 1_0, 2j
                val = float(numeral)
                return lambda env: val
        if isinstance(node, ast.Name) and node.id in ("x", "y", "z", "pi"):
            name = node.id
            return lambda env: env[name]
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in _PARTS and len(node.args) == 1:
            part, inner = _PARTS[node.func.id], compile_node(node.args[0])
            return lambda env: part(inner(env))
        raise ExprError(
            f"unsupported expression {ast.get_source_segment(src, node)!r}")

    try:
        root = compile_node(ast.parse(src, mode="eval").body)
    except (SyntaxError, RecursionError, MemoryError) as exc:
        # Python's parser reports input nested too deeply as MemoryError
        why = getattr(exc, "msg", type(exc).__name__)
        raise ExprError(f"cannot parse boundary data: {why}") from None

    def g(x, y):
        x, y = float(x), float(y)
        try:
            val = complex(root({"x": x, "y": y, "z": complex(x, y),
                                "pi": math.pi}))
        except (ArithmeticError, RecursionError) as exc:
            raise ExprError(f"boundary data fails at ({x}, {y}): {exc}") from None
        if not cmath.isfinite(val) or \
                abs(val.imag) > 1e-12 * max(1.0, abs(val.real)):
            raise ExprError(f"boundary data is no finite real at ({x}, {y})")
        return val.real

    return g


# -- shared helpers --------------------------------------------------------

def _emit(report: dict, out: str | None, fmt: str, table_key: str | None = None):
    with (open(out, "w", newline="") if out
          else contextlib.nullcontext(sys.stdout)) as target:
        if fmt == "csv":
            csv.writer(target).writerows(report[table_key])
        else:
            click.echo(json.dumps(report, indent=2), file=target)


class _Main(click.Group):
    """Reports a subcommand's ValueError, OSError or MemoryError (bad input,
    an unwritable --out, a matrix too large to allocate) as `error: ...` on
    stderr, the bare name where it has no text, and exits 3."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (ValueError, OSError, MemoryError) as exc:
            click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
            sys.exit(3)


@click.group(cls=_Main)
@click.version_option(__version__)
def main():
    """Fredholm analysis of layer potential operators c*I + K."""


_c_option = click.option("--c", "c", type=float, default=1.0,
                         show_default=True, help="scalar part of c*I + K")
_out_option = click.option("--out", type=click.Path(), default=None,
                           help="write the report here instead of stdout")
_format_option = click.option("--format", "fmt",
                              type=click.Choice(["json", "csv"]),
                              default="json", show_default=True)


@main.command()
@click.argument("domain_file", type=click.Path(exists=True))
@click.option("--a", type=float, default=0.0, show_default=True,
              help="Sobolev weight index")
@_c_option
@_out_option
def analyze(domain_file, a, c, out):
    """Fredholm verdict for c*I + K on the weight-a scale."""
    d = parse_domain(domain_file)
    v = layerpot.fredholm_verdict(d, c, a)
    report = {
        "config": dict(domain=domain_file, c=c, a=a, version=__version__),
        "verdict": v.overall,
        "elliptic": v.elliptic,
        "witnesses": list(v.witnesses),
        "reference_window": list(v.reference_window),
        "per_vertex": {
            vid: {"invertible": r.invertible, "margin": r.margin,
                  "witness_xi": (None if math.isinf(r.witness_xi)
                                 else r.witness_xi),
                  "xi_max_used": r.xi_max_used}
            for vid, r in v.per_vertex.items()},
        "line_offset": mellin.line_offset(a),
        "tolerances": {"scan": mellin.SCAN_TOL,
                       "inconclusive_margin": layerpot.INCONCLUSIVE_MARGIN},
    }
    _emit(report, out, "json")
    sys.exit({"Fredholm": 0, "not Fredholm": 1, "inconclusive": 2}[v.overall])


@main.command()
@click.argument("domain_file", type=click.Path(exists=True))
@_c_option
@_out_option
@_format_option
def window(domain_file, c, out, fmt):
    """Admissible weight window per vertex and globally, with margin curve."""
    d = parse_domain(domain_file)
    rep = layerpot.domain_windows(d, c)
    report = {
        "config": dict(domain=domain_file, c=c, version=__version__),
        "per_vertex": {k: list(w) if w else None
                       for k, w in rep.per_vertex.items()},
        "global_window": (list(rep.global_window)
                          if rep.global_window else None),
        "reference_window": list(rep.reference_window),
        "margin_curve": [("a", "margin", "witness_xi"), *rep.margin_curve],
    }
    _emit(report, out, fmt, table_key="margin_curve")
    sys.exit(0)


@main.command()
@click.argument("domain_file", type=click.Path(exists=True))
@click.option("--g", "g_expr", required=True,
              help="boundary data, e.g. 'x^2-y^2' or 're(z^3)'")
@click.option("--mesh-n", type=int, default=32, show_default=True)
@_c_option
@_out_option
def solve(domain_file, g_expr, mesh_n, c, out):
    """Dirichlet solve (I + K) phi = 2 g with interior error report."""
    if c != 1.0:                                    # NaN fails too
        raise ValueError(f"c = {c}: the Dirichlet identity requires c = +1")
    d = parse_domain(domain_file)
    g = parse_boundary_data(g_expr)
    sol = layerpot.solve_dirichlet(d, g, mesh=layerpot.solve_mesh(d, mesh_n))
    pts, errs = _interior_probe(d, sol, g)
    report = {
        "config": dict(domain=domain_file, g=g_expr, c=c, mesh_n=mesh_n,
                       version=__version__),
        "solve_residual": sol.residual,
        "interior_points_tested": len(pts),
        "max_interior_relative_error": (max(errs) if errs else None),
    }
    if errs:
        click.echo(f"max interior relative error: {max(errs):.3e}", err=True)
    _emit(report, out, "json")
    sys.exit(0)


def _interior_probe(d, sol, g):
    """Evaluate the solution on a grid of interior points at distance
    >= 0.1 * the largest side of d's box from the nodes and compare against
    the boundary data extended harmonically (valid when g is the trace of
    the expression), relative to max |g| at the nodes."""
    # d's box holds its vertices and its arcs' full circles
    corners = [v.pos for v in d.vertices.values()]
    for e in d.edges.values():
        if e.kind == "arc":
            center, radius = np.array(e.params["center"]), e.params["radius"]
            corners += [center - radius, center + radius]
    margin = 0.1 * np.ptp(corners, axis=0).max()
    axes = np.linspace(sol.mesh.points.min(axis=0),
                       sol.mesh.points.max(axis=0), 17).T
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    dmin = np.linalg.norm(grid[:, None] - sol.mesh.points,
                          axis=-1).min(axis=1)
    # winding number: the double layer of the constant density is exactly
    # 2 inside the loop and 0 outside
    inside = layerpot.panel_potentials(grid, sol.mesh).sum(axis=1) > 1.0
    pts = grid[(dmin >= margin) & inside]
    scale = float(np.max(np.abs(sol.g))) or 1.0     # 1.0 only for g = 0
    vals = sol(pts)
    errs = [abs(v - g(x, y)) / scale for v, (x, y) in zip(vals, pts)]
    return pts, errs


@main.command()
@click.argument("domain_file", type=click.Path(exists=True))
@click.option("--a", type=float, default=0.0, show_default=True)
@click.option("--mesh-n", "mesh_ns", type=int, multiple=True,
              default=(8, 16, 32, 64), show_default=True,
              help="mesh sizes of the refinement sequence")
@click.option("--deflate", type=int, default=None,
              help="skip this many smallest singular values "
                   "(default: 1 for c=-1, else 0)")
@_c_option
@_out_option
@_format_option
def study(domain_file, a, mesh_ns, deflate, c, out, fmt):
    """Smallest singular value of the weighted operator under refinement."""
    d = parse_domain(domain_file)
    if deflate is None:
        deflate = 1 if c == -1.0 else 0
    res = layerpot.min_singular_value_study(
        d, c, a, mesh_sizes=tuple(mesh_ns), deflate=deflate)
    table = [("n", "nodes", "sigma")] + [list(r) for r in res.rows]
    report = {
        "config": dict(domain=domain_file, c=c, a=a, mesh_n=list(mesh_ns),
                       deflate=deflate, version=__version__),
        "trend": res.trend,
        "slope": res.slope,
        "table": table,
    }
    _emit(report, out, fmt, table_key="table")
    sys.exit(0)


if __name__ == "__main__":
    main()
