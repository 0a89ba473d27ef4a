"""Command line interface: subcommands, exit codes, and the expression grammar."""

import json
import math
import re
import shlex
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from polyfred import layerpot, mellin
from polyfred.cli import ExprError, main, parse_boundary_data

from conftest import (ALL_DOMAINS, CRACK, CRACK_DOMAINS,
                      MALFORMED_DOMAINS, ROOT, arc, domain_doc,
                      domain_path)

CRACK_FREE_DOMAINS = tuple(n for n in ALL_DOMAINS if n not in CRACK_DOMAINS)


@pytest.fixture()
def runner():
    return CliRunner()


# -- expression grammar ----------------------------------------------------

def test_expr_polynomial():
    g = parse_boundary_data("x^2-y^2")
    assert g(3.0, 2.0) == 5.0
    assert parse_boundary_data("x**2-y**2")(3.0, 2.0) == 5.0


def test_expr_precedence_and_unary():
    g = parse_boundary_data("2+3*4^2-(-6)/2")
    assert g(0.0, 0.0) == 2 + 3 * 16 + 3


def test_expr_harmonic_tags():
    g = parse_boundary_data("re(z^3)")
    x, y = 0.7, -0.4
    assert math.isclose(g(x, y), x ** 3 - 3 * x * y * y, rel_tol=1e-14)
    h = parse_boundary_data("im(z^2)")
    assert math.isclose(h(x, y), 2 * x * y, rel_tol=1e-14)


def test_expr_pi_and_division():
    assert math.isclose(parse_boundary_data("pi/2")(0, 0), math.pi / 2)


def test_expr_errors():
    with pytest.raises(ExprError):
        parse_boundary_data("x+")
    with pytest.raises(ExprError):
        parse_boundary_data("q*2")
    with pytest.raises(ExprError):
        parse_boundary_data("(x")
    with pytest.raises(ExprError):
        parse_boundary_data("x 2")
    # a complex-valued result is rejected at evaluation time
    with pytest.raises(ExprError):
        parse_boundary_data("z")(1.0, 2.0)


X, Y = 0.3, -0.7


@pytest.mark.parametrize("text,want", [
    ("2.", 2.0),
    (".5", 0.5),
    ("00012", 12.0),
    ("x ^ 2 + 1", X ** 2 + 1),
    ("x^y^2", X ** (Y ** 2)),
    ("-x^2", -(X ** 2)),
    ("re (z)", X),
    ("1e3", None),
    ("0x10", None),
    ("1_0", None),
    ("2j", None),
    ("2x", None),
    ("x 2", None),
    ("re()", None),
    ("re(x,y)", None),
    ("re(x,)", None),
    ("abs(x)", None),
    ("x.real", None),
    ("x # comment", None),
    ("x // 2", None),
    ("True", None),
    pytest.param("(" * 300 + "x" + ")" * 300, None, id="300-nested-parens"),
])
def test_expr_grammar_edges(text, want):
    if want is None:
        with pytest.raises(ExprError):
            parse_boundary_data(text)
    else:
        assert parse_boundary_data(text)(X, Y) == want


@pytest.mark.parametrize("text,x,y", [
    ("1/x", 0.0, 1.0),
    ("1/(x-x)", 0.5, 0.5),
    ("10^400", 0.0, 0.0),
    ("im(z^2)", 1e200, 1e200),
])
def test_expr_evaluation_errors(text, x, y):
    # numpy scalars are read as Python floats, so 1/0 does not give inf
    g = parse_boundary_data(text)
    for args in ((x, y), (np.float64(x), np.float64(y))):
        with pytest.raises(ExprError):
            g(*args)


# -- analyze ---------------------------------------------------------------

def test_analyze_fredholm_exit_zero(runner):
    res = runner.invoke(main, ["analyze", domain_path("square"),
                               "--c", "1", "--a", "0"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "Fredholm"
    assert rep["elliptic"] is True
    assert rep["witnesses"] == []
    assert set(rep["per_vertex"]) == {"a", "b", "c", "d"}
    assert rep["config"]["version"]
    assert rep["tolerances"]["scan"] == mellin.SCAN_TOL


def test_analyze_not_fredholm_exit_one(runner):
    res = runner.invoke(main, ["analyze", domain_path("slit_square")])
    assert res.exit_code == 1
    rep = json.loads(res.stdout)
    assert rep["verdict"] == "not Fredholm"
    assert set(rep["witnesses"]) == {"p#c0", "t#c0"}


def test_analyze_error_exit_three(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"vertices\": []}")
    res = runner.invoke(main, ["analyze", str(bad)])
    assert res.exit_code == 3
    # weight far outside the symbol validity strip
    res = runner.invoke(main, ["analyze", domain_path("square"), "--a", "1.5"])
    assert res.exit_code == 3


DELETE = object()


def _set(path, value):
    # a change to a domain document: path is a tuple of keys and indices,
    # and the value DELETE deletes the field
    def change(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        if value is DELETE:
            del doc[last]
        else:
            doc[last] = value
    return change


def _append(path, value):
    # a change that appends value to the list at path
    def change(doc):
        for key in path:
            doc = doc[key]
        doc.append(value)
    return change


def _replace(new):
    # a change that replaces the whole document
    def change(doc):
        doc.clear()
        doc.update(new)
    return change


def _rule(vertices, edges):
    return _replace(domain_doc(vertices, edges))


SQUARE = {"a": (-1, -1), "b": (1, -1), "c": (1, 1), "d": (-1, 1)}
SQUARE_EDGES = {"s": ("a", "b"), "e": ("b", "c"), "n": ("c", "d"),
                "w": ("d", "a")}
RIM = arc([0, 0], 1.0, 0.0, 2 * math.pi)

# malformed domain files: fixture, change, and the field the error names
MALFORMED = {
    "vertex-without-y": ("square", _set(("vertices", 0, "y"), DELETE), "'y'"),
    "edge-without-id": ("square", _set(("edges", 1, "id"), DELETE), "'id'"),
    "vertices-not-a-list": ("square", _set(("vertices",), 3), "'vertices'"),
    "x-null": ("square", _set(("vertices", 2, "x"), None), "'x'"),
    "x-nan": ("square", _set(("vertices", 2, "x"), float("nan")), "'x'"),
    "x-true": ("square", _set(("vertices", 2, "x"), True), "'x'"),
    "vertex-not-an-object": ("square", _set(("vertices", 1), [1, 2]),
                             "vertices[1]"),
    "arc-without-radius": ("circle", _set(("edges", 0, "params", "radius"),
                                          DELETE), "'radius'"),
    "arc-with-empty-params": ("slit_disk", _set(("edges", 0, "params"), {}),
                              "edges[0].params"),
    "arc-radius-zero": ("circle", _set(("edges", 0, "params", "radius"), 0),
                        "degenerate edge rim"),
    "arc-center-not-a-point": ("circle", _set(("edges", 0, "params",
                                               "center"), [0.0]), "'center'"),
    "crack-not-a-boolean": ("slit_square", _set(("edges", 4, "crack"), "no"),
                            "'crack'"),
    # one case per rule of a valid domain
    "duplicate-edge-ids": ("square", _set(("edges", 1, "id"), "south"),
                           "duplicate edge ids"),
    "line-edge-without-to": ("square", _set(("edges", 0, "to"), DELETE),
                             "line edge south needs endpoints"),
    "open-arc-without-endpoints": ("circle", _set(("edges", 0, "params",
                                                   "theta_end"), 3.0),
                                   "open arc edge rim needs endpoints"),
    "unknown-edge-kind": ("square", _set(("edges", 0, "kind"), "spline"),
                          "unknown edge kind 'spline'"),
    "vertex-on-no-edge": ("square", _append(("vertices",), {
        "id": "z", "x": 0.0, "y": 0.0}), "vertices on no edge: ['z']"),
    "cracks-only": ("slit_square", _rule(
        {"p": (-0.5, 0), "t": (0.5, 0)}, {"k": ("p", "t", CRACK)}),
        "domain has no outer boundary"),
    "closed-arc-beside-edge": ("slit_disk", _set(("edges", 1, "crack"), False),
                               "a closed arc must be the only boundary edge"),
    "two-loops": ("square", _rule(
        {"a": (0, 0), "b": (1, 0), "c": (0, 1),
         "p": (3, 0), "q": (4, 0), "r": (3, 1)},
        {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "a"),
         "f0": ("p", "q"), "f1": ("q", "r"), "f2": ("r", "p")}),
        "boundary edges do not form one closed loop"),
    "closed-arc-at-one-vertex": ("circle", _rule(
        {"u": (1, 0)}, {"rim": ("u", None, RIM)}),
        "vertex u: inconsistent boundary loop"),
    "crack-leaves-the-domain": ("square", _rule(
        {**SQUARE, "o": (-2, -2)}, {**SQUARE_EDGES, "k": ("a", "o", CRACK)}),
        "crack at vertex a leaves the interior sector"),
    "two-cracks-along-one-ray": ("square", _rule(
        {**SQUARE, "j": (0, 0), "t": (0.2, 0), "u": (0.5, 0)},
        {**SQUARE_EDGES, "k0": ("j", "t", CRACK), "k1": ("j", "u", CRACK)}),
        "vertex j has a zero-measure cone-base component"),
    # each arc winds twice around its circle, so it starts and ends at
    # (0, 0), where the vertices u and w coincide; no arc may sweep more
    # than a full turn, and an arc of at most one turn that starts and
    # ends at one point is closed
    "coincident-vertices": ("square", _rule(
        {"u": (0, 0), "w": (0, 0)},
        {"e0": ("u", "w", arc([0, 1], 1.0, -math.pi / 2, 3.5 * math.pi)),
         "e1": ("w", "u", arc([0, -1], 1.0, math.pi / 2, 4.5 * math.pi))}),
        "arc e0 sweeps more than a full turn"),
    "zero-length-edge": ("square", _replace(
        MALFORMED_DOMAINS["zero-length-edge"]), "degenerate edge e1"),
    "overlap": ("square", _replace(MALFORMED_DOMAINS["overlap"]),
                "edges e0 and e2 intersect"),
    "t-junction": ("square", _replace(MALFORMED_DOMAINS["t-junction"]),
                   "edges e0 and e2 intersect"),
    "crack-tip-on-edge": ("square", _replace(
        MALFORMED_DOMAINS["crack-tip-on-edge"]), "edges e0 and k intersect"),
    "horn": ("square", _replace(MALFORMED_DOMAINS["horn"]),
             "vertex a has a zero-measure cone-base component"),
    "arc-off-its-vertices": ("square", _replace(
        MALFORMED_DOMAINS["arc-off-its-vertices"]),
        "arc n does not start at its vertex c"),
    "arc-over-a-full-turn": ("square", _replace(
        MALFORMED_DOMAINS["arc-over-a-full-turn"]),
        "arc n sweeps more than a full turn"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_domain_file_exits_three(runner, tmp_path, case):
    # exit 1 means "not Fredholm", so a malformed file must not crash there
    name, change, field = MALFORMED[case]
    with open(domain_path(name)) as fh:
        doc = json.load(fh)
    change(doc)
    path = tmp_path / f"{case}.json"
    path.write_text(json.dumps(doc))
    res = runner.invoke(main, ["analyze", str(path)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr.startswith("error: ") and field in res.stderr


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd,opt", [
    ("analyze", "--c"), ("analyze", "--a"), ("window", "--c"),
    ("study", "--c"), ("study", "--a"), ("solve", "--c")])
@pytest.mark.parametrize("name", ["square", "circle"])
def test_non_finite_numbers_exit_three(runner, name, cmd, opt, value):
    # c and the weights are checked by name before any scan or assembly
    g = ["--g", "x"] if cmd == "solve" else []
    res = runner.invoke(main, [cmd, domain_path(name), *g, opt, value])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert opt[2:].replace("-", "_") + " = " in res.stderr


@pytest.mark.parametrize("a", ["100", "-100"])
def test_study_weight_beyond_float_range_exits_three(runner, a):
    # r^(-1/2-a) overflows (a = 100) or underflows (a = -100) on the
    # 16-node mesh: an input error, raised before assembly, with no warning
    res = runner.invoke(main, ["study", domain_path("square"), "--a", a,
                               "--mesh-n", "8", "--mesh-n", "16"])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert f"weight a = {float(a)}" in res.stderr


@pytest.mark.parametrize("c, a", [("1", "100"), ("-1", "-100")])
def test_crack_study_weight_beyond_float_range_exits_three(runner, c, a):
    # the weight is checked before the twin pairs are read, so a crack
    # study at c = +-1 does not answer zeros for a weight beyond range
    res = runner.invoke(main, ["study", domain_path("slit_square"), "--c", c,
                               "--a", a])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert (f"weight a = {float(a)} takes the weight r^(-1/2-a) of the "
            "192-node mesh beyond the float range") in res.stderr


# -- window ----------------------------------------------------------------

def test_window_square(runner):
    res = runner.invoke(main, ["window", domain_path("square")])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    lo, hi = rep["global_window"]
    assert abs(lo + 2.0 / 3.0) <= 1e-6
    assert abs(hi - 2.0 / 3.0) <= 1e-6
    assert rep["reference_window"][1] == 0.5
    assert rep["margin_curve"][0] == ["a", "margin", "witness_xi"]


# Vertices with no admissible weight at all: crack tips at c = +-1, where
# c*I + J is singular, and corners whose symbol has a zero on the reference
# line a = 0.  A corner of angle theta has one for 0 < |c| <= |pi-theta|/pi:
# right (and 3pi/2) angles at c = 1/2 (a zero touching xi = 0) and at
# c = 0.37 (a real zero xi != 0), but not the hexagon's at c = 0.37 > 1/3.
EMPTY_WINDOWS = {
    1.0: {"slit_square": {"p#c0", "t#c0"}, "slit_disk": {"t#c0"},
          "tcrack_square": {"t1#c0", "t2#c0", "t3#c0"}},
    0.5: {"square": {"a", "b", "c", "d"},
          "lshape": {"v0", "v1", "v2", "v3", "v4", "v5"},
          "slit_square": {"a", "b", "c", "d"},
          "slit_disk": {"j#c0", "j#c1"},
          "tcrack_square": {"a", "b", "c", "d", "j#c0", "j#c1"}},
}
EMPTY_WINDOWS[-1.0] = EMPTY_WINDOWS[1.0]
# crack-free fixtures only: crack junction strata are left unpinned here
EMPTY_WINDOWS[0.37] = {"square": {"a", "b", "c", "d"},
                       "lshape": {"v0", "v1", "v2", "v3", "v4", "v5"}}


def _no_constants(name):
    raise ValueError(f"non-finite number {name} in the JSON report")


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name,c", [(n, c) for c in (1.0, -1.0, 0.5)
                                    for n in ALL_DOMAINS]
                         + [(n, 0.37) for n in CRACK_FREE_DOMAINS])
def test_window_matrix(runner, name, c):
    res = runner.invoke(main, ["window", domain_path(name), "--c", repr(c)])
    assert res.exit_code == 0
    rep = json.loads(res.stdout, parse_constant=_no_constants)
    per_vertex = rep["per_vertex"]
    windows = [w for w in per_vertex.values() if w is not None]
    assert {v for v, w in per_vertex.items() if w is None} \
        == EMPTY_WINDOWS[c].get(name, set())
    for lo, hi in windows:
        assert -1.2 <= lo < 0.0 < hi <= 1.2
    glob, curve = rep["global_window"], rep["margin_curve"]
    if not per_vertex:
        # vertex-free: Fredholm on the whole search range, no margin curve
        assert glob == [-1.2, 1.2]
        assert curve == [["a", "margin", "witness_xi"]]
    elif len(windows) < len(per_vertex):
        assert glob is None
        assert len(curve) == 1
    else:
        assert glob == [max(w[0] for w in windows), min(w[1] for w in windows)]
        assert len(curve) == 22


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_window_builds_each_limit_operator_once(runner, monkeypatch, name):
    # the window search and the margin curve share one limit operator per
    # vertex stratum
    built = Counter()
    build = layerpot.limit_operator

    def counting(u, uid):
        built[uid] += 1
        return build(u, uid)

    monkeypatch.setattr(layerpot, "limit_operator", counting)
    res = runner.invoke(main, ["window", domain_path(name), "--c", "1"])
    assert res.exit_code == 0
    assert built == dict.fromkeys(json.loads(res.stdout)["per_vertex"], 1)


def test_window_empty_with_zero_on_reference_line(runner):
    res = runner.invoke(main, ["window", domain_path("square"),
                               "--c", "0.37"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["global_window"] is None


def test_analyze_not_fredholm_with_zero_on_reference_line(runner):
    res = runner.invoke(main, ["analyze", domain_path("square"),
                               "--c", "0.37", "--a", "0"])
    assert res.exit_code == 1


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", ("1e80", "-1e80", "1e160", "-1e160", "1e250",
                               "-1e250"))
@pytest.mark.parametrize("name", ("square", "tcrack_square", "circle"))
def test_window_and_analyze_at_large_c(runner, name, c):
    # det(c*I + symbol) grows like c^k: the window search keeps it in range
    half = 1.2 if name == "circle" else 0.98
    res = runner.invoke(main, ["window", domain_path(name), "--c", c])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["global_window"] == [-half, half]
    res = runner.invoke(main, ["analyze", domain_path(name), "--c", c])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["verdict"] == "Fredholm"


# -- solve -----------------------------------------------------------------

def test_solve_square(runner):
    res = runner.invoke(main, ["solve", domain_path("square"),
                               "--g", "x^2-y^2"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["interior_points_tested"] > 50
    assert rep["max_interior_relative_error"] <= 1e-3


@pytest.mark.parametrize("c", ["-1", "0.5"])
def test_solve_rejects_c_other_than_one(runner, c):
    # the Dirichlet identity holds for I + K only
    res = runner.invoke(main, ["solve", domain_path("square"), "--g", "x",
                               "--c", c])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert "c = " in res.stderr


def test_solve_runs_no_symbolic_route(runner, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("solve reached the symbolic route")

    for name in ("limit_operators", "fredholm_verdict", "invertibility_scan",
                 "admissible_weight_window"):
        monkeypatch.setattr(layerpot, name, refuse)
    res = runner.invoke(main, ["solve", domain_path("square"), "--g", "x",
                               "--mesh-n", "8"])
    assert res.exit_code == 0, res.output
    assert "a" not in json.loads(res.stdout)["config"]


def test_solve_has_no_weight_option(runner):
    res = runner.invoke(main, ["solve", domain_path("square"), "--g", "x",
                               "--a", "0"])
    assert res.exit_code == 2


def test_solve_bad_expression(runner):
    res = runner.invoke(main, ["solve", domain_path("square"), "--g", "x+"])
    assert res.exit_code == 3


@pytest.mark.parametrize("g", ["1/(x-x)", "1/x", "10^400"])
def test_solve_data_that_does_not_evaluate(runner, g):
    # fails on the mesh (1/(x-x), 10^400) or on the interior probe (1/x)
    res = runner.invoke(main, ["solve", domain_path("square"), "--g", g])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""


# -- study -----------------------------------------------------------------

def test_study_circle_decaying(runner):
    res = runner.invoke(main, ["study", domain_path("circle"), "--c", "-1",
                               "--deflate", "0", "--mesh-n", "8",
                               "--mesh-n", "16", "--mesh-n", "32"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["trend"] == "decaying"


def test_study_rounding_level_has_no_slope(runner):
    # the crack tips make the finest sigma rounding level: the trend is
    # decaying by the rounding rule and a slope fitted through noise is null
    res = runner.invoke(main, ["study", domain_path("slit_square"),
                               "--c", "1", "--a", "-0.25", "--mesh-n", "8",
                               "--mesh-n", "16", "--mesh-n", "32"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["table"][-1][2] < 1e-12
    assert rep["trend"] == "decaying"
    assert rep["slope"] is None


def test_study_square_bounded(runner):
    res = runner.invoke(main, ["study", domain_path("square"), "--c", "1",
                               "--a", "0"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["trend"] == "bounded-below"
    assert rep["table"][0] == ["n", "nodes", "sigma"]


def test_study_csv_output(runner, tmp_path):
    out = tmp_path / "study.csv"
    res = runner.invoke(main, ["study", domain_path("square"),
                               "--mesh-n", "8", "--mesh-n", "16",
                               "--mesh-n", "32",
                               "--format", "csv", "--out", str(out)])
    assert res.exit_code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("n,")
    assert len(lines) == 4


def test_study_mesh_too_fine_names_the_mesh_size(runner):
    # the grading ratio and depth are no options: the error names n
    res = runner.invoke(main, ["study", domain_path("square"),
                               "--mesh-n", "600000", "--mesh-n", "700000"])
    assert res.exit_code == 3
    assert "smallest graded width" in res.stderr
    assert "n = 600000" in res.stderr and "raise q" not in res.stderr


@pytest.mark.parametrize("meshes", (("64",), ("8", "8"), ("16", "8")))
def test_study_rejects_bad_mesh_sizes(runner, meshes):
    # a trend needs at least two strictly increasing mesh sizes
    argv = ["study", domain_path("square"), "--c", "1", "--a", "-0.8"]
    for n in meshes:
        argv += ["--mesh-n", n]
    res = runner.invoke(main, argv)
    assert res.exit_code == 3
    assert "strictly increasing" in res.stderr
    assert res.stdout == ""


# -- every fixture through analyze and study -------------------------------

def _not_fredholm_at_zero(name, c):
    # the reference weight a = 0 is admissible exactly where every vertex
    # has a window (see EMPTY_WINDOWS)
    return EMPTY_WINDOWS[c].get(name, set())


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", (1.0, -1.0, 0.5, 0.0))
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_analyze_matrix(runner, name, c):
    res = runner.invoke(main, ["analyze", domain_path(name), "--c", repr(c)])
    rep = json.loads(res.stdout, parse_constant=_no_constants)
    if c == 0.0:
        assert res.exit_code == 1
        assert rep["verdict"] == "not Fredholm"
        assert rep["elliptic"] is False
        return
    witnesses = _not_fredholm_at_zero(name, c)
    assert res.exit_code == (1 if witnesses else 0)
    assert rep["verdict"] == ("not Fredholm" if witnesses else "Fredholm")
    assert set(rep["witnesses"]) == witnesses


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", (1.0, -1.0, 0.5))
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_study_matrix(runner, name, c):
    res = runner.invoke(main, ["study", domain_path(name), "--c", repr(c),
                               "--mesh-n", "8", "--mesh-n", "16",
                               "--mesh-n", "32"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout, parse_constant=_no_constants)
    assert rep["trend"] in ("bounded-below", "decaying", "inconclusive")
    assert rep["config"]["deflate"] == (1 if c == -1.0 else 0)
    header, *rows = rep["table"]
    assert header == ["n", "nodes", "sigma"]
    assert [r[0] for r in rows] == [8, 16, 32]
    assert all(r[2] >= 0.0 for r in rows)


# -- weights at the edge of the validity strip ----------------------------

@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("c", (1.0, 0.75))
@pytest.mark.parametrize("a", (-0.99, 0.99, -1.0, 1.0))
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_analyze_strip_edge(runner, name, a, c):
    # the vertex symbols converge on |Im lam| < 1, so |a| < 1 is answered
    # and |a| = 1 is an error wherever there is a vertex
    res = runner.invoke(main, ["analyze", domain_path(name), "--c", repr(c),
                               "--a", repr(a)])
    if abs(a) < 1.0 or name == "circle":
        assert res.exit_code in (0, 1, 2)
        rep = json.loads(res.stdout, parse_constant=_no_constants)
        assert rep["line_offset"] == -a
    else:
        assert res.exit_code == 3
        assert "outside validity strip" in res.stderr


# -- command surface -------------------------------------------------------

SURFACE = {
    "analyze": {"--a", "--c", "--out"},
    "window": {"--c", "--out", "--format"},
    "solve": {"--g", "--mesh-n", "--c", "--out"},
    "study": {"--a", "--mesh-n", "--deflate", "--c", "--out", "--format"},
}


def test_cli_surface(runner):
    # each subcommand offers exactly the options it reads, and the README
    # lists exactly these
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    listed = re.search(r"Commands:\n(.*)", res.stdout, re.S).group(1)
    assert set(re.findall(r"^\s+(\w+)", listed, re.M)) == set(SURFACE)
    for cmd, options in SURFACE.items():
        res = runner.invoke(main, [cmd, "--help"])
        assert res.exit_code == 0
        found = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", res.stdout))
        assert found - {"--help"} == options, cmd
    # the README's option list is the same surface
    text = (ROOT / "README.md").read_text()
    listed = re.search(r"takes a domain file and these options:\n\n"
                       r"((?:- .*\n)+)", text).group(1)
    documented = {cmd: set(opts.split()) for cmd, opts in
                  re.findall(r"^- `(\w+)`: `([^`]*)`$", listed, re.M)}
    assert documented == SURFACE


@pytest.mark.parametrize("cmd", ["analyze", "window"])
@pytest.mark.parametrize("opt", ["--tol", "--xi-max", "--a-min", "--a-max"])
def test_scan_settings_are_no_options(runner, cmd, opt):
    # the scan threshold, the starting scan range and the window's search
    # range are constants: each former option is a usage error
    res = runner.invoke(main, [cmd, domain_path("square"), opt, "0.5"])
    assert res.exit_code == 2
    assert f"No such option '{opt}'" in res.output


@pytest.mark.parametrize("cmd, opt", [("solve", "--mesh-q"),
                                      ("solve", "--mesh-nc"),
                                      ("study", "--mesh-q")])
def test_mesh_grading_is_no_option(runner, cmd, opt):
    # the grading ratio and the grading depths are constants of layerpot:
    # each former option is a usage error
    res = runner.invoke(main, [cmd, domain_path("square"), opt, "0.5"])
    assert res.exit_code == 2
    assert f"No such option '{opt}'" in res.output


# a quick run of each subcommand on the square
QUICK = {"analyze": [], "window": [], "solve": ["--g", "x", "--mesh-n", "8"],
         "study": ["--mesh-n", "8", "--mesh-n", "16"]}


@pytest.mark.parametrize("cmd", QUICK)
def test_unwritable_out_exits_3(runner, tmp_path, cmd):
    # a report that cannot be written is an error, not a verdict
    out = tmp_path / "missing" / "r.json"
    res = runner.invoke(main, [cmd, domain_path("square"), *QUICK[cmd],
                               "--out", str(out)])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert "error: " in res.stderr and str(out) in res.stderr


@pytest.mark.parametrize("cmd", ["solve", "study"])
def test_allocation_failure_exits_3(runner, monkeypatch, cmd):
    # a matrix too large to allocate is an error, not a traceback
    def no_memory(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(layerpot, "assemble_np", no_memory)
    monkeypatch.setattr(layerpot, "weighted_discrete_operator", no_memory)
    res = runner.invoke(main, [cmd, domain_path("square"), *QUICK[cmd]])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert res.stderr == "error: MemoryError\n"


# -- README examples -------------------------------------------------------

def _readme_block(heading):
    # the first fenced block after the README line `heading`
    text = (ROOT / "README.md").read_text()
    return re.search(rf"^{heading}\n\n```\w+\n(.*?)```", text,
                     re.S | re.M).group(1)


def test_readme_command_lines(runner, monkeypatch):
    # each polyfred line of the README's command block exits as its
    # comment states
    monkeypatch.chdir(ROOT)
    block = _readme_block("## Command line")
    lines = re.findall(r"^polyfred (.*?)\s*# exit (\d)", block, re.M)
    assert len(lines) == block.count("polyfred ") == 5
    for argv, code in lines:
        res = runner.invoke(main, shlex.split(argv))
        assert res.exit_code == int(code), (argv, res.output)


def test_readme_python_example(monkeypatch):
    # the README's Python example runs and prints what its comments state
    monkeypatch.chdir(ROOT)
    code = _readme_block("Example:")
    ns = {}
    exec(code, ns)
    stated = dict(re.findall(r"^print\((.*?)\)\s*# (.*)$", code, re.M))
    assert stated["v.overall"] == '"Fredholm"'
    assert ns["v"].overall == "Fredholm"
    assert stated["w.global_window"] == "approximately (-2/3, 2/3)"
    assert np.allclose(ns["w"].global_window, (-2 / 3, 2 / 3),
                       rtol=0, atol=1e-6)
    assert stated["s.trend"] == '"bounded-below"'
    assert ns["s"].trend == "bounded-below"
