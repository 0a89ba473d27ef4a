"""Command line interface: subcommands, exit codes, and the expression grammar."""

import inspect
import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from click.testing import CliRunner

from polyfred import layerpot, mellin
from polyfred.cli import ExprError, main, parse_boundary_data

from conftest import ALL_DOMAINS, CRACK_DOMAINS, domain_path

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
    # a NaN or negative tolerance and an infinite scan range; at the default
    # tolerance the slit square answers "not Fredholm"
    for cmd, name, opts in [("analyze", "slit_square", ["--tol", "nan"]),
                            ("analyze", "slit_square", ["--tol", "-1"]),
                            ("window", "slit_square", ["--tol", "nan"]),
                            ("analyze", "square", ["--xi-max", "inf"])]:
        res = runner.invoke(main, [cmd, domain_path(name), *opts])
        assert res.exit_code == 3, (cmd, name, opts)
        assert opts[0][2:].replace("-", "_") in res.output


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


def test_scan_settings_checked_without_vertices(runner):
    # the circle has no vertex to scan, yet a bad tol or xi_max still exits 3
    for cmd, opts in [("analyze", ["--a", "0", "--tol", "nan"]),
                      ("window", ["--xi-max", "inf"])]:
        res = runner.invoke(main, [cmd, domain_path("circle"), "--c", "1",
                                   *opts])
        assert res.exit_code == 3, (cmd, opts)
        assert opts[-2][2:].replace("-", "_") in res.output
        assert res.stdout == ""


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("cmd,opt", [
    ("analyze", "--c"), ("analyze", "--a"), ("window", "--c"),
    ("window", "--a-min"), ("window", "--a-max"), ("study", "--c"),
    ("study", "--a"), ("solve", "--c"), ("solve", "--a")])
@pytest.mark.parametrize("name", ["square", "circle"])
def test_non_finite_numbers_exit_three(runner, name, cmd, opt, value):
    # c and the weights are checked by name before any scan or assembly
    g = ["--g", "x"] if cmd == "solve" else []
    res = runner.invoke(main, [cmd, domain_path(name), *g, opt, value])
    assert res.exit_code == 3, res.output
    assert res.stdout == ""
    assert opt[2:].replace("-", "_") + " = " in res.stderr


# -- window ----------------------------------------------------------------

def test_window_square(runner):
    res = runner.invoke(main, ["window", domain_path("square"),
                               "--a-min", "-0.9", "--a-max", "0.9"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    lo, hi = rep["global_window"]
    assert abs(lo + 2.0 / 3.0) <= 1e-6
    assert abs(hi - 2.0 / 3.0) <= 1e-6
    assert rep["reference_window"][1] == 0.5
    assert rep["margin_curve"][0] == ["a", "margin", "witness_xi"]


@pytest.mark.parametrize("a_min,a_max,want", [("-0.9", "-0.7", None),
                                               ("-0.5", "0.5", [-0.5, 0.5]),
                                               ("1.0", "1.2", None)])
def test_window_clipped_to_search_range(runner, a_min, a_max, want):
    # the square's window around a = 0 is (-2/3, 2/3); a range that misses
    # it leaves no window, and that is an answer, not an error
    res = runner.invoke(main, ["window", domain_path("square"),
                               "--a-min", a_min, "--a-max", a_max])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["global_window"] == want
    assert list(rep["per_vertex"].values()) == [want] * 4
    assert len(rep["margin_curve"]) == (22 if want else 1)


@pytest.mark.parametrize("name", ["square", "circle"])
@pytest.mark.parametrize("a_min,a_max", [("1.2", "-1.2"), ("0.4", "0.4")])
def test_window_rejects_empty_search_range(runner, name, a_min, a_max):
    res = runner.invoke(main, ["window", domain_path(name),
                               "--a-min", a_min, "--a-max", a_max])
    assert res.exit_code == 3
    assert "a_min must be below a_max" in res.output
    assert res.stdout == ""


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


def test_window_xi_max_reaches_scans(runner, monkeypatch):
    # --xi-max sets the starting scan range of the window search and of
    # every margin-curve verdict
    seen = {"window": [], "verdict": []}
    scan = mellin.invertibility_scan
    sig = inspect.signature(scan)

    def recording(where):
        def wrapped(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            seen[where].append(bound.arguments["xi_max"])
            return scan(*args, **kwargs)
        return wrapped

    monkeypatch.setattr(mellin, "invertibility_scan", recording("window"))
    monkeypatch.setattr(layerpot, "invertibility_scan", recording("verdict"))
    res = runner.invoke(main, ["window", domain_path("square"),
                               "--xi-max", "80"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["config"]["xi_max"] == 80.0
    assert len(rep["margin_curve"]) == 22
    assert seen["window"] and set(seen["window"]) == {80.0}
    assert len(seen["verdict"]) == 21 * 4 and set(seen["verdict"]) == {80.0}


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


# -- solve -----------------------------------------------------------------

def test_solve_square(runner):
    res = runner.invoke(main, ["solve", domain_path("square"),
                               "--g", "x^2-y^2"])
    assert res.exit_code == 0
    rep = json.loads(res.stdout)
    assert rep["rhs_factor"] == 2.0
    assert rep["interior_points_tested"] > 50
    assert rep["max_interior_relative_error"] <= 1e-3


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
    "analyze": {"--a", "--c", "--tol", "--xi-max", "--out"},
    "window": {"--a-min", "--a-max", "--c", "--tol", "--xi-max", "--out",
               "--format"},
    "solve": {"--g", "--a", "--mesh-n", "--mesh-q", "--mesh-nc", "--c",
              "--out"},
    "study": {"--a", "--mesh-n", "--mesh-q", "--deflate", "--c", "--out",
              "--format"},
}


def test_cli_surface(runner):
    # each subcommand offers exactly the options it reads
    res = runner.invoke(main, ["--help"])
    assert res.exit_code == 0
    listed = re.search(r"Commands:\n(.*)", res.stdout, re.S).group(1)
    assert set(re.findall(r"^\s+(\w+)", listed, re.M)) == set(SURFACE)
    for cmd, options in SURFACE.items():
        res = runner.invoke(main, [cmd, "--help"])
        assert res.exit_code == 0
        found = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", res.stdout))
        assert found - {"--help"} == options, cmd
