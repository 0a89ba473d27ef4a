"""Nystrom assembly, graded meshes, Dirichlet harness, and sigma_min studies."""

import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import ArpackNoConvergence, eigsh

import polyfred as pf
import polyfred.layerpot as lp
from polyfred.geometry import unfold
from polyfred.groupoid import RayPairKernel, limit_operator
from polyfred.layerpot import (
    _graded_breaks,
    _mesh_for,
    assemble_np,
    double_layer_potential,
    fredholm_verdict,
    graded_mesh,
    min_singular_value_study,
    np_kernel_point,
    solve_dirichlet,
    weighted_discrete_operator,
)

from conftest import ALL_DOMAINS, CRACK_DOMAINS, domain_path

INV_2PI = 1.0 / (2.0 * math.pi)


# -- pointwise kernel ------------------------------------------------------

def test_kernel_point_value():
    # -(1/pi) ((x-y).nu)/|x-y|^2 at x=(1,0), y=(0,1), nu=(0,1)
    assert math.isclose(np_kernel_point([1.0, 0.0], [0.0, 1.0], [0.0, 1.0]),
                        INV_2PI, rel_tol=1e-15)
    assert np_kernel_point([1.0, 0.0], [0.0, 0.0], [1.0, 0.0]) == -1.0 / math.pi


def test_kernel_point_diagonal_raises():
    with pytest.raises(ValueError):
        np_kernel_point([1.0, 2.0], [1.0, 2.0], [0.0, 1.0])


# -- graded meshes ---------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=4, max_value=40),
       st.floats(min_value=0.2, max_value=0.8),
       st.integers(min_value=2, max_value=20))
@example(n=36, q=0.203125, n_c=20)
def test_graded_breaks_properties(n, q, n_c):
    b = _graded_breaks(n, q, n_c)
    w = np.diff(b)
    assert len(b) == n + 2 * n_c + 1
    assert b[0] == 0.0 and b[-1] == 1.0
    assert np.all(w > 0)
    # symmetric about 1/2
    assert np.allclose(b + b[::-1], 1.0, atol=1e-12)
    # geometric contraction toward both ends with ratio q
    ratios = w[1:n_c] / w[:n_c - 1]
    assert np.allclose(ratios, 1.0 / q, rtol=1e-9)


def test_graded_mesh_counts(square):
    mesh = _mesh_for(square, 16, 0.5, 8)
    assert mesh.size == 4 * (16 + 2 * 8)
    # quadrature weights reproduce the perimeter
    assert math.isclose(float(mesh.weights.sum()), 8.0, rel_tol=1e-12)
    assert np.all(mesh.r > 0)
    assert np.allclose(np.linalg.norm(mesh.normals, axis=1), 1.0, atol=1e-12)


def test_graded_mesh_rejects_bad_params(square):
    M = pf.unfold(square)
    with pytest.raises(ValueError):
        graded_mesh(M, 2, 0.5, 8)
    with pytest.raises(ValueError):
        graded_mesh(M, 16, 1.0, 8)
    # smallest width h*q^n_c below lp.MIN_GRADED_WIDTH
    with pytest.raises(ValueError, match="smallest graded width"):
        graded_mesh(M, 64, 0.2, 24)
    with pytest.raises(ValueError):
        graded_mesh(M, 16, 0.5, 1)


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_panel_ends_are_the_edge_points_at_the_breaks(name):
    # each unfolded edge's panel ends are its points at the breaks, in
    # traversal order, as evaluated at each panel's own start and end
    d = pf.parse_domain(domain_path(name))
    u = pf.desingularize_boundary(d)
    for n in (8, 32, 128):
        n_c = lp._study_depth(n)
        mesh = graded_mesh(u, n, 0.5, n_c)
        for ue in u.uedges.values():
            e = d.edges[ue.base_edge_id]
            sl = mesh.slices[ue.uid]
            breaks = (np.linspace(0.0, 1.0, n + 1)
                      if e.is_closed() and e.v_from is None
                      else _graded_breaks(n, 0.5, n_c))
            sa, sb = breaks[:-1], breaks[1:]
            if not ue.forward:
                sa, sb = 1.0 - sa, 1.0 - sb
            assert np.array_equal(mesh.panel_a[sl], e.point(sa, d))
            assert np.array_equal(mesh.panel_b[sl], e.point(sb, d))


def test_circle_mesh_is_uniform(circle):
    mesh = _mesh_for(circle, 64, 0.5, 8)
    assert mesh.size == 64
    assert np.allclose(mesh.weights, 2.0 * math.pi / 64, rtol=1e-12)
    assert np.allclose(mesh.curvatures, 1.0, rtol=1e-12)


def test_crack_mesh_twins(slit_square):
    mesh = _mesh_for(slit_square, 16, 0.5, 8)
    has = mesh.twin >= 0
    assert has.sum() == 2 * (16 + 2 * 8)
    i = np.where(has)[0]
    j = mesh.twin[i]
    # twin nodes coincide, carry equal weights and opposite normals
    assert np.allclose(mesh.points[i], mesh.points[j], atol=1e-14)
    assert np.allclose(mesh.weights[i], mesh.weights[j], rtol=1e-14)
    assert np.allclose(mesh.normals[i], -mesh.normals[j], atol=1e-14)
    assert np.array_equal(mesh.twin[j], i)


# -- assembly --------------------------------------------------------------

@pytest.mark.parametrize("n", (64, 128, 256))
def test_circle_row_identity(circle, n):
    mesh = _mesh_for(circle, n, 0.5, 8)
    A = assemble_np(circle, mesh)
    assert np.max(np.abs(A @ np.ones(mesh.size) - 1.0)) <= 1e-10
    assert np.allclose(A, INV_2PI * mesh.weights[None, :], atol=1e-12)


def test_square_row_identity_away_from_corners(square):
    mesh = _mesh_for(square, 32, 0.5, 16)
    A = assemble_np(square, mesh)
    err = np.abs(A @ np.ones(mesh.size) - 1.0)
    # midpoint quadrature: the identity holds well away from the corners
    assert err[mesh.r >= 0.4].max() <= 1e-3


def test_same_edge_blocks_vanish(square):
    mesh = _mesh_for(square, 8, 0.5, 4)
    A = assemble_np(square, mesh)
    same = mesh.base_index[:, None] == mesh.base_index[None, :]
    assert np.all(A[same & ~np.eye(mesh.size, dtype=bool)] == 0.0)


def test_crack_twin_jump(slit_square):
    mesh = _mesh_for(slit_square, 8, 0.5, 4)
    A = assemble_np(slit_square, mesh)
    i = np.where(mesh.twin >= 0)[0]
    # collinear faces: the cross-face kernel vanishes, so the whole coupling
    # is the unit jump
    assert np.allclose(A[i, mesh.twin[i]], -1.0, atol=1e-14)


@pytest.mark.parametrize("name", ("circle", "square", "lshape", "hexagon",
                                  "slit_square"))
def test_assembly_matches_pointwise_kernel(name):
    # every entry off the same-straight-edge blocks, the diagonal and the
    # twin pairs is the pointwise kernel times the weight; the masked
    # entries are 0, kappa w / (2 pi) and -1 (the hexagon's slanted edges
    # are where the kernel alone would leave rounding-size entries)
    d = pf.parse_domain(domain_path(name))
    mesh = _mesh_for(d, 8, 0.5, 4)
    A = assemble_np(d, mesh)
    N = mesh.size
    idx = np.arange(N)
    block = ((mesh.base_index[:, None] == mesh.base_index[None, :])
             & mesh.straight[None, :])
    twin = np.zeros((N, N), dtype=bool)
    has_twin = mesh.twin >= 0
    twin[idx[has_twin], mesh.twin[has_twin]] = True
    masked = block | np.eye(N, dtype=bool) | twin
    want = np.array([[np_kernel_point(mesh.points[i], mesh.points[j],
                                      mesh.normals[j]) * mesh.weights[j]
                      if not masked[i, j] else 0.0 for j in range(N)]
                     for i in range(N)])
    np.testing.assert_allclose(A[~masked], want[~masked], rtol=1e-14, atol=0)
    assert np.all(A[block & ~np.eye(N, dtype=bool) & ~twin] == 0.0)
    assert np.array_equal(np.diagonal(A),
                          mesh.curvatures * mesh.weights / (2.0 * math.pi))
    assert np.all(A[twin] == -1.0)
    assert twin.any() == (name == "slit_square")


@pytest.mark.parametrize("name", ("square", "lshape", "hexagon",
                                  "slit_square", "slit_disk",
                                  "tcrack_square"))
def test_assembly_near_vertex_is_limit_operator(name):
    # Within one unfolded vertex the Nystrom matrix next to the vertex is
    # the limit operator.  For every pair of straight edge-ends (i, j), the
    # block of assemble_np between the 12 nodes nearest the vertex on i
    # (targets) and on j (sources) is the ray-pair kernel at the distances
    # to the vertex times the source weights, plus the jump where a source
    # is the target's twin.  Worst deviations measured at n = 32, q = 1/2,
    # n_c = 12: 5.6e-17 on square, lshape, slit_square and tcrack_square,
    # 1.5e-12 on the hexagon (decimal coordinates), 0 on slit_disk.  Not
    # checked: edge-ends on arcs, and pairs across the covers of a crack
    # junction, which assemble_np couples but the per-cover limit
    # operators do not.
    d = pf.parse_domain(domain_path(name))
    u = unfold(d)
    mesh = _mesh_for(u, 32, 0.5, 12)
    A = assemble_np(d, mesh)
    checked = 0
    for uid, uv in u.uvertices.items():
        op = limit_operator(u, uid)
        nodes, dist = [], []
        for ray in uv.labels:
            on_edge = np.arange(mesh.size)[mesh.slices[ray.uedge_id]]
            nodes.append(on_edge[:12] if ray.end == "from" else on_edge[-12:])
            dist.append(np.linalg.norm(
                mesh.points[nodes[-1]] - d.vertex(uv.base_vertex_id).pos,
                axis=1))
        for i, j in itertools.product(range(len(nodes)), repeat=2):
            p, s = nodes[i], nodes[j]
            if not (mesh.straight[p[0]] and mesh.straight[s[0]]):
                continue
            block = A[np.ix_(p, s)]
            kernel = RayPairKernel(op.d[i, j], int(op.side[i, j]))
            want = kernel(dist[i][:, None], dist[j][None, :]) * mesh.weights[s]
            want += op.delta[i, j] * (mesh.twin[p][:, None] == s[None, :])
            tol = 1e-10 * max(1.0, float(np.max(np.abs(block))))
            assert np.max(np.abs(block - want)) <= tol, (uid, i, j)
            checked += 1
    assert checked


@pytest.mark.parametrize("name", ("circle", "square", "lshape",
                                  "slit_square"))
def test_potential_matches_pointwise_sum(name):
    d = pf.parse_domain(domain_path(name))
    mesh = _mesh_for(d, 8, 0.5, 4)
    density = np.random.default_rng(3).standard_normal(mesh.size)
    targets = np.array([[0.1, 0.4], [-0.3, -0.2], [0.45, -0.05]])
    got = double_layer_potential(targets, mesh, density)
    for t, val in zip(targets, got):
        terms = [np_kernel_point(t, y, nu) * w * f for y, nu, w, f in
                 zip(mesh.points, mesh.normals, mesh.weights, density)]
        assert abs(val - math.fsum(terms)) <= 1e-14 * math.fsum(map(abs,
                                                                    terms))


def test_constant_density_potential_is_winding(circle, square):
    for d, pts in ((circle, [[0.0, 0.0], [0.3, -0.4]]),
                   (square, [[0.0, 0.0], [-0.5, 0.6]])):
        mesh = _mesh_for(d, 64, 0.5, 12)
        vals = double_layer_potential(np.array(pts), mesh,
                                      np.ones(mesh.size))
        assert np.allclose(vals, 2.0, atol=1e-3)


def test_weighted_operator_is_similarity(circle):
    mesh = _mesh_for(circle, 32, 0.5, 8)
    A = assemble_np(circle, mesh)
    B = weighted_discrete_operator(mesh, 1.0, lp._weight_diagonal(mesh, 0.3))
    ev_a = np.sort(np.linalg.eigvals(np.eye(mesh.size) + A).real)
    ev_b = np.sort(np.linalg.eigvals(B).real)
    assert np.allclose(ev_a, ev_b, atol=1e-9)


@pytest.mark.parametrize("c", (1.0, -1.0, 0.5))
@pytest.mark.parametrize("name", ("square", "slit_square", "circle"))
def test_weighted_operator_bit_level(name, c):
    # the in-place shift and scaling give exactly D (c I + A) D^-1
    d = pf.parse_domain(domain_path(name))
    mesh = _mesh_for(d, 16, 0.5, 8)
    a = -0.25
    D = np.sqrt(mesh.weights) * mesh.r ** (-(0.5 + a))
    want = ((c * np.eye(mesh.size) + assemble_np(d, mesh))
            * (D[:, None] / D[None, :]))
    B = weighted_discrete_operator(mesh, c, lp._weight_diagonal(mesh, a))
    assert np.array_equal(B, want)


def _whole_matrix(mesh, c=None, a=None):
    """The assembly as one N x N formula, without row blocks: A, or
    D (c I + A) D^-1 when c and a are given."""
    px, py = mesh.points[:, 0], mesh.points[:, 1]
    dx = np.subtract.outer(px, px)
    num = dx * mesh.normals[:, 0]
    r2 = dx
    r2 *= dx
    dy = np.subtract.outer(py, py)
    dy *= mesh.normals[:, 1]
    num += dy
    np.subtract.outer(py, py, out=dy)
    dy *= dy
    r2 += dy
    degenerate = r2 == 0.0
    r2[degenerate] = 1.0
    r2 *= math.pi
    num /= r2
    num *= -mesh.weights
    num[degenerate] = 0.0
    A = num
    for b in np.unique(mesh.base_index[mesh.straight]):
        nodes = np.flatnonzero(mesh.base_index == b)
        A[np.ix_(nodes, nodes)] = 0.0
    idx = np.arange(mesh.size)
    A[idx, idx] = mesh.curvatures * mesh.weights / (2.0 * math.pi)
    has_twin = mesh.twin >= 0
    A[idx[has_twin], mesh.twin[has_twin]] -= 1.0
    if c is None:
        return A
    A[np.diag_indices_from(A)] += c
    D = np.sqrt(mesh.weights) * mesh.r ** (-(0.5 + a))
    A *= D[:, None] / D[None, :]
    return A


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_blocked_assembly_matches_whole_matrix(name):
    # one mesh within a single row block, and one over several blocks whose
    # last block is partial (a circle mesh has n nodes, so it needs more)
    d = pf.parse_domain(domain_path(name))
    big = (300, 8) if name == "circle" else (64, 24)
    for (n, n_c), one_block in (((8, 4), True), (big, False)):
        mesh = _mesh_for(d, n, 0.5, n_c)
        step = lp._BLOCK_ELEMENTS // mesh.size
        assert mesh.size <= step if one_block else mesh.size % step > 0
        assert np.array_equal(assemble_np(d, mesh), _whole_matrix(mesh))
        D = lp._weight_diagonal(mesh, -0.25)
        for c in (1.0, -1.0, 0.5):
            assert np.array_equal(weighted_discrete_operator(mesh, c, D),
                                  _whole_matrix(mesh, c, -0.25))


@pytest.mark.parametrize("name", CRACK_DOMAINS + ("square",))
@pytest.mark.parametrize("c", (1.0, -1.0, 0.5, -0.6))
@pytest.mark.parametrize("n", (8, 32))
def test_entries_built_alone_match_the_matrix(name, c, n):
    # rows, columns and 2 x 2 blocks built on their own are bitwise those
    # of the whole matrix, unweighted and at two weights
    d = pf.parse_domain(domain_path(name))
    mesh = _mesh_for(d, n, 0.5, lp._study_depth(n))
    nodes = np.arange(mesh.size)
    rng = np.random.default_rng(n)
    idx = rng.choice(mesh.size, 7, replace=False)
    i = np.flatnonzero(mesh.twin > nodes)
    # the twin pairs, or on the square random pairs of distinct nodes
    pairs = (np.stack([i, mesh.twin[i]], axis=1) if len(i)
             else rng.choice(mesh.size, (5, 2), replace=False))
    for D in (None, lp._weight_diagonal(mesh, -0.25),
              lp._weight_diagonal(mesh, -0.45)):
        whole = lp._nystrom_matrix(mesh, c, D)
        entries = functools.partial(lp._nystrom_entries, mesh, c=c, D=D)
        assert np.array_equal(entries(idx[:, None], nodes), whole[idx])
        assert np.array_equal(entries(nodes[:, None], idx), whole[:, idx])
        assert np.array_equal(
            entries(pairs[:, :, None], pairs[:, None, :]),
            whole[pairs[:, :, None], pairs[:, None, :]])


def _peak_bytes(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_weighted_operator_peak_memory(lshape):
    # assembly, shift and weighting run on blocks of rows of the result:
    # besides it only block-sized temporaries are live
    mesh = _mesh_for(lshape, 128, 0.5, 24)
    N = mesh.size
    peak = _peak_bytes(weighted_discrete_operator, mesh, 1.0,
                       lp._weight_diagonal(mesh, -0.25))
    assert peak <= 1.25 * 8 * N * N


def test_assembly_peak_memory(lshape):
    mesh = _mesh_for(lshape, 128, 0.5, 24)
    N = mesh.size
    assert _peak_bytes(assemble_np, lshape, mesh) <= 1.25 * 8 * N * N


def test_study_peak_memory(lshape):
    # per mesh only the weighted matrix and its LU factors are N x N, and
    # the coarser mesh's are freed before the finer one is built
    peak = _peak_bytes(min_singular_value_study, lshape, 1.0, -0.25, (64, 128))
    N = _mesh_for(lshape, 128, 0.5, 24).size
    assert peak <= 2.25 * 8 * N * N


# -- verdicts --------------------------------------------------------------

def test_verdict_square_inside_window(square):
    v = fredholm_verdict(square, 1.0, 0.0)
    assert v.is_fredholm and v.elliptic
    assert v.witnesses == ()
    assert set(v.per_vertex) == set(square.vertices)
    assert math.isclose(v.reference_window[0], -2.0 / 3.0, abs_tol=1e-12)
    assert v.reference_window[1] == 0.5


def test_verdict_square_at_endpoint(square):
    v = fredholm_verdict(square, 1.0, 2.0 / 3.0)
    assert v.overall == "not Fredholm"
    assert len(v.witnesses) == 4


def test_verdict_not_elliptic(square):
    v = fredholm_verdict(square, 0.0, 0.0)
    assert v.overall == "not Fredholm"
    assert not v.elliptic


def test_verdict_slit_square(slit_square):
    for c in (1.0, -1.0):
        v = fredholm_verdict(slit_square, c, 0.0)
        assert v.overall == "not Fredholm"
        assert set(v.witnesses) == {"p#c0", "t#c0"}


def test_verdict_corner_margins_coincide(square):
    # four congruent corners must give identical scan results
    v = fredholm_verdict(square, 1.0, 0.2)
    margins = {round(r.margin, 14) for r in v.per_vertex.values()}
    assert len(margins) == 1


def test_domain_windows_square(square):
    rep = lp.domain_windows(square, 1.0)
    lo, hi = rep.global_window
    assert abs(lo + 2.0 / 3.0) <= 1e-6
    assert abs(hi - 2.0 / 3.0) <= 1e-6
    assert rep.contains(rep.reference_window[0] + 1e-3,
                        rep.reference_window[1] - 1e-3)


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_no_window_at_c_zero(name):
    # c*I + K is not elliptic at c = 0, which the verdict reports too
    d = pf.parse_domain(domain_path(name))
    rep = lp.domain_windows(d, 0.0)
    assert rep.global_window is None and rep.margin_curve == ()
    assert fredholm_verdict(d, 0.0, 0.0).overall == "not Fredholm"


# The global window holds the weights at which every stratum's winding is 0,
# and by the finite-section criterion (Hagen, Roch & Silbermann 1995) the
# graded Nystrom scheme is stable exactly there.  The square at (1/2, -0.05)
# is left out: its study is inconclusive next to the zero at a = 0, where the
# q = 1/2 mesh moves the zero line and its discrete winding is 0.
@pytest.mark.parametrize("c,a", ((0.5, -0.25), (0.5, 0.25), (1.0, -0.8),
                                 (0.37, -0.25), (0.75, -0.6), (1.0, -0.25),
                                 (-1.0, -0.25), (0.75, -0.25)))
def test_study_bounded_below_exactly_inside_window(square, c, a):
    res = min_singular_value_study(square, c, a, mesh_sizes=(16, 32, 64, 128),
                                   deflate=1 if c == -1.0 else 0)
    assert res.trend != "inconclusive"
    inside = lp.domain_windows(square, c).contains(a, a)
    assert (res.trend == "bounded-below") == inside, (res.rows, inside)


@pytest.mark.parametrize("name,c", (("lshape", 0.75), ("hexagon", 1.0),
                                    ("tcrack_square", 0.75)))
def test_global_window_is_symmetric(name, c):
    # every scan is even in the weight, so the window is symmetric about 0
    lo, hi = lp.domain_windows(pf.parse_domain(domain_path(name)),
                               c).global_window
    assert abs(lo + hi) <= 1e-12


@pytest.mark.parametrize("c", (1.0, -1.0, 0.75))
@pytest.mark.parametrize("name", ("square", "lshape", "hexagon",
                                  "slit_square"))
def test_margin_curve_matches_verdicts(name, c):
    # each row of the curve is the worst stratum of a one-weight verdict
    d = pf.parse_domain(domain_path(name))
    rep = lp.domain_windows(d, c)
    if rep.global_window is None:
        assert rep.margin_curve == ()
        return
    lo, hi = rep.global_window
    weights = np.linspace(lo + 1e-3, hi - 1e-3, 21)
    assert [row[0] for row in rep.margin_curve] == weights.tolist()
    for a, margin, witness_xi in rep.margin_curve:
        v = fredholm_verdict(d, c, a)
        worst = min(v.per_vertex.values(), key=lambda r: r.margin)
        assert (margin, witness_xi) == (worst.margin, worst.witness_xi)


# -- Dirichlet harness -----------------------------------------------------

def test_solve_circle_constant(circle):
    mesh = _mesh_for(circle, 64, 0.5, 8)
    sol = solve_dirichlet(circle, lambda x, y: 1.0, mesh=mesh)
    for p in ([0.0, 0.0], [0.3, 0.2], [-0.5, 0.4]):
        assert abs(sol(np.array(p)) - 1.0) <= 1e-9


def test_solve_circle_harmonic(circle):
    mesh = _mesh_for(circle, 64, 0.5, 8)
    sol = solve_dirichlet(circle, lambda x, y: x, mesh=mesh)
    assert sol.residual <= 1e-10
    for p in ([0.0, 0.0], [0.3, 0.2], [0.0, -0.7]):
        assert abs(sol(np.array(p)) - p[0]) <= 1e-10


def test_solve_square_harmonic(square):
    sol = solve_dirichlet(square, lambda x, y: x * x - y * y,
                          mesh=_mesh_for(square, 32, 0.5, 12))
    for p in ([0.0, 0.0], [0.5, 0.25], [-0.6, -0.3]):
        assert abs(sol(np.array(p)) - (p[0] ** 2 - p[1] ** 2)) <= 1e-3


def test_solve_guards(slit_square):
    with pytest.raises(ValueError):
        solve_dirichlet(slit_square, lambda x, y: 1.0)


def test_solve_runs_no_symbolic_route(square, monkeypatch):
    # I + K is Fredholm on every crack-free domain, so the solve asks no
    # limit operator, verdict or Mellin scan
    def refuse(*args, **kwargs):
        raise AssertionError("the solve reached the symbolic route")

    for name in ("limit_operators", "fredholm_verdict", "invertibility_scan",
                 "admissible_weight_window"):
        monkeypatch.setattr(lp, name, refuse)
    sol = solve_dirichlet(square, lambda x, y: x * x - y * y,
                          mesh=_mesh_for(square, 16, 0.5, 8))
    assert sol.residual <= lp.SOLVE_RESIDUAL_TOL


def test_solve_thin_triangle():
    # a 0.002 rad corner: the symbol margin there, min(t, 2 pi - t) / pi,
    # is below INCONCLUSIVE_MARGIN, yet I + K is invertible
    t = 0.002
    d = pf.parse_domain({
        "name": "thin",
        "vertices": [{"id": "o", "x": 0.0, "y": 0.0},
                     {"id": "p", "x": 1.0, "y": 0.0},
                     {"id": "q", "x": math.cos(t), "y": math.sin(t)}],
        "edges": [{"id": "e0", "from": "o", "to": "p"},
                  {"id": "e1", "from": "p", "to": "q"},
                  {"id": "e2", "from": "q", "to": "o"}]})
    assert fredholm_verdict(d, 1.0, 0.0).overall == "inconclusive"
    sol = solve_dirichlet(d, lambda x, y: x * x - y * y)
    assert sol.residual <= lp.SOLVE_RESIDUAL_TOL


def test_solve_rejects_nan_data(square):
    # a NaN residual is no residual within tolerance
    mesh = _mesh_for(square, 8, 0.5, 4)
    with pytest.raises(ValueError, match="residual"):
        solve_dirichlet(square, lambda x, y: math.nan, mesh=mesh)


# -- sigma_min studies -----------------------------------------------------

def test_study_square_bounded(square):
    res = min_singular_value_study(square, 1.0, 0.0)
    assert res.trend == "bounded-below"
    assert len(res.rows) == 4


def test_study_square_decaying_outside_window(square):
    res = min_singular_value_study(square, 1.0, -0.8)
    assert res.trend == "decaying"
    assert res.slope < -0.4


def test_study_circle_constants_kernel(circle):
    # -I + K annihilates constants on any domain; on the circle the discrete
    # operator reproduces this to rounding
    res = min_singular_value_study(circle, -1.0, 0.0,
                                   mesh_sizes=(8, 16, 32))
    assert res.trend == "decaying"
    assert res.rows[-1][2] <= 1e-12
    deflated = min_singular_value_study(circle, -1.0, 0.0,
                                        mesh_sizes=(8, 16, 32), deflate=1)
    assert deflated.trend == "bounded-below"


# -- smallest singular values ----------------------------------------------

def _dense_smallest(B, k):
    return np.linalg.svd(B, compute_uv=False)[::-1][:k]


def _dense_pairs(B, k, starts=None):
    # the dense values in place of the study's Lanczos, passing no vectors on
    return _dense_smallest(B, k), None


def _study_mesh(d, a, n):
    # the study's mesh and its weight diagonal
    mesh = _mesh_for(d, n, 0.5, lp._study_depth(n))
    return mesh, lp._weight_diagonal(mesh, a)


def _study_matrix(d, c, a, n):
    # the weighted matrix of the study's mesh
    mesh, D = _study_mesh(d, a, n)
    return weighted_discrete_operator(mesh, c, D)


def _no_dense_svd(*args, **kwargs):
    raise AssertionError("the dense SVD fallback fired")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_smallest_singular_values_match_dense(name, monkeypatch):
    # the Lanczos values agree with the dense SVD to 1e-10 relative, or both
    # sit at rounding level, and every study trend is the same; on these
    # meshes no value needs the dense fallback
    d = pf.parse_domain(domain_path(name))
    for c in (1.0, -1.0, 0.5):
        for deflate in (0, 1):
            with monkeypatch.context() as m:
                m.setattr(np.linalg, "svd", _no_dense_svd)
                m.setattr(scipy.linalg, "svd", _no_dense_svd)
                fast = min_singular_value_study(d, c, 0.0,
                                                mesh_sizes=(8, 16, 32),
                                                deflate=deflate)
            with monkeypatch.context() as m:
                m.setattr(lp, "_twin_null_vectors", _no_twin_pairs)
                m.setattr(lp, "_smallest_singular_pairs", _dense_pairs)
                dense = min_singular_value_study(d, c, 0.0,
                                                 mesh_sizes=(8, 16, 32),
                                                 deflate=deflate)
            assert fast.trend == dense.trend
            for (_, _, got), (_, _, want) in zip(fast.rows, dense.rows):
                if want > 1e-12:
                    assert abs(got - want) <= 1e-10 * want
                else:
                    assert got <= 1e-12


@pytest.mark.filterwarnings("error")
def test_smallest_singular_values_exact_zero_pivot(tcrack_square,
                                                   monkeypatch):
    # c = -1 on the T-shaped crack is exactly singular; the LU, which does
    # not look for twin pairs, meets a pivot that is exactly zero, which
    # must neither warn nor leave the fast path
    B = _study_matrix(tcrack_square, -1.0, -0.25, 8)
    lu = scipy.linalg.lapack.dgetrf(B)[0]
    assert np.any(np.diagonal(lu) == 0.0)
    want = _dense_smallest(B, 2)
    monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
    got = lp._smallest_singular_pairs(B, 2)[0]
    assert np.all(got <= 1e-12) and np.all(want <= 1e-12)


def test_smallest_singular_values_fallback_on_no_convergence(square,
                                                             monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))

    monkeypatch.setattr(lp, "eigsh", no_convergence)
    B = _study_matrix(square, -1.0, 0.0, 16)
    assert np.array_equal(lp._smallest_singular_pairs(B, 2)[0],
                          _dense_smallest(B, 2))


def test_smallest_singular_values_fallback_on_failed_certificate(square,
                                                                 monkeypatch):
    # a vector that is no singular vector leaves a large residual, so the
    # dense values are returned rather than its Rayleigh value
    def wrong_vector(op, k, v0, ncv, tol):
        return np.ones(k), (v0 / np.linalg.norm(v0))[:, None]

    monkeypatch.setattr(lp, "eigsh", wrong_vector)
    B = _study_matrix(square, 1.0, 0.0, 16)
    assert np.array_equal(lp._smallest_singular_pairs(B, 1)[0],
                          _dense_smallest(B, 1))


@pytest.mark.filterwarnings("error")
def test_smallest_singular_values_circle_deflated(circle):
    # -I + K annihilates constants; the rest of the spectrum is exactly 1 on
    # the circle, and the huge 1/sigma_1^2 must not hide it
    for n in (8, 16, 32, 64):
        B = _study_matrix(circle, -1.0, 0.0, n)
        got = lp._smallest_singular_pairs(B, 2)[0]
        assert got[0] <= 1e-12
        assert abs(got[1] - 1.0) <= 1e-10


def _floored_pivots(B):
    pivots = np.abs(np.diagonal(scipy.linalg.lapack.dgetrf(B)[0]))
    return int(np.sum(pivots < np.finfo(float).eps * pivots.max()))


def _no_lanczos(*args, **kwargs):
    raise AssertionError("Lanczos ran")


def _no_lanczos_convergence(*args, **kwargs):
    raise ArpackNoConvergence("forced", np.zeros(0), np.zeros((0, 0)))


def _no_lu(*args, **kwargs):
    raise AssertionError("the LU ran")


def _no_full_matrix(*args, **kwargs):
    raise AssertionError("the full matrix was built")


def _no_twin_pairs(*args):
    return False


def _no_twin_search(*args):
    raise AssertionError("the twin search ran")


def _only_twin_pairs(monkeypatch):
    monkeypatch.setattr(lp, "weighted_discrete_operator", _no_full_matrix)
    monkeypatch.setattr(lp, "_nystrom_matrix", _no_full_matrix)
    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", _no_lu)
    monkeypatch.setattr(lp, "eigsh", _no_lanczos)
    monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
    monkeypatch.setattr(scipy.linalg, "svd", _no_dense_svd)


def _counted_lu(monkeypatch):
    calls = []
    dgetrf = scipy.linalg.lapack.dgetrf

    def counted(*args, **kwargs):
        calls.append(1)
        return dgetrf(*args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "dgetrf", counted)
    return calls


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ("slit_square", "tcrack_square"))
@pytest.mark.parametrize("c, k", ((1.0, 1), (-1.0, 2)))
@pytest.mark.parametrize("n", (8, 16, 32))
def test_smallest_singular_values_block_solve_on_cracks(name, c, k, n,
                                                        request, monkeypatch):
    # the crack operators at c = +-1 are singular (the LU would floor at
    # least k pivots); twin rows that are equal (c = -1) or twin columns that
    # are opposite (c = 1) give k exact null vectors, found from entries of
    # B without the full matrix, the LU, Lanczos or the dense SVD
    d = request.getfixturevalue(name)
    assert _floored_pivots(_study_matrix(d, c, -0.25, n)) >= k
    mesh, D = _study_mesh(d, -0.25, n)
    _only_twin_pairs(monkeypatch)
    assert lp._twin_null_vectors(mesh, c, D, k)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ("slit_square", "tcrack_square", "slit_disk"))
@pytest.mark.parametrize("c", (1.0, -1.0))
def test_crack_studies_at_unit_c_are_exactly_singular(name, c, request,
                                                      monkeypatch):
    # every mesh is answered by twin pairs: no N x N matrix is built
    d = request.getfixturevalue(name)
    _only_twin_pairs(monkeypatch)
    for deflate in (0, 1):
        res = min_singular_value_study(d, c, -0.25, mesh_sizes=(8, 16, 32, 64),
                                       deflate=deflate)
        assert [r[2] for r in res.rows] == [0.0] * 4
        assert res.trend == "decaying" and res.slope is None


def _exact_twin_pairs(B, twin, c):
    # twin pairs whose rows are equal (c = -1) or columns opposite (c = 1)
    M, s = (B, 1.0) if c < 0 else (B.T, -1.0)
    return [(j, t) for j, t in enumerate(twin)
            if j < t and np.array_equal(M[j], s * M[t])]


@pytest.mark.parametrize("name", ("slit_square", "tcrack_square"))
@pytest.mark.parametrize("c, k", ((1.0, 1), (-1.0, 2)))
def test_twin_check_misses_one_ulp_off(name, c, k, request, monkeypatch):
    # the weight of one node of each exact pair moved by one ulp: no pair
    # is exact any more, the search misses, and the LU runs on B
    d = request.getfixturevalue(name)
    mesh, D = _study_mesh(d, -0.25, 16)
    B = weighted_discrete_operator(mesh, c, D)
    pairs = _exact_twin_pairs(B, mesh.twin, c)
    assert len(pairs) >= k
    for j, _ in pairs:
        D[j] = np.nextafter(D[j], np.inf)
    B = weighted_discrete_operator(mesh, c, D)
    assert _exact_twin_pairs(B, mesh.twin, c) == []
    assert not lp._twin_null_vectors(mesh, c, D, k)
    calls = _counted_lu(monkeypatch)
    got = lp._smallest_singular_pairs(B, k)[0]
    assert calls == [1] and np.all(got <= lp.ROUNDING_SIGMA)


def _recorded_entries(monkeypatch):
    shapes = []
    entries = lp._nystrom_entries

    def recorded(mesh, I, J, *args):
        shapes.append(np.broadcast_shapes(np.shape(I), np.shape(J)))
        return entries(mesh, I, J, *args)

    monkeypatch.setattr(lp, "_nystrom_entries", recorded)
    return shapes


@pytest.mark.parametrize("name, c", [
    (name, c) for name in ("slit_square", "tcrack_square", "slit_disk")
    for c in (0.5, -0.6)] + [
    (name, c) for name in ("square", "lshape", "hexagon", "circle")
    for c in (1.0, -1.0)])
def test_twin_check_misses_without_exact_pairs(name, c, monkeypatch):
    # off c = +-1 the 2 x 2 twin blocks reject every pair, so no row or
    # column is built, and without cracks there is no search; either way
    # the LU runs once per mesh and the study reads its values off B
    d = pf.parse_domain(domain_path(name))
    k = 2 if c < 0 else 1
    if d.has_cracks:
        mesh, D = _study_mesh(d, -0.25, 16)
        with monkeypatch.context() as m:
            shapes = _recorded_entries(m)
            assert not lp._twin_null_vectors(mesh, c, D, k)
        assert shapes == [(np.sum(mesh.twin >= 0) // 2, 2, 2)]
    else:
        monkeypatch.setattr(lp, "_twin_null_vectors", _no_twin_search)
    calls = _counted_lu(monkeypatch)
    res = min_singular_value_study(d, c, -0.25, mesh_sizes=(8, 16),
                                   deflate=k - 1)
    assert calls == [1, 1]
    want = [lp._smallest_singular_pairs(_study_matrix(d, c, -0.25, n),
                                        k)[0][-1] for n in (8, 16)]
    # the first mesh starts cold, as here; the second from the first's
    # vectors, which moves sigma by rounding
    assert res.rows[0][2] == want[0]
    assert abs(res.rows[1][2] - want[1]) <= 1e-12 * want[1]


def test_crack_study_peak_memory(tcrack_square):
    # at c = -1 the zero singular values come from twin rows built alone:
    # no N x N array is made
    peak = _peak_bytes(min_singular_value_study, tcrack_square, -1.0, -0.25,
                       (64, 128))
    N = _mesh_for(tcrack_square, 128, 0.5, 24).size
    assert peak <= 0.05 * 8 * N * N


def test_smallest_singular_values_lanczos_without_floored_pivots(square,
                                                                 monkeypatch):
    # no pivot of the square's I + K is floored, so Lanczos answers
    B = _study_matrix(square, 1.0, 0.0, 16)
    assert _floored_pivots(B) == 0
    want = _dense_smallest(B, 1)
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(lp, "eigsh", counted)
    monkeypatch.setattr(np.linalg, "svd", _no_dense_svd)
    monkeypatch.setattr(scipy.linalg, "svd", _no_dense_svd)
    got = lp._smallest_singular_pairs(B, 1)[0]
    assert calls == [1]
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_smallest_singular_values_crack_fallback(tcrack_square, monkeypatch):
    # the LU route does not read zero values off twin rows: Lanczos fails
    # to converge on the floored LU, and the dense values are returned
    B = _study_matrix(tcrack_square, -1.0, -0.25, 16)
    want = _dense_smallest(B, 2)
    monkeypatch.setattr(lp, "eigsh", _no_lanczos_convergence)
    assert np.array_equal(lp._smallest_singular_pairs(B, 2)[0], want)


def test_smallest_singular_values_fallback_in_place(square, monkeypatch):
    # the dense fallback is one SVD, run in the LU's buffer on a copy of
    # B, so it holds no third N x N array
    B = _study_matrix(square, 1.0, 0.0, 16)
    B0 = B.copy()
    lus, calls = [], []
    dgetrf = lp.lapack.dgetrf

    def record_lu(a):
        out = dgetrf(a)
        lus.append(out[0])
        return out

    def svd(a, compute_uv, overwrite_a, check_finite):
        calls.append(a)
        assert a.flags.f_contiguous and overwrite_a
        assert np.array_equal(a, B0)
        a[...] = np.nan
        return np.arange(len(a), 0.0, -1.0)

    monkeypatch.setattr(lp.lapack, "dgetrf", record_lu)
    monkeypatch.setattr(lp, "eigsh", _no_lanczos_convergence)
    monkeypatch.setattr(scipy.linalg, "svd", svd)
    assert np.array_equal(lp._smallest_singular_pairs(B, 2)[0], [1.0, 2.0])
    assert len(calls) == 1 and calls[0] is lus[0]
    assert np.array_equal(B, B0)


def test_smallest_singular_values_repeated_minimum(square):
    # the square's symmetry makes the smallest singular value of I + K a
    # double one: both copies are found before the next value
    B = _study_matrix(square, 1.0, 0.0, 32)
    want = _dense_smallest(B, 3)
    assert abs(want[1] - want[0]) <= 1e-12 * want[0] < want[2] - want[1]
    got = lp._smallest_singular_pairs(B, 3)[0]
    assert np.allclose(got, want, rtol=1e-10, atol=0.0)


def test_study_rejects_bad_deflate(circle):
    with pytest.raises(ValueError, match="deflate must be"):
        min_singular_value_study(circle, -1.0, 0.0, mesh_sizes=(8, 16),
                                 deflate=-1)
    with pytest.raises(ValueError, match="leaves no singular value"):
        min_singular_value_study(circle, -1.0, 0.0, mesh_sizes=(8, 16),
                                 deflate=8)


# -- start vectors carried from mesh to mesh -------------------------------

def _is_cold(v0):
    # the fixed random start of a first deflation step
    return np.array_equal(v0, np.random.default_rng(0).standard_normal(len(v0)))


def _recording_eigsh(monkeypatch, fail):
    # eigsh that records each v0, and answers a v0 for which fail holds
    # with a vector that fails the certificate
    seen = []

    def recording(op, k, v0, ncv, tol):
        seen.append(v0.copy())
        if fail(v0):
            return np.ones(k), (v0 / np.linalg.norm(v0))[:, None]
        return eigsh(op, k=k, v0=v0, ncv=ncv, tol=tol)

    monkeypatch.setattr(lp, "eigsh", recording)
    return seen


def _cold_sigma(d, c, a, n, k):
    return lp._smallest_singular_pairs(_study_matrix(d, c, a, n), k)[0][-1]


def test_failed_carried_start_retried_from_random_start(square, monkeypatch):
    # the 16 mesh starts from the 8 mesh's prolonged vector, which here
    # fails the certificate; the fixed random start then answers
    mesh8, D8 = _study_mesh(square, -0.25, 8)
    B8 = weighted_discrete_operator(mesh8, 1.0, D8)
    carried = lp._prolong(lp._smallest_singular_pairs(B8, 1)[1], mesh8,
                          _study_mesh(square, -0.25, 16)[0])
    want = [_cold_sigma(square, 1.0, -0.25, n, 1) for n in (8, 16)]
    seen = _recording_eigsh(monkeypatch, lambda v0: not _is_cold(v0))
    monkeypatch.setattr(scipy.linalg, "svd", _no_dense_svd)
    res = min_singular_value_study(square, 1.0, -0.25, mesh_sizes=(8, 16))
    assert len(seen) == 3 and _is_cold(seen[0]) and _is_cold(seen[2])
    assert np.array_equal(seen[1], carried[:, 0])
    assert [r[2] for r in res.rows] == want


def test_dense_answer_passes_no_vectors_on(square, monkeypatch):
    # on the 16 mesh both starts fail, so the dense SVD answers, and the
    # 32 mesh starts cold
    sizes = [_study_mesh(square, -0.25, n)[0].size for n in (8, 16, 32)]
    want = [_cold_sigma(square, 1.0, -0.25, 8, 1),
            _dense_smallest(_study_matrix(square, 1.0, -0.25, 16), 1)[-1],
            _cold_sigma(square, 1.0, -0.25, 32, 1)]
    seen = _recording_eigsh(monkeypatch, lambda v0: len(v0) == sizes[1])
    res = min_singular_value_study(square, 1.0, -0.25,
                                   mesh_sizes=(8, 16, 32))
    assert [len(v) for v in seen] == [sizes[0], sizes[1], sizes[1], sizes[2]]
    assert [_is_cold(v) for v in seen] == [True, False, True, True]
    assert [r[2] for r in res.rows] == want


def test_twin_answer_passes_no_vectors_on(slit_square, monkeypatch):
    # the 16 mesh is answered by the twin search, so the 32 mesh starts
    # cold, not from the 8 mesh's vector
    sizes = [_study_mesh(slit_square, -0.25, n)[0].size for n in (8, 16, 32)]
    monkeypatch.setattr(lp, "_twin_null_vectors",
                        lambda mesh, c, D, k: mesh.size == sizes[1])
    seen = _recording_eigsh(monkeypatch, lambda v0: False)
    res = min_singular_value_study(slit_square, 0.5, -0.25,
                                   mesh_sizes=(8, 16, 32))
    assert res.rows[1][2] == 0.0
    assert [len(v) for v in seen] == [sizes[0], sizes[2]]
    assert [_is_cold(v) for v in seen] == [True, True]


@pytest.mark.parametrize("name", ("square", "lshape", "hexagon"))
def test_carried_starts_match_cold_starts(name, monkeypatch):
    # every mesh after the first starts from carried vectors, and its
    # sigma equals the cold one to 1e-12 relative, with the same trend
    d = pf.parse_domain(domain_path(name))
    sizes = (8, 16, 32, 64)
    prolonged = []
    prolong = lp._prolong

    def counted(*args):
        prolonged.append(1)
        return prolong(*args)

    for c in (1.0, -1.0):
        k = 2 if c < 0 else 1
        for a in (-0.45, -0.05):
            with monkeypatch.context() as m:
                m.setattr(lp, "_prolong", counted)
                warm = min_singular_value_study(d, c, a, sizes, deflate=k - 1)
            with monkeypatch.context() as m:
                m.setattr(lp, "_prolong", lambda *args: None)
                cold = min_singular_value_study(d, c, a, sizes, deflate=k - 1)
            assert warm.trend == cold.trend
            for (n, _, got), (_, _, want) in zip(warm.rows, cold.rows):
                assert want == _cold_sigma(d, c, a, n, k)
                assert abs(got - want) <= 1e-12 * want
    assert len(prolonged) == 4 * (len(sizes) - 1)


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_prolong_exact_on_linear_in_logit(name):
    # a density linear in logit(tau) on each unfolded edge, times sqrt(w),
    # is carried exactly to rounding inside the coarse nodes' range, and
    # past it takes the value at the nearest coarse end node
    u = pf.desingularize_boundary(pf.parse_domain(domain_path(name)))
    coarse, fine = graded_mesh(u, 8, 0.5, 4), graded_mesh(u, 32, 0.5, 16)
    coef = {uid: np.random.default_rng(7).standard_normal((2, 2))
            for uid in coarse.slices}

    def density(mesh):
        f = np.empty((mesh.size, 2))
        for uid, sl in mesh.slices.items():
            t = mesh.tau[sl]
            f[sl] = np.log(t / (1.0 - t))[:, None] * coef[uid][1] + coef[uid][0]
        return f

    got = lp._prolong(density(coarse) * np.sqrt(coarse.weights)[:, None],
                      coarse, fine) / np.sqrt(fine.weights)[:, None]
    want = density(fine)
    for uid, sl in fine.slices.items():
        tc = coarse.tau[coarse.slices[uid]]
        t = fine.tau[sl]
        inside = (tc[0] <= t) & (t <= tc[-1])
        assert np.allclose(got[sl][inside], want[sl][inside],
                           rtol=1e-12, atol=1e-12)
        ends = density(coarse)[coarse.slices[uid]][[0, -1]]
        assert np.allclose(got[sl][t < tc[0]], ends[0], rtol=1e-12, atol=0.0)
        assert np.allclose(got[sl][t > tc[-1]], ends[1], rtol=1e-12, atol=0.0)
