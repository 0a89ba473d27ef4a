"""Double layer operator assembly, Nystrom studies, and Fredholm verdicts.

This module bridges the geometric and symbolic layers: it builds the limit
operator of the double layer (Neumann-Poincare) operator at every vertex
stratum and scans it for Fredholm verdicts and weight windows, assembles the
global Nystrom matrix on graded meshes, and cross-checks symbolic verdicts
against the behavior of the smallest singular value of the weighted discrete
operator under mesh refinement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg import lapack
from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh

from . import geometry
from .geometry import (
    ConicalDomain,
    UnfoldedDomain,
    desingularize_boundary,
    smoothed_distance,
    unfold,
)
from .groupoid import MellinOperator, limit_operator
from .mellin import admissible_weight_window, invertibility_scan

INCONCLUSIVE_MARGIN = 1e-3
# the half-width of the weights (-1.2, 1.2) every window is clipped to: a
# domain without vertices is Fredholm on all of them
_SEARCH = 1.2
SOLVE_RESIDUAL_TOL = 1e-10
# singular values at or below this are rounding level (the dense SVD of an
# exactly singular operator lands there too); a study ending there decays
ROUNDING_SIGMA = 1e-12
# a Lanczos singular value is kept when its residual puts it within this
# relative distance (plus ROUNDING_SIGMA) of a singular value of B
SIGMA_CERT_RTOL = 1e-8
# smallest graded cell width h*q^n_c (as a fraction of the edge) a mesh may
# have: the panel ends next to a vertex must stay distinct in double precision
MIN_GRADED_WIDTH = 1e-13
# graded cells shrink by this ratio toward a vertex; a Dirichlet solve's
# mesh has SOLVE_DEPTH of them per edge end, a study's mesh _study_depth(n)
GRADING_Q = 0.5
SOLVE_DEPTH = 12
# middle cells per edge of a solve's mesh, and a study's refinement sequence
SOLVE_MESH_N = 32
STUDY_MESH_SIZES = (8, 16, 32, 64)
# ARPACK's Krylov basis size per Lanczos run.  It spends ncv + 1 products
# before its first restart, so scipy's default of 20 caps what a good start
# vector can save: with carried starts, studies on the crack-free fixtures
# at c = +-1 took 31 % fewer products at 12 and 22 % fewer at 20, while at
# 8 a nearly double smallest value (hexagon, c = 1) took thousands per mesh
LANCZOS_NCV = 12
# the Nystrom layer squares coordinate differences, from 2^(e+1) across a
# domain of extent 2^e to about 2^(e-50) across its smallest graded cells:
# |e| <= 400 keeps the squares normal (2^-900 .. 2^802), where the layer is
# scale-free; subnormals cost digits at 2^-500, and 2^510 overflows
MAX_EXTENT_EXPONENT = 400


# -- pointwise kernel ------------------------------------------------------

def np_kernel_point(x, y, nu_y) -> float:
    """Double layer kernel -(1/pi) ((x-y).nu(y)) / |x-y|^2."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nu_y = np.asarray(nu_y, dtype=float)
    diff = x - y
    r2 = float(diff @ diff)
    if r2 == 0.0:
        raise ValueError("kernel evaluated on the diagonal; use the smooth limit")
    return -float(diff @ nu_y) / (math.pi * r2)


# -- graded boundary meshes ------------------------------------------------

@dataclass
class BoundaryMesh:
    points: np.ndarray               # (N, 2) panel midpoints
    normals: np.ndarray              # (N, 2) outer unit normals per sheet
    weights: np.ndarray              # (N,) arclength quadrature weights
    curvatures: np.ndarray           # (N,) signed curvature along traversal
    r: np.ndarray                    # (N,) smoothed distance to the vertex set
    base_index: np.ndarray           # (N,) int32, index of the underlying edge
    straight: np.ndarray             # (N,) bool, node on a straight edge
    twin: np.ndarray                 # (N,) int32, twin-sheet node, -1 if none
    panel_a: np.ndarray              # (N, 2) panel start, traversal order
    panel_b: np.ndarray              # (N, 2) panel end, traversal order
    slices: dict                     # uedge uid -> slice of node indices
    tau: np.ndarray                  # (N,) node parameter in (0, 1) along
                                     # its unfolded edge, ascending per slice

    @property
    def size(self) -> int:
        return len(self.weights)


def _graded_widths(n: int, q: float, n_c: int) -> np.ndarray:
    # n uniform middle cells of width h, n_c geometric cells per end with
    # widths h q, h q^2, ...: the spacing contracts smoothly toward the
    # vertices and the whole graded tail shrinks together with h
    tail = q * (1.0 - q ** n_c) / (1.0 - q)
    h = 1.0 / (n + 2.0 * tail)
    down = h * q ** np.arange(1, n_c + 1)
    return np.concatenate([down[::-1], np.full(n, h), down])


def _graded_breaks(n: int, q: float, n_c: int) -> np.ndarray:
    # the left half is summed from 0 and mirrored, so the breaks are
    # symmetric; summing on to 1 rounds the last widths to zero or below
    # once they come near one ulp of 1
    widths = _graded_widths(n, q, n_c)
    half = np.concatenate([[0.0], np.cumsum(widths[:len(widths) // 2])])
    right = 1.0 - half[::-1]
    return np.concatenate([half, right[1:] if n % 2 == 0 else right])


def graded_mesh(u: UnfoldedDomain, n: int, q: float,
                n_c: int) -> BoundaryMesh:
    """Midpoint-rule mesh of the unfolded boundary of u, geometrically
    refined toward every vertex.

    Each unfolded edge (each face of a crack) with vertex endpoints gets n
    uniform middle subintervals plus n_c geometric ones per end (ratio q),
    one node per subinterval, in the traversal order of the unfolded edge.
    Each base edge is meshed once; an unfolded edge that runs against it
    (the "-" face of a crack) takes its nodes in reverse, so node j of one
    crack face and node m-1-j of its twin face are exact mirrors.
    A closed vertex-free arc is meshed uniformly (periodic trapezoid rule).
    A domain whose extent exponent is beyond +-MAX_EXTENT_EXPONENT raises
    ValueError before any node is computed.
    """
    if n < 4 or not 0.0 < q < 1.0 or n_c < 2:
        raise ValueError("need n >= 4, q in (0,1), n_c >= 2")
    d = u.base
    if abs(d.extent_exponent) > MAX_EXTENT_EXPONENT:
        raise ValueError(
            f"domain extent 2^{d.extent_exponent} is beyond the Nystrom "
            f"layer's range 2^-{MAX_EXTENT_EXPONENT} .. 2^{MAX_EXTENT_EXPONENT}")
    # the weights come from the widths: near 1 the breaks resolve a width
    # only to one ulp of 1.  Only a domain without vertices, a closed arc,
    # has no graded edge
    widths, breaks = _graded_widths(n, q, n_c), _graded_breaks(n, q, n_c)
    if d.vertices and widths[0] < MIN_GRADED_WIDTH:
        raise ValueError(
            f"smallest graded width h*q^n_c = {widths[0]:.3g} is below "
            f"{MIN_GRADED_WIDTH:g} at mesh size n = {n}: lower n")
    uniform = np.linspace(0.0, 1.0, n + 1)
    base_ids = list(d.edges)
    # each base edge is meshed once, in its own direction
    meshed, records, slices, pos = {}, [], {}, 0
    for ue in u.uedges.values():
        e = d.edges[ue.base_edge_id]
        if e.id not in meshed:
            b, dtau = ((uniform, np.diff(uniform))
                       if e.is_closed() and e.v_from is None
                       else (breaks, widths))
            tau = 0.5 * (b[:-1] + b[1:])
            P, T, ends = e.point(tau, d), e.tangent(tau, d), e.point(b, d)
            m = len(tau)
            meshed[e.id] = dict(
                points=P, normals=np.stack([T[:, 1], -T[:, 0]], axis=-1),
                weights=e.length(d) * dtau,
                curvatures=np.full(m, e.curvature()),
                r=smoothed_distance(d, P),
                base_index=np.full(m, base_ids.index(e.id), dtype=np.int32),
                straight=np.full(m, e.kind == "line"),
                panel_a=ends[:-1], panel_b=ends[1:], tau=tau)
        rec = meshed[e.id]
        if not ue.forward:
            # an edge run backward is its base edge's record reversed, with
            # tau still ascending: twin crack faces are exact mirrors
            rec = {k: v[::-1] for k, v in rec.items()}
            rec.update(normals=-rec["normals"], curvatures=-rec["curvatures"],
                       panel_a=rec["panel_b"], panel_b=rec["panel_a"],
                       tau=meshed[e.id]["tau"])
        records.append(rec)
        m = len(rec["tau"])
        slices[ue.uid] = slice(pos, pos + m)
        pos += m

    twin = np.full(pos, -1, dtype=np.int32)
    for ue in u.uedges.values():
        if ue.twin_uid is None:
            continue
        sl, tl = slices[ue.uid], slices[ue.twin_uid]
        # node j on one face is node m-1-j of the other, mirrored: the same
        # point, weight and r, with the normal and curvature negated
        twin[np.arange(sl.start, sl.stop)] = np.arange(tl.stop - 1,
                                                       tl.start - 1, -1)
    return BoundaryMesh(twin=twin, slices=slices, **{
        k: np.concatenate([rec[k] for rec in records]) for k in records[0]})


def _mesh_for(d, n: int, q: float, n_c: int) -> BoundaryMesh:
    return graded_mesh(desingularize_boundary(d), n, q, n_c)


def solve_mesh(d, n: int = SOLVE_MESH_N) -> BoundaryMesh:
    """The Dirichlet solve's mesh of d: n middle cells per edge."""
    return _mesh_for(d, n, GRADING_Q, SOLVE_DEPTH)


def _study_depth(n: int) -> int:
    # grading depth grows with n but is capped so that the smallest panels
    # (and the weight r^(-1/2-a)) stay within double precision
    return max(4, min(n // 2, 24))


# -- Nystrom assembly ------------------------------------------------------

def panel_potentials(targets, mesh: BoundaryMesh) -> np.ndarray:
    """Exact double layer integrals of the constant density over each panel.

    The kernel is -(1/pi) d(theta)/dS with theta the direction of y - x, so
    the integral over a panel is the signed angle it subtends at the target
    divided by pi (panels are short enough that the swept angle stays below
    pi).  Exact for straight panels and for circular sub-arcs.
    """
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    va = mesh.panel_a[None, :, :] - targets[:, None, :]
    vb = mesh.panel_b[None, :, :] - targets[:, None, :]
    cross = va[..., 0] * vb[..., 1] - va[..., 1] * vb[..., 0]
    dot = np.einsum("ijk,ijk->ij", va, vb)
    with np.errstate(invalid="ignore"):
        ang = np.arctan2(cross, dot)
    return np.nan_to_num(ang / math.pi)


def _weighted_kernel(x, mesh: BoundaryMesh, out: np.ndarray) -> np.ndarray:
    """Fill out with k(x, y_j) w_j for the points x = (x1, x2), given as
    columns, and every mesh node y_j, one column of out per node, and
    return it.

    The x and y coordinate differences and the square of the latter are
    the temporaries, updated in place.  A coincident pair (r = 0) gets 0.
    """
    (tx, ty), px, py = x, mesh.points[:, 0], mesh.points[:, 1]
    dx = np.subtract(tx, px)
    num = np.multiply(dx, mesh.normals[:, 0], out=out)
    r2 = dx
    r2 *= dx
    dy = np.subtract(ty, py)
    dy2 = dy * dy
    dy *= mesh.normals[:, 1]
    num += dy
    r2 += dy2
    degenerate = r2 == 0.0
    r2[degenerate] = 1.0
    r2 *= math.pi
    num /= r2
    # -(num / (pi r2)) w_j: negating the weights instead is exact
    num *= -mesh.weights
    num[degenerate] = 0.0
    return num


def double_layer_potential(targets, mesh: BoundaryMesh,
                           density: np.ndarray) -> np.ndarray:
    """Quadrature of the double layer potential of a nodal density."""
    targets = np.atleast_2d(np.asarray(targets, dtype=float))
    K = _weighted_kernel((targets[:, :1], targets[:, 1:]), mesh,
                         np.empty((len(targets), mesh.size)))
    return K @ np.asarray(density, dtype=float)


# entries per block temporary: at N = 1760 (one thread) the weighted
# assembly took 91 ms at 2^12, 49-57 ms from 2^14 to 2^17, 69 ms at 2^20
_BLOCK_ELEMENTS = 2 ** 16


def _nystrom_matrix(mesh: BoundaryMesh, c: float = 0.0,
                    D: np.ndarray | None = None) -> np.ndarray:
    """A, or D (c I + A) D^{-1} when the diagonal D is given, built straight
    into the result one block of rows at a time, with temporaries of about
    _BLOCK_ELEMENTS entries that stay in cache.

    Each block gets the weighted kernel, then zeros between nodes of one
    straight edge.  Its diagonal and twin entries are then written by
    index: the curvature limit, the twin jump -1 and, with D, the shift c.
    Last the block is scaled by D[rows] / D.
    """
    N = mesh.size
    out = np.empty((N, N))
    # a straight node's edge index; -1 on curved edges matches no node
    straight_edge = np.where(mesh.straight, mesh.base_index, -1)
    # smooth diagonal limit k(x, x) w = kappa(x) w / (2 pi)
    diagonal = mesh.curvatures * mesh.weights / (2.0 * math.pi)
    step = max(1, _BLOCK_ELEMENTS // N)
    for i0 in range(0, N, step):
        block = out[i0:i0 + step]
        local = np.arange(len(block))
        rows = local + i0
        _weighted_kernel((mesh.points[rows, :1], mesh.points[rows, 1:]), mesh,
                         block)
        block[straight_edge[rows, None] == mesh.base_index] = 0.0
        block[local, rows] = diagonal[rows]
        twin = mesh.twin[rows]
        block[local[twin >= 0], twin[twin >= 0]] -= 1.0
        if D is not None:
            block[local, rows] += c
            block *= D[rows, None] / D
    return out


def assemble_np(d, mesh: BoundaryMesh) -> np.ndarray:
    """Dense Nystrom matrix of the double layer operator on the mesh.

    A[i][j] = k(x_i, x_j) w_j with the pointwise kernel; entries between
    nodes of the same straight edge (including opposite crack faces) vanish
    identically, the diagonal uses the smooth curvature limit, and twin
    crack sheets at coincident points carry the unit jump coupling.  It is
    built in blocks of rows: besides A only small temporaries are live.
    """
    return _nystrom_matrix(mesh)


# -- Fredholm verdicts -----------------------------------------------------

def limit_operators(d: ConicalDomain) -> dict[str, MellinOperator]:
    """Limit operator of c*I + K at every vertex stratum, by vertex id.

    They depend on the domain alone: each scan adds c and takes the line
    from the weight.  A domain without vertices has none.
    """
    u = unfold(d)
    return {uid: limit_operator(u, uid) for uid in u.uvertices}


@dataclass(frozen=True)
class FredholmVerdict:
    elliptic: bool
    per_vertex: dict                 # vertex id -> ScanResult
    overall: str                     # "Fredholm" | "not Fredholm" | "inconclusive"
    witnesses: tuple
    reference_window: tuple[float, float]

    @property
    def is_fredholm(self) -> bool:
        return self.overall == "Fredholm"


def _reference_window(d: ConicalDomain) -> tuple[float, float]:
    # the classical comparison window is stated for corner angles strictly
    # between 0 and 2*pi; crack strata carry the full angle and are skipped
    angles = [th for _, th in geometry.interior_angles(d)
              if 0.0 < th < 2.0 * math.pi]
    if not angles:
        return (-0.999, 0.5)
    return (-geometry.theta0(angles), 0.5)


def _check_finite(**values) -> None:
    for name, v in values.items():
        if not math.isfinite(v):
            raise ValueError(f"{name} = {v} must be a finite number")


def fredholm_verdict(d: ConicalDomain, c: float, a: float) -> FredholmVerdict:
    """Fredholm or not for c*I + K on the weight-a scale.

    The operator is Fredholm exactly when it is elliptic (c != 0) and the
    limit symbol at every vertex stratum is invertible along the weight
    line.  Margins up to INCONCLUSIVE_MARGIN are reported, not resolved.
    c and a must be finite; they are checked first, also on a domain
    without vertices.
    """
    _check_finite(c=c, a=a)
    per_vertex = {vid: invertibility_scan(op, c, a)
                  for vid, op in limit_operators(d).items()}
    witnesses = tuple(v for v, r in per_vertex.items() if not r.invertible)
    elliptic = c != 0.0
    if not elliptic or witnesses:
        overall = "not Fredholm"
    elif any(r.margin <= INCONCLUSIVE_MARGIN for r in per_vertex.values()):
        overall = "inconclusive"
    else:
        overall = "Fredholm"
    return FredholmVerdict(elliptic, per_vertex, overall, witnesses,
                           _reference_window(d))


@dataclass(frozen=True)
class WindowReport:
    per_vertex: dict                 # vertex id -> (lo, hi), None when empty
    global_window: tuple[float, float] | None
    reference_window: tuple[float, float]
    margin_curve: tuple              # (a, margin, witness_xi) rows

    def contains(self, lo: float, hi: float) -> bool:
        if self.global_window is None:
            return False
        return self.global_window[0] <= lo and hi <= self.global_window[1]


def domain_windows(d: ConicalDomain, c: float) -> WindowReport:
    """Admissible weight window per vertex stratum, clipped to the search
    range [-_SEARCH, _SEARCH] = [-1.2, 1.2] and intersected globally, with
    the margin curve across the global window.

    A stratum's window around a = 0 is (-h, h), with the half-width h of
    ``admissible_weight_window`` clipped to _SEARCH, or None when h <= 0, and
    then so is the global window, as at c = 0, where c*I + K is not
    elliptic.  Otherwise the global half-width is the least of the strata's
    and _SEARCH.  The limit operators are built once and serve both the
    windows and the curve, which samples 21 weights from 1e-3 inside the
    global window; each row holds the weight and the margin and witness xi
    of the stratum with the smallest margin there.  c must be finite, else
    ValueError is raised before any scan.
    """
    _check_finite(c=c)
    ops = limit_operators(d)
    half = {}
    for vid, op in ops.items():
        h = admissible_weight_window(op, c)
        half[vid] = min(_SEARCH, h) if h is not None else 0.0
    per_vertex = {vid: (-h, h) if h > 0.0 else None for vid, h in half.items()}
    h = min(half.values(), default=_SEARCH) if c != 0.0 else 0.0
    window = (-h, h) if h > 0.0 else None
    curve = []
    if window and ops:
        for a in np.linspace(1e-3 - h, h - 1e-3, 21):
            worst = min((invertibility_scan(op, c, float(a))
                         for op in ops.values()), key=lambda r: r.margin)
            curve.append((float(a), worst.margin, worst.witness_xi))
    return WindowReport(per_vertex, window, _reference_window(d),
                        tuple(curve))


# -- Dirichlet harness -----------------------------------------------------

@dataclass
class SolveResult:
    density: np.ndarray
    mesh: BoundaryMesh
    residual: float
    g: np.ndarray                    # (N,) boundary data at the mesh nodes

    def __call__(self, z):
        """Interior values of the scaled double layer potential: a float at
        one point z, an array at an (M, 2) array of points."""
        vals = 0.5 * double_layer_potential(z, self.mesh, self.density)
        return vals if np.ndim(z) > 1 else float(vals[0])


def solve_dirichlet(d: ConicalDomain, g,
                    mesh: BoundaryMesh | None = None) -> SolveResult:
    """Interior Dirichlet solve via the density equation (I + A) phi = 2 g.

    The interior trace of the double layer potential of phi is (I + K) phi,
    so with the right-hand side 2g the evaluator returns half the potential
    and matches g on the boundary.  On a crack-free domain I + K is always
    Fredholm (Verchota 1984: every corner symbol is [[0, s], [s, 0]] with
    |s| < 1), so no verdict precedes the solve.  g is a function g(x, y),
    evaluated at the mesh nodes.  A domain with cracks and a residual above
    SOLVE_RESIDUAL_TOL times max |2g| raise ValueError.
    """
    if d.has_cracks:
        raise ValueError("Dirichlet harness supports crack-free domains only")
    if mesh is None:
        mesh = solve_mesh(d)
    sys = assemble_np(d, mesh)
    sys[np.diag_indices_from(sys)] += 1.0
    rhs = np.array([g(p[0], p[1]) for p in mesh.points])
    phi = np.linalg.solve(sys, 2.0 * rhs)
    residual = float(np.max(np.abs(sys @ phi - 2.0 * rhs)))
    # relative to the data, so g = 0 needs a zero residual; NaN fails too
    if not residual <= SOLVE_RESIDUAL_TOL * np.max(np.abs(2.0 * rhs)):
        raise ValueError(f"linear solve residual {residual:.2e} above tolerance")
    return SolveResult(phi, mesh, residual, rhs)


# -- singular value studies ------------------------------------------------

@dataclass(frozen=True)
class StudyResult:
    rows: tuple                      # (n, node count, sigma) triples
    trend: str                       # "bounded-below" | "decaying" | "inconclusive"
    slope: float | None              # None when the finest sigma is rounding level


def _weight_diagonal(mesh: BoundaryMesh, a: float) -> np.ndarray:
    """D = sqrt(w) r^(-1/2-a), the diagonal realizing the weight-a pairing
    on the mesh.  A weight whose D, or whose scale D.max()/D.min(), leaves
    the float range raises ValueError."""
    with np.errstate(all="ignore"):
        D = np.sqrt(mesh.weights) * mesh.r ** (-(0.5 + a))
        ratio = D.max() / D.min()        # inf or nan if D over- or underflows
    if not np.isfinite(ratio):
        raise ValueError(f"weight a = {a} takes the weight r^(-1/2-a) of the "
                         f"{mesh.size}-node mesh beyond the float range")
    return D


def weighted_discrete_operator(mesh: BoundaryMesh, c: float,
                               D: np.ndarray) -> np.ndarray:
    """D (c I + A) D^{-1} with D the diagonal realizing a weight's pairing
    (``_weight_diagonal``), assembled, shifted and scaled in blocks of rows:
    besides the result only small temporaries are live.  A study builds
    this matrix only where twin pairs give no null vectors
    (``_has_twin_null_vectors``)."""
    return _nystrom_matrix(mesh, c, D)


def _has_twin_null_vectors(mesh: BoundaryMesh, c: float, k: int) -> bool:
    """Whether k twin node pairs give exact null vectors of
    B = D (c I + A) D^{-1}, decided from the mesh alone: at c = +-1 every
    pair does (``min_singular_value_study``)."""
    return abs(c) == 1.0 and np.count_nonzero(mesh.twin >= 0) >= 2 * k


def _lanczos_pairs(B: np.ndarray, lu: np.ndarray, piv: np.ndarray,
                   starts: np.ndarray):
    """(sigma, U): a singular value of B and its left singular vector per
    column of starts, found by Lanczos on the inverse Gram operator of the
    LU (lu, piv) of B, deflation step j started from starts[:, j].  None
    when ARPACK raises or a pair fails the certificate."""
    n = len(B)
    U, V = np.zeros((n, 0)), np.zeros((n, 0))

    def deflated_inv_gram(x):
        y = lapack.dgetrs(lu, piv, x - U @ (U.T @ x))[0]
        z = lapack.dgetrs(lu, piv, y - V @ (V.T @ y), trans=1)[0]
        return z - U @ (U.T @ z)

    op = LinearOperator((n, n), matvec=deflated_inv_gram, dtype=float)
    try:
        for x0 in starts.T:
            u = eigsh(op, k=1, v0=x0 - U @ (U.T @ x0),
                      ncv=min(n, LANCZOS_NCV), tol=0.0)[1]
            y = lapack.dgetrs(lu, piv, u)[0]
            v = y - V @ (V.T @ y)
            U = np.hstack([U, u])
            V = np.hstack([V, v / np.linalg.norm(v)])
    except ArpackError:
        return None
    BV = B @ V
    sigma = np.einsum("ij,ij->j", U, BV)
    # [u; v] / sqrt(2) is a unit vector of [[0, B], [B^T, 0]], whose
    # eigenvalues are the +-sigma_j of B; a residual that overflows fails
    # the certificate
    with np.errstate(over="ignore"):
        residual = np.sqrt(0.5 * (
            np.linalg.norm(BV - U * sigma, axis=0) ** 2
            + np.linalg.norm(B.T @ U - V * sigma, axis=0) ** 2))
    sigma = np.abs(sigma)
    if np.all(residual <= SIGMA_CERT_RTOL * sigma + ROUNDING_SIGMA):
        return sigma, U
    return None


def _smallest_singular_pairs(B: np.ndarray, k: int,
                             starts: np.ndarray | None = None):
    """(values, U): the k smallest singular values of the square matrix B,
    ascending, and their left singular vectors, one column per deflation
    step, or None for U when the dense SVD gave the values.

    B is factored once by LU.  Pivots below eps * max|U_ii| are set to
    +-eps * max|U_ii|, a rounding-size backward perturbation like the dense
    SVD's own.  Lanczos (ARPACK, Krylov basis of LANCZOS_NCV) then finds the
    largest eigenvalue 1/sigma^2 of x -> B^-T B^-1 x, k times in turn, each
    time with the singular pairs found so far projected out on both sides,
    so a repeated smallest singular value is found as often as it occurs.
    Its eigenvector u is a left singular vector, and v = B^-1 u (orthogonal
    to the earlier v) the right one.  Each sigma is the Rayleigh value
    u^T B v of B itself, and the residual r of the pair, also computed with
    B, puts a singular value of B within r of it; the values are kept only
    when every r <= SIGMA_CERT_RTOL * sigma + ROUNDING_SIGMA.

    Step j starts from starts[:, j] when starts (N x k) is given, e.g. a
    coarser mesh's vectors carried over (``_prolong``).  A failed
    certificate or an ARPACK error (no convergence included) retries all k
    steps from the fixed random start, which also serves when no starts
    are given.  If that fails too, or the LU is not finite, the dense SVD
    gives the values, run in place on a copy of B in the LU's buffer.
    """
    n = len(B)
    lu, piv, _ = lapack.dgetrf(B)
    pivots = np.abs(lu.diagonal())
    floor = np.finfo(float).eps * pivots.max()
    # NaN and +-inf show in the extremes: no N x N mask is made
    if k < n and floor > 0.0 and np.isfinite([lu.min(), lu.max()]).all():
        tiny = np.flatnonzero(pivots < floor)
        lu[tiny, tiny] = np.copysign(floor, lu[tiny, tiny])
        x0 = np.random.default_rng(0).standard_normal(n)
        cold = np.broadcast_to(x0[:, None], (n, k))
        for x0s in (cold,) if starts is None else (starts, cold):
            pairs = _lanczos_pairs(B, lu, piv, x0s)
            if pairs is not None:
                return np.sort(pairs[0]), pairs[1]
    lu[...] = B  # the LU is spent; an SVD of B itself would copy B again
    # without vectors gesdd and gesvd run the same bidiagonal QR, so a
    # gesvd retry could not succeed where gesdd failed
    svals = scipy.linalg.svd(lu, compute_uv=False, overwrite_a=True,
                             check_finite=False)
    return svals[::-1][:k], None


def _prolong(U: np.ndarray, coarse: BoundaryMesh,
             fine: BoundaryMesh) -> np.ndarray:
    """The columns of U, vectors on the nodes of the coarse mesh, carried
    to the fine mesh of the same domain: divided by sqrt(w), interpolated
    on each unfolded edge linearly in logit(tau) (constant past the coarse
    end nodes), and multiplied by the fine mesh's sqrt(w)."""
    values = U / np.sqrt(coarse.weights)[:, None]
    out = np.empty((fine.size, U.shape[1]))
    for uid, sl in fine.slices.items():
        cl = coarse.slices[uid]
        x, xp = (np.log(t / (1.0 - t)) for t in (fine.tau[sl], coarse.tau[cl]))
        for j in range(U.shape[1]):
            out[sl, j] = np.interp(x, xp, values[cl, j])
    return out * np.sqrt(fine.weights)[:, None]


def min_singular_value_study(d, c: float, a: float,
                             mesh_sizes=STUDY_MESH_SIZES,
                             deflate: int = 0) -> StudyResult:
    """Track a small singular value of the weighted operator under refinement.

    ``mesh_sizes`` must hold at least two sizes in strictly increasing
    order, since the trend is a slope across them.  ``deflate`` skips that
    many smallest singular values; use it to discount a known
    finite-dimensional kernel (a Fredholm operator may well have one, e.g.
    constants for c = -1) so the trend measures bounded-below-ness of the
    rest.  Classification is by the log-log slope over the finest
    meshes: decaying below -0.4, bounded above -0.15; a finest sigma at
    rounding level is decaying outright, and its slope, a fit through
    rounding noise, is None.  The probe is reliable for weights
    a <= 0 inside the admissible window and beyond both endpoints; for
    a > 0 the weight excludes densities that are nonzero at a vertex, yet
    truncated graded meshes readmit them as slowly vanishing pseudo-modes,
    so bounded-below operators can still show decay there.

    Per mesh only the deflate + 1 smallest singular values are computed.
    The weight diagonal is computed first, and a weight beyond the float
    range raises ValueError (``_weight_diagonal``).  At c = +-1 a mesh
    with at least deflate + 1 twin node pairs has every value exactly 0.0,
    and no entry is built (``_has_twin_null_vectors``): cracks are straight
    and their faces are meshed as exact mirrors (``graded_mesh``), so twin
    nodes have equal points, weights, r and hence D, and negated normals.
    The assembly (``_nystrom_matrix``) then makes a pair's rows of the
    weighted matrix equal at c = -1 and its columns opposite at c = +1,
    bit for bit, and each pair gives a null vector e_i -+ e_t.  Otherwise
    the weighted matrix is assembled (``weighted_discrete_operator``) and
    factored by LU, and Lanczos on its inverse Gram operator finds the
    values (``_smallest_singular_pairs``), each certified by a residual
    computed with the matrix itself.  Lanczos starts from the previous
    mesh's certified left singular vectors, prolonged to this mesh
    (``_prolong``); the first mesh, and a mesh after one answered by
    twin pairs or by the dense SVD, start from the fixed random start.  A
    start that fails the certificate or raises an ARPACK error is retried
    from the fixed random start, and a failure there sends the mesh to the
    dense SVD.  Values below ROUNDING_SIGMA are rounding level with any
    method.  c and a must be finite.
    """
    _check_finite(c=c, a=a)
    if deflate < 0:
        raise ValueError("deflate must be >= 0")
    if len(mesh_sizes) < 2 or any(
            m >= n for m, n in zip(mesh_sizes, mesh_sizes[1:])):
        raise ValueError("the study needs at least two mesh sizes in strictly "
                         f"increasing order, got {tuple(mesh_sizes)}")

    def one(n, carried):
        mesh = _mesh_for(d, n, GRADING_Q, _study_depth(n))
        if deflate >= mesh.size:
            raise ValueError(f"deflate {deflate} leaves no singular value "
                             f"of a {mesh.size}-node mesh")
        D = _weight_diagonal(mesh, a)
        if _has_twin_null_vectors(mesh, c, 1 + deflate):
            return (n, mesh.size, 0.0), None
        B = weighted_discrete_operator(mesh, c, D)
        starts = None if carried is None else _prolong(*carried, mesh)
        sigma, U = _smallest_singular_pairs(B, 1 + deflate, starts)
        return (n, mesh.size, float(sigma[-1])), (
            None if U is None else (U, mesh))

    # one call per mesh, so each matrix is freed before the next is built;
    # a mesh's certified left singular vectors (and the mesh) are carried
    # to start the next mesh's Lanczos
    rows, carried = [], None
    for n in mesh_sizes:
        row, carried = one(n, carried)
        rows.append(row)
    rows = tuple(rows)
    if rows[-1][2] < ROUNDING_SIGMA:
        return StudyResult(rows, "decaying", None)
    logN = np.log([r[1] for r in rows[-3:]])
    logS = np.log(np.maximum([r[2] for r in rows[-3:]], 1e-300))
    slope = float(np.polyfit(logN, logS, 1)[0])
    if slope < -0.4:
        trend = "decaying"
    elif slope > -0.15:
        trend = "bounded-below"
    else:
        trend = "inconclusive"
    return StudyResult(rows, trend, slope)

