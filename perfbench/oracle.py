"""Closed-form oracle for the answers of the ``polyfred`` command.

Every kernel of the frozen double layer operator at a vertex stratum is the
ray-pair kernel between two edge-ends with directions phi_t, phi_s, and its
Mellin transform has the closed form

    side * sinh((pi - d) lam) / sinh(pi lam),   d = (phi_t - phi_s) mod 2*pi,

valid on |Im lam| < 1.  On the imaginary axis lam = i*gamma this is
side * sin((pi - d) gamma) / sin(pi gamma).  Collinear edge-ends carry no
kernel; twin crack faces add the constant jump -1.  The oracle builds these
matrices from the unfolded geometry (angles, sides, twins) and never calls
``polyfred.mellin``, so it does not share code with the symbol evaluation it
checks.  The weight a maps to the line gamma = -a.

``check(query, exit_code, stdout)`` returns None for an accepted answer and a
one-line reason otherwise.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy import optimize

from polyfred.geometry import parse_domain, unfold

TWO_PI = 2.0 * math.pi

# documented exit codes per subcommand (README, cli docstrings)
EXIT_CODES = {"analyze": {0, 1, 2, 3}, "window": {0, 3}, "study": {0, 3},
              "solve": {0, 3}}
VERDICT_EXIT = {"Fredholm": 0, "not Fredholm": 1, "inconclusive": 2}

# a symbol margin at or below SINGULAR is a zero of the symbol; at or above
# REGULAR the verdict must be Fredholm with a margin above the program's
# inconclusive band (1e-3).  Between the two the oracle accepts any verdict.
SINGULAR = 1e-9
REGULAR = 2e-3
ENDPOINT_TOL = 1e-6          # acceptance criterion 4
CLIP_BAND = 0.05             # a root-free side may stop this close to the edge
SEARCH = (-1.2, 1.2)         # default window search range of the CLI
SOLVE_TOL = 1e-3             # acceptance criterion 8
MIN_PROBE_POINTS = 20

_XI = np.concatenate([np.linspace(0.0, 4.0, 801), np.geomspace(4.0, 400.0, 400)[1:]])


@dataclass(frozen=True)
class Stratum:
    vertex_id: str
    d: np.ndarray            # (k, k) target-minus-source angle mod 2*pi
    side: np.ndarray         # (k,) side of each source edge-end
    present: np.ndarray      # (k, k) bool, pair carries a kernel
    jump: np.ndarray         # (k, k) constant twin-face coupling

    @property
    def has_kernel(self) -> bool:
        return bool(self.present.any())


@lru_cache(maxsize=None)
def strata(path: str) -> tuple[Stratum, ...]:
    """Vertex strata of the unfolded domain at ``path``."""
    u = unfold(parse_domain(path))
    out = []
    for uid, uv in u.uvertices.items():
        labels = [r for s in uv.sectors for r in (s.ray_start, s.ray_end)]
        phi = np.array([r.angle for r in labels])
        diff = phi[:, None] - phi[None, :]
        jump = np.array([[-1.0 if u.uedges[ra.uedge_id].twin_uid == rb.uedge_id
                          else 0.0 for rb in labels] for ra in labels])
        out.append(Stratum(uid, np.mod(diff, TWO_PI),
                           np.array([float(r.side) for r in labels]),
                           np.abs(np.sin(diff)) > 1e-14, jump))
    return tuple(out)


def symbol(st: Stratum, c: float, lam) -> np.ndarray:
    """c*I + J + K(lam) for an array of lam with Re(lam) >= 0, shape (n, k, k).

    Written as (e^(-d lam) - e^(-(2 pi - d) lam)) / (1 - e^(-2 pi lam)), which
    equals the sinh ratio and cannot overflow for Re(lam) >= 0.
    """
    lam = np.atleast_1d(np.asarray(lam, dtype=complex))[:, None, None]
    d = st.d[None]
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = (np.exp(-d * lam) - np.exp(-(TWO_PI - d) * lam)) \
            / (1.0 - np.exp(-TWO_PI * lam))
    ratio = np.where(np.abs(lam) < 1e-12, (math.pi - d) / math.pi, ratio)
    kern = np.where(st.present[None], st.side[None, None, :] * ratio, 0.0)
    k = len(st.side)
    return c * np.eye(k)[None] + st.jump[None] + kern


def _sigma_min(st, c, xi, gamma):
    return np.linalg.svd(symbol(st, c, np.asarray(xi) + 1j * gamma),
                         compute_uv=False)[:, -1]


_MARGINS: dict = {}


def margin(st: Stratum, c: float, gamma: float) -> float:
    """min over real xi of sigma_min(c*I + J + K(xi + i*gamma)), including
    the limit xi -> infinity where the kernel part vanishes.  Strata with the
    same angle differences, sides and jumps (equal corners) share one value."""
    key = (st.d.tobytes(), st.side.tobytes(), st.jump.tobytes(), c, gamma)
    if key not in _MARGINS:
        _MARGINS[key] = _margin(st, c, gamma)
    return _MARGINS[key]


def _margin(st: Stratum, c: float, gamma: float) -> float:
    k = len(st.side)
    at_inf = float(np.linalg.svd(c * np.eye(k) + st.jump, compute_uv=False)[-1])
    if not st.has_kernel:
        return at_inf
    sig = _sigma_min(st, c, _XI, gamma)
    i = int(np.argmin(sig))
    best = float(sig[i])
    lo, hi = _XI[max(i - 1, 0)], _XI[min(i + 1, len(_XI) - 1)]
    if hi > lo:
        res = optimize.minimize_scalar(
            lambda x: float(_sigma_min(st, c, [x], gamma)[0]),
            bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
        best = min(best, float(res.fun))
    return min(best, at_inf)


def _axis_det(st, c, gamma):
    return np.linalg.det(symbol(st, c, 1j * np.atleast_1d(gamma))).real


def axis_roots(st: Stratum, c: float, lo: float, hi: float) -> list[float]:
    """Zeros of det(c*I + J + K(i*gamma)) on (lo, hi): sign changes refined
    by bisection, and touching zeros refined as minima of |det|."""
    grid = np.linspace(lo, hi, 4001)[1:-1]
    f = _axis_det(st, c, grid)
    scale = max(1.0, float(np.max(np.abs(f))))
    roots = []
    for i in range(len(grid) - 1):
        if f[i] == 0.0:
            roots.append(float(grid[i]))
        elif f[i] * f[i + 1] < 0.0:
            roots.append(optimize.brentq(
                lambda g: float(_axis_det(st, c, g)[0]), grid[i], grid[i + 1],
                xtol=1e-14))
    absf = np.abs(f)
    for i in range(1, len(grid) - 1):
        if absf[i] <= absf[i - 1] and absf[i] <= absf[i + 1] \
                and absf[i] < 1e-6 * scale and f[i - 1] * f[i + 1] > 0.0:
            res = optimize.minimize_scalar(
                lambda g: abs(float(_axis_det(st, c, g)[0])),
                bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                options={"xatol": 1e-13})
            if res.fun < 1e-11 * scale:
                roots.append(float(res.x))
    return sorted(roots)


def verdict_margins(path: str, c: float, a: float) -> dict[str, float]:
    return {st.vertex_id: margin(st, c, -a) for st in strata(path)}


def expected_overall(margins: dict[str, float]) -> str | None:
    """Overall verdict the closed form decides, or None inside the band."""
    if any(m <= SINGULAR for m in margins.values()):
        return "not Fredholm"
    if all(m >= REGULAR for m in margins.values()):
        return "Fredholm"
    return None


@dataclass(frozen=True)
class VertexWindow:
    """Expected weight window of one stratum.  ``empty`` when no weight
    works; an end that is None has no symbol zero before the edge ``edge``
    of the validity strip or the search range."""
    empty: bool
    lo: float | None = None
    hi: float | None = None
    edge: float = 1.0


def vertex_window(st: Stratum, c: float) -> VertexWindow:
    edge = 1.0 if st.has_kernel else SEARCH[1]
    if margin(st, c, 0.0) <= SINGULAR:
        # no weight works when c*I + J is singular, and no window exists
        # around a reference weight that is itself a symbol zero
        return VertexWindow(True, edge=edge)
    if not st.has_kernel:
        return VertexWindow(False, None, None, edge)
    roots = axis_roots(st, c, -edge, edge)
    above = [g for g in roots if g > 0.0]
    below = [g for g in roots if g < 0.0]
    # gamma = -a: the nearest zero above gamma = 0 bounds the window below
    lo = -min(above) if above else None
    hi = -max(below) if below else None
    return VertexWindow(False, lo, hi, edge)


# -- answer checks ---------------------------------------------------------

def _finite(obj) -> bool:
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return all(_finite(v) for v in obj)
    return True


def check(query, exit_code: int, stdout: str) -> str | None:
    """None if the CLI answer to ``query`` is correct, else the reason."""
    if exit_code not in EXIT_CODES[query.sub]:
        return f"undocumented exit code {exit_code}"
    if query.sub != "analyze" and exit_code != 0:
        return f"error exit {exit_code}"
    if exit_code == 3:
        return "error exit 3"
    try:
        report = json.loads(stdout)
    except ValueError:
        return "output is not JSON"
    if not _finite(report):
        return "non-finite number in the JSON report"
    return {"analyze": _check_analyze, "window": _check_window,
            "study": _check_study, "solve": _check_solve}[query.sub](
        query, exit_code, report)


def _check_analyze(query, exit_code, report):
    margins = verdict_margins(query.path, query.c, query.a)
    if set(report["per_vertex"]) != set(margins):
        return f"strata {sorted(report['per_vertex'])} != {sorted(margins)}"
    for vid, m in margins.items():
        got = report["per_vertex"][vid]
        if m <= SINGULAR and got["invertible"]:
            return f"{vid}: invertible, closed-form margin {m:.2e}"
        if m >= REGULAR and (not got["invertible"] or got["margin"] <= 1e-3):
            return f"{vid}: margin {got['margin']:.2e}, closed form {m:.2e}"
    want = expected_overall(margins)
    if want is not None and report["verdict"] != want:
        return f"verdict {report['verdict']}, closed form {want}"
    if VERDICT_EXIT[report["verdict"]] != exit_code:
        return f"exit {exit_code} for verdict {report['verdict']}"
    return None


def _check_end(got, want, edge, side):
    """One window end: the closed-form root to ENDPOINT_TOL, or, with no
    root on that side, a stop within CLIP_BAND of the edge."""
    if want is not None:
        if abs(got - want) > ENDPOINT_TOL:
            return f"{side} end {got:.9f}, closed form {want:.9f}"
        return None
    mag = got if side == "upper" else -got
    if not edge - CLIP_BAND <= mag <= edge:
        return f"{side} end {got:.6f} without a root before the edge {edge}"
    return None


def _check_window(query, exit_code, report):
    sts = strata(query.path)
    per_vertex = report["per_vertex"]
    if set(per_vertex) != {st.vertex_id for st in sts}:
        return f"strata {sorted(per_vertex)} differ from the geometry"
    want = {st.vertex_id: vertex_window(st, query.c) for st in sts}
    for vid, w in want.items():
        got = per_vertex[vid]
        if w.empty:
            if got:
                return f"{vid}: window {got}, closed form empty"
            continue
        if not got:
            return f"{vid}: empty window, closed form non-empty"
        for value, end, side in ((got[0], w.lo, "lower"), (got[1], w.hi, "upper")):
            why = _check_end(value, end, w.edge, side)
            if why:
                return f"{vid}: {why}"
    glob = report["global_window"]
    if not sts:
        # a domain without vertices is Fredholm on the whole search range
        if glob is None or glob[0] > SEARCH[0] or glob[1] < SEARCH[1]:
            return f"vertex-free domain, window {glob} is not the search range"
        return None
    # every vertex window matches its closed form here, so their
    # intersection is the closed-form global window
    ends = list(per_vertex.values())
    lo = max(w[0] for w in ends) if all(ends) else 0.0
    hi = min(w[1] for w in ends) if all(ends) else 0.0
    if lo >= hi:
        return None if glob is None else f"global window {glob}, closed form empty"
    if glob is None or abs(glob[0] - lo) > 1e-12 or abs(glob[1] - hi) > 1e-12:
        return f"global window {glob} is not the intersection ({lo}, {hi})"
    rows = report["margin_curve"][1:]
    if len(rows) != 21:
        return f"margin curve has {len(rows)} rows, expected 21"
    for a, m, _ in rows:
        want_m = min(margin(st, query.c, -a) for st in sts)
        if not m > 0.0 or abs(m - want_m) > 1e-3 * max(1.0, want_m):
            return f"margin {m:.3e} at a={a:.4f}, closed form {want_m:.3e}"
    return None


def _check_study(query, exit_code, report):
    rows = report["table"][1:]
    if [r[0] for r in rows] != list(query.mesh_ns):
        return f"mesh sizes {[r[0] for r in rows]} != {list(query.mesh_ns)}"
    if any(not r[2] >= 0.0 for r in rows):
        return "negative singular value"
    trend = expected_trend(query.path, query.c, query.a)
    if trend is not None and report["trend"] != trend:
        return f"trend {report['trend']}, closed form {trend}"
    return None


def expected_trend(path: str, c: float, a: float) -> str | None:
    """Refinement trend of sigma_min by acceptance criterion 5's rule.

    The probe tests invertibility: it stays bounded below for a <= 0 inside
    the window around the reference weight, and decays where the operator
    is not Fredholm or a lies beyond a window end.  None where the closed
    form does not decide: margins inside the band, and a > 0 inside the
    window, where truncated meshes readmit pseudo-modes (README).
    """
    want = expected_overall(verdict_margins(path, c, a))
    if want is None:
        return None
    if want == "not Fredholm":
        return "decaying"
    inside = all(not w.empty and (w.lo is None or w.lo < a)
                 and (w.hi is None or a < w.hi)
                 for w in (vertex_window(st, c) for st in strata(path)))
    if not inside:
        return "decaying"
    return "bounded-below" if a <= 0.0 else None


def _check_solve(query, exit_code, report):
    err = report["max_interior_relative_error"]
    if report["interior_points_tested"] < MIN_PROBE_POINTS or err is None:
        return f"only {report['interior_points_tested']} interior points"
    if err > SOLVE_TOL:
        return f"interior error {err:.2e} above {SOLVE_TOL}"
    if not report["solve_residual"] <= 1e-10:
        return f"solve residual {report['solve_residual']:.2e}"
    return None
