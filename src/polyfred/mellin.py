"""Matrix Mellin symbols of limit operators and weight-line invertibility.

The transform convention is K(lam) = int_0^inf kappa(t) t^(-i*lam) dt/t,
holomorphic on a horizontal strip of Im(lam) determined by the kernel decay.
A Sobolev weight a selects the line Im(lam) = -a (``line_offset``), fixed by
the weighted scale itself.  Fredholmness of c*I + K at a vertex reduces to
invertibility of c*I + delta + K(xi - i*a) for all real xi, which is decided
by a scan with an explicit tail majorant.

Every kernel of a vertex stratum is a ray-pair kernel whose transform has a
closed form; kernels carry it as ``symbol`` and the scans and determinant
roots use it.  Quadrature remains for kernels without one and as the
reference the closed forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .groupoid import MellinOperator, one_variable_kernel, zero_mellin_operator

QUAD_ABS_TOL = 1e-10
SCAN_TOL = 1e-8
XI_MAX_DEFAULT = 50.0
XI_MAX_CAP = 800.0
ENDPOINT_TOL = 1e-6
STRIP_UNBOUNDED = 50.0
_LOG_TAIL = 35.0       # e^(-35) ~ 6e-16: truncation level for log-scale tails


class MellinError(ValueError):
    """Transform or scan outside its domain of validity."""


# -- wedge kernels ---------------------------------------------------------

def ray_pair_kernel(phi_target: float, phi_source: float, side_source: int):
    """Frozen double layer kernel between two rays from a common vertex.

    Target x = r*e(phi_target), source y = s*e(phi_source); the source ray
    carries the outer normal e(phi_source - side*pi/2) where side is +1 when
    the domain lies counterclockwise of the source ray and -1 otherwise.
    Returns a two-variable kernel k(r, s), homogeneous of degree -1:

        k(r, s) = side * (sin d / pi) * r / (r^2 + s^2 - 2 r s cos d),

    d = phi_target - phi_source.  Identically zero for collinear rays.  The
    kernel carries the Mellin transform of t -> k(t, 1) in closed form as
    ``symbol`` (see ``ray_pair_symbol``), plus ``log_eval`` and
    ``decay_exponents`` hints for the numerical transforms.
    """
    d = phi_target - phi_source
    sd, cd = math.sin(d), math.cos(d)
    amp = side_source * sd / math.pi

    def kernel(r, s):
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = amp * r / (r * r + s * s - 2.0 * r * s * cd)
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)

    def log_eval(u):
        # kernel(e^u, 1) evaluated stably for large |u|
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore"):
            den = 2.0 * np.cosh(u) - 2.0 * cd
            out = np.where(np.isfinite(den), amp / den, 0.0)
        return out

    kernel.symbol = ray_pair_symbol(d % (2.0 * math.pi), side_source)
    kernel.log_eval = log_eval
    kernel.decay_exponents = (1.0, 1.0) if sd != 0.0 else None
    return kernel


def ray_pair_symbol(d: float, side: int):
    """lam -> side * sinh((pi - d) lam) / sinh(pi lam) for arrays of lam
    with |Im lam| < 1, the Mellin transform of the ray-pair kernel with
    angle d in [0, 2*pi).

    The function is even in lam and changes sign under d -> 2*pi - d, so it
    is evaluated at Re(lam) >= 0 and d <= pi as
    e^(-d lam) expm1(-2 (pi - d) lam) / expm1(-2 pi lam), which equals
    (e^(-d lam) - e^(-(2 pi - d) lam)) / (1 - e^(-2 pi lam)).  Every exponent
    has non-positive real part, so nothing overflows, and expm1 keeps full
    precision near lam = 0.  For |lam| < 1e-9 the limit side * (pi - d) / pi
    is returned: it is exact to O(lam^2), and the quotient of two subnormal
    expm1 values would overflow.
    """
    if d > math.pi:
        d, side = 2.0 * math.pi - d, -side
    at_zero = side * (math.pi - d) / math.pi

    def symbol(lam):
        lam = np.asarray(lam, dtype=complex)
        lam = np.where(lam.real < 0.0, -lam, lam)
        zero = np.abs(lam) < 1e-9
        lam = np.where(zero, 1.0, lam)
        val = side * np.exp(-d * lam) * np.expm1(-2.0 * (math.pi - d) * lam) \
            / np.expm1(-2.0 * math.pi * lam)
        return np.where(zero, at_zero, val)

    return symbol


def wedge_np_kernel(theta: float) -> MellinOperator:
    """Limit double layer operator at an infinite wedge of opening theta.

    2x2 with zero diagonal (straight edges) and equal off-diagonal kernels
    kappa(t) = (sin theta / pi) t / (t^2 - 2 t cos theta + 1).  theta = pi
    gives the zero operator (removable flat vertex, flagged).
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise MellinError(f"wedge opening {theta} outside (0, 2*pi)")
    if abs(theta - math.pi) < 1e-14:
        op = zero_mellin_operator("wedge", 2)
        return MellinOperator(op.vertex_id, 2, op.entries, op.delta,
                              removable_flat=True)
    kappa = one_variable_kernel(ray_pair_kernel(0.0, theta, -1))
    entries = ((None, kappa), (kappa, None))
    return MellinOperator("wedge", 2, entries, np.zeros((2, 2)))


# -- decay / validity strip ------------------------------------------------

def _decay_exponents(kappa) -> tuple[float, float]:
    """(p0, pinf) with kappa(t) ~ t^p0 at 0 and t^(-pinf) at infinity."""
    hint = getattr(kappa, "decay_exponents", None)
    if hint is not None:
        return hint
    t_small = np.array([1e-7, 1e-5])
    t_large = np.array([1e5, 1e7])
    v_small = np.abs(np.asarray(kappa(t_small), dtype=float))
    v_large = np.abs(np.asarray(kappa(t_large), dtype=float))
    if np.all(v_small > 0):
        p0 = float(np.log(v_small[1] / v_small[0]) / np.log(t_small[1] / t_small[0]))
    else:
        p0 = STRIP_UNBOUNDED
    if np.all(v_large > 0):
        pinf = float(-np.log(v_large[1] / v_large[0])
                     / np.log(t_large[1] / t_large[0]))
    else:
        pinf = STRIP_UNBOUNDED
    return p0, pinf


def validity_strip(op: MellinOperator) -> tuple[float, float]:
    """Open interval of Im(lam) where every entry transform converges."""
    lo, hi = -STRIP_UNBOUNDED, STRIP_UNBOUNDED
    for row in op.entries:
        for ker in row:
            if ker is None:
                continue
            p0, pinf = _decay_exponents(ker)
            lo = max(lo, -p0)
            hi = min(hi, pinf)
    if lo >= hi:
        raise MellinError("kernel decay leaves no common validity strip")
    return lo, hi


def _log_eval(kappa):
    f = getattr(kappa, "log_eval", None)
    if f is not None:
        return f

    def g(u):
        u = np.asarray(u, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            vals = np.asarray(kappa(np.exp(np.clip(u, -700.0, 700.0))),
                              dtype=float)
        return np.nan_to_num(vals, nan=0.0, posinf=0.0, neginf=0.0)
    return g


def _truncation(kappa, gamma: float) -> tuple[float, float]:
    p0, pinf = _decay_exponents(kappa)
    d0 = p0 + gamma
    d1 = pinf - gamma
    if d0 <= 0 or d1 <= 0:
        raise MellinError(
            f"line Im(lam) = {gamma} outside validity strip ({-p0}, {pinf})")
    cap = 5000.0
    return min(cap, max(30.0, _LOG_TAIL / d0)), min(cap, max(30.0, _LOG_TAIL / d1))


# -- transform -------------------------------------------------------------

def mellin_transform(op: MellinOperator, lam: complex) -> np.ndarray:
    """Matrix symbol at lam, entrywise adaptive quadrature on log scale.

    Always numerical, even for kernels that carry a closed-form symbol, so
    it serves as the reference the closed forms are tested against.  The
    constant jump part is lam-independent and added as-is.  Entries with
    identical kernel objects are integrated once.
    """
    lam = complex(lam)
    out = np.array(op.delta, dtype=complex)
    done: dict[int, complex] = {}
    for i in range(op.size):
        for j in range(op.size):
            ker = op.entries[i][j]
            if ker is None:
                continue
            if id(ker) not in done:
                done[id(ker)] = _entry_transform(ker, lam)
            out[i, j] += done[id(ker)]
    return out


def _entry_transform(kappa, lam: complex) -> complex:
    # substitute t = e^u: int g(u) e^(gamma*u) e^(-i*xi*u) du, split at u = 0;
    # the oscillation is left to the cos/sin-weighted rule (QUADPACK QAWO),
    # which stays accurate for large |xi|
    gamma, xi = lam.imag, lam.real
    u0, u1 = _truncation(kappa, gamma)
    g = _log_eval(kappa)

    def f(u):
        return _damped(g(u), gamma, u)

    val = 0.0 + 0.0j
    for a, b in ((-u0, 0.0), (0.0, u1)):
        for weight, factor in (("cos", 1.0), ("sin", -1j)):
            part, err = integrate.quad(f, a, b, weight=weight, wvar=xi,
                                       epsabs=QUAD_ABS_TOL * 0.25,
                                       epsrel=1e-11, limit=400)
            if abs(err) > 10 * QUAD_ABS_TOL:
                raise MellinError(
                    f"quadrature error estimate {abs(err):.2e} above tolerance")
            val += factor * part
    return val


def _damped(g, gamma: float, u):
    """g * e^(gamma*u) evaluated in log magnitude: the two factors can
    individually overflow where the product is tiny."""
    g = np.asarray(g, dtype=float)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        mag = np.exp(np.log(np.abs(g)) + gamma * u)
    return np.sign(g) * mag


# -- weight lines ----------------------------------------------------------

def line_offset(a: float) -> float:
    """gamma(a) = -a: the Mellin line Im(lam) = gamma(a) of the Sobolev
    weight a.  The map is its own inverse, so it also takes a line offset
    back to its weight.  Written 0.0 - a so that a = 0 gives the line 0.0,
    not -0.0."""
    return 0.0 - a


# -- fast vectorized line sampling ----------------------------------------

_DU = 0.01


def _line_samples(op: MellinOperator, gamma, xi) -> np.ndarray:
    """Symbol matrices K(xi + i*gamma) for arrays of xi and gamma (either
    may be a scalar), shape (n, k, k).

    A kernel's closed-form ``symbol`` is used when it has one; otherwise
    the trapezoid rule on a uniform log grid, spectrally accurate for the
    analytic kernels here and cross-checked against the adaptive quadrature
    in the test suite.
    """
    lam = np.atleast_1d(np.asarray(xi, dtype=float) + 1j * np.asarray(gamma))
    k = op.size
    out = np.broadcast_to(op.delta.astype(complex), (len(lam), k, k)).copy()
    done: dict[int, np.ndarray] = {}
    for i in range(k):
        for j in range(k):
            ker = op.entries[i][j]
            if ker is None:
                continue
            if id(ker) not in done:
                done[id(ker)] = _entry_samples(ker, lam)
            out[:, i, j] += done[id(ker)]
    return out


def _entry_samples(kappa, lam: np.ndarray) -> np.ndarray:
    symbol = getattr(kappa, "symbol", None)
    if symbol is not None:
        return symbol(lam)
    out = np.empty(len(lam), dtype=complex)
    for gamma in np.unique(lam.imag):
        on = lam.imag == gamma
        out[on] = _entry_line(kappa, gamma, lam.real[on])
    return out


def _entry_line(kappa, gamma: float, xi: np.ndarray) -> np.ndarray:
    u0, u1 = _truncation(kappa, gamma)
    n = int(math.ceil((u0 + u1) / _DU)) + 1
    u = np.linspace(-u0, u1, n)
    du = u[1] - u[0]
    w = _damped(_log_eval(kappa)(u), gamma, u) * du
    w[0] *= 0.5
    w[-1] *= 0.5
    return np.exp(-1j * np.outer(xi, u)) @ w


def _entry_tail_constant(kappa, gamma: float) -> float:
    # total variation of u -> kappa(e^u) e^(gamma u) bounds |entry(xi)| by TV/|xi|
    u0, u1 = _truncation(kappa, gamma)
    u = np.arange(-u0, u1 + _DU, _DU)
    g = _damped(_log_eval(kappa)(u), gamma, u)
    return float(np.sum(np.abs(np.diff(g))))


def tail_majorant(op: MellinOperator, gamma: float):
    """C such that the Frobenius norm of the kernel part of the symbol is
    bounded by 2*C/(1 + |xi|) for large |xi| (conservative factor 2)."""
    total = 0.0
    for row in op.entries:
        for ker in row:
            if ker is None:
                continue
            total += _entry_tail_constant(ker, gamma) ** 2
    return math.sqrt(total)


# -- scans -----------------------------------------------------------------

@dataclass(frozen=True)
class LineSamples:
    xi: np.ndarray
    matrices: np.ndarray             # (len(xi), k, k)
    sigma_min: np.ndarray


def _base_grid(xi_max: float) -> np.ndarray:
    lo = np.linspace(0.0, min(2.0, xi_max), 81)
    if xi_max <= 2.0:
        return lo
    hi = np.geomspace(2.0, xi_max, 80)
    return np.unique(np.concatenate([lo, hi]))


def _sigma_min(mats: np.ndarray) -> np.ndarray:
    return np.linalg.svd(mats, compute_uv=False)[..., -1]


def symbol_on_line(op: MellinOperator, c: float, a: float,
                   xi_grid=None) -> LineSamples:
    """Sampled matrices c*I + K(xi + i*gamma(a)) on the line of the weight a,
    with refinement near the minima of the smallest singular value.

    Kernels here are real, so the symbol at -xi is the conjugate of the
    symbol at +xi and the scan covers xi >= 0 without loss.
    """
    gamma = line_offset(a)
    lo, hi = validity_strip(op)
    if not lo < gamma < hi:
        raise MellinError(f"gamma = {gamma} outside validity strip ({lo}, {hi})")
    xi = np.asarray(xi_grid, dtype=float) if xi_grid is not None \
        else _base_grid(XI_MAX_DEFAULT)
    mats = c * np.eye(op.size)[None] + _line_samples(op, gamma, xi)
    sig = _sigma_min(mats)
    # three rounds of local refinement around the current minimum
    for _ in range(3):
        i = int(np.argmin(sig))
        a = xi[max(0, i - 1)]
        b = xi[min(len(xi) - 1, i + 1)]
        if b - a < 1e-12:
            break
        fine = np.linspace(a, b, 21)
        fmats = c * np.eye(op.size)[None] + _line_samples(op, gamma, fine)
        fsig = _sigma_min(fmats)
        xi = np.concatenate([xi, fine])
        mats = np.concatenate([mats, fmats])
        sig = np.concatenate([sig, fsig])
        order = np.argsort(xi)
        xi, mats, sig = xi[order], mats[order], sig[order]
    return LineSamples(xi, mats, sig)


@dataclass(frozen=True)
class ScanResult:
    invertible: bool
    margin: float
    witness_xi: float                # math.inf when the tail degenerates
    xi_max_used: float


def invertibility_scan(op: MellinOperator, c: float, a: float,
                       xi_max: float = XI_MAX_DEFAULT,
                       tol: float = SCAN_TOL) -> ScanResult:
    """Decide invertibility of c*I + symbol along the line of the weight a.

    The verdict combines the sampled minimum over [-xi_max, xi_max] with an
    explicit tail bound: beyond xi_max the kernel part is majorized by
    2*C/(1+|xi|), so invertibility there follows from the constant part
    alone.  A failing tail bound doubles xi_max up to a cap.
    """
    samples = symbol_on_line(op, c, a, _base_grid(xi_max))
    i = int(np.argmin(samples.sigma_min))
    margin = float(samples.sigma_min[i])
    witness = float(samples.xi[i])
    if margin <= tol:
        return ScanResult(False, margin, witness, xi_max)

    # asymptotic matrix: the kernel part vanishes, the jump part does not
    asym = c * np.eye(op.size) + op.delta
    sig_inf = float(np.linalg.svd(asym, compute_uv=False)[-1])
    if sig_inf <= tol:
        return ScanResult(False, min(margin, sig_inf), math.inf, xi_max)

    C = tail_majorant(op, line_offset(a))
    cur = xi_max
    while 2.0 * C / (1.0 + cur) >= sig_inf - tol:
        if cur >= XI_MAX_CAP:
            raise MellinError(
                f"tail bound fails at xi_max = {cur} (cap {XI_MAX_CAP})")
        nxt = min(2.0 * cur, XI_MAX_CAP)
        extra = symbol_on_line(op, c, a, np.linspace(cur, nxt, 160))
        j = int(np.argmin(extra.sigma_min))
        if extra.sigma_min[j] < margin:
            margin = float(extra.sigma_min[j])
            witness = float(extra.xi[j])
            if margin <= tol:
                return ScanResult(False, margin, witness, nxt)
        cur = nxt
    tail_floor = sig_inf - 2.0 * C / (1.0 + cur)
    return ScanResult(True, min(margin, max(tail_floor, margin)), witness, cur)


# -- admissible weight windows --------------------------------------------

@dataclass(frozen=True)
class WindowReport:
    c: float
    per_vertex: dict                 # vertex id -> (lo, hi), None when empty
    global_window: tuple[float, float] | None
    reference_window: tuple[float, float] | None = None

    def contains(self, lo: float, hi: float) -> bool:
        if self.global_window is None:
            return False
        return self.global_window[0] <= lo and hi <= self.global_window[1]


def line_determinant(op: MellinOperator, c: float, gamma):
    """det(c*I + symbol) on the imaginary axis lam = i*gamma, for a scalar
    gamma (returns a float) or an array of them (returns an array).

    Real kernels give a real matrix there, so the determinant is real and
    vanishes at the symbol zeros that bound weight windows.
    """
    g = np.asarray(gamma, dtype=float)
    mats = c * np.eye(op.size) + _line_samples(op, g, np.zeros_like(g))
    dets = np.linalg.det(mats).real
    return float(dets[0]) if g.ndim == 0 else dets


def _axis_roots(op: MellinOperator, c: float, grid: np.ndarray,
                tol: float, xtol: float) -> list[float]:
    """Zeros of the line determinant on a gamma grid: sign changes refined
    by brentq, and zeros that touch 0 without crossing, found as minima of
    |det| at or below tol (relative to the largest |det| on the grid).

    A touching zero between two nodes leaves |det| of order h^2 at the
    nearest node, so only local minima below 1e-3 of the scale are refined.
    """
    dets = line_determinant(op, c, grid)
    absd = np.abs(dets)
    scale = max(1.0, float(np.max(absd)))
    roots = []
    for i in range(len(grid) - 1):
        if dets[i] == 0.0:
            roots.append(float(grid[i]))
        elif dets[i] * dets[i + 1] < 0:
            roots.append(float(optimize.brentq(
                lambda g: line_determinant(op, c, g), grid[i], grid[i + 1],
                xtol=xtol)))
        elif i > 0 and dets[i - 1] * dets[i + 1] > 0 \
                and absd[i - 1] > absd[i] <= absd[i + 1] \
                and absd[i] <= 1e-3 * scale:
            res = optimize.minimize_scalar(
                lambda g: abs(line_determinant(op, c, g)),
                bounds=(grid[i - 1], grid[i + 1]), method="bounded",
                options={"xatol": 1e-3 * xtol})
            if res.fun <= tol * scale:
                roots.append(float(res.x))
    return roots


def admissible_weight_window(op: MellinOperator, c: float,
                             search: tuple[float, float] = (-1.5, 1.5),
                             tol: float = SCAN_TOL,
                             vertex_id: str | None = None,
                             xi_max: float = XI_MAX_DEFAULT) -> WindowReport:
    """Maximal interval of weights a around the reference on which the line
    symbol is invertible; the window is None when there is no such interval.

    That happens when the symbol is singular on the reference line itself:
    c*I + J singular at a crack tip, or a symbol zero on the reference line.
    Otherwise the symbol degenerates only where the line crosses a symbol
    zero; for the real kernels here those zeros sit on the imaginary axis,
    where the determinant of c*I + symbol is real.  Endpoints are the
    nearest determinant roots around gamma(0), refined to 1e-6, and the
    interior is cross-checked by invertibility scans (which also catch any
    degeneracy away from the imaginary axis).
    """
    vid = vertex_id or op.vertex_id
    lo_s, hi_s = validity_strip(op)
    pad = max(2e-2, 0.0 if hi_s - lo_s > 1.0 else 0.1 * (hi_s - lo_s))
    gs = sorted(min(max(line_offset(a), lo_s + pad), hi_s - pad)
                for a in search)
    g_lo, g_hi = gs
    if g_hi - g_lo <= 0:
        raise MellinError("empty weight search interval after strip clipping")

    g_ref = line_offset(0.0)
    if not g_lo <= g_ref <= g_hi:
        g_ref = 0.5 * (g_lo + g_hi)
    if not invertibility_scan(op, c, line_offset(g_ref), xi_max=xi_max,
                              tol=tol).invertible:
        return WindowReport(c, {vid: None}, None)

    roots = _axis_roots(op, c, np.linspace(g_lo, g_hi, 241), tol,
                        ENDPOINT_TOL)
    below = [r for r in roots if r < g_ref]
    above = [r for r in roots if r > g_ref]
    w_lo = max(below) if below else g_lo
    w_hi = min(above) if above else g_hi

    # scan verification on interior samples; shrink if a zero off the
    # imaginary axis shows up (not observed for the kernels here)
    for gam in np.linspace(w_lo, w_hi, 9)[1:-1]:
        if not invertibility_scan(op, c, line_offset(gam), xi_max=xi_max,
                                  tol=tol).invertible:
            if gam < g_ref:
                w_lo = max(w_lo, gam)
            else:
                w_hi = min(w_hi, gam)

    window = (float(line_offset(w_hi)), float(line_offset(w_lo)))
    return WindowReport(c, {vid: window}, window)
