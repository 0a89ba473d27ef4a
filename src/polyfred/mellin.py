"""Matrix Mellin symbols of limit operators and weight-line invertibility.

The transform convention is K(lam) = int_0^inf kappa(t) t^(-i*lam) dt/t,
holomorphic on a horizontal strip of Im(lam) determined by the kernel decay.
A Sobolev weight a selects the line Im(lam) = -a (``line_offset``), fixed by
the weighted scale itself.  Fredholmness of c*I + K at a vertex reduces to
invertibility of c*I + delta + K(xi - i*a) for all real xi, which is decided
by a scan with an explicit tail majorant.

Every kernel of a vertex stratum is a ray-pair kernel whose transform has a
closed form (``ray_pair_symbol``); the scans, their tail bound and the
determinant roots use it.  Quadrature (``mellin_transform``) is the
reference the closed form is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, optimize

from .groupoid import MellinOperator, RayPairKernel

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

def ray_pair_kernel(phi_target: float, phi_source: float,
                    side_source: int) -> RayPairKernel:
    """Frozen double layer kernel between two rays from a common vertex.

    Target x = r*e(phi_target), source y = s*e(phi_source); the source ray
    carries the outer normal e(phi_source - side*pi/2) where side is +1 when
    the domain lies counterclockwise of the source ray and -1 otherwise.
    The rays must not be collinear.  The kernel's Mellin transform is
    ``ray_pair_symbol`` of its angle and side.
    """
    return RayPairKernel((phi_target - phi_source) % (2.0 * math.pi),
                         side_source)


def ray_pair_symbol(d, side, lam):
    """side * sinh((pi - d) lam) / sinh(pi lam), the Mellin transform of the
    ray-pair kernel with angle d in [0, 2*pi), for |Im lam| < 1.  d, side
    and lam are broadcast against each other.

    The function is even in lam and changes sign under d -> 2*pi - d, so it
    is evaluated at Re(lam) >= 0 and d <= pi as
    e^(-d lam) expm1(-2 (pi - d) lam) / expm1(-2 pi lam), which equals
    (e^(-d lam) - e^(-(2 pi - d) lam)) / (1 - e^(-2 pi lam)).  Every exponent
    has non-positive real part, so nothing overflows, and expm1 keeps full
    precision near lam = 0.  For |lam| < 1e-9 the limit side * (pi - d) / pi
    is returned: it is exact to O(lam^2), and the quotient of two subnormal
    expm1 values would overflow.
    """
    d = np.asarray(d, dtype=float)
    side = np.asarray(side)
    flip = d > math.pi
    d = np.where(flip, 2.0 * math.pi - d, d)
    side = np.where(flip, -side, side)
    at_zero = side * (math.pi - d) / math.pi
    lam = np.asarray(lam, dtype=complex)
    lam = np.where(lam.real < 0.0, -lam, lam)
    zero = np.abs(lam) < 1e-9
    lam = np.where(zero, 1.0, lam)
    val = side * np.exp(-d * lam) * np.expm1(-2.0 * (math.pi - d) * lam) \
        / np.expm1(-2.0 * math.pi * lam)
    return np.where(zero, at_zero, val)


def wedge_np_kernel(theta: float) -> MellinOperator:
    """Limit double layer operator at an infinite wedge of opening theta.

    2x2 with zero diagonal (straight edges) and equal off-diagonal kernels
    kappa(t) = (sin theta / pi) t / (t^2 - 2 t cos theta + 1).  At
    theta = pi (a flat vertex) the closed-form symbol is exactly 0.
    """
    if not 0.0 < theta < 2.0 * math.pi:
        raise MellinError(f"wedge opening {theta} outside (0, 2*pi)")
    ker = ray_pair_kernel(0.0, theta, -1)
    d = np.array([[0.0, ker.d], [ker.d, 0.0]])
    side = np.array([[0, ker.side], [ker.side, 0]])
    return MellinOperator("wedge", d, side, np.zeros((2, 2)))


# -- validity strip and transform -----------------------------------------

def validity_strip(op: MellinOperator) -> tuple[float, float]:
    """Open interval of Im(lam) where every entry transform converges: a
    ray-pair kernel decays like t at 0 and like 1/t at infinity."""
    if np.any(op.side):
        return -1.0, 1.0
    return -STRIP_UNBOUNDED, STRIP_UNBOUNDED


def mellin_transform(op: MellinOperator, lam: complex) -> np.ndarray:
    """Matrix symbol at lam, entrywise adaptive quadrature on log scale.

    Always numerical, never the closed form, so it serves as the reference
    the closed form is tested against.  The constant jump part is
    lam-independent and added as-is.  Entries with equal angle and side are
    integrated once.
    """
    lam = complex(lam)
    out = np.array(op.delta, dtype=complex)
    done: dict[tuple, complex] = {}
    for i, j in zip(*np.nonzero(op.side)):
        key = (float(op.d[i, j]), int(op.side[i, j]))
        if key not in done:
            done[key] = _entry_transform(*key, lam)
        out[i, j] += done[key]
    return out


def _entry_transform(d: float, side: int, lam: complex) -> complex:
    # substitute t = e^u: int g(u) e^(gamma*u) e^(-i*xi*u) du, split at u = 0,
    # where g(u) = k(e^u, 1) = amp / (2 cosh u - 2 cos d); the oscillation is
    # left to the cos/sin-weighted rule (QUADPACK QAWO), which stays
    # accurate for large |xi|
    gamma, xi = lam.imag, lam.real
    if not -1.0 < gamma < 1.0:
        raise MellinError(f"line Im(lam) = {gamma} outside validity strip (-1, 1)")
    cap = 5000.0
    u0 = min(cap, max(30.0, _LOG_TAIL / (1.0 + gamma)))
    u1 = min(cap, max(30.0, _LOG_TAIL / (1.0 - gamma)))
    amp = side * math.sin(d) / math.pi
    log_amp, cd = math.log(abs(amp)), math.cos(d)

    def f(u):
        # g e^(gamma u) in log magnitude, with 2 cosh u - 2 cos d written as
        # e^|u| (1 - 2 cos d e^-|u| + e^-2|u|): cosh alone overflows past
        # |u| = 710, well inside the truncation for |gamma| near 1
        au = np.abs(u)
        log_den = au + np.log1p(np.exp(-2.0 * au) - 2.0 * cd * np.exp(-au))
        return math.copysign(1.0, amp) * np.exp(log_amp - log_den + gamma * u)

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


# -- weight lines ----------------------------------------------------------

def line_offset(a: float) -> float:
    """gamma(a) = -a: the Mellin line Im(lam) = gamma(a) of the Sobolev
    weight a.  The map is its own inverse, so it also takes a line offset
    back to its weight.  Written 0.0 - a so that a = 0 gives the line 0.0,
    not -0.0."""
    return 0.0 - a


# -- line sampling and tail bound -----------------------------------------

def _line_samples(op: MellinOperator, gamma, xi) -> np.ndarray:
    """Symbol matrices K(xi + i*gamma) for arrays of xi and gamma (either
    may be a scalar), shape (n, k, k), from the closed form."""
    lam = np.atleast_1d(np.asarray(xi, dtype=float) + 1j * np.asarray(gamma))
    return op.delta + ray_pair_symbol(op.d, op.side, lam[:, None, None])


def tail_majorant(op: MellinOperator, xi: float) -> float:
    """Bound on the Frobenius norm of the kernel part of the symbol at every
    lam with |Re lam| >= xi > 0 and |Im lam| < 1; it decreases in xi.

    For d in (0, pi] after reflection, |sinh(x + iy)|^2 = sinh(x)^2 + sin(y)^2
    gives |sinh((pi - d) lam) / sinh(pi lam)| <= cosh((pi - d) xi) / sinh(pi xi),
    written here with non-positive exponents only.  hypot sums the entries
    without underflow; 4 subnormal units per entry cover their rounding.
    """
    d = np.minimum(op.d, 2.0 * math.pi - op.d)[op.side != 0]
    bound = (np.exp(-d * xi) + np.exp(-(2.0 * math.pi - d) * xi)) \
        / -math.expm1(-2.0 * math.pi * xi)
    return math.hypot(*bound) + 4 * len(bound) * math.ulp(0.0)


# -- scans -----------------------------------------------------------------

@dataclass(frozen=True)
class LineSamples:
    xi: np.ndarray
    sigma_min: np.ndarray


def _base_grid(xi_max: float) -> np.ndarray:
    lo = np.linspace(0.0, min(2.0, xi_max), 81)
    if xi_max <= 2.0:
        return lo
    hi = np.geomspace(2.0, xi_max, 80)
    return np.unique(np.concatenate([lo, hi]))


def symbol_on_line(op: MellinOperator, c: float, a: float,
                   xi_grid) -> LineSamples:
    """Smallest singular value of c*I + K(xi + i*gamma(a)) on the line of
    the weight a at xi_grid, with refinement near its minima.

    Kernels here are real, so the symbol at -xi is the conjugate of the
    symbol at +xi and the scan covers xi >= 0 without loss.
    """
    gamma = line_offset(a)
    lo, hi = validity_strip(op)
    if not lo < gamma < hi:
        raise MellinError(f"gamma = {gamma} outside validity strip ({lo}, {hi})")
    eye = c * np.eye(op.size)[None]

    def sigma_min(xs):
        mats = eye + _line_samples(op, gamma, xs)
        return np.linalg.svd(mats, compute_uv=False)[..., -1]

    xi = np.asarray(xi_grid, dtype=float)
    sig = sigma_min(xi)
    # three rounds of local refinement around the current minimum
    for _ in range(3):
        i = int(np.argmin(sig))
        a = xi[max(0, i - 1)]
        b = xi[min(len(xi) - 1, i + 1)]
        if b - a < 1e-12:
            break
        fine = np.linspace(a, b, 21)
        xi = np.concatenate([xi, fine])
        sig = np.concatenate([sig, sigma_min(fine)])
        order = np.argsort(xi)
        xi, sig = xi[order], sig[order]
    return LineSamples(xi, sig)


@dataclass(frozen=True)
class ScanResult:
    invertible: bool
    margin: float
    witness_xi: float                # math.inf when the tail degenerates
    xi_max_used: float


def check_scan_settings(tol: float, xi_max: float) -> None:
    """Raise MellinError unless tol is a number >= 0 and xi_max a finite
    positive number."""
    if not 0.0 < xi_max < math.inf:
        raise MellinError(f"xi_max = {xi_max} must be positive and finite")
    if not tol >= 0.0:
        raise MellinError(f"tol = {tol} must be a number >= 0")


def invertibility_scan(op: MellinOperator, c: float, a: float,
                       xi_max: float = XI_MAX_DEFAULT,
                       tol: float = SCAN_TOL) -> ScanResult:
    """Decide invertibility of c*I + symbol along the line of the weight a.

    The verdict combines the sampled minimum over [-xi_max, xi_max] with an
    explicit tail bound: beyond xi_max the kernel part is majorized by
    ``tail_majorant``, so invertibility there follows from the constant part
    alone.  A failing tail bound doubles xi_max up to a cap.  tol and
    xi_max must pass ``check_scan_settings``.
    """
    check_scan_settings(tol, xi_max)
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

    cur = xi_max
    while tail_majorant(op, cur) >= sig_inf - tol:
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
    return ScanResult(True, margin, witness, cur)


# -- admissible weight windows --------------------------------------------

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
                             xi_max: float = XI_MAX_DEFAULT
                             ) -> tuple[float, float] | None:
    """Interval (lo, hi) of weights a around the reference, bounded by the
    nearest symbol zeros on the imaginary axis, or None when the scan of
    the reference line fails (c*I + J singular at a crack tip, or a zero it
    finds on that line).  The ends are roots of the determinant of
    c*I + symbol, which is real on that axis, refined to 1e-6.

    Zeros off the axis are not located.  For 0 < |c| < (pi - theta)/pi a
    corner symbol has real zeros xi != 0, on the reference line a = 0 too,
    and the window can contain that line: the square at c = 0.37 gets
    (-0.98, 0.98), yet its symbol is singular at a = 0, xi = 0.519.  The
    seven interior scans find such a zero only if it lies on their lines.
    """
    lo_s, hi_s = validity_strip(op)
    pad = 2e-2
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
        return None

    roots = _axis_roots(op, c, np.linspace(g_lo, g_hi, 241), tol,
                        ENDPOINT_TOL)
    below = [r for r in roots if r < g_ref]
    above = [r for r in roots if r > g_ref]
    w_lo = max(below) if below else g_lo
    w_hi = min(above) if above else g_hi

    # scans on interior lines; they shrink the window only when a zero off
    # the imaginary axis lies on one of these lines
    for gam in np.linspace(w_lo, w_hi, 9)[1:-1]:
        if not invertibility_scan(op, c, line_offset(gam), xi_max=xi_max,
                                  tol=tol).invertible:
            if gam < g_ref:
                w_lo = max(w_lo, gam)
            else:
                w_hi = min(w_hi, gam)

    return (float(line_offset(w_hi)), float(line_offset(w_lo)))
