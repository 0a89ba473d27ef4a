"""Matrix Mellin symbols of limit operators and weight-line invertibility.

The transform convention is K(lam) = int_0^inf kappa(t) t^(-i*lam) dt/t,
holomorphic on a horizontal strip of Im(lam) determined by the kernel decay.
A Sobolev weight a selects the line Im(lam) = -a (``line_offset``), fixed by
the weighted scale itself.  Fredholmness of c*I + K at a vertex reduces to
invertibility of c*I + delta + K(xi - i*a) for all real xi, which is decided
by a scan with an explicit tail majorant.

Every kernel of a vertex stratum is a ray-pair kernel whose transform has a
closed form (``ray_pair_symbol``); the scans, their tail bound and the
window search use it.  Quadrature (``mellin_transform``) is the
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


def _det(op: MellinOperator, c: float, lam) -> np.ndarray:
    """det(c*I + symbol) at an array of lam of any shape."""
    lam = np.asarray(lam, dtype=complex)
    return np.linalg.det(c * np.eye(op.size) + _line_samples(
        op, lam.imag.ravel(), lam.real.ravel())).reshape(lam.shape)


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
        a, b = xi[max(0, i - 1)], xi[min(len(xi) - 1, i + 1)]
        if b - a < 1e-12:
            break
        fine = np.linspace(a, b, 21)
        xi = np.concatenate([xi, fine])
        sig = np.concatenate([sig, sigma_min(fine)])
        order = np.argsort(xi)
        xi, sig = xi[order], sig[order]
    if gamma == 0.0:
        # the symbol is real here: brentq adds the zeros where det changes sign
        s = np.sign(_det(op, c, xi).real)
        roots = [optimize.brentq(lambda x: _det(op, c, x).real, *xi[i:i + 2])
                 for i in np.flatnonzero(s[:-1] * s[1:] < 0)]
        xi, sig = np.append(xi, roots), np.append(sig, sigma_min(roots))
    return LineSamples(xi, sig)


@dataclass(frozen=True)
class ScanResult:
    invertible: bool
    margin: float
    witness_xi: float                # math.inf when the tail degenerates
    xi_max_used: float


def invertibility_scan(op: MellinOperator, c: float, a: float,
                       xi_max: float = XI_MAX_DEFAULT) -> ScanResult:
    """Decide invertibility of c*I + symbol along the line of the weight a.

    The verdict combines the sampled minimum over [-xi_max, xi_max] with an
    explicit tail bound: beyond xi_max the kernel part is majorized by
    ``tail_majorant``, so invertibility there follows from the constant part
    alone.  A failing tail bound doubles xi_max up to a cap.  A margin at or
    below SCAN_TOL is singular.  xi_max must be finite and positive.
    """
    if not 0.0 < xi_max < math.inf:
        raise MellinError(f"xi_max = {xi_max} must be positive and finite")
    samples = symbol_on_line(op, c, a, _base_grid(xi_max))
    i = int(np.argmin(samples.sigma_min))
    margin, witness = float(samples.sigma_min[i]), float(samples.xi[i])
    if margin <= SCAN_TOL:
        return ScanResult(False, margin, witness, xi_max)

    # asymptotic matrix: the kernel part vanishes, the jump part does not
    asym = c * np.eye(op.size) + op.delta
    sig_inf = float(np.linalg.svd(asym, compute_uv=False)[-1])
    if sig_inf <= SCAN_TOL:
        return ScanResult(False, min(margin, sig_inf), math.inf, xi_max)

    cur = xi_max
    while tail_majorant(op, cur) >= sig_inf - SCAN_TOL:
        if cur >= XI_MAX_CAP:
            raise MellinError(
                f"tail bound fails at xi_max = {cur} (cap {XI_MAX_CAP})")
        nxt = min(2.0 * cur, XI_MAX_CAP)
        extra = symbol_on_line(op, c, a, np.linspace(cur, nxt, 160))
        j = int(np.argmin(extra.sigma_min))
        if extra.sigma_min[j] < margin:
            margin, witness = float(extra.sigma_min[j]), float(extra.xi[j])
            if margin <= SCAN_TOL:
                return ScanResult(False, margin, witness, nxt)
        cur = nxt
    return ScanResult(True, margin, witness, cur)


# -- admissible weight windows --------------------------------------------

def _windings(op: MellinOperator, c: float, gammas, xi: np.ndarray):
    """Winding numbers of det(c*I + symbol) on the lines Im(lam) = gamma
    (nan where unresolved), and the lam of the smallest |det| on each line.
    det is real at xi = 0 and at infinity and conjugate at -xi, so a
    winding is the turn of arg det over xi >= 0 over pi, sampled on the
    grid xi and refined until |det| changes by at most half (pi/6) between
    neighbours.  Past the grid the tail majorant is below sigma_min(A),
    A = c*I + delta: arg det turns on by minus the args of the eigenvalues
    of A^-1 (A + K), each in (-pi/2, pi/2).
    """
    gam, xi_end = np.asarray(gammas, dtype=float)[:, None], xi[-1]
    f = _det(op, c, xi + 1j * gam)
    for _ in range(50):
        rough = np.abs(np.diff(f)) > 0.5 * np.minimum(np.abs(f[:, 1:]),
                                                      np.abs(f[:, :-1]))
        if not rough.any():
            break
        mid = np.linspace(xi[:-1], xi[1:], 9)[1:-1, rough.any(axis=0)].ravel()
        order = np.argsort(np.concatenate([xi, mid]), kind="stable")
        xi = np.concatenate([xi, mid])[order]
        f = np.concatenate([f, _det(op, c, mid + 1j * gam)], axis=1)[:, order]
    eye = c * np.eye(op.size)
    far = np.linalg.solve(eye + op.delta,
                          eye + _line_samples(op, gam[:, 0], xi_end))
    turn = np.angle(f[:, 1:] * f[:, :-1].conj()).sum(axis=1) \
        - np.angle(np.linalg.eigvals(far)).sum(axis=1)
    return np.where(rough.any(axis=1), np.nan, np.round(turn / math.pi)), \
        xi[np.argmin(np.abs(f), axis=1)] + 1j * gam[:, 0]


def admissible_weight_window(op: MellinOperator,
                             c: float) -> tuple[float, float] | None:
    """Interval (lo, hi) of weights around a = 0 whose lines hold no zero
    of det(c*I + symbol), or None when the scan of the line a = 0 fails
    (c*I + J singular at a crack tip, or a zero on that line).  det is
    analytic on the strip and tends to det(c*I + delta), so its winding on
    Im(lam) = gamma changes where the line crosses a zero, always in one
    direction (argument principle).  Bisection on the winding brackets an
    end to 2e-3, at most 2e-2 inside the validity strip; Newton on det (fit
    for multiple zeros) starts from the least |det| on the outer line.
    Windings stop where the reference scan's tail bound holds.  The symbol
    is even: one end mirrors the other.
    """
    ref = invertibility_scan(op, c, 0.0)
    if not ref.invertible:
        return None
    grid = _base_grid(ref.xi_max_used)
    # the zero nearest to the reference line on the way to the strip's edge
    edge = validity_strip(op)[1] - 2e-2
    (w0, w1), z = _windings(op, c, [0.0, edge], grid)
    if w1 == w0:
        return (line_offset(edge), edge)
    lo, hi, lam, h = 0.0, edge, z[1], 1e-4
    while abs(hi - lo) > 2e-3:
        mid = 0.5 * (lo + hi)
        (w,), (z,) = _windings(op, c, [mid], grid)
        lo, hi, lam = (mid, hi, lam) if w == w0 else (lo, mid, z)
    for _ in range(40):
        fm, f0, fp = _det(op, c, [lam - h, lam, lam + h]).tolist()
        d1, d2 = (fp - fm) / (2.0 * h), (fp - 2.0 * f0 + fm) / (h * h)
        step = f0 * d1 / (d1 * d1 - f0 * d2) if f0 else 0.0
        lam, h = lam - step, min(1e-4, max(abs(step), 1e-6))
        if abs(step) <= 1e-13:
            break
    if abs(2.0 * lam.imag - lo - hi) > abs(hi - lo) + 2.0 * ENDPOINT_TOL:
        raise MellinError(f"Newton left the bracket ({lo}, {hi}) at {lam}")
    return (float(line_offset(lam.imag)), float(lam.imag))
