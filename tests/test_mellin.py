"""Mellin transforms, symbols, scans, and weight windows.

The wedge symbol has the independently derived closed form
sinh((pi - theta) lam) / sinh(pi lam); it is cross-checked here once more
against high-precision quadrature (mpmath) so the fast evaluators in the
package are tested against two frozen references.
"""

import cmath
import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from polyfred.geometry import parse_domain
from polyfred.cli import main
from polyfred.groupoid import MellinOperator
from polyfred.layerpot import WindowReport, limit_operators
from polyfred.mellin import (
    SCAN_TOL,
    XI_MAX_CAP,
    MellinError,
    _line_samples,
    admissible_weight_window,
    invertibility_scan,
    line_offset,
    mellin_transform,
    ray_pair_symbol,
    symbol_on_line,
    tail_majorant,
    validity_strip,
    wedge_np_kernel,
)

from conftest import ALL_DOMAINS, domain_path

THETAS = (math.pi / 3, math.pi / 2, 2.0 * math.pi / 3, 1.5 * math.pi)


def closed_form(theta: float, lam: complex) -> complex:
    lam = complex(lam)
    if abs(lam) < 1e-12:
        return complex((math.pi - theta) / math.pi)
    return cmath.sinh((math.pi - theta) * lam) / cmath.sinh(math.pi * lam)


# -- transform correctness -------------------------------------------------

@pytest.mark.parametrize("theta", THETAS)
def test_transform_matches_closed_form(theta):
    op = wedge_np_kernel(theta)
    for xi in np.linspace(-10.0, 10.0, 21):
        K = mellin_transform(op, complex(xi))
        assert abs(K[0, 1] - closed_form(theta, xi)) <= 1e-8
        assert abs(K[1, 0] - closed_form(theta, xi)) <= 1e-8
        assert K[0, 0] == 0.0 and K[1, 1] == 0.0


@pytest.mark.parametrize("theta", (math.pi / 2, 1.5 * math.pi))
def test_transform_off_axis(theta):
    op = wedge_np_kernel(theta)
    # 0.99j reaches |u| = 3500 on the log scale, where cosh u overflows
    for lam in (0.5 + 0.4j, -2.0 - 0.6j, 3.0 + 0.8j, 0.3 + 0.99j, -5.0 - 0.99j):
        K = mellin_transform(op, lam)
        assert abs(K[0, 1] - closed_form(theta, lam)) <= 1e-8


@pytest.mark.parametrize("theta,lam", [
    (math.pi / 2, 0.0),
    (math.pi / 2, 1.3),
    (2.0 * math.pi / 3, -0.7 + 0.5j),
    (1.5 * math.pi, 2.0),
])
def test_closed_form_against_mpmath(theta, lam):
    """Independent oracle: direct high-precision Mellin quadrature."""
    amp = math.sin(theta) / math.pi

    def integrand(t):
        kappa = amp * t / (t * t - 2.0 * t * mpmath.cos(theta) + 1.0)
        return kappa * t ** (-1j * mpmath.mpc(lam) - 1)

    val = mpmath.quad(integrand, [0, 1, mpmath.inf])
    assert abs(complex(val) - closed_form(theta, lam)) <= 1e-10


def _stratum_operators():
    """(fixture, limit operator) for every vertex stratum of every fixture."""
    return [(name, op) for name in ALL_DOMAINS
            for op in limit_operators(
                parse_domain(domain_path(name))).values()]


def _ray_pair(d, side):
    return MellinOperator("k", np.array([[d]]), np.array([[side]]),
                          np.zeros((1, 1)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_symbols_match_quadrature():
    """Every stratum kernel's closed-form symbol against the quadrature of
    mellin_transform, on and off the real axis and out to |xi| = 800.
    Kernels with equal angle and side share one quadrature reference."""
    lams = np.array([0.0, 0.37, -2.5, 11.0, 0.6 + 0.45j, -3.0 - 0.7j,
                     0.95j, -0.9j, 40.0 + 0.9j, 200.0 - 0.3j, -800.0 + 0.5j,
                     800.0])
    reference = {}
    count = 0
    for name, op in _stratum_operators():
        kernel_part = _line_samples(op, lams.imag, lams.real) - op.delta
        for i, j in zip(*np.nonzero(op.side)):
            count += 1
            key = (op.d[i, j], op.side[i, j])
            if key not in reference:
                reference[key] = np.array([
                    mellin_transform(_ray_pair(*key), lam)[0, 0]
                    for lam in lams])
            err = np.max(np.abs(kernel_part[:, i, j] - reference[key]))
            assert err <= 1e-8, (name, op.vertex_id, err)
    assert count >= 50


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", (math.pi / 3, math.pi / 2, 2.0, 4.0))
def test_closed_form_near_zero(d):
    # subnormal lam must not reach the expm1 quotient; below |lam| = 1e-9
    # the symbol equals its limit at 0 to rounding
    limit = (math.pi - d) / math.pi
    lams = np.array([5e-324j, 2.2250738585e-313j, 1e-300 + 1e-300j, 1e-20,
                     1e-10j, -3e-9, 1e-8j, 1e-6 - 1e-6j])
    got = ray_pair_symbol(d, 1, lams)
    with mpmath.workdps(40):
        for lam, val in zip(lams, got):
            ref = complex(mpmath.sinh((mpmath.pi - d) * mpmath.mpc(lam))
                          / mpmath.sinh(mpmath.pi * mpmath.mpc(lam)))
            assert abs(val - ref) <= 1e-14, (lam, val, ref)
    assert np.allclose(got[:5], limit, rtol=1e-15, atol=0.0)


def test_window_empty_when_reference_is_singular():
    # c = 1/2 at a right angle: det(c + K(i*gamma)) touches 0 at gamma = 0
    assert admissible_weight_window(wedge_np_kernel(math.pi / 2), 0.5) is None
    # a crack tip at c = +-1: c*I + J is singular for every weight
    tip = _crack_tip()
    for c in (1.0, -1.0):
        assert admissible_weight_window(tip, c) is None
    # elsewhere the tip has no zero: the window runs to 2e-2 inside its strip
    lo, hi = validity_strip(tip)
    assert admissible_weight_window(tip, 3.0) == (lo + 2e-2, hi - 2e-2)


def test_window_ends_at_touching_zero():
    # two uncoupled copies of the right-angle wedge: the determinant is the
    # square of the single wedge's, so its zeros touch 0 without a sign
    # change, and the window must still end where the single wedge's does
    wedge = wedge_np_kernel(math.pi / 2)
    double = MellinOperator("double", np.kron(np.eye(2), wedge.d),
                            np.kron(np.eye(2, dtype=int), wedge.side),
                            np.zeros((4, 4)))
    c = 0.75
    grid = np.linspace(-0.98, 0.98, 241)

    def det(op):
        return np.linalg.det(c * np.eye(op.size)
                             + _line_samples(op, grid, 0.0 * grid)).real

    assert np.all(det(double) >= 0.0)
    assert np.allclose(det(double), det(wedge) ** 2, rtol=1e-12, atol=1e-15)
    lo, hi = admissible_weight_window(double, c)
    want = admissible_weight_window(wedge, c)
    assert abs(lo - want[0]) <= 1e-9 and abs(hi - want[1]) <= 1e-9
    assert 0.5 < hi < 0.6 and abs(lo + hi) <= 1e-9


def _crack_tip():
    # a straight crack tip: twin faces coupled by the jump, no kernel
    return MellinOperator("tip", np.zeros((2, 2)), np.zeros((2, 2), dtype=int),
                          np.array([[0.0, -1.0], [-1.0, 0.0]]))


def test_flat_wedge_is_removable_zero():
    # the general formula gives the flat wedge the symbol 0 exactly, since
    # expm1(0) = 0 (parse_domain rejects flat vertices, so no route has one)
    lam = np.array([0.0, 1e-12, 0.7, 3.0 - 0.4j, -2.0 + 0.9j])
    assert np.all(_line_samples(wedge_np_kernel(math.pi), lam.imag,
                                lam.real) == 0.0)
    with pytest.raises(MellinError):
        wedge_np_kernel(0.0)
    with pytest.raises(MellinError):
        wedge_np_kernel(2.0 * math.pi)


# -- validity strip and line sampling --------------------------------------

@pytest.mark.parametrize("theta", THETAS)
def test_validity_strip(theta):
    lo, hi = validity_strip(wedge_np_kernel(theta))
    assert lo == -1.0 and hi == 1.0


def test_symbol_guard_outside_strip():
    with pytest.raises(MellinError):
        symbol_on_line(wedge_np_kernel(math.pi / 2), 1.0, 1.5, [0.0, 1.0])
    # the tail bound needs xi_max > 0, and doubling 0 would never end;
    # an infinite xi_max has no finite scan grid
    op = wedge_np_kernel(math.pi / 2)
    for xi_max in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(MellinError, match="xi_max"):
            invertibility_scan(op, 1.0, 0.0, xi_max=xi_max)


def test_line_samples_match_adaptive_quadrature():
    op = wedge_np_kernel(2.0 * math.pi / 3)
    xi = np.array([0.0, 0.7, 3.0, 11.0])
    for gamma in (0.0, -0.5, 0.4):
        fast = _line_samples(op, gamma, xi)
        for k, x in enumerate(xi):
            slow = mellin_transform(op, complex(x, gamma))
            assert np.max(np.abs(fast[k] - slow)) <= 1e-9


@settings(max_examples=20, deadline=None)
@given(st.floats(min_value=0.0, max_value=15.0),
       st.floats(min_value=-0.8, max_value=0.8),
       st.sampled_from(THETAS))
def test_conjugate_symmetry(xi, gamma, theta):
    # real kernels: the symbol at -xi is the conjugate of the one at +xi
    op = wedge_np_kernel(theta)
    a = _line_samples(op, gamma, np.array([xi]))[0]
    b = _line_samples(op, gamma, np.array([-xi]))[0]
    assert np.max(np.abs(b - np.conj(a))) <= 1e-10


def test_symbol_real_on_axes_and_even():
    # the zero check on the reference line a = 0 needs a real symbol there,
    # and the window search mirrors one end because the symbol is even
    t = np.linspace(-3.0, 3.0, 13)
    lams = np.concatenate([t, 0.3j * t, [0.4 + 0.3j, -1.2 - 0.6j, 5.0 + 0.9j]])
    for name, op in _stratum_operators():
        sym = _line_samples(op, lams.imag, lams.real)
        assert np.max(np.abs(
            sym - _line_samples(op, -lams.imag, -lams.real))) <= 1e-14
        assert np.max(np.abs(sym[:26].imag)) <= 1e-14, (name, op.vertex_id)


# -- scans ------------------------------------------------------------------

def test_scan_wedge_inside_window():
    op = wedge_np_kernel(math.pi / 2)
    for c in (1.0, -1.0):
        res = invertibility_scan(op, c, 0.0)
        assert res.invertible
        assert res.margin > 0.3


def test_scan_wedge_at_symbol_zero():
    op = wedge_np_kernel(math.pi / 2)
    res = invertibility_scan(op, 1.0, 2.0 / 3.0)
    assert not res.invertible
    assert res.margin <= 1e-8
    assert abs(res.witness_xi) <= 0.1


def test_scan_beyond_window_is_invertible_again():
    # past the window endpoint the symbol is invertible once more (the
    # operator is Fredholm with a nonzero index there)
    op = wedge_np_kernel(math.pi / 2)
    res = invertibility_scan(op, 1.0, 0.8)
    assert res.invertible


def test_scan_pure_jump_tip():
    tip = _crack_tip()
    for c in (1.0, -1.0):
        res = invertibility_scan(tip, c, 0.0)
        assert not res.invertible
    res = invertibility_scan(tip, 3.0, 0.0)
    assert res.invertible


@pytest.mark.parametrize("c", (1.0, -1.0))
def test_scan_singular_at_infinity(c):
    # twin rays 0.01 apart with the crack jump: every sampled symbol is
    # invertible, yet c*I + delta, the symbol's limit as |xi| grows, is
    # singular at c = +-1, so the scan answers "singular" from the
    # asymptotic matrix, with no finite witness
    op = MellinOperator("twins", np.array([[0.0, 0.01],
                                           [2.0 * math.pi - 0.01, 0.0]]),
                        np.array([[0, 1], [-1, 0]]),
                        np.array([[0.0, -1.0], [-1.0, 0.0]]))
    sampled = symbol_on_line(op, c, 0.0, np.linspace(0.0, 50.0, 201))
    assert sampled.sigma_min.min() > 0.5
    res = invertibility_scan(op, c, 0.0)
    assert not res.invertible
    assert res.margin <= SCAN_TOL
    assert res.witness_xi == math.inf and res.xi_max_used == 50.0


def test_scan_short_range(square):
    # xi_max <= 2 scans one uniform grid, and the tail bound holds past
    # it; the margin at xi = 0 is the default scan's, bit for bit
    op = limit_operators(square)["a"]
    short = invertibility_scan(op, 1.0, -0.3, xi_max=1.5)
    assert short.invertible and short.xi_max_used == 1.5
    assert short.margin == 0.4388368811828197
    assert short.margin == invertibility_scan(op, 1.0, -0.3).margin


def test_scan_tail_extension_finds_the_zero(square):
    # the real zero of det at xi = 0.519 lies past xi_max = 0.25: the
    # doubling loop finds it on [0.5, 1.0] and stops there
    op = limit_operators(square)["a"]
    short = invertibility_scan(op, 0.37, 0.0, xi_max=0.25)
    assert not short.invertible and short.xi_max_used == 1.0
    assert short.witness_xi == 0.5191561041424595
    full = invertibility_scan(op, 0.37, 0.0)
    assert not full.invertible
    assert full.witness_xi == 0.5191561041425108


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_scan_is_even_in_the_weight(name):
    # the symbol is even in lam, so the line Im(lam) = +a carries the values
    # of Im(lam) = -a mirrored in xi, and both scans agree bit for bit
    ops = limit_operators(parse_domain(domain_path(name))).values()
    for op in ops:
        for c in (1.0, -1.0, 0.75):
            for a in (0.1, 0.55):
                r, s = (invertibility_scan(op, c, w) for w in (a, -a))
                assert (r.margin, r.witness_xi, r.invertible) == (
                    s.margin, s.witness_xi, s.invertible), (op.vertex_id, c, a)


@settings(max_examples=200, deadline=None)
@given(st.floats(min_value=1e-3, max_value=2.0 * math.pi - 1e-3),
       st.sampled_from((-1, 1)),
       st.floats(min_value=1e-3, max_value=800.0),
       st.floats(min_value=-1.0, max_value=1.0, exclude_min=True,
                 exclude_max=True))
@example(d=2.0, side=-1, xi=361.904829173994, gamma=0.9788346394768309)
def test_tail_majorant_bounds_symbol(d, side, xi, gamma):
    # |sinh((pi-d) lam) / sinh(pi lam)| <= cosh((pi-d) xi) / sinh(pi xi) on
    # the whole strip, checked against the closed form
    bound = tail_majorant(_ray_pair(d, side), xi)
    for lam in (xi + 1j * gamma, -xi + 1j * gamma):
        assert abs(ray_pair_symbol(d, side, lam)) <= bound * (1.0 + 1e-12)


def test_tail_majorant_decreases_on_fixture_strata():
    xi = np.geomspace(1e-2, XI_MAX_CAP, 60)
    for name, op in _stratum_operators():
        bounds = np.array([tail_majorant(op, x) for x in xi])
        assert np.all(np.diff(bounds) <= 0.0), (name, op.vertex_id)
        assert (bounds[0] > 0.0) == bool(np.any(op.side))


# -- weight windows --------------------------------------------------------

@pytest.mark.parametrize("c", (1.0, -1.0))
def test_wedge_window_right_angle(c):
    lo, hi = admissible_weight_window(wedge_np_kernel(math.pi / 2), c)
    assert abs(lo + 2.0 / 3.0) <= 1e-6
    assert abs(hi - 2.0 / 3.0) <= 1e-6


@pytest.mark.parametrize("c", (1.0, -1.0))
def test_wedge_window_hexagon_angle(c):
    lo, hi = admissible_weight_window(wedge_np_kernel(2.0 * math.pi / 3), c)
    assert abs(lo + 0.75) <= 1e-6
    assert abs(hi - 0.75) <= 1e-6


def test_wedge_window_reflection_symmetry():
    a = admissible_weight_window(wedge_np_kernel(math.pi / 2), 1.0)
    b = admissible_weight_window(wedge_np_kernel(1.5 * math.pi), 1.0)
    assert abs(a[0] - b[0]) <= 1e-6
    assert abs(a[1] - b[1]) <= 1e-6


def test_window_contains_helper():
    w = admissible_weight_window(wedge_np_kernel(math.pi / 2), 1.0)
    rep = WindowReport({"wedge": w}, w, (-2.0 / 3.0, 0.5), ())
    assert rep.contains(-0.5, 0.5)
    assert not rep.contains(-0.9, 0.5)
    assert not WindowReport({"wedge": None}, None, (-2.0 / 3.0, 0.5),
                            ()).contains(-0.1, 0.1)


# -- weight lines ----------------------------------------------------------

def test_weight_line_defaults():
    # the weight a selects the line Im(lam) = -a, as analyze reports it
    res = CliRunner().invoke(main, ["analyze", domain_path("square"),
                                    "--a", "0.25"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["line_offset"] == -0.25
    assert line_offset(-0.5) == 0.5
    assert math.copysign(1.0, line_offset(0.0)) == 1.0


# -- windows against an independent winding-number oracle -------------------
#
# The oracle builds det(c*I + delta + K(lam)) from side*sinh((pi-d) lam) /
# sinh(pi lam) as written, on a dense uniform xi grid, and shares no code
# with the window search.  By the argument principle the winding along the
# line Im(lam) = gamma changes exactly where the line crosses a zero.

ORACLE_XI = np.linspace(0.0, 20.0, 5001)        # kernel part < 1e-13 at 20
ORACLE_LINES = np.linspace(-0.925, 0.925, 38)   # 0.05 apart, off 0 and 1/2


def _oracle_det(op, c, lam):
    lam = np.asarray(lam)[..., None, None]
    kernel = op.side * np.sinh((math.pi - op.d) * lam) / np.sinh(math.pi * lam)
    return np.linalg.det(c * np.eye(op.size) + op.delta + kernel)


def _oracle_windings(op, c, gammas, centre=None):
    """Windings of the oracle det on the lines Im(lam) = gamma, over
    xi >= 0 (the other half is its conjugate).  centre adds samples 5e-7
    apart within 2e-3 of it, for lines within 1e-6 of a zero there."""
    xi = ORACLE_XI if centre is None else np.union1d(
        ORACLE_XI, np.abs(centre + np.linspace(-2e-3, 2e-3, 8001)))
    f = _oracle_det(op, c, xi + 1j * np.asarray(gammas)[:, None])
    turn = np.angle(f[:, 1:] / f[:, :-1])
    assert np.max(np.abs(turn)) < math.pi / 2, "oracle grid too coarse"
    far = np.linalg.det(c * np.eye(op.size) + op.delta)
    wind = (turn.sum(axis=1) + np.angle(far / f[:, -1])) / math.pi
    assert np.max(np.abs(wind - np.round(wind))) < 1e-6
    return np.round(wind)


def _zero_xi(op, c, gamma):
    # xi of the smallest |det| on a line that holds a zero
    dets = _oracle_det(op, c, ORACLE_XI + 1j * gamma)
    return ORACLE_XI[np.argmin(np.abs(dets))]


@pytest.mark.parametrize("c", (0.2, 0.37, -0.3, 0.5, 1.0))
@pytest.mark.parametrize("name", ("square", "lshape", "hexagon"))
def test_window_ends_where_the_winding_changes(name, c):
    ops = {(op.d.tobytes(), op.side.tobytes(), op.delta.tobytes()): op
           for op in limit_operators(parse_domain(domain_path(name))).values()}
    for op in ops.values():
        wind = _oracle_windings(op, c, ORACLE_LINES)
        assert np.all(np.diff(wind) >= 0) or np.all(np.diff(wind) <= 0)
        window = admissible_weight_window(op, c)
        if window is None:
            # a zero within 1e-6 of the reference line: w(-g) = -w(g)
            g = 1e-6
            assert _oracle_windings(op, c, [g], _zero_xi(op, c, g))[0] != 0
            continue
        lo, hi = window
        inside = (-hi < ORACLE_LINES) & (ORACLE_LINES < -lo)
        assert np.all(wind[inside] == 0), (op.vertex_id, window)
        for end in window:
            if abs(end) >= 0.98 - 1e-12:
                continue                  # the strip's edge, not a zero
            g = line_offset(end)
            step = math.copysign(1e-6, g)
            w_in, w_out = _oracle_windings(op, c, [g - step, g + step],
                                           _zero_xi(op, c, g))
            assert w_in == 0 and w_out != 0, (op.vertex_id, end)
