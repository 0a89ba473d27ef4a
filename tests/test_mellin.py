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
from hypothesis import given, settings
from click.testing import CliRunner
from hypothesis import strategies as st

from polyfred.geometry import desingularize_boundary, parse_domain, unfold
from polyfred.cli import main
from polyfred.groupoid import MellinOperator, build_groupoid, limit_operator
from polyfred.layerpot import np_operator_descriptor
from polyfred.mellin import (
    MellinError,
    _line_samples,
    admissible_weight_window,
    invertibility_scan,
    line_determinant,
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
    for lam in (0.5 + 0.4j, -2.0 - 0.6j, 3.0 + 0.8j):
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


def _stratum_kernels():
    """(fixture, vertex id, kernel) for every kernel of every limit operator
    of every fixture."""
    out = []
    for name in ALL_DOMAINS:
        u = unfold(parse_domain(domain_path(name)))
        P = np_operator_descriptor(u, 1.0)
        for stratum in build_groupoid(desingularize_boundary(u)).boundary_strata:
            op = limit_operator(P, stratum)
            out.extend((name, stratum.vertex_id, ker)
                       for row in op.entries for ker in row if ker is not None)
    return out


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_closed_form_symbols_match_quadrature():
    """Every stratum kernel's closed-form symbol against the quadrature of
    mellin_transform, on and off the real axis and out to |xi| = 800.
    Kernels with equal values share one quadrature reference."""
    lams = np.array([0.0, 0.37, -2.5, 11.0, 0.6 + 0.45j, -3.0 - 0.7j,
                     0.95j, -0.9j, 40.0 + 0.9j, 200.0 - 0.3j, -800.0 + 0.5j,
                     800.0])
    probe = np.array([0.3, 1.7, 4.0])
    reference = {}
    kernels = _stratum_kernels()
    assert len(kernels) >= 50
    for name, vid, ker in kernels:
        key = tuple(np.round(ker(probe), 12))
        if key not in reference:
            op = MellinOperator("k", 1, ((ker,),), np.zeros((1, 1)))
            reference[key] = np.array([mellin_transform(op, lam)[0, 0]
                                       for lam in lams])
        err = np.max(np.abs(ker.symbol(lams) - reference[key]))
        assert err <= 1e-8, (name, vid, err)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("d", (math.pi / 3, math.pi / 2, 2.0, 4.0))
def test_closed_form_near_zero(d):
    # subnormal lam must not reach the expm1 quotient; below |lam| = 1e-9
    # the symbol equals its limit at 0 to rounding
    symbol = ray_pair_symbol(d, 1)
    limit = (math.pi - d) / math.pi
    lams = np.array([5e-324j, 2.2250738585e-313j, 1e-300 + 1e-300j, 1e-20,
                     1e-10j, -3e-9, 1e-8j, 1e-6 - 1e-6j])
    got = symbol(lams)
    with mpmath.workdps(40):
        for lam, val in zip(lams, got):
            ref = complex(mpmath.sinh((mpmath.pi - d) * mpmath.mpc(lam))
                          / mpmath.sinh(mpmath.pi * mpmath.mpc(lam)))
            assert abs(val - ref) <= 1e-14, (lam, val, ref)
    assert np.allclose(got[:5], limit, rtol=1e-15, atol=0.0)


def test_line_samples_fallback_without_closed_form():
    # a kernel with no hints goes through the trapezoid line sampler
    wedge = wedge_np_kernel(math.pi / 2)
    kappa = wedge.entries[0][1]
    bare = MellinOperator("bare", 2, ((None, lambda t: kappa(t)),
                                      (lambda t: kappa(t), None)),
                          np.zeros((2, 2)))
    xi = np.array([0.0, 0.7, 3.0, 11.0])
    for gamma in (0.0, -0.5, 0.4):
        fast = _line_samples(bare, gamma, xi)
        assert np.max(np.abs(fast - _line_samples(wedge, gamma, xi))) <= 1e-9


def test_line_determinant_vectorized():
    op = wedge_np_kernel(2.0 * math.pi / 3)
    grid = np.linspace(-0.9, 0.9, 31)
    dets = line_determinant(op, 0.75, grid)
    assert dets.shape == grid.shape
    assert np.allclose(dets, [line_determinant(op, 0.75, g) for g in grid],
                       rtol=0.0, atol=1e-15)


def test_window_empty_when_reference_is_singular():
    # c = 1/2 at a right angle: det(c + K(i*gamma)) touches 0 at gamma = 0
    rep = admissible_weight_window(wedge_np_kernel(math.pi / 2), 0.5)
    assert rep.global_window is None
    assert rep.per_vertex == {"wedge": None}
    assert not rep.contains(-0.1, 0.1)
    # a crack tip at c = +-1: c*I + J is singular for every weight
    tip = MellinOperator("tip", 2, ((None, None), (None, None)),
                         np.array([[0.0, -1.0], [-1.0, 0.0]]))
    for c in (1.0, -1.0):
        assert admissible_weight_window(tip, c).global_window is None
    assert admissible_weight_window(tip, 3.0).global_window == (-1.5, 1.5)


def test_window_ends_at_touching_zero():
    # two uncoupled copies of the right-angle wedge: the determinant is the
    # square of the single wedge's, so its zeros touch 0 without a sign
    # change, and the window must still end where the single wedge's does
    wedge = wedge_np_kernel(math.pi / 2)
    kappa = wedge.entries[0][1]
    entries = ((None, kappa, None, None), (kappa, None, None, None),
               (None, None, None, kappa), (None, None, kappa, None))
    double = MellinOperator("double", 4, entries, np.zeros((4, 4)))
    c = 0.75
    grid = np.linspace(-0.98, 0.98, 241)
    dets = line_determinant(double, c, grid)
    assert np.all(dets >= 0.0)
    assert np.allclose(dets, line_determinant(wedge, c, grid) ** 2,
                       rtol=1e-12, atol=1e-15)
    lo, hi = admissible_weight_window(double, c).global_window
    want = admissible_weight_window(wedge, c).global_window
    assert abs(lo - want[0]) <= 1e-9 and abs(hi - want[1]) <= 1e-9
    assert 0.5 < hi < 0.6 and abs(lo + hi) <= 1e-9


def test_flat_wedge_is_removable_zero():
    op = wedge_np_kernel(math.pi)
    assert op.is_zero and op.removable_flat
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
        symbol_on_line(wedge_np_kernel(math.pi / 2), 1.0, 1.5)


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


def test_line_determinant_real_and_even():
    op = wedge_np_kernel(math.pi / 2)
    for c in (1.0, -1.0):
        for g in (0.0, 0.3, -0.3):
            d = line_determinant(op, c, g)
            assert isinstance(d, float)
            assert math.isclose(d, line_determinant(op, c, -g), abs_tol=1e-9)


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
    tip = MellinOperator("tip", 2, ((None, None), (None, None)),
                         np.array([[0.0, -1.0], [-1.0, 0.0]]))
    for c in (1.0, -1.0):
        res = invertibility_scan(tip, c, 0.0)
        assert not res.invertible
    res = invertibility_scan(tip, 3.0, 0.0)
    assert res.invertible


def test_tail_majorant_positive():
    op = wedge_np_kernel(math.pi / 2)
    assert tail_majorant(op, 0.0) > 0.0


# -- weight windows --------------------------------------------------------

@pytest.mark.parametrize("c", (1.0, -1.0))
def test_wedge_window_right_angle(c):
    rep = admissible_weight_window(wedge_np_kernel(math.pi / 2), c)
    lo, hi = rep.global_window
    assert abs(lo + 2.0 / 3.0) <= 1e-6
    assert abs(hi - 2.0 / 3.0) <= 1e-6


@pytest.mark.parametrize("c", (1.0, -1.0))
def test_wedge_window_hexagon_angle(c):
    rep = admissible_weight_window(wedge_np_kernel(2.0 * math.pi / 3), c)
    lo, hi = rep.global_window
    assert abs(lo + 0.75) <= 1e-6
    assert abs(hi - 0.75) <= 1e-6


def test_wedge_window_reflection_symmetry():
    a = admissible_weight_window(wedge_np_kernel(math.pi / 2), 1.0)
    b = admissible_weight_window(wedge_np_kernel(1.5 * math.pi), 1.0)
    assert abs(a.global_window[0] - b.global_window[0]) <= 1e-6
    assert abs(a.global_window[1] - b.global_window[1]) <= 1e-6


def test_window_contains_helper():
    rep = admissible_weight_window(wedge_np_kernel(math.pi / 2), 1.0)
    assert rep.contains(-0.5, 0.5)
    assert not rep.contains(-0.9, 0.5)


# -- weight lines ----------------------------------------------------------

def test_weight_line_defaults():
    # the weight a selects the line Im(lam) = -a, as analyze reports it
    res = CliRunner().invoke(main, ["analyze", domain_path("square"),
                                    "--a", "0.25"])
    assert res.exit_code == 0
    assert json.loads(res.stdout)["line_offset"] == -0.25
    assert line_offset(-0.5) == 0.5
    assert math.copysign(1.0, line_offset(0.0)) == 1.0
