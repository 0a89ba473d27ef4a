"""Stratification bookkeeping and limit operators."""

import math

import numpy as np
import pytest

import polyfred as pf
from polyfred.geometry import desingularize_boundary, parse_domain, unfold
from polyfred.groupoid import (
    MellinOperator,
    OperatorDescriptor,
    StratumError,
    brute_force_counts,
    build_groupoid,
    limit_operator,
    orbit_representatives,
    zero_mellin_operator,
)
from polyfred.layerpot import np_operator_descriptor
from polyfred.mellin import mellin_transform, wedge_np_kernel

from conftest import ALL_DOMAINS, domain_path


def _groupoid(name):
    return build_groupoid(desingularize_boundary(
        unfold(parse_domain(domain_path(name)))))


# -- stratum enumeration ---------------------------------------------------

@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_strata_match_brute_force(name):
    d = parse_domain(domain_path(name))
    u = unfold(d)
    G = build_groupoid(desingularize_boundary(u))
    bc = brute_force_counts(u)
    sizes = {}
    for s in G.boundary_strata:
        base = u.uvertices[s.vertex_id].base_vertex_id
        sizes[base] = sizes.get(base, 0) + s.size
    assert sizes == bc["stratum_sizes"]
    assert u.alpha == bc["alpha"]
    assert u.m_prime == bc["m_prime"]


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_orbit_representative_count(name):
    G = _groupoid(name)
    reps = orbit_representatives(G)
    assert len(reps) == len(G.boundary_strata) + 1
    assert reps[0][0] == "interior"


def test_stratum_families(slit_square):
    G = build_groupoid(desingularize_boundary(unfold(slit_square)))
    families = {s.vertex_id: s.family for s in G.boundary_strata}
    assert families["a"] == "noncrack"
    assert families["p#c0"] == families["t#c0"] == "crack_cover"
    assert G.kind == "crack"


def test_kind_mismatch_raises(square, slit_square):
    M_plain = desingularize_boundary(unfold(square))
    M_crack = desingularize_boundary(unfold(slit_square))
    with pytest.raises(StratumError):
        build_groupoid(M_plain, kind="crack")
    with pytest.raises(StratumError):
        build_groupoid(M_crack, kind="no_crack")


def test_stratum_lookup(square):
    G = _groupoid("square")
    assert G.stratum("a").vertex_id == "a"
    with pytest.raises(KeyError):
        G.stratum("zz")
    assert G.total_component_count == sum(s.size for s in G.boundary_strata)


# -- limit operators -------------------------------------------------------

def test_corner_limit_matches_wedge(square):
    """The frozen corner operator of the square equals the right-angle wedge."""
    u = unfold(square)
    G = build_groupoid(desingularize_boundary(u))
    P = np_operator_descriptor(u, 1.0)
    op = limit_operator(P, G.stratum("a"))
    ref = wedge_np_kernel(math.pi / 2)
    for lam in (0.0, 0.5, 2.0 + 0.3j, -1.7 + 0.5j):
        got = mellin_transform(op, lam)
        want = mellin_transform(ref, lam)
        assert np.allclose(got, want, atol=1e-10)


def test_crack_tip_limit_is_pure_jump(slit_square):
    u = unfold(slit_square)
    G = build_groupoid(desingularize_boundary(u))
    P = np_operator_descriptor(u, 1.0)
    op = limit_operator(P, G.stratum("t#c0"))
    # a straight crack tip has collinear faces: no integral kernel, only the
    # twin jump coupling
    assert not np.any(op.side)
    assert np.array_equal(op.delta, [[0.0, -1.0], [-1.0, 0.0]])


def test_homogeneity_gate():
    stratum = _groupoid("square").stratum("a")
    bad = OperatorDescriptor(1.0, local_kernels={
        ("a", stratum.labels[0], stratum.labels[1]):
            lambda r, s: 1.0 / (r + s + 1.0)})
    with pytest.raises(StratumError):
        limit_operator(bad, stratum)


def test_rejects_kernel_that_is_not_a_ray_pair():
    # homogeneous of degree -1, so it passes the homogeneity gate, but the
    # limit operator only holds ray-pair kernels
    stratum = _groupoid("square").stratum("a")
    other = OperatorDescriptor(1.0, local_kernels={
        ("a", stratum.labels[0], stratum.labels[1]):
            lambda r, s: r / (r * r + s * s)})
    with pytest.raises(StratumError, match="not a ray-pair kernel"):
        limit_operator(other, stratum)


def test_jump_shape_gate():
    stratum = _groupoid("square").stratum("a")
    bad = OperatorDescriptor(1.0, jump={"a": np.zeros((3, 3))})
    with pytest.raises(StratumError):
        limit_operator(bad, stratum)


def test_missing_kernels_mean_zero():
    stratum = _groupoid("square").stratum("a")
    P = OperatorDescriptor(1.0)
    op = limit_operator(P, stratum)
    assert op.is_zero


def test_zero_operator():
    op = zero_mellin_operator("v", 3)
    assert op.is_zero
    assert op.size == 3
    t = np.geomspace(0.1, 10.0, 32)
    f = np.ones((3, len(t)), dtype=complex)
    assert np.allclose(op.apply(f, t), 0.0)


def test_apply_diagonalizes_wedge():
    """Mellin convolution acts on power functions by symbol multiplication."""
    op = wedge_np_kernel(2.0 * math.pi / 3)
    u = np.linspace(-24.0, 24.0, 512)
    t = np.exp(u)
    lam = 0.7
    f = np.stack([t ** (1j * lam), np.zeros_like(t)]).astype(complex)
    out = op.apply(f, t)
    want = mellin_transform(op, complex(lam)) @ f
    mid = np.abs(u) <= 8.0
    assert np.max(np.abs(out[:, mid] - want[:, mid])) <= 1e-6
