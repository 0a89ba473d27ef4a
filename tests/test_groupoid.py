"""Stratification bookkeeping and limit operators."""

import math

import numpy as np
import pytest

import polyfred as pf
from polyfred.geometry import desingularize_boundary, parse_domain, unfold
from polyfred.groupoid import (
    MellinOperator,
    StratumError,
    brute_force_counts,
    build_groupoid,
    limit_operator,
    orbit_representatives,
    zero_mellin_operator,
)
from polyfred.mellin import mellin_transform, ray_pair_kernel, wedge_np_kernel

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
    op = limit_operator(unfold(square), "a")
    ref = wedge_np_kernel(math.pi / 2)
    for lam in (0.0, 0.5, 2.0 + 0.3j, -1.7 + 0.5j):
        got = mellin_transform(op, lam)
        want = mellin_transform(ref, lam)
        assert np.allclose(got, want, atol=1e-10)


def test_crack_tip_limit_is_pure_jump(slit_square):
    op = limit_operator(unfold(slit_square), "t#c0")
    # a straight crack tip has collinear faces: no integral kernel, only the
    # twin jump coupling
    assert not np.any(op.side)
    assert np.array_equal(op.delta, [[0.0, -1.0], [-1.0, 0.0]])


def _pairwise_limit_operator(u, uid):
    """(d, side, delta) built entry by entry: a ray-pair kernel for every
    non-collinear ordered pair of edge-ends, the unit jump between twin
    crack faces."""
    labels = u.uvertices[uid].labels
    k = len(labels)
    d = np.zeros((k, k))
    side = np.zeros((k, k), dtype=int)
    delta = np.zeros((k, k))
    for i, la in enumerate(labels):
        for j, lb in enumerate(labels):
            if abs(math.sin(la.angle - lb.angle)) > 1e-14:
                ker = ray_pair_kernel(la.angle, lb.angle, lb.side)
                d[i, j], side[i, j] = ker.d, ker.side
            if u.uedges[la.uedge_id].twin_uid == lb.uedge_id:
                delta[i, j] = -1.0
    return d, side, delta


@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_limit_operator_matches_pairwise_reference(name):
    u = unfold(parse_domain(domain_path(name)))
    for uid in u.uvertices:
        op = limit_operator(u, uid)
        assert op.vertex_id == uid
        for got, want in zip((op.d, op.side, op.delta),
                             _pairwise_limit_operator(u, uid)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
            assert got.tobytes() == want.tobytes()     # signed zeros too


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
