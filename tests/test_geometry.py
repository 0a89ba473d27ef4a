"""Domain parsing, vertex analysis, unfolding, and distance functions."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import polyfred as pf
from polyfred.geometry import (
    DomainError,
    UnfoldedDomain,
    VertexKind,
    desingularize_boundary,
    interior_angles,
    parse_domain,
    smoothed_distance,
    theta0,
    unfold,
)

from conftest import (ALL_DOMAINS, MALFORMED_DOMAINS, domain_doc, domain_path,
                      scaled_doc)

TWO_PI = 2.0 * math.pi


# -- parsing and validation ------------------------------------------------

@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_fixtures_parse(name):
    d = parse_domain(domain_path(name))
    assert d.loop, "every domain has an outer boundary loop"


def test_parse_accepts_dict_and_path(tmp_path):
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0},
                        {"id": "b", "x": 1, "y": 0},
                        {"id": "c", "x": 0, "y": 1}],
           "edges": [{"id": "e0", "from": "a", "to": "b"},
                     {"id": "e1", "from": "b", "to": "c"},
                     {"id": "e2", "from": "c", "to": "a"}]}
    path = tmp_path / "triangle.json"
    path.write_text(json.dumps(doc))
    d1, d2 = parse_domain(doc), parse_domain(str(path))
    assert set(d1.vertices) == set(d2.vertices) == {"a", "b", "c"}
    assert d1.loop == d2.loop


def test_duplicate_ids_rejected():
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0},
                        {"id": "a", "x": 1, "y": 0},
                        {"id": "c", "x": 0, "y": 1}],
           "edges": [{"id": "e0", "from": "a", "to": "c"}]}
    with pytest.raises(DomainError):
        parse_domain(doc)


def test_unknown_vertex_reference_rejected():
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0}],
           "edges": [{"id": "e0", "from": "a", "to": "zz"}]}
    with pytest.raises(DomainError):
        parse_domain(doc)


def test_open_boundary_rejected():
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0},
                        {"id": "b", "x": 1, "y": 0},
                        {"id": "c", "x": 0, "y": 1}],
           "edges": [{"id": "e0", "from": "a", "to": "b"},
                     {"id": "e1", "from": "b", "to": "c"}]}
    with pytest.raises(DomainError):
        parse_domain(doc)


def test_flat_vertex_rejected():
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0},
                        {"id": "m", "x": 1, "y": 0},
                        {"id": "b", "x": 2, "y": 0},
                        {"id": "c", "x": 1, "y": 1}],
           "edges": [{"id": "e0", "from": "a", "to": "m"},
                     {"id": "e1", "from": "m", "to": "b"},
                     {"id": "e2", "from": "b", "to": "c"},
                     {"id": "e3", "from": "c", "to": "a"}]}
    with pytest.raises(DomainError):
        parse_domain(doc)


def test_crack_arc_rejected():
    doc = {"vertices": [{"id": "a", "x": 2, "y": 0},
                        {"id": "b", "x": 2.5, "y": 0}],
           "edges": [{"id": "rim", "kind": "arc",
                      "params": {"center": [0, 0], "radius": 3.0,
                                 "theta_start": 0.0, "theta_end": TWO_PI}},
                     {"id": "k", "kind": "arc", "from": "a", "to": "b",
                      "crack": True,
                      "params": {"center": [0, 0], "radius": 2.0,
                                 "theta_start": 0.0, "theta_end": 0.3}}]}
    with pytest.raises(DomainError):
        parse_domain(doc)


INTERSECTING = {
    "crossing-cracks": {
        "vertices": [{"id": "a", "x": -1, "y": -1},
                     {"id": "b", "x": 1, "y": -1},
                     {"id": "c", "x": 1, "y": 1},
                     {"id": "d", "x": -1, "y": 1},
                     {"id": "p", "x": -0.5, "y": 0.0},
                     {"id": "q", "x": 0.5, "y": 0.0},
                     {"id": "r", "x": 0.0, "y": -0.5},
                     {"id": "s", "x": 0.0, "y": 0.5}],
        "edges": [{"id": "e0", "from": "a", "to": "b"},
                  {"id": "e1", "from": "b", "to": "c"},
                  {"id": "e2", "from": "c", "to": "d"},
                  {"id": "e3", "from": "d", "to": "a"},
                  {"id": "k0", "from": "p", "to": "q", "crack": True},
                  {"id": "k1", "from": "r", "to": "s", "crack": True}]},
    **MALFORMED_DOMAINS,
}


@pytest.mark.parametrize("name", INTERSECTING)
def test_intersecting_edges_rejected(name):
    with pytest.raises(DomainError):
        parse_domain(INTERSECTING[name])


@pytest.mark.parametrize("f", (1e-10, 1e-8, 1e4))
def test_validation_is_scale_free(f):
    # the gap tolerance scales with the domain: the square accepted at
    # every scale with the same angles, and every malformed domain rejected
    with open(domain_path("square")) as fh:
        doc = json.load(fh)
    want = interior_angles(parse_domain(doc))
    assert interior_angles(parse_domain(scaled_doc(doc, f))) == want
    for bad in MALFORMED_DOMAINS.values():
        with pytest.raises(DomainError):
            parse_domain(scaled_doc(bad, f))


# the angle 2.04 rad lies midway between two of the 64 points that stand in
# for the unit circle in the intersection checks
ARC_ANGLE = 2.04


def _slit_disk_with_tip_at(radius):
    with open(domain_path("slit_disk")) as fh:
        doc = json.load(fh)
    tip = next(v for v in doc["vertices"] if v["id"] == "t")
    tip["x"], tip["y"] = (radius * math.cos(ARC_ANGLE),
                          radius * math.sin(ARC_ANGLE))
    return doc


def _circle_with_crack(r0, r1):
    with open(domain_path("circle")) as fh:
        doc = json.load(fh)
    doc["vertices"] = [{"id": v, "x": r * math.cos(ARC_ANGLE),
                        "y": r * math.sin(ARC_ANGLE)}
                       for v, r in (("p", r0), ("q", r1))]
    doc["edges"].append({"id": "k", "from": "p", "to": "q", "crack": True})
    return doc


# (document, whether it is a domain) for documents whose arcs the
# intersection checks misjudge
ARC_MISJUDGED = {
    # the slit leaves the disk through the rim, which it shares a vertex with
    "slit-disk-tip-at-1.1": (_slit_disk_with_tip_at(1.1), False),
    "slit-disk-tip-at-1.5": (_slit_disk_with_tip_at(1.5), False),
    # the crack crosses the rim between two of its 64 points
    "crack-across-the-rim": (_circle_with_crack(0.9999, 1.0001), False),
    # the crack stays 1e-3 inside the rim, where the 64-point chord runs
    "crack-inside-the-rim": (_circle_with_crack(0.5, 0.999), True),
}


@pytest.mark.xfail(strict=True, raises=(DomainError, pytest.fail.Exception),
                   reason="ROADMAP item 19: arcs are checked as 64-point "
                   "polylines, and edges that share a vertex are not checked")
@pytest.mark.parametrize("name", ARC_MISJUDGED)
def test_arc_intersection_checks_are_exact(name):
    doc, is_domain = ARC_MISJUDGED[name]
    if is_domain:
        parse_domain(doc)
    else:
        with pytest.raises(DomainError):
            parse_domain(doc)


def _segments_meet(p, q, r, s, tol) -> bool:
    """Whether the segments pq and rs cross or come within tol of each
    other, decided in exact rational arithmetic."""
    p, q, r, s = ([Fraction(c) for c in pt] for pt in (p, q, r, s))

    def orient(u, v, w):
        return (v[0] - u[0]) * (w[1] - u[1]) - (v[1] - u[1]) * (w[0] - u[0])

    def dist2(u, a, b):
        # squared distance from u to the segment ab
        ab = (b[0] - a[0], b[1] - a[1])
        au = (u[0] - a[0], u[1] - a[1])
        t = min(max((au[0] * ab[0] + au[1] * ab[1])
                    / (ab[0] ** 2 + ab[1] ** 2), 0), 1)
        return (au[0] - t * ab[0]) ** 2 + (au[1] - t * ab[1]) ** 2

    o = [orient(p, q, r), orient(p, q, s), orient(r, s, p), orient(r, s, q)]
    if o[0] * o[1] < 0 and o[2] * o[3] < 0:
        return True
    return min(dist2(p, r, s), dist2(q, r, s), dist2(r, p, q),
               dist2(s, p, q)) < Fraction(tol) ** 2


@st.composite
def star_polygons(draw):
    """k in 3..7 vertices at sorted polar angles, gaps >= 0.15 (the wrap
    included), radii in [0.4, 1.6], joined in angle order; with k >= 4,
    one vertex may be snapped onto an edge it is not on."""
    k = draw(st.integers(3, 7))
    shares = draw(st.lists(st.floats(0.0, 1.0), min_size=k, max_size=k))
    if not sum(shares):
        shares = [1.0] * k
    gaps = [0.15 + (TWO_PI - 0.15 * k) * w / sum(shares) for w in shares]
    start = draw(st.floats(0.0, TWO_PI))
    angles = [start + sum(gaps[:i]) for i in range(k)]
    radii = draw(st.lists(st.floats(0.4, 1.6), min_size=k, max_size=k))
    pts = [(r * math.cos(t), r * math.sin(t)) for r, t in zip(radii, angles)]
    if k >= 4 and draw(st.booleans()):
        i = draw(st.integers(0, k - 1))
        j = (i + draw(st.integers(1, k - 2))) % k     # edge j -> j+1 misses i
        s = draw(st.floats(0.05, 0.95))
        (x0, y0), (x1, y1) = pts[j], pts[(j + 1) % k]
        pts[i] = (x0 + s * (x1 - x0), y0 + s * (y1 - y0))
    return pts


@settings(max_examples=300, deadline=None)
@given(star_polygons())
def test_polygon_accepted_iff_no_edges_meet(pts):
    # an independent oracle for the gap rule on straight edges: exact
    # orientation predicates on every pair of edges that share no vertex
    k = len(pts)
    edges = [(pts[i], pts[(i + 1) % k]) for i in range(k)]
    # the validator's tolerance: 1e-9 of the largest edge length or
    # vertex coordinate
    tol = 1e-9 * max([math.dist(*e) for e in edges]
                     + [abs(x) for p in pts for x in p])
    meet = any(_segments_meet(*edges[i], *edges[j], tol)
               for i in range(k) for j in range(i + 2, k)
               if (j + 1) % k != i)
    doc = domain_doc({f"v{i}": p for i, p in enumerate(pts)},
                     {f"e{i}": (f"v{i}", f"v{(i + 1) % k}") for i in range(k)})
    try:
        parse_domain(doc)
        accepted = True
    except DomainError:
        accepted = False
    assert accepted == (not meet)


# -- loop orientation and angles -------------------------------------------

@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_loop_is_counterclockwise(name):
    d = parse_domain(domain_path(name))
    assert d._signed_area(d.loop) > 0


def test_interior_angles_square(square):
    angs = sorted(th for _, th in interior_angles(square))
    assert np.allclose(angs, [math.pi / 2] * 4, atol=1e-12)


def test_interior_angles_lshape(lshape):
    angs = sorted(th for _, th in interior_angles(lshape))
    assert np.allclose(angs[:5], [math.pi / 2] * 5, atol=1e-12)
    assert math.isclose(angs[5], 1.5 * math.pi, abs_tol=1e-12)


def test_interior_angles_hexagon(hexagon):
    angs = [th for _, th in interior_angles(hexagon)]
    assert np.allclose(angs, [2.0 * math.pi / 3] * 6, atol=1e-12)


def test_theta0_values():
    # min over angles of pi/theta and pi/(2*pi - theta)
    assert theta0([math.pi / 2] * 4) == 2.0 / 3.0
    assert theta0([math.pi / 2] * 5 + [1.5 * math.pi]) == 2.0 / 3.0
    assert math.isclose(theta0([2.0 * math.pi / 3] * 6), 0.75, abs_tol=1e-15)


def test_theta0_rejects_out_of_range():
    with pytest.raises(ValueError):
        theta0([0.0])
    with pytest.raises(ValueError):
        theta0([TWO_PI])
    with pytest.raises(ValueError):
        theta0([])


@given(st.floats(min_value=0.05, max_value=TWO_PI - 0.05))
def test_theta0_reflection_symmetry(th):
    assert theta0([th]) == theta0([TWO_PI - th])


# -- crack vertex classification -------------------------------------------

def test_slit_square_vertex_kinds(slit_square):
    info = slit_square.vertex_info
    for vid in ("a", "b", "c", "d"):
        assert info[vid].kind == VertexKind.CONICAL
        assert info[vid].ramification == 1
    for vid in ("p", "t"):
        # interior crack tips see the full plane around them
        assert info[vid].kind == VertexKind.INNER_CRACK
        assert info[vid].ramification == 1
        assert math.isclose(sum(s.measure for s in info[vid].sectors),
                            TWO_PI, abs_tol=1e-9)


def test_slit_disk_vertex_kinds(slit_disk):
    info = slit_disk.vertex_info
    assert info["j"].kind == VertexKind.OUTER_CRACK
    assert info["j"].ramification == 2
    assert info["t"].kind == VertexKind.INNER_CRACK
    assert info["t"].ramification == 1


def test_tcrack_junction(tcrack_square):
    info = tcrack_square.vertex_info
    assert info["j"].kind == VertexKind.INNER_CRACK
    assert info["j"].ramification == 3
    assert len(info["j"].sectors) == 3
    for vid in ("t1", "t2", "t3"):
        assert info[vid].ramification == 1


def _square_with_cracks(*tips):
    """The unit square with one crack from corner a to each tip."""
    doc = {"vertices": [{"id": "a", "x": 0, "y": 0}, {"id": "b", "x": 1, "y": 0},
                        {"id": "c", "x": 1, "y": 1}, {"id": "d", "x": 0, "y": 1}],
           "edges": [{"id": "s", "from": "a", "to": "b"},
                     {"id": "e", "from": "b", "to": "c"},
                     {"id": "n", "from": "c", "to": "d"},
                     {"id": "w", "from": "d", "to": "a"}]}
    for i, (x, y) in enumerate(tips):
        doc["vertices"].append({"id": f"t{i}", "x": x, "y": y})
        doc["edges"].append({"id": f"k{i}", "from": "a", "to": f"t{i}",
                             "crack": True})
    return parse_domain(doc)


def test_crack_from_a_corner():
    d = _square_with_cracks((0.4, 0.4))
    info = d.vertex_info["a"]
    assert info.kind == VertexKind.CONICAL_CRACK
    assert info.ramification == 2
    u = unfold(d)
    assert u.alpha == 3 and u.m_prime == 0
    covers = {uid: uv for uid, uv in u.uvertices.items()
              if uv.base_vertex_id == "a"}
    assert list(covers) == ["a#c0", "a#c1"]
    assert all(uv.family == "crack_cover" and len(uv.sectors) == 1
               for uv in covers.values())
    # one cover on each face of the crack
    labels = {uid: [(r.uedge_id, r.end, r.side) for r in uv.labels]
              for uid, uv in covers.items()}
    assert labels == {"a#c0": [("s", "from", 1), ("k0-", "to", -1)],
                      "a#c1": [("k0+", "from", 1), ("w", "to", -1)]}


def test_two_cracks_from_a_corner():
    d = _square_with_cracks((0.4, 0.4), (0.5, 0.2))
    info = d.vertex_info["a"]
    assert info.kind == VertexKind.CONICAL_CRACK
    assert info.ramification == 3
    assert [uid for uid in unfold(d).uvertices if uid.startswith("a#")] == \
        ["a#c0", "a#c1", "a#c2"]


def test_clockwise_square_has_square_strata(square):
    doc = {"vertices": [{"id": v.id, "x": v.x, "y": v.y}
                        for v in square.vertices.values()],
           "edges": [{"id": "west", "from": "a", "to": "d"},
                     {"id": "north", "from": "d", "to": "c"},
                     {"id": "east", "from": "c", "to": "b"},
                     {"id": "south", "from": "b", "to": "a"}]}
    cw, ccw = unfold(parse_domain(doc)), unfold(square)
    assert list(cw.uvertices) == list(ccw.uvertices)
    for uid, uv in ccw.uvertices.items():
        other = cw.uvertices[uid]
        assert other.family == uv.family
        assert [(s.theta_start, s.theta_end) for s in other.sectors] == \
            [(s.theta_start, s.theta_end) for s in uv.sectors]
        assert [(r.uedge_id, r.end, r.side) for r in other.labels] == \
            [(r.uedge_id, r.end, r.side) for r in uv.labels]


# -- unfolding -------------------------------------------------------------

def test_unfold_is_identity_without_cracks(square):
    u = unfold(square)
    assert set(u.uvertices) == set(square.vertices)
    assert u.alpha == 0 and u.m_prime == 0
    assert all(ue.twin_uid is None for ue in u.uedges.values())


def test_unfold_slit_square(slit_square):
    u = unfold(slit_square)
    assert u.alpha == 2 and u.m_prime == 0
    assert {"p#c0", "t#c0"} <= set(u.uvertices)
    plus, minus = u.uedges["slit+"], u.uedges["slit-"]
    assert plus.twin_uid == "slit-" and minus.twin_uid == "slit+"
    assert plus.forward and not minus.forward


@pytest.mark.parametrize("name,alpha,m_prime", [
    ("slit_square", 2, 0),
    ("slit_disk", 3, 0),
    ("tcrack_square", 6, 0),
])
def test_ramification_totals(name, alpha, m_prime):
    u = unfold(parse_domain(domain_path(name)))
    assert u.alpha == alpha
    assert u.m_prime == m_prime


def test_desingularize_boundary_crack_gate(square, slit_square):
    # an unfolded domain is used as given, and any other is unfolded here,
    # a cracked one included: no crack gate is left
    u = unfold(slit_square)
    assert desingularize_boundary(u) is u
    for d in (square, slit_square):
        m = desingularize_boundary(d)
        assert isinstance(m, UnfoldedDomain) and m.base is d
        assert list(m.uvertices) == list(unfold(d).uvertices)
        assert list(m.uedges) == list(unfold(d).uedges)


# -- smoothed distance -----------------------------------------------------

def test_smoothed_distance_profile(square):
    v = square.vertex("a").pos
    eps = square.epsilon["a"]
    # equals the plain distance deep inside the collar
    for frac in (0.1, 0.3, 0.5):
        p = v + np.array([frac * eps, 0.0])
        assert math.isclose(smoothed_distance(square, p), frac * eps,
                            rel_tol=1e-12)
    # plateaus at eps outside the collar
    assert smoothed_distance(square, np.array([0.0, 0.0])) == eps
    assert smoothed_distance(square, v) == 0.0


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=-1.5, max_value=1.5),
       st.floats(min_value=-1.5, max_value=1.5))
def test_smoothed_distance_bounds(x, y):
    d = parse_domain(domain_path("square"))
    p = np.array([x, y])
    r = smoothed_distance(d, p)
    dist = min(float(np.linalg.norm(p - d.vertex(v).pos)) for v in d.vertices)
    eps = max(d.epsilon.values())
    assert 0.0 <= r <= eps + 1e-15
    # below half the collar radius the smoothing is the identity
    if dist <= min(d.epsilon.values()) / 2:
        assert math.isclose(r, dist, rel_tol=1e-12, abs_tol=1e-15)
    else:
        assert r >= min(dist, min(d.epsilon.values())) - 1e-12


def _smoothed_distance_one(d, p):
    """Point-by-point reference: nearest collar by distance - eps, the first
    vertex winning ties, then the identity / quintic blend / plateau."""
    if not d.vertices:
        return 0.25
    best = None
    for vid, v in d.vertices.items():
        dist, eps = float(np.linalg.norm(p - v.pos)), d.epsilon[vid]
        if best is None or dist - eps < best[0] - best[1]:
            best = (dist, eps)
    dist, eps = best
    if dist >= eps:
        return eps
    if dist <= eps / 2:
        return dist
    s = (dist - eps / 2) / (eps / 2)
    return eps / 2 * (1.0 + s + 4 * s**3 - 7 * s**4 + 3 * s**5)


@pytest.mark.parametrize("name", ("square", "lshape", "circle",
                                  "tcrack_square"))
def test_smoothed_distance_vectorized(name):
    d = parse_domain(domain_path(name))
    rng = np.random.default_rng(7)
    pts = rng.uniform(-1.5, 1.5, size=(200, 2))
    for k, v in enumerate(d.vertices.values()):
        pts[k] = v.pos
    r = smoothed_distance(d, pts)
    assert r.shape == (200,)
    want = [_smoothed_distance_one(d, p) for p in pts]
    assert np.allclose(r, want, rtol=1e-14, atol=0.0)
    assert all(smoothed_distance(d, p) == x for p, x in zip(pts[:20], r))


def test_smoothed_distance_monotone_along_ray(square):
    v = square.vertex("a").pos
    ts = np.linspace(0.0, 1.0, 200)
    vals = [smoothed_distance(square, v + t * np.array([1.0, 1.0])) for t in ts]
    assert all(b - a >= -1e-13 for a, b in zip(vals, vals[1:]))


# -- edge geometry ---------------------------------------------------------

def test_arc_edge_geometry(circle):
    e = circle.edges["rim"]
    assert e.is_closed()
    assert math.isclose(e.length(circle), TWO_PI, rel_tol=1e-12)
    assert math.isclose(e.curvature(), 1.0, rel_tol=1e-12)
    p = e.point(0.25, circle)
    assert np.allclose(p, [0.0, 1.0], atol=1e-12)
    t = e.tangent(0.0, circle)
    assert np.allclose(t, [0.0, 1.0], atol=1e-12)


def test_line_edge_geometry(square):
    e = square.edges["south"]
    assert math.isclose(e.length(square), 2.0, rel_tol=1e-15)
    assert e.curvature() == 0.0
    assert np.allclose(e.point(0.5, square), [0.0, -1.0])


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("name", ("square", "lshape"))
@pytest.mark.parametrize("k", (600, -600))
def test_parse_far_from_unit_scale(name, k):
    # coordinates whose squares overflow or underflow: the checks run on a
    # copy scaled to unit size by a power of two, so the domain parses
    # with no warning, the same angles and windows, and lengths scaled
    with open(domain_path(name)) as fh:
        doc = json.load(fh)
    d0, d = parse_domain(doc), parse_domain(scaled_doc(doc, 2.0 ** k))
    assert interior_angles(d) == interior_angles(d0)
    assert pf.domain_windows(d, 1.0) == pf.domain_windows(d0, 1.0)
    assert d.tol == math.ldexp(d0.tol, k)
    assert d.epsilon == {v: math.ldexp(x, k) for v, x in d0.epsilon.items()}
