"""Planar domains with corners and cracks.

A domain is described by vertices and edges (straight segments or circular
arcs).  Edges marked ``crack`` are slits traversed on both sides.  From this
raw description we derive, per vertex, the cone base (the angular sectors the
domain occupies around the vertex), the crack classification, and the
ramification number.  Unfolding turns a cracked domain into a crack-free
generalized domain whose boundary covers each crack twice and whose vertices
are split into one cover vertex per stratum; the unfolded domain is what
boundary meshes and vertex strata are built from.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field, replace
from enum import Enum

import numpy as np

TWO_PI = 2.0 * math.pi

# angles closer to pi than this make a declared vertex removable
FLAT_TOL = 1e-12
ANGLE_TOL = 1e-9


class DomainError(ValueError):
    """Invalid domain description."""


class VertexKind(Enum):
    CONICAL = "conical"              # non-crack conical point
    INNER_CRACK = "inner_crack"
    OUTER_CRACK = "outer_crack"
    CONICAL_CRACK = "conical_crack"


@dataclass(frozen=True)
class Vertex:
    id: str
    x: float
    y: float

    @property
    def pos(self) -> np.ndarray:
        return np.array([self.x, self.y])


@dataclass(frozen=True)
class Edge:
    id: str
    v_from: str | None
    v_to: str | None
    kind: str = "line"               # "line" | "arc"
    crack: bool = False
    params: dict = field(default_factory=dict)

    # -- geometry along the normalized parameter s in [0, 1] ---------------

    def point(self, s, domain: "ConicalDomain"):
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            a = domain.vertex(self.v_from).pos
            b = domain.vertex(self.v_to).pos
            return a[None, :] + np.outer(s, b - a) if s.ndim else a + s * (b - a)
        c = np.asarray(self.params["center"], dtype=float)
        r = float(self.params["radius"])
        th = self._theta(s)
        return np.stack([c[0] + r * np.cos(th), c[1] + r * np.sin(th)], axis=-1)

    def tangent(self, s, domain: "ConicalDomain"):
        """Unit tangent in the direction of increasing s."""
        s = np.asarray(s, dtype=float)
        if self.kind == "line":
            a = domain.vertex(self.v_from).pos
            b = domain.vertex(self.v_to).pos
            t = (b - a) / np.linalg.norm(b - a)
            return np.broadcast_to(t, s.shape + (2,)).copy() if s.ndim else t
        th = self._theta(s)
        sgn = 1.0 if self._dtheta() >= 0 else -1.0
        return np.stack([-sgn * np.sin(th), sgn * np.cos(th)], axis=-1)

    def length(self, domain: "ConicalDomain") -> float:
        if self.kind == "line":
            a = domain.vertex(self.v_from).pos
            b = domain.vertex(self.v_to).pos
            return float(np.linalg.norm(b - a))
        return float(self.params["radius"]) * abs(self._dtheta())

    def curvature(self, domain: "ConicalDomain") -> float:
        """Signed curvature (positive when turning left along increasing s)."""
        if self.kind == "line":
            return 0.0
        sgn = 1.0 if self._dtheta() >= 0 else -1.0
        return sgn / float(self.params["radius"])

    def polyline(self, domain: "ConicalDomain") -> np.ndarray:
        """The points the domain checks run on: a straight edge's two
        endpoints, exactly, or 64 points along an arc."""
        if self.kind == "line":
            return np.array([domain.vertex(self.v_from).pos,
                             domain.vertex(self.v_to).pos])
        return self.point(np.linspace(0.0, 1.0, 64), domain)

    def is_closed(self) -> bool:
        return self.kind == "arc" and abs(abs(self._dtheta()) - TWO_PI) < ANGLE_TOL

    def _theta(self, s):
        t0 = float(self.params["theta_start"])
        return t0 + self._dtheta() * s

    def _dtheta(self) -> float:
        return float(self.params["theta_end"]) - float(self.params["theta_start"])


@dataclass(frozen=True)
class Ray:
    """An edge-end leaving a vertex: direction angle plus which edge/end."""
    edge_id: str
    end: str                         # "from" | "to"
    angle: float                     # direction of departure, in [0, 2pi)
    crack: bool


@dataclass(frozen=True)
class Sector:
    """One connected component of the cone base at a vertex.

    The sector spans counterclockwise from ``theta_start`` to ``theta_end``
    (``theta_end`` may exceed 2*pi).  ``ray_start`` bounds it clockwise and
    has the sector on its counterclockwise side (side +1); ``ray_end`` has it
    on its clockwise side (side -1).
    """
    theta_start: float
    theta_end: float
    ray_start: Ray | URay            # URay on the unfolded domain
    ray_end: Ray | URay

    @property
    def measure(self) -> float:
        return self.theta_end - self.theta_start


@dataclass(frozen=True)
class VertexInfo:
    sectors: tuple[Sector, ...]      # components of the cone base
    kind: VertexKind

    @property
    def ramification(self) -> int:
        """Number of cone-base components, one cover vertex each."""
        return len(self.sectors)


def _norm_angle(a: float) -> float:
    a = math.fmod(a, TWO_PI)
    return a + TWO_PI if a < 0 else a


class ConicalDomain:
    """Validated polygonal/conical domain with optional cracks."""

    def __init__(self, vertices, edges):
        self.vertices: dict[str, Vertex] = {v.id: v for v in vertices}
        if len(self.vertices) != len(vertices):
            raise DomainError("duplicate vertex ids")
        self.edges: dict[str, Edge] = {e.id: e for e in edges}
        if len(self.edges) != len(edges):
            raise DomainError("duplicate edge ids")
        # e with the largest coordinate or arc radius in [2^(e-1), 2^e)
        self.extent_exponent = e = _extent_exponent(vertices, edges)
        if e != 0:
            # the checks square coordinates, so they run on a copy scaled by
            # 2^-e to unit size, which is exact; its lengths scale back
            unit = ConicalDomain([_scaled(v, -e) for v in vertices],
                                 [_scaled(ed, -e) for ed in edges])
            self.tol = math.ldexp(unit.tol, e)
            self.loop, self.vertex_info = unit.loop, unit.vertex_info
            self.epsilon = {vid: math.ldexp(x, e)
                            for vid, x in unit.epsilon.items()}
            return
        self._validate_refs()
        # two boundary points closer than this count as one: 1e-9 of the
        # domain's extent, its largest edge length or vertex coordinate
        self.tol = 1e-9 * max(
            [e.length(self) for e in self.edges.values()]
            + [abs(x) for v in self.vertices.values() for x in (v.x, v.y)])
        self._validate_arc_ends()
        self.loop = self._build_loop()          # [(edge_id, forward)], CCW
        self._validate_no_intersections()
        self.vertex_info: dict[str, VertexInfo] = self._analyze_vertices()
        self.epsilon: dict[str, float] = self._collar_cutoffs()

    # -- accessors ---------------------------------------------------------

    def vertex(self, vid: str) -> Vertex:
        return self.vertices[vid]

    @property
    def has_cracks(self) -> bool:
        return any(e.crack for e in self.edges.values())

    # -- construction helpers ---------------------------------------------

    def _validate_refs(self):
        for e in self.edges.values():
            if e.kind == "line":
                if e.v_from is None or e.v_to is None:
                    raise DomainError(f"line edge {e.id} needs endpoints")
            elif e.kind == "arc":
                if not e.is_closed() and (e.v_from is None or e.v_to is None):
                    raise DomainError(f"open arc edge {e.id} needs endpoints")
                if e.crack:
                    raise DomainError("crack edges must be straight segments")
                if abs(e._dtheta()) > TWO_PI + ANGLE_TOL:
                    raise DomainError(f"arc {e.id} sweeps more than a full "
                                      "turn")
            else:
                raise DomainError(f"unknown edge kind {e.kind!r}")
            for vid in (e.v_from, e.v_to):
                if vid is not None and vid not in self.vertices:
                    raise DomainError(f"edge {e.id} references unknown vertex {vid}")
            if not e.length(self) > 0:
                raise DomainError(f"degenerate edge {e.id}")
        used = {v for e in self.edges.values() for v in (e.v_from, e.v_to) if v}
        lonely = set(self.vertices) - used
        if lonely:
            raise DomainError(f"vertices on no edge: {sorted(lonely)}")

    def _validate_arc_ends(self):
        """An arc's ends lie within tol of its from and to vertices."""
        for e in self.edges.values():
            if e.kind != "arc":
                continue
            for s, vid, verb in ((0.0, e.v_from, "start"),
                                 (1.0, e.v_to, "end")):
                if vid is not None and np.linalg.norm(
                        e.point(s, self) - self.vertex(vid).pos) > self.tol:
                    raise DomainError(f"arc {e.id} does not {verb} at its "
                                      f"vertex {vid}")

    def _build_loop(self):
        """Chain the non-crack edges into a single closed CCW loop."""
        loop_edges = [e for e in self.edges.values() if not e.crack]
        if not loop_edges:
            raise DomainError("domain has no outer boundary")
        closed = [e for e in loop_edges if e.kind == "arc" and e.is_closed()]
        if closed:
            if len(loop_edges) != 1:
                raise DomainError("a closed arc must be the only boundary edge")
            e = closed[0]
            return [(e.id, e._dtheta() > 0)]

        # adjacency: vertex -> incident (edge, end) pairs
        inc: dict[str, list[tuple[str, str]]] = {}
        for e in loop_edges:
            inc.setdefault(e.v_from, []).append((e.id, "from"))
            inc.setdefault(e.v_to, []).append((e.id, "to"))
        for vid, ends in inc.items():
            if len(ends) != 2:
                raise DomainError(
                    f"boundary not a single closed curve at vertex {vid}")

        start = loop_edges[0]
        loop = [(start.id, True)]
        cur_vertex = start.v_to
        seen = {start.id}
        while cur_vertex != start.v_from or len(seen) < len(loop_edges):
            nxt = [(eid, end) for eid, end in inc[cur_vertex] if eid not in seen]
            if not nxt:
                raise DomainError("boundary edges do not form one closed loop")
            eid, end = nxt[0]
            forward = end == "from"
            loop.append((eid, forward))
            seen.add(eid)
            e = self.edges[eid]
            cur_vertex = e.v_to if forward else e.v_from

        if self._signed_area(loop) < 0:
            loop = [(eid, not fwd) for eid, fwd in reversed(loop)]
        return loop

    def _signed_area(self, loop) -> float:
        pts = []
        for eid, fwd in loop:
            p = self.edges[eid].polyline(self)
            pts.append((p if fwd else p[::-1])[:-1])
        x, y = np.vstack(pts).T
        return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))

    def _validate_no_intersections(self):
        """Edges that share no vertex keep a gap of at least tol between
        their polylines."""
        polys = {eid: e.polyline(self) for eid, e in self.edges.items()}
        ids = list(self.edges)
        for i, ei in enumerate(ids):
            for ej in ids[i + 1:]:
                a, b = self.edges[ei], self.edges[ej]
                if {a.v_from, a.v_to} & {b.v_from, b.v_to} - {None}:
                    continue                    # a shared vertex
                if _polyline_gap(polys[ei], polys[ej]) < self.tol:
                    raise DomainError(f"edges {ei} and {ej} intersect")

    def _incident_rays(self, vid: str) -> list[Ray]:
        """Every edge end at vid; a closed arc anchored here gives both."""
        rays = []
        for e in self.edges.values():
            for end, at in (("from", e.v_from), ("to", e.v_to)):
                if at != vid:
                    continue
                t = e.tangent(0.0 if end == "from" else 1.0, self)
                d = t if end == "from" else -t
                rays.append(Ray(e.id, end, _norm_angle(math.atan2(d[1], d[0])),
                                e.crack))
        return rays

    def _analyze_vertices(self) -> dict[str, VertexInfo]:
        # the end of each loop edge that the CCW loop traverses first
        first_end = {eid: "from" if fwd else "to" for eid, fwd in self.loop}
        info = {}
        for vid in self.vertices:
            rays = self._incident_rays(vid)
            crack_rays = [r for r in rays if r.crack]
            loop_rays = [r for r in rays if not r.crack]

            if loop_rays:
                outs = [r for r in loop_rays if r.end == first_end[r.edge_id]]
                ins = [r for r in loop_rays if r.end != first_end[r.edge_id]]
                if len(outs) != 1 or len(ins) != 1:
                    raise DomainError(f"vertex {vid}: inconsistent boundary loop")
                base0 = outs[0].angle
                span = _norm_angle(ins[0].angle - base0)
                inner = sorted(crack_rays,
                               key=lambda r: _norm_angle(r.angle - base0))
                for r in inner:
                    off = _norm_angle(r.angle - base0)
                    if off < ANGLE_TOL or off > span - ANGLE_TOL:
                        raise DomainError(
                            f"crack at vertex {vid} leaves the interior sector")
                bounds = [(base0, outs[0])] + [
                    (base0 + _norm_angle(r.angle - base0), r) for r in inner
                ] + [(base0 + span, ins[0])]
            else:
                # floating crack vertex: full circle split by crack rays
                inner = sorted(crack_rays, key=lambda r: r.angle)
                base0 = inner[0].angle
                bounds = [(base0 + _norm_angle(r.angle - base0), r) for r in inner]
                bounds.append((base0 + TWO_PI, inner[0]))

            sectors = []
            for (t0, r0), (t1, r1) in zip(bounds[:-1], bounds[1:]):
                if t1 - t0 < ANGLE_TOL:
                    raise DomainError(
                        f"vertex {vid} has a zero-measure cone-base component")
                sectors.append(Sector(t0, t1, r0, r1))

            total = sum(s.measure for s in sectors)
            if not crack_rays:
                kind = VertexKind.CONICAL
                if abs(total - math.pi) < FLAT_TOL:
                    raise DomainError(
                        f"vertex {vid} is flat (angle pi); remove it")
            elif abs(total - TWO_PI) < ANGLE_TOL:
                kind = VertexKind.INNER_CRACK
            elif loop_rays and abs(total - math.pi) < ANGLE_TOL:
                kind = VertexKind.OUTER_CRACK
            else:
                kind = VertexKind.CONICAL_CRACK
            info[vid] = VertexInfo(tuple(sectors), kind)
        return info

    def _collar_cutoffs(self) -> dict[str, float]:
        eps = {}
        vids = list(self.vertices)
        for vid in vids:
            shortest = min(e.length(self) for e in self.edges.values()
                           if vid in (e.v_from, e.v_to))
            others = [np.linalg.norm(self.vertex(vid).pos - self.vertex(o).pos)
                      for o in vids if o != vid]
            eps[vid] = float(0.25 * min([shortest] + others))
            if eps[vid] <= 0:
                raise DomainError(f"collar cutoff for {vid} must be positive")
        return eps


def _extent_exponent(vertices, edges) -> int:
    """e with the largest vertex coordinate, arc center coordinate or arc
    radius in [2^(e-1), 2^e); 0 when all are zero."""
    sizes = [abs(x) for v in vertices for x in (v.x, v.y)]
    for e in edges:
        if e.kind == "arc":
            sizes += [abs(x) for x in (*e.params["center"], e.params["radius"])]
    return math.frexp(max(sizes, default=0.0))[1]


def _scaled(item, k: int):
    """The vertex or edge with every length multiplied by 2^k."""
    if isinstance(item, Vertex):
        return replace(item, x=math.ldexp(item.x, k), y=math.ldexp(item.y, k))
    if item.kind != "arc":
        return item
    p = item.params
    return replace(item, params={
        **p, "center": [math.ldexp(x, k) for x in p["center"]],
        "radius": math.ldexp(p["radius"], k)})


# -- parsing ---------------------------------------------------------------

def _is_number(v) -> bool:
    # Python counts bool as an int; NaN, the infinities and ints beyond the
    # float range are no finite numbers
    return type(v) in (int, float) and abs(v) <= sys.float_info.max


def _field(obj, key: str, kind: type, where: str, *default):
    """obj[key], checked to have the JSON type kind (float: a finite
    number).  A missing or null field gives the default, if one is given;
    otherwise DomainError names the field."""
    if not isinstance(obj, dict):
        raise DomainError(f"{where} must be an object")
    val = obj.get(key)
    if val is None and default:
        return default[0]
    if not (_is_number(val) if kind is float else isinstance(val, kind)):
        raise DomainError(f"{where} needs '{key}' of type {kind.__name__}")
    return val


def parse_domain(spec) -> ConicalDomain:
    """Build a validated domain from the path of a JSON file or from a dict.
    A missing or ill-typed field raises DomainError naming it."""
    if not isinstance(spec, dict):
        with open(spec) as fh:
            spec = json.load(fh)
    vertices = []
    for i, v in enumerate(_field(spec, "vertices", list, "the domain")):
        where = f"vertices[{i}]"
        vertices.append(Vertex(_field(v, "id", str, where),
                               float(_field(v, "x", float, where)),
                               float(_field(v, "y", float, where))))
    edges = []
    for i, e in enumerate(_field(spec, "edges", list, "the domain")):
        where = f"edges[{i}]"
        kind = _field(e, "kind", str, where, "line")
        params = _field(e, "params", dict, where, {})
        if kind == "arc":
            for key in ("radius", "theta_start", "theta_end"):
                _field(params, key, float, where + ".params")
            center = _field(params, "center", list, where + ".params")
            if len(center) != 2 or not all(map(_is_number, center)):
                raise DomainError(f"{where}.params needs 'center' as [x, y]")
        edges.append(Edge(_field(e, "id", str, where),
                          _field(e, "from", str, where, None),
                          _field(e, "to", str, where, None), kind,
                          _field(e, "crack", bool, where, False), dict(params)))
    return ConicalDomain(vertices, edges)


# -- basic measurements ----------------------------------------------------

def interior_angles(d: ConicalDomain) -> list[tuple[str, float]]:
    """(vertex id, angular measure) for every cone-base component."""
    out = []
    for vid, info in d.vertex_info.items():
        for s in info.sectors:
            out.append((vid, s.measure))
    return out


def theta0(angles) -> float:
    """min over all angles of pi/theta and pi/(2*pi - theta)."""
    vals = []
    for th in angles:
        th = float(th)
        if not (0.0 < th < TWO_PI):
            raise ValueError(f"angle {th} outside (0, 2*pi)")
        vals.append(math.pi / th)
        vals.append(math.pi / (TWO_PI - th))
    if not vals:
        raise ValueError("no angles given")
    return min(vals)


# -- unfolding -------------------------------------------------------------

@dataclass(frozen=True)
class URay:
    """Edge-end of the unfolded boundary at an unfolded vertex."""
    uedge_id: str
    end: str
    angle: float
    side: int                        # +1: sector on CCW side, -1: on CW side


@dataclass(frozen=True)
class UVertex:
    uid: str
    base_vertex_id: str
    family: str                      # "noncrack" | "crack_cover"
    sectors: tuple[Sector, ...]      # bounded by URay edge-ends

    @property
    def labels(self) -> tuple[URay, ...]:
        """Edge-ends at the vertex: ray_start, ray_end of each sector in turn."""
        return tuple(r for s in self.sectors for r in (s.ray_start, s.ray_end))


@dataclass(frozen=True)
class UEdge:
    uid: str
    base_edge_id: str
    forward: bool                    # traversal direction relative to the base edge
    twin_uid: str | None


_OTHER_END = {"from": "to", "to": "from"}


class UnfoldedDomain:
    """Crack-free cover of a cracked domain (identity for crack-free input)."""

    def __init__(self, base: ConicalDomain):
        self.base = base
        self.uvertices: dict[str, UVertex] = {}
        self.uedges: dict[str, UEdge] = {}
        self._build()

    def _build(self):
        base = self.base
        # total ramification alpha over the crack points.  The loop passes a
        # vertex once, so every sector at a crack point touches a crack ray:
        # no conical crack point has a non-crack part, and their count m' is 0.
        self.alpha = sum(info.ramification for info in base.vertex_info.values()
                         if info.kind != VertexKind.CONICAL)
        self.m_prime = 0

        # edges: boundary edges as-is (oriented along the CCW loop),
        # crack edges as twin face pairs
        for eid, fwd in base.loop:
            self.uedges[eid] = UEdge(eid, eid, fwd, None)
        for e in base.edges.values():
            if e.crack:
                u0, u1 = f"{e.id}+", f"{e.id}-"
                self.uedges[u0] = UEdge(u0, e.id, True, u1)
                self.uedges[u1] = UEdge(u1, e.id, False, u0)

        for vid, info in base.vertex_info.items():
            usect = tuple(self._lift_sector(s) for s in info.sectors)
            if info.kind == VertexKind.CONICAL:
                self.uvertices[vid] = UVertex(vid, vid, "noncrack", usect)
                continue
            # crack point: one cover vertex per sector
            for j, s in enumerate(usect):
                uid = f"{vid}#c{j}"
                self.uvertices[uid] = UVertex(uid, vid, "crack_cover", (s,))

    def _lift_sector(self, s: Sector) -> Sector:
        r0 = self._lift_ray(s.ray_start, +1)
        r1 = self._lift_ray(s.ray_end, -1)
        return Sector(s.theta_start, s.theta_end, r0, r1)

    def _lift_ray(self, ray: Ray, side: int) -> URay:
        """The edge end of the unfolded boundary that bounds a sector on side.

        A boundary ray keeps its edge; its end is renamed when the loop runs
        the edge backward.  A crack ray lies on face "+" (the base edge's
        direction, sector on its left) when (end == "from") == (side == +1),
        and otherwise on face "-", which runs the edge backward."""
        if not ray.crack:
            fwd = self.uedges[ray.edge_id].forward
            return URay(ray.edge_id, ray.end if fwd else _OTHER_END[ray.end],
                        ray.angle, side)
        if (ray.end == "from") == (side == +1):
            return URay(ray.edge_id + "+", ray.end, ray.angle, side)
        return URay(ray.edge_id + "-", _OTHER_END[ray.end], ray.angle, side)


def unfold(d: ConicalDomain) -> UnfoldedDomain:
    """Unfolded domain; identity cover when d has no cracks."""
    return UnfoldedDomain(d)


def desingularize_boundary(d) -> UnfoldedDomain:
    """The unfolded domain whose boundary meshes and strata are built: an
    UnfoldedDomain as given, a ConicalDomain unfolded here."""
    return d if isinstance(d, UnfoldedDomain) else UnfoldedDomain(d)


# -- smoothed distance to the vertex set ----------------------------------

def _blend(s):
    """C^2 monotone quintic with h(0)=0, h'(0)=1, h''(0)=0, h(1)=1,
    h'(1)=h''(1)=0, used on the normalized blending variable."""
    return s + 4 * s**3 - 7 * s**4 + 3 * s**5


def smoothed_distance(d: ConicalDomain, x):
    """Smoothed distance r(x) to the vertex set, for one point x (a float)
    or an (N, 2) array of points (an (N,) array).

    Equals the Euclidean vertex distance up to eps/2, blends monotonically on
    [eps/2, eps], and plateaus at eps outside the collar of the nearest
    vertex, the one minimizing distance - eps (the first in vertex order on
    ties).  Exactly at a vertex the continuous extension 0 is returned.
    """
    x = np.asarray(x, dtype=float)
    pts = np.atleast_2d(x)
    if not d.vertices:
        r = np.full(len(pts), 0.25)     # the plateau with no collar to blend
    else:
        pos = np.array([v.pos for v in d.vertices.values()])
        eps_v = np.array([d.epsilon[vid] for vid in d.vertices])
        dist_v = np.linalg.norm(pts[:, None, :] - pos[None, :, :], axis=-1)
        k = np.argmin(dist_v - eps_v, axis=1)
        dist, eps = dist_v[np.arange(len(pts)), k], eps_v[k]
        s = (dist - eps / 2) / (eps / 2)
        r = np.where(dist >= eps, eps,
                     np.where(dist <= eps / 2, dist, eps / 2 * (1.0 + _blend(s))))
    return float(r[0]) if x.ndim == 1 else r


def _orient(u, v, w):
    # the cross product (v-u) x (w-u), broadcast over pairs
    return ((v[..., 0] - u[..., 0]) * (w[..., 1] - u[..., 1])
            - (v[..., 1] - u[..., 1]) * (w[..., 0] - u[..., 0]))


def _point_segment_dist(p, q) -> float:
    """Least distance from a point of p to a segment of the polyline q."""
    a, ab = q[:-1], np.diff(q, axis=0)
    # a segment that rounds to one point has t = 0
    t = ((p[:, None] - a) * ab).sum(-1) / np.maximum(
        (ab * ab).sum(-1), np.finfo(float).tiny)
    foot = a + np.clip(t, 0.0, 1.0)[..., None] * ab
    return float(np.linalg.norm(p[:, None] - foot, axis=-1).min())


def _polyline_gap(p, q) -> float:
    """Distance between the polylines p and q: 0 when a segment of one
    properly crosses a segment of the other, else the least distance from
    a point of either to a segment of the other."""
    a, b = p[:-1, None], p[1:, None]
    c, d = q[None, :-1], q[None, 1:]
    if np.any((_orient(a, b, c) * _orient(a, b, d) < 0)
              & (_orient(c, d, a) * _orient(c, d, b) < 0)):
        return 0.0
    return min(_point_segment_dist(p, q), _point_segment_dist(q, p))
