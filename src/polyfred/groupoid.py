"""Stratified structure of the boundary and limit operators at vertices.

The smooth boundary part carries the pair structure (compact operators); each
vertex carries a dilation-invariant stratum on (component set)^2 x R+.  For a
cracked domain the strata come in two families: ordinary vertices and the
crack covers (one per unit of ramification).  The limit operator of c*I + K at a vertex stratum is a matrix
Mellin convolution operator read off the edge-ends of the unfolded vertex:
every non-collinear pair of rays carries a ray-pair kernel, and twin crack
faces carry a constant jump coupling, which has no integral-kernel
representation.  The scalar part c is carried separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import URay, UnfoldedDomain


@dataclass(frozen=True)
class VertexStratum:
    """Dilation-invariant stratum over one (possibly unfolded) vertex.

    ``labels`` enumerates the boundary points of the cone base: two edge-ends
    per angular component.  ``family`` distinguishes ordinary vertices
    from crack covers.
    """
    vertex_id: str
    labels: tuple[URay, ...]
    family: str                      # "noncrack" | "crack_cover"

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GroupoidDescriptor:
    boundary_strata: tuple[VertexStratum, ...]
    kind: str                        # "no_crack" | "crack"

    def stratum(self, vertex_id: str) -> VertexStratum:
        for s in self.boundary_strata:
            if s.vertex_id == vertex_id:
                return s
        raise KeyError(vertex_id)

    @property
    def total_component_count(self) -> int:
        return sum(s.size for s in self.boundary_strata)


def build_groupoid(u: UnfoldedDomain) -> GroupoidDescriptor:
    """Enumerate the strata of the boundary structure of u: one per
    unfolded vertex, of kind "crack" when u covers a cracked domain."""
    strata = tuple(VertexStratum(uid, uv.labels, uv.family)
                   for uid, uv in u.uvertices.items())
    return GroupoidDescriptor(strata, "crack" if u.has_cracks else "no_crack")


def orbit_representatives(G: GroupoidDescriptor):
    """One representative unit per stratum: each vertex plus the interior."""
    reps = [("interior", "interior")]
    for s in G.boundary_strata:
        reps.append((s.vertex_id, s.labels[0]))
    return reps


@dataclass(frozen=True)
class RayPairKernel:
    """Frozen double layer kernel between two rays from a common vertex,
    homogeneous of degree -1:

        k(r, s) = side * (sin d / pi) * r / (r^2 + s^2 - 2 r s cos d),

    with d the angle from the source ray to the target ray, in [0, 2*pi),
    and side in {-1, +1} the orientation of the source ray's outer normal.
    """
    d: float
    side: int

    def __call__(self, r, s):
        r = np.asarray(r, dtype=float)
        s = np.asarray(s, dtype=float)
        with np.errstate(over="ignore", invalid="ignore"):
            out = self.side * math.sin(self.d) / math.pi * r \
                / (r * r + s * s - 2.0 * r * s * math.cos(self.d))
        return np.nan_to_num(out, nan=0.0, posinf=0.0, neginf=0.0)


@dataclass(frozen=True, eq=False)
class MellinOperator:
    """Matrix of ray-pair kernels plus a constant jump part.

    Entry (i, j) is the one-variable kernel t -> RayPairKernel(d, side)(t, 1)
    with side = 0 meaning no kernel (collinear rays or an absent pair).
    Acts on C^size-valued functions on R+ by
    (Pf)(r) = delta @ f(r) + integral kappa(r/s) f(s) ds/s.
    Compared by identity.
    """
    vertex_id: str
    d: np.ndarray                    # size x size ray angles in [0, 2*pi)
    side: np.ndarray                 # size x size integers in {-1, 0, +1}
    delta: np.ndarray                # size x size constant matrix
    removable_flat: bool = False

    @property
    def size(self) -> int:
        return len(self.delta)

    @property
    def is_zero(self) -> bool:
        return not np.any(self.delta) and not np.any(self.side)

    def apply(self, fvals: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
        """Discrete action on samples over a log-uniform grid (trapezoid)."""
        tgrid = np.asarray(tgrid, dtype=float)
        u = np.log(tgrid)
        du = u[1] - u[0]
        out = np.einsum("ij,jn->in", self.delta, fvals).astype(complex)
        ratio = tgrid[:, None] / tgrid[None, :]
        for i, j in zip(*np.nonzero(self.side)):
            ker = RayPairKernel(self.d[i, j], self.side[i, j])
            out[i] += (ker(ratio, 1.0) @ fvals[j]) * du
        return out


def zero_mellin_operator(vertex_id: str, size: int) -> MellinOperator:
    return MellinOperator(vertex_id, np.zeros((size, size)),
                          np.zeros((size, size), dtype=int),
                          np.zeros((size, size)))


def limit_operator(u: UnfoldedDomain, uid: str) -> MellinOperator:
    """Limit operator of c*I + K at the stratum of unfolded vertex uid.

    Entry (i, j) couples edge-end j (the source) to edge-end i (the target)
    of ``u.uvertices[uid].labels``.  Non-collinear rays carry the ray-pair
    kernel with angle phi_i - phi_j mod 2*pi and the side of the source;
    collinear rays carry none.  Twin crack faces couple through the unit
    jump -1.  The scalar part c is not part of the result.
    """
    labels = u.uvertices[uid].labels
    phi = np.array([r.angle for r in labels])
    sides = np.array([r.side for r in labels])
    diff = phi[:, None] - phi[None, :]
    kernel = np.abs(np.sin(diff)) > 1e-14
    d = np.where(kernel, np.mod(diff, 2.0 * math.pi), 0.0)
    side = np.where(kernel, sides[None, :], 0)
    twins = [u.uedges[r.uedge_id].twin_uid for r in labels]
    delta = np.where([[t == r.uedge_id for r in labels] for t in twins],
                     -1.0, 0.0)
    return MellinOperator(uid, d, side, delta)


def brute_force_counts(u: UnfoldedDomain) -> dict:
    """Independent stratum bookkeeping recomputed from the raw edge list.

    Counts edge-ends per base vertex by direct enumeration and reassembles
    the expected stratum sizes; used to cross-check build_groupoid.
    """
    base = u.base
    ends: dict[str, int] = {v: 0 for v in base.vertices}
    for e in base.edges.values():
        mult = 2 if e.crack else 1
        # a closed arc has v_from == v_to and still contributes two ends
        for vid in (e.v_from, e.v_to):
            if vid is not None:
                ends[vid] += mult
    per_vertex_total = {}
    for uid, uv in u.uvertices.items():
        per_vertex_total.setdefault(uv.base_vertex_id, 0)
        per_vertex_total[uv.base_vertex_id] += 2 * len(uv.sectors)
    return {
        "edge_ends": ends,
        "stratum_sizes": per_vertex_total,
        "alpha": u.alpha,
        "m_prime": u.m_prime,
    }
