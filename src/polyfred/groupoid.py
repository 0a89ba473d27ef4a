"""Stratified structure of the boundary and limit operators at vertices.

The smooth boundary part carries the pair structure (compact operators); each
vertex carries a dilation-invariant stratum on (component set)^2 x R+.  For a
cracked domain the strata come in three families: ordinary vertices, the
non-crack parts of crack junctions, and the crack covers (one per unit of
ramification).  The limit operator of c*I + K at a vertex stratum is a matrix
Mellin convolution operator; the scalar part c is carried separately and a
constant jump matrix accounts for delta-type coupling between twin crack
faces, which has no integral-kernel representation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    DesingularizedBoundary,
    URay,
    UnfoldedDomain,
)

HOMOGENEITY_RTOL = 1e-10
HOMOGENEITY_DILATIONS = (0.5, 2.0)
HOMOGENEITY_BASE_POINTS = 32


class StratumError(ValueError):
    """Inconsistent stratification request or operator data."""


@dataclass(frozen=True)
class VertexStratum:
    """Dilation-invariant stratum over one (possibly unfolded) vertex.

    ``labels`` enumerates the boundary points of the cone base: two edge-ends
    per angular component.  ``family`` distinguishes ordinary vertices,
    non-crack parts of crack junctions, and crack covers.
    """
    vertex_id: str
    labels: tuple[URay, ...]
    family: str                      # "noncrack" | "noncrack_part" | "crack_cover"

    @property
    def size(self) -> int:
        return len(self.labels)


@dataclass(frozen=True)
class GroupoidDescriptor:
    units: DesingularizedBoundary
    interior_stratum: str            # label of the dense pair-groupoid stratum
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


def build_groupoid(M: DesingularizedBoundary, kind: str | None = None
                   ) -> GroupoidDescriptor:
    """Enumerate the strata of the boundary structure underlying M.

    kind "no_crack" requires crack-free provenance; "crack" requires that M
    was built from an unfolded cracked domain.  With kind None the right one
    is inferred.
    """
    cracked = M.from_cracked
    if kind is None:
        kind = "crack" if cracked else "no_crack"
    if kind == "no_crack" and cracked:
        raise StratumError("crack-free structure requested on cracked input")
    if kind == "crack" and not cracked:
        raise StratumError("crack structure requested on crack-free input")

    strata = []
    for uid, uv in M.unfolded.uvertices.items():
        labels = []
        for s in uv.sectors:
            labels.extend([s.ray_start, s.ray_end])
        strata.append(VertexStratum(uid, tuple(labels), uv.family))
    return GroupoidDescriptor(M, "interior", tuple(strata), kind)


def orbit_representatives(G: GroupoidDescriptor):
    """One representative unit per stratum: each vertex plus the interior."""
    reps = [("interior", G.interior_stratum)]
    for s in G.boundary_strata:
        reps.append((s.vertex_id, s.labels[0]))
    return reps


@dataclass
class OperatorDescriptor:
    """Operator of the form c*I + K with dilation-homogeneous local kernels.

    ``local_kernels`` maps (vertex id, label_a, label_b) to a two-variable
    kernel k(r, s) homogeneous of degree -1, the frozen kernel on the pair of
    edge-ends near the vertex.  Missing pairs are zero.  ``jump`` maps a
    vertex id to a constant size x size matrix of delta-type couplings (twin
    crack faces).
    """
    c: float
    local_kernels: dict = field(default_factory=dict)
    jump: dict = field(default_factory=dict)


@dataclass(frozen=True, eq=False)
class MellinOperator:
    """Matrix of one-variable kernels t -> kappa(t) plus a constant jump part.

    Acts on C^size-valued functions on R+ by
    (Pf)(r) = delta @ f(r) + integral kappa(r/s) f(s) ds/s.
    Compared by identity.
    """
    vertex_id: str
    size: int
    entries: tuple                   # size x size nested tuple, callables or None
    delta: np.ndarray                # size x size constant matrix
    removable_flat: bool = False

    @property
    def is_zero(self) -> bool:
        return not np.any(self.delta) and all(
            e is None for row in self.entries for e in row)

    def apply(self, fvals: np.ndarray, tgrid: np.ndarray) -> np.ndarray:
        """Discrete action on samples over a log-uniform grid (trapezoid)."""
        tgrid = np.asarray(tgrid, dtype=float)
        u = np.log(tgrid)
        du = u[1] - u[0]
        out = np.einsum("ij,jn->in", self.delta, fvals).astype(complex)
        ratio = tgrid[:, None] / tgrid[None, :]
        for i in range(self.size):
            for j in range(self.size):
                ker = self.entries[i][j]
                if ker is None:
                    continue
                out[i] += (ker(ratio) @ fvals[j]) * du
        return out


def zero_mellin_operator(vertex_id: str, size: int) -> MellinOperator:
    rows = tuple(tuple(None for _ in range(size)) for _ in range(size))
    return MellinOperator(vertex_id, size, rows, np.zeros((size, size)))


def _check_homogeneity(ker, tag) -> None:
    # degree -1: k(t*r, t*s) = k(r, s)/t, sampled on a log grid
    r = np.logspace(-1.5, 1.5, HOMOGENEITY_BASE_POINTS)
    base = ker(r, np.ones_like(r))
    scale = np.max(np.abs(base))
    if scale == 0.0:
        scale = 1.0
    for t in HOMOGENEITY_DILATIONS:
        scaled = ker(t * r, t * np.ones_like(r))
        err = np.max(np.abs(scaled - base / t)) / scale
        if err > HOMOGENEITY_RTOL:
            raise StratumError(
                f"kernel {tag} not homogeneous of degree -1 "
                f"(relative error {err:.3e})")


def limit_operator(P: OperatorDescriptor, stratum: VertexStratum
                   ) -> MellinOperator:
    """Freeze P at a vertex stratum as a matrix Mellin convolution operator.

    Each local two-variable kernel is gated through a numerical homogeneity
    check, then reduced to the one-variable kernel t -> k(t, 1), which keeps
    the kernel's closed-form symbol and decay hints.  The scalar
    part c is not part of the result.  Kernels supported away from the vertex
    contribute nothing, so absent entries mean zero.
    """
    k = stratum.size
    rows = []
    for i, la in enumerate(stratum.labels):
        row = []
        for j, lb in enumerate(stratum.labels):
            ker = P.local_kernels.get((stratum.vertex_id, la, lb))
            if ker is None:
                row.append(None)
                continue
            _check_homogeneity(ker, (stratum.vertex_id, i, j))
            row.append(one_variable_kernel(ker))
        rows.append(tuple(row))
    delta = P.jump.get(stratum.vertex_id)
    if delta is None:
        delta = np.zeros((k, k))
    else:
        delta = np.asarray(delta, dtype=float)
        if delta.shape != (k, k):
            raise StratumError(
                f"jump matrix at {stratum.vertex_id} has shape {delta.shape}, "
                f"expected {(k, k)}")
    return MellinOperator(stratum.vertex_id, k, tuple(rows), delta)


def one_variable_kernel(ker):
    """t -> k(t, 1), keeping the kernel's ``symbol``, ``log_eval`` and
    ``decay_exponents`` hints: they describe this one-variable kernel."""
    def kappa(t):
        t = np.asarray(t, dtype=float)
        return ker(t, np.ones_like(t))
    for hint in ("symbol", "log_eval", "decay_exponents"):
        if hasattr(ker, hint):
            setattr(kappa, hint, getattr(ker, hint))
    return kappa


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
