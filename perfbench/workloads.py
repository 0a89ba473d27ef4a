"""Query sets of the two workloads, drawn from the seed.

window-matrix runs ``polyfred window``: the symbolic route end to end
(geometry, groupoid, limit operators, Mellin scans, determinant roots, and
the 21 verdicts of the margin curve).  study-refine runs ``polyfred study``
and one ``polyfred solve`` per crack-free fixture: the Nystrom route (mesh,
assembly, weighting, dense SVD, LU solve, potential evaluation); its only
Mellin work is the verdict solve checks first, cached after one query per
fixture.

A run executes passes of its workload one after another.  Pass 0 is the
workload's query set drawn from the seed; every later pass repeats it with
each query turned into a twin: the same query with its c shifted by k*1e-9
(window), its weight by k*1e-7 (study), or fresh boundary data (solve,
whose cost does not depend on the data).  A twin does the same work as its
original, but it is a different input, so no query repeats within a run
and the program's caches, which key on exact values, are hit only where
equal corner angles meet equal lines, as in a real sweep.  The run reports,
per slot of the query set, the fastest of its twins, which keeps slow
phases of a shared host shorter than a run out of the figures.

Fixture order is fixed, so cache filling follows the same pattern on every
seed.  Draws are narrow where the cost of a query grows steeply with the
drawn value (|c| sets the window width), so that the work of a pass barely
depends on the seed.

Every query here is answered correctly at the commit that defined this
benchmark.  The queries left out for that reason (``window`` on the circle,
on the crack fixtures at c = +-1, on slit_disk and tcrack_square at c = 1/2
and generic c, on right-angle fixtures at c = 1/2, and ``solve`` data with
an interior error above 1e-3) are listed in ``baseline.json`` and run by
``census.py``, which also runs ``analyze`` on every fixture.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from pathlib import Path

FIXTURES = ("square", "lshape", "hexagon", "circle", "slit_square",
            "slit_disk", "tcrack_square")
STUDY_FIXTURES = ("square", "lshape", "hexagon", "slit_square", "tcrack_square")
SOLVE_FIXTURES = ("square", "lshape", "hexagon", "circle")
STUDY_MESH_NS = (8, 16, 32, 64, 128)
FIXED_C = (1.0, -1.0, 0.5)
# window queries that the program answers correctly at the defining commit:
# (fixture, c) with c fixed, and the fixture that takes a generic c
WINDOW_FIXED = (("square", 1.0), ("square", -1.0), ("lshape", 1.0),
                ("lshape", -1.0), ("hexagon", 1.0), ("hexagon", -1.0),
                ("hexagon", 0.5))
WINDOW_GENERIC = ("slit_square",)

WORKLOADS = ("window-matrix", "study-refine")


@dataclass(frozen=True)
class Query:
    sub: str
    fixture: str
    path: str
    c: float
    a: float = 0.0
    g: str = ""
    mesh_ns: tuple = ()

    @property
    def id(self) -> str:
        tail = {"analyze": f"/a={self.a!r}", "study": f"/a={self.a!r}",
                "solve": f"/g={self.g}"}.get(self.sub, "")
        return f"{self.sub}/{self.fixture}/c={self.c!r}{tail}"

    @property
    def argv(self) -> list[str]:
        args = [self.sub, self.path, "--c", repr(self.c)]
        if self.sub in ("analyze", "study"):
            args += ["--a", repr(self.a)]
        if self.sub == "study":
            for n in self.mesh_ns:
                args += ["--mesh-n", str(n)]
        if self.sub == "solve":
            args += ["--g", self.g]
        return args


def _round(x: float) -> float:
    return round(x, 6)


def generic_c(rng: random.Random) -> float:
    # |c| near 3/4: every corner window is bounded by symbol zeros, and c
    # stays clear of 1/2 (zero at the reference weight) and of +-1 (crack
    # tips singular at infinity).  The window width, and with it the cost of
    # the margin curve, grows with |c|, so the band is kept narrow.
    return _round(rng.choice((-1.0, 1.0)) * rng.uniform(0.72, 0.78))


def solve_data(rng: random.Random) -> str:
    """x^2 - y^2 plus a seeded harmonic affine part."""
    alpha, beta = rng.uniform(-0.1, 0.1), rng.uniform(-0.1, 0.1)
    const = rng.uniform(-0.5, 0.5)
    return f"x^2-y^2{alpha:+.4f}*x{beta:+.4f}*y{const:+.4f}"


def query_set(workload: str, rng: random.Random, domains) -> list[Query]:
    """Pass 0 of a run."""
    if workload == "window-matrix":
        return [Query("window", name, domains(name), c)
                for name, c in WINDOW_FIXED] + [
            Query("window", name, domains(name), generic_c(rng))
            for name in WINDOW_GENERIC]
    if workload == "study-refine":
        return [Query("study", name, domains(name), c,
                      a=_round(-0.5 * rng.random()), mesh_ns=STUDY_MESH_NS)
                for name in STUDY_FIXTURES for c in (1.0, -1.0)] + [
            Query("solve", name, domains(name), 1.0, g=solve_data(rng))
            for name in SOLVE_FIXTURES]
    raise ValueError(f"unknown workload {workload!r}")


def twin(q: Query, k: int, rng: random.Random) -> Query:
    if q.sub == "study":
        return replace(q, a=q.a + k * 1e-7)
    if q.sub == "window":
        return replace(q, c=q.c + (k * 1e-9 if q.c > 0 else -k * 1e-9))
    return replace(q, g=solve_data(rng))


def passes(workload: str, seed: int, domain_dir: Path):
    """Endless sequence of passes (lists of queries) for one run."""
    rng = random.Random(f"{workload}:{seed}")
    base = query_set(workload, rng, lambda name: str(domain_dir / f"{name}.json"))
    seen = set()
    for k in itertools.count():
        batch = base if k == 0 else [twin(q, k, rng) for q in base]
        ids = [q.id for q in batch]
        if len(set(ids)) != len(ids) or seen.intersection(ids):
            raise RuntimeError(f"pass {k} of {workload} repeats a query")
        seen.update(ids)
        yield batch
