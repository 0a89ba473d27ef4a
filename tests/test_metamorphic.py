"""Metamorphic invariance: the answers do not depend on where a domain sits,
how it is turned or scaled, or how its vertices and edges are named, listed
and directed (Chen et al., "Metamorphic Testing: A Review of Challenges and
Opportunities", ACM Comput. Surv. 51, 2018).

Each transform is applied to the 7 fixture documents.  The rotation angle
and the translation are drawn once from numpy's default_rng(SEED).  The
checks compare every transformed fixture with the fixture itself:

- analyze's exit code, verdict and witnesses (after renaming), at three
  pairs (c, a);
- every window, per vertex stratum and global, to 1e-9 at c = WINDOW_C;
- the study trend at (STUDY_C, STUDY_A) on meshes n <= 64;
- on the crack-free fixtures, the study's sigma to 1e-12 relative.  The
  Nystrom matrix is formed from absolute node coordinates, so sigma moves by
  up to about 1e-7 under a transform that moves the nodes; those cases
  (rotation, translation and the two scalings) are strict xfails until
  ROADMAP item 16 (vertex-relative coordinates).

About 11 s on two cores.
"""

import copy
import functools
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

import polyfred as pf
from polyfred import layerpot as lp
from polyfred.cli import main

from conftest import ALL_DOMAINS, CRACK_DOMAINS, domain_path, scaled_doc

SEED = 18
_rng = np.random.default_rng(SEED)
ANGLE = float(_rng.uniform(0.0, 2.0 * math.pi))
SHIFT = tuple(float(x) for x in _rng.uniform(-10.0, 10.0, 2))

VERDICT_CA = ((1.0, 0.0), (0.5, 0.0), (-0.6, -0.25))
WINDOW_C = -0.6                  # every fixture has a window here
STUDY_C, STUDY_A, STUDY_SIZES = 0.5, -0.25, (8, 16, 32, 64)
CRACK_FREE = tuple(n for n in ALL_DOMAINS if n not in CRACK_DOMAINS)


# -- transforms of a domain document ---------------------------------------
# each returns the new document and the map from old to new vertex ids

def _moved(doc, f):
    doc = copy.deepcopy(doc)
    for v in doc["vertices"]:
        v["x"], v["y"] = f(v["x"], v["y"])
    for e in doc["edges"]:
        if "params" in e:
            e["params"]["center"] = list(f(*e["params"]["center"]))
    return doc


def _rotated(doc):
    c, s = math.cos(ANGLE), math.sin(ANGLE)
    doc = _moved(doc, lambda x, y: (c * x - s * y, s * x + c * y))
    for e in doc["edges"]:
        if "params" in e:
            e["params"]["theta_start"] += ANGLE
            e["params"]["theta_end"] += ANGLE
    return doc


def _renamed(doc):
    # new names in reverse order, so they also sort the other way
    doc = copy.deepcopy(doc)
    names = {v["id"]: f"V{i}"
             for i, v in enumerate(reversed(doc["vertices"]))}
    for v in doc["vertices"]:
        v["id"] = names[v["id"]]
    for i, e in enumerate(doc["edges"]):
        e["id"] = f"E{len(doc['edges']) - i}"
        for end in ("from", "to"):
            if end in e:
                e[end] = names[e[end]]
    return doc, names


def _reversed_edge_list(doc):
    doc = copy.deepcopy(doc)
    doc["edges"].reverse()
    return doc


def _reversed_edges(doc):
    doc = copy.deepcopy(doc)
    for e in doc["edges"]:
        if "from" in e:
            e["from"], e["to"] = e["to"], e["from"]
        if "params" in e:
            p = e["params"]
            p["theta_start"], p["theta_end"] = p["theta_end"], p["theta_start"]
    return doc


def _same_names(transform):
    return lambda doc: (transform(doc), {v["id"]: v["id"]
                                         for v in doc["vertices"]})


TRANSFORMS = {
    "rotation": _same_names(_rotated),
    "translation": _same_names(lambda doc: _moved(
        doc, lambda x, y: (x + SHIFT[0], y + SHIFT[1]))),
    "scaling-1e3": _same_names(lambda doc: scaled_doc(doc, 1e3)),
    "scaling-37": _same_names(lambda doc: scaled_doc(doc, 37.0)),
    "renaming": _renamed,
    "reversed-edge-list": _same_names(_reversed_edge_list),
    "reversed-edges": _same_names(_reversed_edges),
}
# the transforms that keep sigma to 1e-12: renaming and relisting leave
# every node where it was, and an edge run backward is meshed as its base
# edge, from that edge's start, and reversed (measured within 1.2e-15)
SIGMA_KEPT = ("renaming", "reversed-edge-list", "reversed-edges")


@functools.cache
def _doc(name, transform=None):
    """(document, map from old vertex ids to new) of a transformed fixture."""
    with open(domain_path(name)) as fh:
        doc = json.load(fh)
    if transform is None:
        return doc, {v["id"]: v["id"] for v in doc["vertices"]}
    return TRANSFORMS[transform](doc)


def _back(uid, names):
    # a stratum id is a vertex id with an optional "#c<k>" sector suffix
    old = {new: v for v, new in names.items()}
    vid, sep, sector = uid.partition("#")
    return old[vid] + sep + sector


@functools.cache
def _windows(name, transform=None):
    doc, names = _doc(name, transform)
    rep = lp.domain_windows(pf.parse_domain(doc), WINDOW_C)
    return ({_back(uid, names): w for uid, w in rep.per_vertex.items()},
            rep.global_window)


@functools.cache
def _study(name, transform=None):
    d = pf.parse_domain(_doc(name, transform)[0])
    return lp.min_singular_value_study(d, STUDY_C, STUDY_A,
                                       mesh_sizes=STUDY_SIZES)


def _analyze(path, names, c, a):
    res = CliRunner().invoke(main, ["analyze", str(path), "--c", repr(c),
                                    "--a", repr(a)])
    rep = json.loads(res.stdout)
    return (res.exit_code, rep["verdict"],
            sorted(_back(uid, names) for uid in rep["witnesses"]))


@functools.cache
def _analyze_fixture(name, c, a):
    return _analyze(domain_path(name), _doc(name)[1], c, a)


cases = pytest.mark.parametrize("transform", TRANSFORMS)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@cases
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_verdicts_are_invariant(tmp_path, name, transform):
    doc, names = _doc(name, transform)
    path = tmp_path / "domain.json"
    path.write_text(json.dumps(doc))
    for c, a in VERDICT_CA:
        assert _analyze(path, names, c, a) == _analyze_fixture(name, c, a), \
            (c, a)


@cases
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_windows_are_invariant(name, transform):
    (per_vertex, window), (want, want_window) = \
        _windows(name, transform), _windows(name)
    assert per_vertex.keys() == want.keys()
    for uid, w in [*want.items(), ("global", want_window)]:
        got = per_vertex.get(uid, window)
        assert (got is None) == (w is None), uid
        if w is not None:
            assert max(abs(x - y) for x, y in zip(got, w)) <= 1e-9, uid


@cases
@pytest.mark.parametrize("name", ALL_DOMAINS)
def test_study_trends_are_invariant(name, transform):
    assert _study(name, transform).trend == _study(name).trend


@pytest.mark.parametrize("transform", [
    t if t in SIGMA_KEPT else pytest.param(t, marks=pytest.mark.xfail(
        strict=True, reason="ROADMAP item 16: the Nystrom matrix is formed "
                            "from absolute node coordinates"))
    for t in TRANSFORMS])
def test_study_sigma_is_invariant(transform):
    for name in CRACK_FREE:
        for row, want in zip(_study(name, transform).rows, _study(name).rows):
            assert row[:2] == want[:2]
            assert abs(row[2] - want[2]) <= 1e-12 * want[2], (name, row, want)
