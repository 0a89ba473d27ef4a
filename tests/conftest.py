"""Shared fixtures: parsed domain files from the domains/ directory."""

import copy
import math
import pathlib

import pytest

import polyfred as pf

ROOT = pathlib.Path(__file__).resolve().parents[1]

# one line per acceptance criterion, echoed in the terminal summary
CRITERION_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if CRITERION_LINES:
        terminalreporter.section("acceptance criteria")
        for line in CRITERION_LINES:
            terminalreporter.write_line(line)

DOMAINS = ROOT / "domains"

ALL_DOMAINS = ("square", "lshape", "hexagon", "circle",
               "slit_square", "slit_disk", "tcrack_square")
CRACK_DOMAINS = ("slit_square", "slit_disk", "tcrack_square")


def domain_path(name: str) -> str:
    return str(DOMAINS / f"{name}.json")


def scaled_doc(doc, f):
    """The domain document with every length multiplied by f."""
    doc = copy.deepcopy(doc)
    for v in doc["vertices"]:
        v["x"], v["y"] = f * v["x"], f * v["y"]
    for e in doc["edges"]:
        if "params" in e:
            p = e["params"]
            p["center"] = [f * x for x in p["center"]]
            p["radius"] = f * p["radius"]
    return doc


def domain_doc(vertices, edges):
    """A domain document: vertices maps ids to (x, y), and edges maps ids
    to (from, to) or (from, to, further fields)."""
    return {"vertices": [{"id": v, "x": x, "y": y}
                         for v, (x, y) in vertices.items()],
            "edges": [{"id": e, "from": f, "to": t, **(more[0] if more else {})}
                      for e, (f, t, *more) in edges.items()]}


def arc(center, radius, theta_start, theta_end):
    return {"kind": "arc", "params": {"center": center, "radius": radius,
                                      "theta_start": theta_start,
                                      "theta_end": theta_end}}


CRACK = {"crack": True}

# domains whose boundary is no closed curve of edges that meet only at
# their shared vertices, with every cone angle in (0, 2 pi)
MALFORMED_DOMAINS = {
    # b -> c has length 0
    "zero-length-edge": domain_doc(
        {"a": (0, 0), "b": (1, 0), "c": (1, 0)},
        {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "a")}),
    # x -> v runs back over v -> y
    "overlap": domain_doc(
        {"v": (0, 0), "y": (2, 0), "p": (0, 1), "x": (1, 0)},
        {"e0": ("v", "y"), "e1": ("y", "p"), "e2": ("p", "x"),
         "e3": ("x", "v")}),
    # t lies inside a -> b
    "t-junction": domain_doc(
        {"a": (0, 0), "b": (2, 0), "c": (2, 2), "t": (1, 0), "d": (0, 2)},
        {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "t"),
         "e3": ("t", "d"), "e4": ("d", "a")}),
    # the crack tip t lies inside a -> b
    "crack-tip-on-edge": domain_doc(
        {"a": (0, 0), "b": (2, 0), "c": (2, 2), "d": (0, 2), "p": (0, 1),
         "t": (1, 0)},
        {"e0": ("a", "b"), "e1": ("b", "c"), "e2": ("c", "d"),
         "e3": ("d", "p"), "e4": ("p", "a"), "k": ("p", "t", CRACK)}),
    # both arcs leave a along the x axis: a cusp of angle 0
    "horn": domain_doc(
        {"a": (0, 0), "b": (2, 2), "c": (1, 1)},
        {"e0": ("a", "b", arc([0, 2], 2.0, -math.pi / 2, 0.0)),
         "e1": ("b", "c"),
         "e2": ("c", "a", arc([0, 1], 1.0, 0.0, -math.pi / 2))}),
    # the arc n runs from (4.90, 0.99) to (4.39, 2.40), far from c and d
    "arc-off-its-vertices": domain_doc(
        {"a": (-1, -1), "b": (1, -1), "c": (1, 1), "d": (-1, 1)},
        {"s": ("a", "b"), "e": ("b", "c"),
         "n": ("c", "d", arc([0, 0], 5.0, 0.2, 0.5)), "w": ("d", "a")}),
    # the arc n runs from c to d on the circle of center (0, 10) the short
    # way plus one more turn, over itself
    "arc-over-a-full-turn": domain_doc(
        {"a": (-1, -1), "b": (1, -1), "c": (1, 1), "d": (-1, 1)},
        {"s": ("a", "b"), "e": ("b", "c"),
         "n": ("c", "d", arc([0, 10], math.sqrt(82), math.atan2(-9, 1),
                             math.atan2(-9, -1) - 2 * math.pi)),
         "w": ("d", "a")}),
}


@pytest.fixture(scope="session")
def square():
    return pf.parse_domain(domain_path("square"))


@pytest.fixture(scope="session")
def lshape():
    return pf.parse_domain(domain_path("lshape"))


@pytest.fixture(scope="session")
def hexagon():
    return pf.parse_domain(domain_path("hexagon"))


@pytest.fixture(scope="session")
def circle():
    return pf.parse_domain(domain_path("circle"))


@pytest.fixture(scope="session")
def slit_square():
    return pf.parse_domain(domain_path("slit_square"))


@pytest.fixture(scope="session")
def slit_disk():
    return pf.parse_domain(domain_path("slit_disk"))


@pytest.fixture(scope="session")
def tcrack_square():
    return pf.parse_domain(domain_path("tcrack_square"))
