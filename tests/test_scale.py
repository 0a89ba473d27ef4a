"""The CLI on fixtures scaled by powers of two, which is exact.

window, study and solve answer a domain scaled by 2^k as they answer the
domain itself, within the Nystrom layer's range 2^-400 .. 2^400; beyond it
solve and study exit 3 before any arithmetic can warn, while window, which
meshes nothing, is unchanged.
"""

import functools
import json
import warnings

import pytest
from click.testing import CliRunner

from polyfred.cli import main

from conftest import domain_path, scaled_doc

NAMES = ("square", "lshape")
COMMANDS = {
    "window": [],
    "study": ["--c", "1", "--a", "-0.25",
              "--mesh-n", "8", "--mesh-n", "16", "--mesh-n", "32"],
    "solve": ["--g", "x^2-y^2"],
}


def _run(path, cmd):
    """(exit code, report without config or None, stderr, RuntimeWarning
    count) of one CLI run."""
    with warnings.catch_warnings(record=True) as seen:
        warnings.simplefilter("always")
        res = CliRunner().invoke(main, [cmd, str(path), *COMMANDS[cmd]])
    report = json.loads(res.stdout) if res.stdout else None
    if report is not None:
        del report["config"]
    n_warn = sum(issubclass(w.category, RuntimeWarning) for w in seen)
    return res.exit_code, report, res.stderr, n_warn


@functools.cache
def _unscaled(name, cmd):
    return _run(domain_path(name), cmd)


def _scaled(tmp_path, name, k, cmd):
    with open(domain_path(name)) as fh:
        doc = scaled_doc(json.load(fh), 2.0 ** k)
    path = tmp_path / f"{name}_{k}.json"
    path.write_text(json.dumps(doc))
    return _run(path, cmd)


def _close(x, y):
    return abs(x - y) <= 1e-12 * abs(y)


@pytest.mark.parametrize("k", (-3, 3, 8, -600, 600))
@pytest.mark.parametrize("name", NAMES)
def test_window_is_scale_free(tmp_path, name, k):
    assert _scaled(tmp_path, name, k, "window") == _unscaled(name, "window")


@pytest.mark.parametrize("k", (-3, 3, 8))
@pytest.mark.parametrize("name", NAMES)
def test_study_is_scale_free(tmp_path, name, k):
    code, got, _, n_warn = _scaled(tmp_path, name, k, "study")
    want = _unscaled(name, "study")[1]
    assert (code, n_warn) == (0, 0)
    assert got["trend"] == want["trend"]
    assert [r[:2] for r in got["table"]] == [r[:2] for r in want["table"]]
    assert all(_close(g[2], w[2])
               for g, w in zip(got["table"][1:], want["table"][1:]))


@pytest.mark.parametrize("k", (-3, 3, 8))
@pytest.mark.parametrize("name", NAMES)
def test_solve_is_scale_free(tmp_path, name, k):
    # the probe margin and the error scale with the domain and the data,
    # and the residual is checked relative to the data
    code, got, stderr, n_warn = _scaled(tmp_path, name, k, "solve")
    want = _unscaled(name, "solve")[1]
    assert (code, n_warn) == (0, 0), stderr
    assert got["interior_points_tested"] == want["interior_points_tested"] > 0
    assert _close(got["max_interior_relative_error"],
                  want["max_interior_relative_error"])


@pytest.mark.parametrize("cmd", ("solve", "study"))
@pytest.mark.parametrize("k", (-600, 600))
@pytest.mark.parametrize("name", NAMES)
def test_nystrom_rejects_extreme_scales(tmp_path, name, k, cmd):
    code, report, stderr, n_warn = _scaled(tmp_path, name, k, cmd)
    assert (code, report, n_warn) == (3, None, 0)
    assert stderr.startswith("error: ") and stderr.count("\n") == 1
    assert "beyond the Nystrom layer's range" in stderr
