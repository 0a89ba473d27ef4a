"""The benchmark's tracer against the program as it is.

``perfbench/tracing.py`` wraps layer functions by name and reads fields of
their arguments and results.  Loading it unmodified around a window, a
study and a solve query makes a renamed function, field or parameter fail
here, not only in a traced benchmark run.
"""

import importlib.util

import numpy as np
import scipy
import scipy.integrate
import scipy.linalg
import scipy.optimize
from click.testing import CliRunner

from polyfred import cli, layerpot, mellin

from conftest import ROOT, domain_path


def _tracing_module():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_reads_window_and_study_queries():
    tracing = _tracing_module()
    tracer = tracing.Tracer()
    runner = CliRunner()
    queries = {"window/square": ["window", domain_path("square")],
               "study/square": ["study", domain_path("square"),
                                "--mesh-n", "8", "--mesh-n", "16"],
               "solve/square": ["solve", domain_path("square"), "--g", "x",
                                "--mesh-n", "8"]}
    scan = layerpot.invertibility_scan
    tracer.install(cli, layerpot, mellin, np, scipy)
    try:
        for qid, argv in queries.items():
            tracer.query = qid
            idx = tracer.open(tracing.ROOT)
            try:
                res = runner.invoke(cli.main, argv)
            finally:
                tracer.close(idx)
            assert res.exit_code == 0, (qid, res.output)
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    assert metrics["mellin.xi_samples"] > 0
    assert metrics["layerpot.nodes"] > 0
    assert metrics["layerpot.potential_targets"] > 0
    assert layerpot.invertibility_scan is scan           # removed again


# wrapped names that the tracer still carries but the program has dropped
# (ROADMAP item 6 takes them out of the tracer)
STALE_TRACED = {("layerpot", "build_groupoid"),
                ("mellin", "_dense_line_determinants"),
                ("mellin", "line_determinant")}


def test_every_traced_name_exists():
    # Tracer.wrap skips a missing attribute, so a function the program
    # renames or deletes would silently read 0 in its per-layer metric
    tracer = _tracing_module().Tracer()
    wrapped = []
    tracer.wrap = lambda owner, attr, name, count=None: wrapped.append(
        (owner, attr))
    tracer.install(cli, layerpot, mellin, np, scipy)
    assert wrapped
    missing = {(owner.__name__.rpartition(".")[2], attr)
               for owner, attr in wrapped if not hasattr(owner, attr)}
    assert missing <= STALE_TRACED
