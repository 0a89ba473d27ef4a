"""End-to-end and per-layer benchmark of the ``polyfred`` command.

Run from the root of a checkout (it needs ``src/polyfred`` and ``domains/``):

    python3 perfbench/run.py --workload window-matrix --seed 1 --seconds 20 --trace 0

One client runs CLI queries in-process in a closed loop: each query starts
when the previous one has returned.  A run executes passes of the workload's
query set (see ``workloads.py``): at least two, and more while the next one
would still end within ``--seconds``.  Every answer is checked afterwards
against the closed-form oracle in ``oracle.py``.

``--trace 0`` reports the end-to-end metrics.  Each slot of the query set
takes the latency of its fastest twin across the passes:
  run_s        sum of the slot latencies: the query set, back to back
  op_p50_s     median slot latency; op_p90_s the 90th percentile
  peak_rss_mb  peak resident memory of the run process
  setup_s      median over three fresh processes of: interpreter start,
               imports, parse of every fixture and a LAPACK warm-up
``--trace 1`` installs the wrappers of ``tracing.py`` and reports the
per-layer metrics as totals per pass, and runs the same seed untraced in a
child process to report the tracing overhead on run_s.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and any failed query.  Query records (and spans,
when traced) go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gzip
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

# one BLAS thread (at most nproc): on a small machine shared with other work
# a single thread keeps the run-to-run spread low.  Set before numpy is
# imported; child processes inherit it.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
MIN_PASSES = 2
WARMUP_N = 256               # above OpenBLAS's threading threshold
CHILD_TIMEOUT = 170

UNITS = {"run_s": "s", "op_p50_s": "s", "op_p90_s": "s", "peak_rss_mb": "MB",
         "setup_s": "s"}


def checkout_root() -> Path:
    root = Path.cwd()
    if not (root / "src" / "polyfred" / "__init__.py").is_file() \
            or not (root / "domains").is_dir():
        sys.exit(f"error: {root} holds no src/polyfred and domains/; run from "
                 "the root of a polyfred checkout")
    return root


def setup(root: Path) -> dict:
    """Import the program from this checkout, parse every fixture and warm
    up LAPACK.  Returns the modules the run uses."""
    sys.path.insert(0, str(root / "src"))
    import numpy as np
    import scipy
    import scipy.integrate
    import scipy.linalg
    import scipy.optimize
    from click.testing import CliRunner

    import polyfred
    from polyfred import cli, geometry, layerpot, mellin

    if not Path(polyfred.__file__).resolve().is_relative_to((root / "src").resolve()):
        sys.exit(f"error: polyfred imported from {polyfred.__file__}")
    for path in sorted((root / "domains").glob("*.json")):
        geometry.parse_domain(str(path))
    rng = np.random.default_rng(0)
    np.linalg.svd(rng.standard_normal((WARMUP_N, WARMUP_N)), compute_uv=False)
    np.linalg.solve(rng.standard_normal((WARMUP_N, WARMUP_N)),
                    rng.standard_normal(WARMUP_N))
    return {"np": np, "scipy": scipy, "cli": cli, "layerpot": layerpot,
            "mellin": mellin, "runner": CliRunner()}


def setup_seconds(root: Path) -> list[float]:
    """Wall time of fresh processes that only set up and exit."""
    out = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()),
                        "--setup-probe"], cwd=root, check=True,
                       timeout=CHILD_TIMEOUT)
        out.append(time.perf_counter() - t0)
    return out


def environment(root: Path, np, scipy) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if (root / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                capture_output=True, text=True).stdout.strip()
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "polyfred").glob("*.py")):
        digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(),
            "cpus_available": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0], "numpy": np.__version__,
            "scipy": scipy.__version__,
            "openblas": blas.get("version"), "blas_threads": BLAS_THREADS,
            "commit": commit, "src_sha256": digest.hexdigest()[:16]}


def peak_rss_kib() -> float:
    """Peak resident set of this process image.  VmHWM, unlike ru_maxrss,
    does not carry over the resident set of the parent that forked it."""
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return float(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def run_query(ns: dict, query, tracer) -> dict:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        t0 = time.perf_counter()
        if tracer is None:
            res = ns["runner"].invoke(ns["cli"].main, query.argv)
        else:
            tracer.query = query.id
            idx = tracer.open("cli.query")
            try:
                res = ns["runner"].invoke(ns["cli"].main, query.argv)
            finally:
                tracer.close(idx)
        latency = time.perf_counter() - t0
    exc = res.exception
    raised = None if exc is None or isinstance(exc, SystemExit) \
        else f"{type(exc).__name__}: {exc}"
    return {"id": query.id, "latency_s": latency, "exit_code": res.exit_code,
            "raised": raised, "stdout": res.stdout,
            "runtime_warnings": sum(issubclass(w.category, RuntimeWarning)
                                    for w in caught)}


def untraced_run_s(args) -> float:
    """run_s of the same seed without tracing, from a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds",
         str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]["run_s"]["value"]


def main() -> None:
    if sys.argv[1:] == ["--setup-probe"]:
        setup(checkout_root())
        return

    import tracing
    import workloads

    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = checkout_root()

    baseline_run_s = untraced_run_s(args) if args.trace else None
    setup_s = None if args.trace else setup_seconds(root)
    ns = setup(root)
    import oracle                    # imports polyfred from the checkout
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install(ns["cli"], ns["layerpot"], ns["mellin"], ns["np"], ns["scipy"])

    records, pass_s = [], []
    start = time.perf_counter()
    try:
        for batch in workloads.passes(args.workload, args.seed, root / "domains"):
            if len(pass_s) >= MIN_PASSES \
                    and time.perf_counter() - start + pass_s[-1] > args.seconds:
                break
            t0 = time.perf_counter()
            for q in batch:
                records.append((q, run_query(ns, q, tracer)))
            pass_s.append(time.perf_counter() - t0)
    finally:
        if tracer is not None:
            tracer.remove()
    peak_rss_mb = peak_rss_kib() / 1024.0

    for q, rec in records:
        rec["reason"] = rec["raised"] or oracle.check(q, rec["exit_code"], rec["stdout"])
    failures = {rec["id"]: rec["reason"] for _, rec in records if rec["reason"]}
    # per slot of the query set, the fastest of its twins
    slots = len(records) // len(pass_s)
    slot_s = [min(rec["latency_s"] for _, rec in records[i::slots])
              for i in range(slots)]
    run_s = sum(slot_s)

    if args.trace:
        metrics = tracer.layer_metrics()
        self_s = sum(metrics[k] for k in set(tracing.SELF_METRIC.values()))
        for code in range(4):
            metrics[f"cli.exit_code.{code}"] = sum(
                rec["exit_code"] == code for _, rec in records)
        metrics["cli.runtime_warnings"] = sum(
            rec["runtime_warnings"] for _, rec in records)
        # totals per pass of the query set
        metrics = {k: v if k.endswith("_frac") else v / len(pass_s)
                   for k, v in metrics.items()}
        metrics["trace.self_sum_frac"] = self_s / sum(pass_s)
        metrics["trace.overhead_s"] = run_s - baseline_run_s
        metrics["trace.overhead_frac"] = run_s / baseline_run_s - 1.0
        units = {k: _layer_unit(k) for k in metrics}
    else:
        metrics = {"run_s": run_s,
                   "op_p50_s": statistics.median(slot_s),
                   "op_p90_s": statistics.quantiles(slot_s, n=10,
                                                    method="inclusive")[8],
                   "peak_rss_mb": peak_rss_mb,
                   "setup_s": statistics.median(setup_s)}
        units = UNITS

    env = environment(root, ns["np"], ns["scipy"])
    summary = {"workload": args.workload, "seed": args.seed,
               "trace": args.trace, "passes": len(pass_s),
               "queries": len(records), "pass_s": pass_s,
               "setup_samples_s": setup_s, "env": env, "failures": failures}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    doc = dict(summary, metrics=metrics, queries=[
        dict({k: v for k, v in rec.items() if k != "stdout"}, query=asdict(q))
        for q, rec in records])
    if tracer is not None:
        doc["trace"] = tracer.dump()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json.gz"
    with gzip.open(out_dir / name, "wt") as fh:
        json.dump(doc, fh)

    print(json.dumps(summary))
    print(json.dumps({
        "correct": not failures, "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "ratio"
    if name == "layerpot.svd_flops_computed":
        return "flop"
    return "count"


if __name__ == "__main__":
    main()
