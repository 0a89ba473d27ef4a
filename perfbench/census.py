"""Run every fixture through every subcommand and report the answers the
oracle rejects.

    python3 perfbench/census.py [--out perfbench/out/census.json]

The timed workloads hold only queries that the program answered correctly
when the benchmark was defined; this census runs the full matrix, including
the queries left out of the workloads, so known defects stay visible.  It
prints one JSON document: per query the exit code, exception, RuntimeWarning
count, latency and oracle verdict, and the sorted list of failing ids.
Compare that list with ``failing_ids`` in ``baseline.json``.  Untimed;
takes about three minutes on two cores.
"""

from __future__ import annotations

import argparse
import json
import random
from pathlib import Path

import run
import workloads
from workloads import FIXTURES, Query

# data whose harmonic extension the solve must reproduce to acceptance
# criterion 8's tolerance; the workload keeps to the first family
SOLVE_DATA = ("x^2-y^2", "re(z)", "im(z^2)", "re(z^3)", "im(z^4)")


def census_queries(domains: Path) -> list[Query]:
    rng = random.Random("census")

    def path(name):
        return str(domains / f"{name}.json")

    out = []
    for name in FIXTURES:
        for c in workloads.FIXED_C + (workloads.generic_c(rng),):
            out.append(Query("window", name, path(name), c))
            out.append(Query("analyze", name,
                             path(name), c, a=0.0))
        for c in (1.0, -1.0, 0.5):
            out.append(Query("study", name,
                             path(name), c, a=-0.25, mesh_ns=(8, 16, 32, 64)))
    for name in workloads.SOLVE_FIXTURES:
        for g in SOLVE_DATA:
            out.append(Query("solve", name, path(name),
                             1.0, g=g))
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--out", type=Path, default=run.HERE / "out" / "census.json")
    args = ap.parse_args()
    root = run.checkout_root()
    ns = run.setup(root)
    import oracle

    rows = []
    for q in census_queries(root / "domains"):
        rec = run.run_query(ns, q, None)
        rec["reason"] = rec["raised"] or oracle.check(q, rec["exit_code"], rec["stdout"])
        del rec["stdout"]
        rows.append(rec)
    doc = {"env": run.environment(root, ns["np"], ns["scipy"]),
           "failing_ids": sorted(r["id"] for r in rows if r["reason"]),
           "queries": rows}
    args.out.parent.mkdir(exist_ok=True)
    args.out.write_text(json.dumps(doc, indent=1) + "\n")
    print(json.dumps(doc, indent=1))


if __name__ == "__main__":
    main()
