"""Measure the steadiness of the benchmark and record a baseline.

    python3 perfbench/baseline.py [--runs 10] [--first-seed 101] [--workload W]

Runs ``run.py`` --runs times on each workload, each time with another seed,
and reports per end-to-end metric the median and the spread: the distance
between the first and third quartile (``statistics.quantiles(n=4)``) as a
share of the median, next to the metric's bound in BENCHMARK.json.  Then
runs each workload once traced (seed --first-seed) for its per-layer
metrics.  Updates ``perfbench/baseline.json`` with those figures, the
environment, and the failing query ids of the last census
(``perfbench/out/census.json``, made by ``census.py``).  --runs 0 only
refreshes the traced figures and the census.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
from pathlib import Path

import run

BASELINE = run.HERE / "baseline.json"


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=101)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args()
    root = run.checkout_root()
    spec = json.loads((root / "BENCHMARK.json").read_text())
    names = args.workload or [w["name"] for w in spec["workloads"]]

    doc = json.loads(BASELINE.read_text()) if BASELINE.exists() else {}
    doc.setdefault("workloads", {})

    def bench(name, seed, trace):
        proc = subprocess.run(
            spec["command"] + ["--workload", name, "--seed", str(seed),
                               "--seconds", str(spec["run_seconds"]),
                               "--trace", str(trace)],
            cwd=root, capture_output=True, text=True, check=True, timeout=180)
        lines = proc.stdout.strip().splitlines()
        doc["env"] = json.loads(lines[-2])["env"]
        return json.loads(lines[-1])

    for name in names:
        row = doc["workloads"].setdefault(name, {})
        if args.runs:
            results = [bench(name, args.first_seed + i, 0) for i in range(args.runs)]
            row.update({
                "seeds": [args.first_seed, args.first_seed + args.runs - 1],
                "attempted": [r["attempted"] for r in results],
                "fail_frac": sum(r["failed"] for r in results)
                / sum(r["attempted"] for r in results),
                "metrics": {}})
            print(f"{name}: {row['attempted'][0]} queries per run, "
                  f"fail_frac {row['fail_frac']}")
            for m in spec["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in results]
                med = statistics.median(values)
                q1, _, q3 = statistics.quantiles(values, n=4)
                row["metrics"][m["name"]] = {
                    "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
                    "bound": m["bound"], "unit": m["unit"], "values": values}
                print(f"  {m['name']:12s} median {med:10.4f} {m['unit']:3s} "
                      f"spread {(q3 - q1) / med:.4f} (bound {m['bound']})")
        for m in spec["end_to_end"]:     # bounds as BENCHMARK.json has them now
            if m["name"] in row.get("metrics", {}):
                row["metrics"][m["name"]]["bound"] = m["bound"]
        traced = bench(name, args.first_seed, 1)
        row["per_layer"] = {k: v["value"] for k, v in traced["metrics"].items()}
        print(f"  traced: self times sum to "
              f"{row['per_layer']['trace.self_sum_frac']:.4f} of the pass time, "
              f"overhead {row['per_layer']['trace.overhead_frac']:+.3f}")

    census = run.HERE / "out" / "census.json"
    if census.exists():
        c = json.loads(census.read_text())
        doc["census"] = {
            "failing_ids": c["failing_ids"],
            "reasons": {r["id"]: r["reason"] for r in c["queries"] if r["reason"]},
            "runtime_warnings": {r["id"]: r["runtime_warnings"]
                                 for r in c["queries"] if r["runtime_warnings"]},
            "queries": len(c["queries"])}
    BASELINE.write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main()
