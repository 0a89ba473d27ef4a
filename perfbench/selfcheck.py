"""Self-check of the benchmark harness.

    python3 perfbench/selfcheck.py

1. The oracle accepts genuine CLI answers and rejects each of them after a
   deliberate perturbation (a window endpoint shifted by 1e-3, a flipped
   verdict, a flipped study trend, a solve error above tolerance, a margin
   off its closed form, a non-finite number, an undocumented exit code).
2. A short run (--seconds 1) of every workload, untraced and traced, ends
   with exit code 0 and emits every metric named in BENCHMARK.json, finite
   and with its unit.
3. In a directory that holds only BENCHMARK.json and the benchmark's files,
   a run exits with a non-zero code and prints no result.

Exits 0 when every check passes.  Takes about five minutes on two cores.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys

import run
from workloads import Query

FAILED = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what, flush=True)
    if not ok:
        FAILED.append(what)


def oracle_checks(root) -> None:
    ns = run.setup(root)
    import oracle

    def path(name):
        return str(root / "domains" / f"{name}.json")

    def answer(q):
        rec = run.run_query(ns, q, None)
        return rec["exit_code"], json.loads(rec["stdout"])

    def judge(q, code, report):
        return oracle.check(q, code, json.dumps(report))

    def perturbed(q, code, report, edit, what):
        bad = copy.deepcopy(report)
        edit(bad)
        expect(judge(q, code, bad) is not None, f"oracle rejects {what}")

    q = Query("window", "square", path("square"), 1.0)
    code, rep = answer(q)
    expect(judge(q, code, rep) is None, "oracle accepts window square c=1")
    vid = next(iter(rep["per_vertex"]))
    perturbed(q, code, rep, lambda r: r["per_vertex"][vid].__setitem__(
        0, r["per_vertex"][vid][0] + 1e-3), "a vertex window end shifted by 1e-3")
    perturbed(q, code, rep, lambda r: r["global_window"].__setitem__(
        1, r["global_window"][1] - 1e-3), "a global window end shifted by 1e-3")
    perturbed(q, code, rep, lambda r: r["margin_curve"][5].__setitem__(
        1, 1.1 * r["margin_curve"][5][1]), "a margin 10% off its closed form")
    perturbed(q, code, rep, lambda r: r["margin_curve"][3].__setitem__(
        1, float("nan")), "a non-finite margin")
    expect(oracle.check(q, 1, json.dumps(rep)) is not None,
           "oracle rejects an undocumented window exit code")

    q = Query("window", "square", path("square"), 0.5)
    code, rep = answer(q)
    expect(judge(q, code, rep) is not None,
           "oracle rejects a window around a reference weight that is a root")

    q = Query("analyze", "lshape", path("lshape"),
              1.0, a=0.3)
    code, rep = answer(q)
    expect(judge(q, code, rep) is None, "oracle accepts analyze lshape a=0.3")
    perturbed(q, code, rep, lambda r: r.__setitem__("verdict", "not Fredholm"),
              "a flipped verdict")
    perturbed(q, code, rep, lambda r: r["per_vertex"][next(iter(r["per_vertex"]))]
              .__setitem__("invertible", False), "a flipped vertex scan")

    q = Query("analyze", "slit_square",
              path("slit_square"), 1.0, a=0.0)
    code, rep = answer(q)
    expect(judge(q, code, rep) is None, "oracle accepts not Fredholm at crack tips")
    expect(judge(q, 0, dict(rep, verdict="Fredholm")) is not None,
           "oracle rejects Fredholm at crack tips with c=1")

    q = Query("study", "square", path("square"),
              1.0, a=-0.2, mesh_ns=(8, 16, 32))
    code, rep = answer(q)
    expect(judge(q, code, rep) is None, "oracle accepts study square c=1")
    perturbed(q, code, rep, lambda r: r.__setitem__("trend", "decaying"),
              "a flipped study trend")

    q = Query("solve", "square", path("square"), 1.0,
              g="x^2-y^2")
    code, rep = answer(q)
    expect(judge(q, code, rep) is None, "oracle accepts solve square x^2-y^2")
    perturbed(q, code, rep, lambda r: r.__setitem__(
        "max_interior_relative_error", 2e-3), "a solve error of 2e-3")


def metric_checks(root) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    cmd = spec["command"]
    for wl in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            proc = subprocess.run(
                cmd + ["--workload", wl["name"], "--seed", "1", "--seconds", "1",
                       "--trace", str(trace)],
                cwd=root, capture_output=True, text=True, timeout=180)
            what = f"{wl['name']} --trace {trace}"
            if proc.returncode != 0:
                expect(False, f"{what} exits 0 ({proc.stderr.strip()[-300:]})")
                continue
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(res) == {"correct", "attempted", "failed", "metrics"}
                   and res["correct"] and res["attempted"] >= 1,
                   f"{what} result line, correct, {res['attempted']} queries")
            for m in spec[key]:
                got = res["metrics"].get(m["name"])
                expect(got is not None and isinstance(got["value"], (int, float))
                       and math.isfinite(got["value"]) and got["unit"] == m["unit"],
                       f"{what} emits {m['name']} = {got}")


def bare_dir_check(root) -> None:
    bare = run.HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(root / "BENCHMARK.json", bare)
    spec = json.loads((root / "BENCHMARK.json").read_text())
    proc = subprocess.run(spec["command"] + ["--workload", spec["workloads"][0]["name"],
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    expect(proc.returncode != 0 and not proc.stdout.strip(),
           f"bare directory run exits {proc.returncode} without a result")
    shutil.rmtree(bare)


def main() -> None:
    root = run.checkout_root()
    oracle_checks(root)
    bare_dir_check(root)
    metric_checks(root)
    print(f"{len(FAILED)} check(s) failed" if FAILED else "all checks passed")
    sys.exit(1 if FAILED else 0)


if __name__ == "__main__":
    main()
