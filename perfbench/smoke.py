"""Smoke test of the benchmark harness at tiny sizes.

From the root of a checkout:

    python3 perfbench/smoke.py

Each step runs `perfbench/run.py` in a fresh interpreter and checks that:
  1. every workload passes its correctness gate and prints every end-to-end
     metric (--trace 0) and every per-layer metric (--trace 1) with its unit;
  2. the gate fails, with exit code 1, against a perturbed reference;
  3. the harness exits non-zero without a result when the package sources
     are missing.
A last step, in this interpreter, checks that the point-scan gate rejects an
error-coded point and an unconverged one, and reports a missing
steady-state hook.
Exits 0 when all of them hold.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK = ROOT / ".bench_build" / "perfbench" / "smoke"
WORKLOADS = ("point-scan", "sweep-gkt", "critical-scan")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def run(workload, trace=0, cwd=ROOT, extra=()):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "0",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny", *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def perturb(name: str, data: dict) -> None:
    """Shift one stored output far outside the gate's tolerance."""
    exact = data["exact"]
    if name == "point-scan":
        exact["points"][0][3] *= 1.001                      # g2 of the first point
    elif name == "sweep-gkt":
        row = next(r for r in exact["passes"][0]["rows"] if r[-1] == "0")
        row[0] = repr(float(row[0]) * 1.001)                 # g2 of an emitting row
    else:
        exact["scans"][0]["crossings"][0][2] += 1e-3         # one crossing position


def point_gate_problems() -> list:
    """Feed the point-scan gate doctored results of one tiny pass."""
    sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]
    import workloads
    from rabistark import sweep

    wl = workloads.PointScan(workloads.REFERENCE_SEED, "tiny", WORK)
    good = wl.run_pass(wl.next_pass())
    idx, model, res = good.outputs[0]
    cases = {
        "a correct pass": good,
        "an error-coded point": dataclasses.replace(res, report=None, error_code=1),
        "an unconverged point": dataclasses.replace(res, converged=False),
    }
    problems = []
    for label, case in cases.items():
        p = good if case is good else dataclasses.replace(
            good, outputs=[(idx, model, case)] + good.outputs[1:])
        verdict = workloads.Verdict()
        wl.check(p, verdict, {}, {})
        if bool(verdict.failed) != (case is not good):
            problems.append(f"point-scan gate on {label}: {verdict}")

    wl.population_checks = 0
    solve = sweep.steady_populations
    del sweep.steady_populations
    try:
        verdict = workloads.Verdict()
        wl.check(good, verdict, {}, {})
    finally:
        sweep.steady_populations = solve
    if not verdict.failed:
        problems.append("point-scan gate passed without sweep.steady_populations")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    for name in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            done = run(name, trace)
            result = last_json(done.stdout)
            want = {m["name"]: m["unit"] for m in spec[key]}
            if done.returncode != 0 or result is None or set(result) != RESULT_KEYS:
                problems.append(f"{name} trace {trace}: exit {done.returncode}, "
                                f"result {result}, stderr {done.stderr[-500:]}")
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want or not result["correct"]:
                problems.append(f"{name} trace {trace}: metrics {got} correct {result['correct']}")

    refs = WORK / "perturbed-reference"
    shutil.rmtree(refs, ignore_errors=True)
    shutil.copytree(BENCH_DIR / "reference", refs)
    for name in WORKLOADS:
        path = refs / f"{name}-tiny.json"
        data = json.loads(path.read_text())
        perturb(name, data)
        path.write_text(json.dumps(data))
        done = run(name, extra=("--reference", str(refs)))
        result = last_json(done.stdout)
        if done.returncode != 1 or result is None or result["correct"]:
            problems.append(f"{name}: perturbed reference passed the gate "
                            f"(exit {done.returncode}, result {result})")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    done = run("point-scan", cwd=bare)
    if done.returncode == 0 or last_json(done.stdout) is not None:
        problems.append(f"without sources: exit {done.returncode}, stdout {done.stdout!r}")

    WORK.mkdir(parents=True, exist_ok=True)
    problems += point_gate_problems()

    for p in problems:
        print(f"FAIL {p}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} failure(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
