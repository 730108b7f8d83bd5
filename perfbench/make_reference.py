"""Write the stored reference outputs the correctness gate compares against.

From the root of a checkout:

    python3 perfbench/make_reference.py

It rewrites the reference of every workload at both sizes.  Each file
holds the outputs of the first passes of the reference seed, plus the
seed-independent expectations (crossings per pair for each critical-scan
family).  Regenerate only when the computed physics is meant
to change, and say so in the change that does it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import workloads  # noqa: E402

WORK = ROOT / ".bench_build" / "perfbench"


def passes_needed(wl) -> int:
    cfg = wl.cfg
    if "ref_points" in cfg:
        return -(-cfg["ref_points"] // cfg["pass_points"])
    return cfg["ref_passes"]


def make(name: str, size: str) -> Path:
    WORK.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[name](workloads.REFERENCE_SEED, size, WORK)
    wl.warm_up()
    passes = [wl.run_pass(wl.next_pass()) for _ in range(passes_needed(wl))]
    data = {"workload": name, "size": size, "seed": workloads.REFERENCE_SEED,
            **wl.reference_data(passes)}
    verdict = workloads.Verdict()
    for p in passes:
        wl.check(p, verdict, data["invariant"], data["exact"])
    if verdict.failed:
        raise SystemExit(f"{name}/{size}: outputs fail their own invariants: "
                         f"{verdict.messages}")
    path = BENCH_DIR / "reference" / f"{name}-{size}.json"
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(data, separators=(",", ":")) + "\n")
    return path


def main() -> int:
    for size in ("tiny", "full"):
        for name in sorted(workloads.WORKLOADS):
            print(make(name, size))
    return 0


if __name__ == "__main__":
    sys.exit(main())
