"""Run one rabistark benchmark workload and print its metrics.

From the root of a checkout:

    python3 perfbench/run.py --workload point-scan --seed 0 --seconds 30 --trace 0

The package is imported from the checkout's `src/`.  With `--trace 0` the run
repeats passes of the workload for `--seconds` and reports the end-to-end
metrics; with `--trace 1` it alternates untraced passes with traced replays
of the same inputs and reports the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the environment.  The exit code is 1
when the correctness gate fails and 2 when the run cannot start.

The benchmark leaves BLAS thread variables as it finds them: with several
BLAS threads per pool worker, `--workers 2` oversubscribes the cores, and
that is a defect of the program the benchmark must not hide.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
SETUP_SAMPLES = 3       # fresh interpreters per run; setup_s is their median
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("point-scan", "sweep-gkt", "critical-scan"))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: small inputs for the smoke test")
    p.add_argument("--reference", type=Path, default=BENCH_DIR / "reference",
                   help="directory of stored reference outputs")
    p.add_argument("--setup-only", action="store_true",
                   help="time the set-up alone and print it (used internally)")
    return p.parse_args(argv)


def setup(args):
    """Import the package, build the inputs and run one warm-up evaluation."""
    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(BENCH_DIR)]
    import rabistark
    if Path(rabistark.__file__).resolve().parent != SRC / "rabistark":
        raise SystemExit(f"rabistark imported from {rabistark.__file__}, not {SRC}")
    import workloads
    WORK.mkdir(parents=True, exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, args.size, WORK)
    wl.warm_up()
    return time.perf_counter() - start, wl


def setup_in_fresh_interpreter(args) -> float:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise SystemExit(f"set-up failed in a fresh interpreter:\n{done.stderr}")
    return float(done.stdout.strip().splitlines()[-1])


def cpu_seconds() -> float:
    """CPU time of this process and its reaped children (pool workers)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def measure(wl, seconds: float, checked) -> list:
    passes = []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or not wl.done(passes):
        passes.append(checked(wl.run_pass(wl.next_pass())))
    return passes


def end_to_end(passes, setup_s: float) -> dict:
    point_ms = [t for p in passes for t in p.point_ms]
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "points_per_s": sum(p.points for p in passes) / sum(p.wall for p in passes),
        "point_ms_p50": statistics.median(point_ms),
        "point_ms_p90": statistics.quantiles(point_ms, n=10, method="inclusive")[8],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def traced_run(wl, seconds: float, tracer, checked):
    """Untraced passes, each followed by a traced replay of its inputs."""
    from spans import layer_metrics

    untraced, traced, layers, spans, cpu = [], [], [], [], 0.0
    pool = None
    if wl.name == "sweep-gkt":
        # The process pool as the user runs it; its spans live in the workers,
        # so the per-stage spans come from the --workers 1 replays below.
        before = cpu_seconds()
        pool = wl.run_pass(wl.next_pass(), workers=2)
        pool_cpu = cpu_seconds() - before
        checked(pool)
    start = time.perf_counter()
    while not untraced or time.perf_counter() - start < seconds:
        inputs = wl.next_pass()
        before = cpu_seconds()
        untraced.append(wl.run_pass(inputs))
        cpu += cpu_seconds() - before
        checked(untraced[-1])
        tracer.install()
        try:
            traced.append(wl.run_pass(inputs))
        finally:
            tracer.uninstall()
        checked(traced[-1])
        taken = tracer.take()
        layers.append(layer_metrics(taken))
        spans.extend(taken)

    m = {k: statistics.median(d[k] for d in layers) for k in layers[0]}
    plain = statistics.median(p.wall for p in untraced)
    m["trace_overhead_share"] = statistics.median(p.wall for p in traced) / plain - 1.0
    everything = untraced + traced + ([pool] if pool else [])
    m["failed_share"] = (sum(p.error_coded for p in everything)
                         / sum(p.points for p in everything))
    if pool is not None:
        m["sweep.cpu_per_point_s"] = pool_cpu / pool.points
        m["sweep.pool_wall_s"] = pool.wall
        m["sweep.pool_speedup"] = plain / pool.wall
    else:
        m["sweep.cpu_per_point_s"] = cpu / sum(p.points for p in untraced)
        m["sweep.pool_wall_s"] = 0.0
        m["sweep.pool_speedup"] = 0.0
    return everything, m, spans


def _blas_info() -> dict:
    import numpy
    import scipy
    info = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        info["blas"] = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    except (AttributeError, KeyError):
        info["blas"] = None
    return info


def environment() -> dict:
    import multiprocessing
    digest = hashlib.sha256()
    for path in sorted((SRC / "rabistark").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        got = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = got.stdout.strip() or None
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        **_blas_info(),
        "start_method": multiprocessing.get_start_method(),
        "commit": commit,
        "src_sha256": digest.hexdigest(),
        "blas_threads_env": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def load_reference(args, workload_name: str):
    path = args.reference / f"{workload_name}-{args.size}.json"
    data = json.loads(path.read_text())
    exact = data["exact"] if data["seed"] == args.seed else {}
    return data["invariant"], exact


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "rabistark" / "__init__.py").is_file():
        print(f"no rabistark sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_s, _ = setup(args)
        print(setup_s)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    setup_times = [setup_in_fresh_interpreter(args)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
    own_setup, wl = setup(args)
    setup_times.append(own_setup)
    invariant, exact = load_reference(args, wl.name)
    from workloads import Verdict
    verdict = Verdict()

    def checked(p):
        """Gate a pass as soon as it ends, then keep only its timings."""
        wl.check(p, verdict, invariant, exact)
        p.outputs = None
        return p

    if args.trace:
        import rabistark
        from spans import Tracer, write_spans
        tracer = Tracer({"sweep": rabistark.sweep, "spectrum": rabistark.spectrum,
                         "cli": rabistark.cli})
        passes, values, spans = traced_run(wl, args.seconds, tracer, checked)
        write_spans(spans, WORK / f"spans-{wl.name}-seed{args.seed}.jsonl")
        wanted = spec["per_layer"]
    else:
        passes = measure(wl, args.seconds, checked)
        values = end_to_end(passes, statistics.median(setup_times))
        wanted = spec["end_to_end"]

    env = environment()
    result = {
        "correct": verdict.failed == 0,
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }
    for message in verdict.messages:
        print(f"check failed: {message}", file=sys.stderr)
    record = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "setup_samples_s": setup_times,
              "passes": len(passes), "env": env, "result": result,
              "check_messages": verdict.messages}
    (WORK / f"result-{wl.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
