"""fdridge benchmark: one workload per invocation.

    python3 bench/run.py --workload stream-rff --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``.
With ``--trace 0`` the workload is timed untraced and the last stdout
line carries the end-to-end metrics; with ``--trace 1`` untraced and
traced passes alternate and the last line carries the per-layer metrics.
The line before it is a full report: every workload metric with its unit
and sample count, the checks, and the machine.  See bench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer, layer_modules, per_layer

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent

# BLAS threads are pinned to one for every workload.  On a 2-core box,
# going from 1 to 2 OpenBLAS threads slowed the RFF stream pass (small
# shrink SVDs) while it sped up the sweep (dense 512 x 512 solves); one
# thread keeps all workloads comparable and reduction order fixed.
BLAS_THREADS = 1
# Set-up repeats until it has run at least 3 times and 2.5 s (at most
# 30 times), so that sub-second set-ups still give a steady median.
SETUP_RUNS = (3, 30)
SETUP_SECONDS = 2.5


def _pin_blas():
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _blas_threads():
    """Threads reported by the OpenBLAS builds numpy and scipy load."""
    import ctypes
    import glob
    import numpy
    import scipy
    found = {}
    for pkg, symbols in ((numpy, ("scipy_openblas_get_num_threads64_",
                                  "openblas_get_num_threads64_",
                                  "openblas_get_num_threads")),
                         (scipy, ("scipy_openblas_get_num_threads",
                                  "openblas_get_num_threads"))):
        libdir = Path(pkg.__file__).parent.parent / f"{pkg.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            handle = ctypes.CDLL(lib)
            for sym in symbols:
                fn = getattr(handle, sym, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    found[pkg.__name__] = fn()
                    break
    return found


def _git_revision():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _src_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fdridge").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def machine():
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sblas = scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "blas": {"numpy": f"{blas.get('name')} {blas.get('version')}",
                 "scipy": f"{sblas.get('name')} {sblas.get('version')}",
                 "pinned_threads": BLAS_THREADS,
                 "reported_threads": _blas_threads()},
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
    }


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_untraced(wl, seconds, workdir, checks):
    setups = []
    while len(setups) < SETUP_RUNS[0] or (sum(setups) < SETUP_SECONDS
                                          and len(setups) < SETUP_RUNS[1]):
        t0 = time.perf_counter()
        state = wl.setup()
        setups.append(time.perf_counter() - t0)
    results, walls, ops = [], [], 0
    start = time.perf_counter()
    while not (time.perf_counter() - start >= seconds and wl.enough(results)):
        out = workdir / f"pass{len(results)}.csv"
        t0 = time.perf_counter()
        res = wl.run_pass(state, out)
        walls.append(time.perf_counter() - t0)
        ops += res["ops"]
        if not results:
            wl.check(state, res, checks)
        results.append(res)
    same = sum(r["output"] == results[0]["output"] for r in results[1:])
    checks.add("repeated passes give byte-identical output", same == len(results) - 1,
               f"{same} of {len(results) - 1} repeats identical to pass 0")
    metrics = {
        "setup_s": (statistics.median(setups), "s", len(setups)),
        "pass_s": (statistics.median(walls), "s", len(walls)),
        "peak_rss_mb": (peak_rss_mb(), "MB", 1),
    }
    metrics.update(wl.report(state, results))
    return metrics, ops, {"pass_walls_s": walls}


def run_traced(wl, seconds, workdir, checks):
    import fdridge
    tracer = Tracer()
    modules = layer_modules()
    tracer.install(modules, extra=[fdridge])
    tracer.run = "setup"
    with tracer.span("bench.setup"):
        state = wl.setup()
    tracer.uninstall()
    plain, traced, ops, same = [], [], 0, 0
    start = time.perf_counter()
    while not (time.perf_counter() - start >= seconds and traced):
        k = len(traced)
        t0 = time.perf_counter()
        base = wl.run_pass(state, workdir / f"plain{k}.csv")
        plain.append(time.perf_counter() - t0)
        if k == 0:
            wl.check(state, base, checks)
        tracer.install(modules, extra=[fdridge])
        tracer.run = f"pass{k}"
        t0 = time.perf_counter()
        with tracer.span("bench.pass"):
            res = wl.run_pass(state, workdir / f"traced{k}.csv")
        traced.append(time.perf_counter() - t0)
        tracer.uninstall()
        ops += base["ops"] + res["ops"]
        same += res["output"] == base["output"]
    checks.add("traced output byte-identical to untraced", same == len(traced),
               f"{same} of {len(traced)} traced passes identical")
    metrics = per_layer(tracer.spans, passes=len(traced))
    overhead = statistics.median(traced) - statistics.median(plain)
    metrics["trace.overhead_s"] = (overhead, "s", len(traced))
    metrics["trace.overhead_frac"] = (overhead / statistics.median(plain),
                                      "ratio", len(traced))
    spans_path = BENCH / "out" / f"spans-{wl.name}-seed{wl.seed}.jsonl"
    tracer.dump(spans_path)
    return metrics, ops, {"pass_walls_s": {"untraced": plain, "traced": traced},
                          "spans": str(spans_path.relative_to(ROOT))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny instances, for the smoke test only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "fdridge" / "__init__.py").is_file():
        print(f"bench: no program sources at {ROOT / 'src' / 'fdridge'}",
              file=sys.stderr)
        return 2
    _pin_blas()
    sys.path.insert(0, str(ROOT / "src"))
    t0 = time.perf_counter()
    import fdridge
    import workloads
    import_s = time.perf_counter() - t0
    if Path(fdridge.__file__).resolve().parent != ROOT / "src" / "fdridge":
        print(f"bench: imported fdridge from {fdridge.__file__}, not src/",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload](args.seed, args.smoke)
    checks = workloads.Checks()
    workdir = BENCH / "out" / f"{wl.name}-seed{wl.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    errors = 0
    metrics, extra = {}, {}
    try:
        if args.trace:
            metrics, ops, extra = run_traced(wl, args.seconds, workdir, checks)
        else:
            metrics, ops, extra = run_untraced(wl, args.seconds, workdir, checks)
            metrics["import_s"] = (import_s, "s", 1)
    except Exception as err:  # report the failure as a result, not a crash
        traceback.print_exc()
        errors, ops = 1, 1
        checks.add("workload ran without an exception", False, repr(err))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = ops + len(checks.items)
    failed = errors + checks.failed
    metrics["fail_frac"] = (failed / attempted, "ratio", attempted)
    report = {"workload": wl.name, "seed": wl.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": machine(),
              "metrics": {k: {"value": v, "unit": u, "samples": n}
                          for k, (v, u, n) in metrics.items()},
              "checks": checks.items, **extra}
    print(json.dumps({"report": report}))

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]][0],
                                      "unit": m["unit"]}
                          for m in wanted if m["name"] in metrics}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
