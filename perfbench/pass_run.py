"""One pass of one workload in a fresh interpreter (started by run.py).

Times the import of wsaw4 and its modules from the first statement
(``setup_s``), then one pass over the workload (``wall_s``), and prints one
JSON line: the two times, the peak resident memory of this process, the
output checks and, for a traced pass, the per-layer metrics.  With
``--setup-only`` it stops after the import.

    python3 perfbench/pass_run.py --workload walk_mc --seed 1 --trace 0
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _environment(wsaw4):
    import numpy
    import scipy
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "nproc": len(os.sched_getaffinity(0)),
        "wsaw4": wsaw4.__version__,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if "THREADS" in k or k.startswith(("OMP_", "MKL_"))},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--trace-out")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    sys.path.insert(0, SRC)
    import wsaw4
    import wsaw4.cli  # noqa: F401
    setup_s = time.perf_counter() - _T0
    if os.path.dirname(os.path.abspath(wsaw4.__file__)) != \
            os.path.join(SRC, "wsaw4"):
        sys.exit(f"wsaw4 imported from {wsaw4.__file__}, not from {SRC}")
    result = {"setup_s": setup_s, "env": _environment(wsaw4)}
    if not args.setup_only:
        import tracing
        import workloads
        run = workloads.WORKLOADS[args.workload]
        tracer = tracing.Tracer()
        if args.trace:
            tracer.install(wsaw4)
        t0 = time.perf_counter()
        checks = run(args.seed, tracer.counts)
        wall_s = time.perf_counter() - t0
        result.update(wall_s=wall_s, checks=checks)
        if args.trace:
            result["layers"] = tracing.layer_metrics(tracer, wall_s)
            result["crosscheck"] = tracing.roadmap_crosscheck(tracer)
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed,
                           "wall_s": wall_s, "env": result["env"],
                           "layer_map": tracing.LAYER_MAP,
                           **tracer.to_json()}, fh)
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    sys.stdout.write(json.dumps(result) + "\n")


if __name__ == "__main__":
    main()
