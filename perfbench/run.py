"""Benchmark of the wsaw4 toolkit: fixed workloads, each pass a fresh process.

    python3 perfbench/run.py --workload cli_readme --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` of the checkout
that holds this file.  Every pass runs ``pass_run.py`` in a fresh
interpreter, because every ``wsaw4`` invocation and every user script pays
a cold start: the scipy import and the empty ``lru_cache`` memos of
``constant_a`` and ``default_flow_coefficients``.  The load is closed-loop:
one client, one operation at a time, one process at a time.

With ``--trace 0`` a run makes passes while the next one is predicted to
end within ``--seconds`` (at least one), adds set-up-only interpreters
until ``setup_s`` has three samples, and reports medians:

* ``wall_s``: one pass over the workload, to all of its checked results;
* ``setup_s``: the fresh interpreter's import of wsaw4 and its modules;
* ``peak_rss_mb``: peak resident memory of a pass's process;
* ``fail_frac``: failed output checks over checks attempted (printed; in
  the JSON line it is ``failed`` / ``attempted``).

With ``--trace 1`` a run makes one traced pass, reports its per-layer
metrics (see tracing.py) and the ROADMAP cross-check, and writes its spans
to ``perfbench/out/``; ``trace.wall_s`` minus the untraced ``wall_s`` of
the same workload is the tracing overhead seen end to end.

The last line of output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

On a shared 2-core machine the speed of the same pass drifts by up to
+-15 % over minutes, while the passes of one run agree to a few per cent;
medians within a run cannot remove that drift, so ``wall_s`` carries the
widest bound in BENCHMARK.json.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKLOADS = ("cli_readme", "walk_mc", "susy")
RUN_LIMIT_S = 170.0  # every run ends well inside 180 s
SETUP_SAMPLES = 3


class BenchError(Exception):
    pass


def _source_id():
    """Commit when the checkout is a git clone, and a digest of src/."""
    commit = None
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as fh:
            ref = fh.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.isfile(path):
                with open(path) as fh:
                    commit = fh.read().strip()
    digest = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "wsaw4")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16]}


class Run:
    """Child interpreters of one benchmark run, under one time limit."""

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.t_start = time.monotonic()
        self.env = dict(os.environ, TMPDIR=os.path.join(OUT, "tmp"))

    def child(self, *extra):
        left = RUN_LIMIT_S - (time.monotonic() - self.t_start)
        if left <= 1.0:
            raise BenchError("run time limit reached")
        cmd = [sys.executable, os.path.join(HERE, "pass_run.py"),
               "--workload", self.workload, "--seed", str(self.seed), *extra]
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=self.env,
                                  cwd=ROOT, timeout=left, text=True)
        except subprocess.TimeoutExpired:
            raise BenchError(f"pass of {self.workload} exceeded the run "
                             "time limit") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise BenchError(f"pass of {self.workload} exited with code "
                             f"{proc.returncode}")
        return json.loads(lines[-1])


def _median_line(name, values, unit):
    return (f"{name}: median {statistics.median(values):.6g} {unit} "
            f"(n={len(values)}, min {min(values):.6g}, max {max(values):.6g})")


def _check_lines(checks):
    return [f"  {'PASS' if ok else 'FAIL'} {name}: {detail}"
            for name, ok, detail in checks]


def measure(workload, seed, seconds):
    run = Run(workload, seed)
    passes = []
    while True:
        t0 = time.monotonic()
        passes.append(run.child("--trace", "0"))
        elapsed = time.monotonic() - run.t_start
        if elapsed + (time.monotonic() - t0) > seconds:
            break
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run.child("--setup-only")["setup_s"])
    walls = [p["wall_s"] for p in passes]
    rss = [p["peak_rss_mb"] for p in passes]
    attempted = sum(len(p["checks"]) for p in passes)
    failed = sum(not ok for p in passes for _, ok, _ in p["checks"])
    lines = [f"workload {workload} seed {seed}: {len(passes)} passes",
             f"environment: {json.dumps({**passes[0]['env'], **_source_id()})}",
             *_check_lines(passes[0]["checks"]),  # same inputs every pass
             _median_line("wall_s", walls, "s"),
             _median_line("setup_s", setups, "s"),
             _median_line("peak_rss_mb", rss, "MiB"),
             f"fail_frac: {failed}/{attempted} = {failed / attempted:.4g} "
             f"(n={len(passes)} passes)"]
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (statistics.median(rss), "MiB")}
    return lines, attempted, failed, metrics


def trace(workload, seed):
    run = Run(workload, seed)
    path = os.path.join(OUT, f"trace-{workload}-seed{seed}.json")
    traced = run.child("--trace", "1", "--trace-out", path)
    metrics = {k: tuple(v) for k, v in traced["layers"].items()}
    attempted = len(traced["checks"])
    failed = sum(not ok for _, ok, _ in traced["checks"])
    lines = [f"workload {workload} seed {seed}: traced pass, spans in {path}",
             f"environment: {json.dumps({**traced['env'], **_source_id()})}",
             *_check_lines(traced["checks"]), *traced["crosscheck"],
             *(f"{k}: {v:.6g} {u}" for k, (v, u) in sorted(metrics.items()))]
    return lines, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if args.seed < 0:
        sys.exit("error: --seed must be >= 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "wsaw4", "__init__.py")):
        sys.exit(f"error: no wsaw4 sources under {ROOT}/src")

    os.makedirs(os.path.join(OUT, "tmp"), exist_ok=True)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    attempted = failed = 0
    metrics = {}
    try:
        for w in names:
            lines, a, f, m = trace(w, args.seed) if args.trace else \
                measure(w, args.seed, args.seconds)
            print("\n".join(lines), flush=True)
            attempted += a
            failed += f
            prefix = f"{w}." if len(names) > 1 else ""
            metrics.update({prefix + k: {"value": v, "unit": u}
                            for k, (v, u) in m.items()})
    except BenchError as exc:
        sys.exit(f"error: {exc}")
    finally:
        shutil.rmtree(os.path.join(OUT, "tmp"), ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
