"""In-memory spans around the public functions of the wsaw4 modules.

The tracer lives in the benchmark, not in the program: :meth:`Tracer.install`
replaces every public function defined in the six numerical modules and
``cli`` (every name without a leading underscore, such as
``lattice_green.graded_bz_sum`` and ``walk_mc.block_rng``) by a wrapper that
records a span, and rebinds the name in every wsaw4 module that imported
it by name (``cov_decomp.graded_bz_sum``, ``cov_decomp.symbol``,
``walk_mc.constant_a``, ...), so calls between modules are seen too.

A span is ``[name, tag, start, end, parent]``: ``tag`` labels the call
(``M3`` for a three-site self-normalisation, the subcommand for
``cli.dispatch``), ``parent`` is the index of the enclosing span or None.
All spans of one pass share the tracer's ``run_id``.  A span's self time is
its duration minus the durations of its direct children; the program is
single-threaded, so those children are disjoint and lie inside it.

The tracing overhead is timed inside the wrappers (everything they do
outside the wrapped call).  The difference between a traced and an
untraced pass would measure the same thing, but on a shared 2-core machine
two passes differ by up to 10 % from noise alone, far more than the
overhead of a few thousand spans.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
import uuid

MODULES = ("lattice_green", "cov_decomp", "rg_flow", "susceptibility",
           "grassmann", "walk_mc")

# The walk_mc entry points that draw Philox blocks; block_rng calls are
# charged to the innermost one of these that is running.
RNG_CALLERS = ("estimate_cT", "susceptibility_mc", "jensen_bound_check",
               "conditioned_intersection", "simulate")

CLI_SUBCOMMANDS = ("green", "bubble", "decompose", "flow", "predict",
                   "ode-lemma", "susy-verify", "walk-mc", "reproduce")

# Per-call labels, from the bound arguments of the traced call.
TAGS = {
    "cli.dispatch": lambda a: a["argv"][0],
    "cov_decomp.build_decomposition": lambda a: f"m2={a['m2']:g},J={a['J']}",
    "walk_mc.estimate_cT": lambda a: f"T={a['T']:g},n={a['n']}",
    "grassmann.self_normalisation_value": lambda a: f"M{len(a['laplacian'])}",
    "grassmann.two_point_integral": lambda a: a["method"],
}

# Which end-to-end metric each layer's metrics should move, and where.
LAYER_MAP = {
    "lattice_green": "wall_s and peak_rss_mb on cli_readme (about 77 %), "
                     "slightly on walk_mc (about 8 %); no change on susy",
    "cov_decomp": "wall_s on cli_readme only",
    "rg_flow": "guard: under 0.1 % of any wall_s, and under 1 ms per "
               "solve_boundary_value call",
    "susceptibility": "wall_s on cli_readme, through the cold J=48 "
                      "decomposition of predict --mode flow",
    "grassmann": "wall_s and peak_rss_mb on susy, and about 9 % of "
                 "cli_readme",
    "walk_mc": "wall_s on walk_mc, and about 13 % of cli_readme",
    "cli": "cli_readme only; predicted under 1 % of its wall_s",
}

# Single-run timings of the ROADMAP re-anchor table, matched to traced spans
# as (label, table seconds, span name, span tag, cold first call only).
ROADMAP_TABLE = (
    ("constant_a() cold", 1.4, "lattice_green.constant_a", None, True),
    ("build_decomposition(m2=0, J=48)", 10.9,
     "cov_decomp.build_decomposition", "m2=0,J=48", False),
    ("estimate_cT n=100k, T=2", 0.8, "walk_mc.estimate_cT", "T=2,n=100000",
     False),
    ("self_normalisation_value triangle 32/16", 8.8,
     "grassmann.self_normalisation_value", "M3", False),
)


class Tracer:
    """Spans and counters of one traced pass, kept in memory."""

    def __init__(self):
        self.run_id = uuid.uuid4().hex
        self.spans = []
        self.counts = {}
        self.overhead_s = 0.0  # time spent in the wrappers, outside the calls
        self._stack = []

    def count(self, name, n=1):
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name, fn, on_call=None):
        sig = inspect.signature(fn)
        tag_of = TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            tag = None
            if tag_of is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                tag = tag_of(bound.arguments)
            if on_call is not None:
                on_call(args)
            span = [name, tag, 0.0, 0.0,
                    self._stack[-1] if self._stack else None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                self._stack.pop()
                self.overhead_s += span[2] - t_in + \
                    time.perf_counter() - span[3]

        if hasattr(fn, "cache_clear"):  # keep lru_cache control reachable
            traced.cache_clear = fn.cache_clear
        return traced

    def _count_points(self, args):
        self.count("lattice_green.bz_points",
                   max(getattr(k, "size", 1) for k in args[0]))

    def _count_rng_block(self, args):
        self.count("walk_mc.rng_blocks")
        for i in reversed(self._stack):
            name = self.spans[i][0]
            if name.startswith("walk_mc.") and name[8:] in RNG_CALLERS:
                self.count("walk_mc.rng_blocks." + name[8:])
                return

    def install(self, wsaw4):
        """Wrap the package's public functions in place (for this process)."""
        modules = [getattr(wsaw4, m) for m in MODULES + ("cli",)]
        on_call = {"lattice_green.symbol": self._count_points,
                   "walk_mc.block_rng": self._count_rng_block}
        wrapped = {}  # id(original) -> wrapper, which keeps the original alive
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not callable(fn) or \
                        inspect.isclass(fn) or \
                        getattr(fn, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                wrapped[id(fn)] = self._wrap(name, fn, on_call.get(name))
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if id(val) in wrapped:
                    setattr(mod, attr, wrapped[id(val)])

    def self_times(self):
        child = [0.0] * len(self.spans)
        for name, tag, t0, t1, parent in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        return [s[3] - s[2] - c for s, c in zip(self.spans, child)]

    def to_json(self):
        return {"run_id": self.run_id, "counts": self.counts,
                "spans": [{"name": n, "tag": t, "start": a, "end": b,
                           "parent": p} for n, t, a, b, p in self.spans]}


def _outermost(spans, i):
    """True when no enclosing span has the same name (no double counting)."""
    name, parent = spans[i][0], spans[i][4]
    while parent is not None:
        if spans[parent][0] == name:
            return False
        parent = spans[parent][4]
    return True


def layer_metrics(tracer, wall_s):
    """Per-layer metrics of one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    selfs = tracer.self_times()
    total, self_s, calls = {}, {}, {}
    for i, (name, tag, t0, t1, _) in enumerate(spans):
        keys = (name,) if tag is None else (name, f"{name}.{tag}")
        for key in keys:
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + selfs[i]
            if _outermost(spans, i):
                total[key] = total.get(key, 0.0) + (t1 - t0)

    out = {}

    def s(metric, key):
        out[metric] = (total.get(key, 0.0), "s")

    for fn in ("lattice_green.graded_bz_sum", "cov_decomp.build_decomposition"):
        s(fn + ".s", fn)
        out[fn + ".self_s"] = (self_s.get(fn, 0.0), "s")
        out[fn + ".calls"] = (calls.get(fn, 0), "count")
    out["lattice_green.bz_points"] = (
        tracer.counts.get("lattice_green.bz_points", 0), "count")
    for fn in ("lattice_green.constant_a",
               "lattice_green.green_function_with_error",
               "cov_decomp.coefficient_sequences",
               "rg_flow.solve_boundary_value", "rg_flow.derivative_flow",
               "susceptibility.predict_nu_c",
               "susceptibility.default_flow_coefficients",
               "susceptibility.ode_asymptotics"):
        s(fn + ".s", fn)
    n_bvp = calls.get("rg_flow.solve_boundary_value", 0)
    out["rg_flow.solve_boundary_value.calls"] = (n_bvp, "count")
    out["rg_flow.solve_boundary_value.ms_per_call"] = (
        1e3 * total.get("rg_flow.solve_boundary_value", 0.0) / max(n_bvp, 1),
        "ms")
    for m in ("M1", "M2", "M3"):
        s(f"grassmann.self_normalisation_value.{m}.s",
          f"grassmann.self_normalisation_value.{m}")
    for method in ("grassmann", "determinant"):
        s(f"grassmann.two_point_integral.{method}.s",
          f"grassmann.two_point_integral.{method}")
    s("grassmann.berezin_integral.s", "grassmann.berezin_integral")
    out["grassmann.berezin_integral.calls"] = (
        calls.get("grassmann.berezin_integral", 0), "count")
    s("grassmann.convolution_identity_check.s",
      "grassmann.convolution_identity_check")
    for fn in RNG_CALLERS + ("saw_counts",):
        s(f"walk_mc.{fn}.s", f"walk_mc.{fn}")
    out["walk_mc.rng_blocks"] = (tracer.counts.get("walk_mc.rng_blocks", 0),
                                 "count")
    for fn in RNG_CALLERS:
        key = f"walk_mc.rng_blocks.{fn}"
        out[key] = (tracer.counts.get(key, 0), "count")
    for sub in CLI_SUBCOMMANDS:
        s(f"cli.{sub}.s", f"cli.dispatch.{sub}")
    out["cli.self_s"] = (self_s.get("cli.dispatch", 0.0), "s")
    out["cli.bytes_written"] = (tracer.counts.get("cli.bytes_written", 0),
                                "bytes")
    top = sum(t1 - t0 for _, _, t0, t1, p in spans if p is None)
    out["trace.top_span_share"] = (top / wall_s, "ratio")
    out["trace.wall_s"] = (wall_s, "s")
    out["tracing_overhead_s"] = (tracer.overhead_s, "s")
    return out


def roadmap_crosscheck(tracer):
    """Lines comparing traced spans with the ROADMAP re-anchor table."""
    lines = []
    for label, table_s, name, tag, cold_only in ROADMAP_TABLE:
        times = [t1 - t0 for n, t, t0, t1, _ in tracer.spans
                 if n == name and (tag is None or t == tag)]
        if not times:
            continue
        traced = times[0] if cold_only else statistics.median(times)
        ratio = traced / table_s
        flag = "ok" if abs(ratio - 1.0) <= 0.25 else "FLAG (beyond +-25 %)"
        lines.append(f"roadmap cross-check: {label}: traced {traced:.3f} s "
                     f"(n={1 if cold_only else len(times)}) vs table "
                     f"{table_s} s, ratio {ratio:.2f} {flag}")
    return lines
