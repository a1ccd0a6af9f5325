"""Command-line entry point: subcommands, artifacts, reproducible manifests.

Every run writes its numeric artifacts (JSON/CSV) into an output directory
together with ``manifest.json`` recording the subcommand, the full
parameter set, the seed, the package version, and SHA-256 digests of every
artifact.  ``wsaw4 reproduce manifest.json`` replays the run in memory and
diffs the digests; the RNG contract (counter-based per-block streams)
makes Monte Carlo outputs bit-identical regardless of the worker count,
so a zero diff is the expected outcome.  Floats are serialized through
``repr`` (shortest round-trip, up to 17 significant digits).

Exit codes: 0 ok, 1 user error, 2 internal error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
import time

import numpy as np

from . import __version__
from . import cov_decomp, grassmann, lattice_green, rg_flow, susceptibility, walk_mc

SCHEMA_VERSION = 3  # bumped when the RNG stream layout for a seed changes
_TAIL_PERIOD_CAP = 64  # largest torus period 4 L^j --measure-tails uses
_TAIL_SIZE_CAP = 2**24  # and largest size (4 L^j)^d: 64^4, peak RSS 0.95 GB
_DETAIL_SAMPLES = 16  # walks listed in walk-mc's samples.csv


class _UserError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UserError(message)


def _json_dumps(obj) -> str:
    return json.dumps(_jsonable(obj), indent=2, sort_keys=True,
                      allow_nan=False) + "\n"


def _jsonable(x):
    """x with numpy values as Python ones and non-finite floats as None."""
    if isinstance(x, (np.generic, np.ndarray)):
        x = x.tolist()
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return None if isinstance(x, float) and not np.isfinite(x) else x


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    for row in rows:
        w.writerow([repr(float(v)) if isinstance(v, (float, np.floating))
                    else v for v in row])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Subcommand implementations: params dict -> {filename: JSON object or CSV}
# ---------------------------------------------------------------------------

def _run_green(p):
    val, err = lattice_green.green_function_with_error(
        p["dim"], p["mass2"], p["x"], grid=p["grid"])
    out = {"value": val, "abs_error_estimate": err, "grid": p["grid"],
           "dim": p["dim"], "mass2": p["mass2"], "x": p["x"]}
    return {"green.json": out}


def _run_bubble(p):
    val, err = lattice_green.bubble_diagram_with_error(p["dim"], p["mass2"])
    out = {"value": val, "abs_error_estimate": err,
           "dim": p["dim"], "mass2": p["mass2"]}
    return {"bubble.json": out}


def _run_decompose(p):
    dec = cov_decomp.build_decomposition(p["dim"], L=p["L"], m2=p["mass2"],
                                         J=p["scales"])
    co = cov_decomp.coefficient_sequences(dec)
    idx = cov_decomp.scale_indices(dec.m2, dec.L, p["omega"], co.beta)
    rows = []
    for j in range(1, dec.J + 1):
        period = 4 * dec.L**j
        tail = cov_decomp.range_tail_fraction(dec, j) if p["measure_tails"] \
            and period <= _TAIL_PERIOD_CAP \
            and period ** p["dim"] <= _TAIL_SIZE_CAP else ""
        rows.append((j, dec.diagonals[j], tail))
    fcsv = _csv_text(["j", "diagonal", "range_tail_fraction"], rows)
    out = {"beta": co.beta, "eta": co.eta, "chi": idx.chi,
           "j_m": None if np.isinf(idx.j_m) else int(idx.j_m),
           "j_omega": idx.j_Omega, "Omega": p["omega"],
           "L": co.L, "mass2": co.m2, "scales": dec.J}
    return {"slices.csv": fcsv, "sequences.json": out}


def _run_flow(p):
    # the flow is Z^4's: GAMMA = 1/4 holds there
    co = cov_decomp.coefficient_sequences(cov_decomp.build_decomposition(
        4, L=p["L"], m2=p["mass2"], J=p["scales"]))
    traj = rg_flow.solve_boundary_value(p["g0"], co)
    rows = zip(range(traj.J + 1), traj.g, traj.z, traj.mu, traj.Pi)
    fcsv = _csv_text(["j", "g", "z", "mu", "Pi"], rows)
    summary = {"mu0_c": float(traj.mu[0]), "z0_c": float(traj.z[0]),
               "g0": p["g0"], "mass2": p["mass2"],
               "L": p["L"], "scales": p["scales"]}
    massive = p["mass2"] > 0
    try:
        summary["g_inf"] = rg_flow.g_infinity(p["g0"], co) if massive else None
    except RuntimeError as exc:  # the beta table ran out before g settled
        raise _UserError(f"--scales {p['scales']} is too few for g_inf to "
                         "converge; raise it") from exc
    summary["nu_prime_limit"] = \
        rg_flow.nu_prime_limit(traj) if massive else None
    return {"flow.csv": fcsv, "flow.json": summary}


def _run_predict(p):
    nu_c = susceptibility.predict_nu_c(p["g"], p["mode"])
    chi = susceptibility.predict_susceptibility(p["g"], p["eps"])
    m2 = susceptibility.m2_of_eps(p["g"], p["eps"])
    out = {"g": p["g"], "eps": p["eps"], "mode": p["mode"], "nu_c": nu_c,
           "A_g": susceptibility.amplitude(p["g"]), "gamma": rg_flow.GAMMA,
           "chi": chi, "m2_of_eps": m2}
    eps_grid = np.geomspace(p["eps"], 0.3, 17)
    rows = [(e, susceptibility.predict_susceptibility(p["g"], e),
             susceptibility.m2_of_eps(p["g"], e)) for e in eps_grid]
    return {"predict.json": out,
            "predict.csv": _csv_text(["eps", "chi", "m2"], rows)}


def _run_ode_lemma(p):
    rows = susceptibility.ode_asymptotics(p["gamma"], p["tmin"])
    fcsv = _csv_text(["t", "u", "asymptote", "ratio", "residual"], rows)
    out = {"gamma": p["gamma"], "tmin": p["tmin"],
           "final_ratio": rows[0][3], "max_residual": max(r[4] for r in rows)}
    return {"ode_lemma.csv": fcsv, "ode_lemma.json": out}


_GRAPHS = {
    "one-site": np.zeros((1, 1)),
    "path2": np.array([[1.0, -1.0], [-1.0, 1.0]]),
    "triangle": np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                          [-1.0, -1.0, 2.0]]),
}


def _int(text, option):
    """int(text), or a user error naming the option it came from."""
    try:
        return int(text)
    except ValueError:
        raise _UserError(f"{option} needs an integer, got {text!r}") from None


def _graph_laplacian(name):
    if name in _GRAPHS:
        return _GRAPHS[name]
    if name.startswith("torus:"):
        n = _int(name.split(":", 1)[1], "--graph torus:N")
        if n < 1:
            raise _UserError("torus size must be >= 1")
        lap = np.zeros((n, n))
        for x in range(n):
            for step in (1, -1):
                y = (x + step) % n
                lap[x, x] += 1.0
                lap[x, y] -= 1.0  # n = 2 folds both steps onto one edge
        return lap
    raise _UserError(f"unknown graph {name!r}")


def _run_susy_verify(p):
    lap = _graph_laplacian(p["graph"])
    M = lap.shape[0]
    if M > 3:
        raise _UserError("graphs beyond 3 sites are out of budget")
    a, b = p["a"], p["b"]
    kw = dict(radial_nodes=p["radial_nodes"], angle_nodes=p["angle_nodes"])
    value = grassmann.two_point_integral(lap, p["g"], p["nu"], a, b, **kw)
    residual = abs(value - grassmann.two_point_integral(
        lap, p["g"], p["nu"], a, b, "determinant", **kw))
    rng = np.random.Generator(np.random.Philox(key=np.uint64(p["seed"])))
    pqr = (rng.uniform(0.0, 0.8, M), rng.uniform(0.4, 1.2, M),
           rng.uniform(-0.3, 0.8, M))
    sn = grassmann.self_normalisation_value(lap, *pqr, **kw)
    out = {"graph": p["graph"], "g": p["g"], "nu": p["nu"], "a": a, "b": b,
           "value": value, "residual_vs_alt_method": residual,
           "self_norm_residual": abs(sn - 1.0)}
    return {"susy.json": out}


def _run_walk_mc(p):
    if p["geometry"] == "window":
        spec = lattice_green.LatticeSpec.window(p["dim"])
    elif p["geometry"].startswith("torus:"):
        n = _int(p["geometry"].split(":", 1)[1], "--geometry torus:N")
        spec = lattice_green.LatticeSpec.torus(p["dim"], n)
    else:
        raise _UserError(f"unknown geometry {p['geometry']!r}")
    if p["nu"] is not None:  # rejects chi's inputs before c_T draws a walk
        walk_mc._laplace_tail(spec, p["g"], p["nu"], p["T_max"],
                              p["samples_chi"])
    est = walk_mc.estimate_cT(spec, p["g"], p["T"], p["samples"], seed=p["seed"])
    out = {"c_T": {"mean": est.mean, "std_error": est.std_error,
                   "n_samples": est.n_samples},
           "g": p["g"], "T": p["T"], "seed": p["seed"],
           "geometry": p["geometry"], "dim": p["dim"]}
    if p["nu"] is not None:
        chi = walk_mc.susceptibility_mc(spec, p["g"], p["nu"],
                                        T_max=p["T_max"], n=p["samples_chi"],
                                        seed=p["seed"])
        out["susceptibility"] = {
            "mean": chi.mean, "std_error": chi.std_error,
            "truncation_bound": chi.truncation_bound,
            "quadrature_error": chi.quadrature_error, "nu": p["nu"]}
    rows = []
    for i in range(_DETAIL_SAMPLES):
        s = walk_mc.simulate(spec, p["T"], p["seed"], i)
        rows.append((i, len(s.jump_times), s.I_T))
    return {"walk.json": out,
            "samples.csv": _csv_text(["sample", "n_jumps", "I_T"], rows)}


_RUNNERS = {
    "green": _run_green,
    "bubble": _run_bubble,
    "decompose": _run_decompose,
    "flow": _run_flow,
    "predict": _run_predict,
    "ode-lemma": _run_ode_lemma,
    "susy-verify": _run_susy_verify,
    "walk-mc": _run_walk_mc,
}


# ---------------------------------------------------------------------------
# Manifest plumbing
# ---------------------------------------------------------------------------

def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_id(subcommand, params) -> str:
    """Digest identifying the run; stamped into every artifact file."""
    return _digest(_json_dumps({"subcommand": subcommand, "params": params}))[:16]


def _stamp(files, run_id):
    """Artifact texts with the run digest embedded: a key in JSON objects,
    a comment line heading CSV texts."""
    return {name: _json_dumps({**data, "run_id": run_id})
            if name.endswith(".json") else f"# run_id {run_id}\n" + data
            for name, data in files.items()}


def _write_run(outdir, subcommand, params, files):
    os.makedirs(outdir, exist_ok=True)
    written = []
    try:
        for name, text in files.items():
            path = os.path.join(outdir, name)
            with open(path, "w") as fh:
                fh.write(text)
            written.append(path)
        manifest = {
            "schema": SCHEMA_VERSION,
            "subcommand": subcommand,
            "params": params,
            "run_id": _run_id(subcommand, params),
            "seed": params.get("seed"),
            "version": __version__,
            "created": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "threads": walk_mc._cores(),  # the walk estimators' worker limit
            "outputs": {name: _digest(text) for name, text in files.items()},
        }
        mpath = os.path.join(outdir, "manifest.json")
        with open(mpath, "w") as fh:
            fh.write(_json_dumps(manifest))
        return mpath
    except Exception:
        for path in written:
            if os.path.exists(path):
                os.remove(path)
        raise


def _int_list(text):
    """``--x``: comma-separated integers, or None for an empty text."""
    return [_int(c, "--x") for c in text.split(",")] if text else None


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string",
               bool: "true or false", _int_list: "a list of integers"}


def _check_params(path, parser, params):
    """A user error naming the file and key unless each replayed param has
    its parser action's type, or None for an optional flag's None default.
    An int may stand for a float: it is replaced by that float, so the run
    and the digest of its params see the float."""
    for act in parser._actions[2:]:  # past --help and --out
        if act.dest not in params:
            raise _UserError(f"manifest {path}: params lack {act.dest!r}")
        v, typ = params[act.dest], act.type or bool  # bool: a store_true flag
        if typ is float and type(v) is int:
            v = params[act.dest] = float(v)
        if not (v is None and act.default is None and not act.required
                or type(v) is typ
                or typ is _int_list and isinstance(v, list)
                and all(type(c) is int for c in v)):
            raise _UserError(f"manifest {path}: param {act.dest!r} must be "
                             f"{_TYPE_NAMES[typ]}, got {v!r}")


def _run_reproduce(path, parsers):
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError) as exc:  # unreadable, or not JSON
        raise _UserError(f"cannot read manifest {path}: {exc}") from None
    if not (isinstance(manifest, dict)
            and isinstance(manifest.get("subcommand"), str)
            and manifest["subcommand"] in _RUNNERS
            and all(isinstance(manifest.get(k), dict)
                    for k in ("params", "outputs"))):
        raise _UserError(f"{path} is not a manifest: a JSON object with a "
                         "known 'subcommand' and 'params' and 'outputs' objects")
    sub, params = manifest["subcommand"], manifest["params"]
    _check_params(path, parsers[sub], params)
    files = _stamp(_RUNNERS[sub](params), _run_id(sub, params))
    return [name for name, digest in manifest["outputs"].items()
            if _digest(files.get(name, "")) != digest]


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

def _build_parser():
    ap = _Parser(prog="wsaw4", description=__doc__.splitlines()[0])
    sub = ap.add_subparsers(dest="subcommand", required=True)

    def add(name, **flags):
        sp = sub.add_parser(name)
        sp.add_argument("--out", default="wsaw4-out")
        for flag, (typ, default, req) in flags.items():
            kw = {"type": typ, "default": default}
            if req:
                kw["required"] = True
            sp.add_argument("--" + flag.replace("_", "-"), dest=flag, **kw)
        return sp

    add("green", dim=(int, 4, False), mass2=(float, None, True),
        grid=(int, 32, False), x=(_int_list, None, False))
    add("bubble", dim=(int, 4, False), mass2=(float, None, True))
    dp = add("decompose", dim=(int, 4, False), L=(int, 2, False),
             mass2=(float, None, True), scales=(int, 16, False),
             omega=(float, 2.0, False))
    dp.add_argument("--measure-tails", dest="measure_tails",
                    action="store_true")
    add("flow", g0=(float, None, True), mass2=(float, None, True),
        L=(int, 2, False), scales=(int, 48, False))
    add("predict", g=(float, None, True), eps=(float, None, True),
        mode=(str, "leading", False))
    add("ode-lemma", gamma=(float, 0.25, False), tmin=(float, 1e-8, False))
    add("susy-verify", graph=(str, None, True), g=(float, None, True),
        nu=(float, None, True), a=(int, 0, False), b=(int, 0, False),
        seed=(int, 0, False),
        radial_nodes=(int, 48, False), angle_nodes=(int, 24, False))
    add("walk-mc", dim=(int, 4, False), geometry=(str, "window", False),
        g=(float, 0.0, False), T=(float, 1.0, False),
        nu=(float, None, False), T_max=(float, 16.0, False),
        samples=(int, 10000, False), samples_chi=(int, 2000, False),
        seed=(int, 0, False))
    rp = sub.add_parser("reproduce")
    rp.add_argument("manifest")
    rp.set_defaults(parsers=sub.choices)  # reproduce checks params by them
    return ap


def dispatch(argv) -> int:
    ap = _build_parser()
    ns = ap.parse_args(argv)
    if ns.subcommand == "reproduce":
        diffs = _run_reproduce(ns.manifest, ns.parsers)
        if diffs:
            print(f"DIFFERS: {', '.join(diffs)}")
            return 1
        print("zero diff")
        return 0
    params = {k: v for k, v in vars(ns).items()
              if k not in ("subcommand", "out")}
    files = _stamp(_RUNNERS[ns.subcommand](params),
                   _run_id(ns.subcommand, params))
    mpath = _write_run(ns.out, ns.subcommand, params, files)
    print(mpath)
    return 0


def main() -> None:
    argv = sys.argv[1:]
    try:
        sys.exit(dispatch(argv))
    except (_UserError, ValueError, FileNotFoundError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
    except Exception as exc:  # internal error
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        sys.exit(2)


if __name__ == "__main__":
    main()
