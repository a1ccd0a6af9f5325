"""The benchmark's workloads: one pass each, every operation output-checked.

Each workload is a function ``(seed, counts) -> checks`` run once per pass
in a fresh interpreter.  ``checks`` lists ``(name, ok, detail)``, one entry
per operation; an operation that raises is a failed check.  Checks use an
exact identity from the paper, the program's own reported error, or the
tolerance of the acceptance clause that covers the quantity -- never a
digest across commits, since a legitimate speed-up may move roundoff.
Monte Carlo checks are statistical (3 reported standard errors), so a
deliberate change of the RNG stream layout is not flagged.

``reference.json`` holds the values the README lines print at the commit
that introduced this benchmark; its two walk-mc values were estimated there
with many more samples than a pass draws, so that a pass's own standard
error dominates the comparison.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import tempfile

import numpy as np
from scipy import integrate

from wsaw4 import cli, grassmann, lattice_green, susceptibility, walk_mc

with open(os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "reference.json")) as _fh:
    REF = json.load(_fh)

SPEC4 = lattice_green.LatticeSpec.window(4)
SAW_COUNTS_4 = [8, 56, 392, 2696, 18584, 127160, 871256]

# The README's command lines; the Monte Carlo and random-draw lines take the
# workload seed.
README_LINES = (
    "green --dim 4 --mass2 0 --grid 32",
    "bubble --dim 4 --mass2 1e-6",
    "decompose --L 2 --mass2 1e-3 --scales 24 --omega 2",
    "flow --g0 0.05 --mass2 1e-3 --L 2 --scales 48",
    "predict --g 0.02 --eps 1e-6 --mode flow",
    "ode-lemma --gamma 0.25 --tmin 1e-8",
    "susy-verify --graph path2 --g 0.2 --nu 0.1 --a 0 --b 1 --seed {seed}",
    "walk-mc --dim 4 --g 0.1 --T 2 --nu 0.5 --samples 100000 --seed {seed}",
)


def _check(checks, name, op):
    """Run ``op() -> (ok, detail)`` as one checked operation."""
    try:
        ok, detail = op()
    except Exception as exc:  # a raising call is a failed check
        ok, detail = False, f"raised {type(exc).__name__}: {exc}"
    checks.append((name, bool(ok), detail))


def _rel(a, b):
    """Largest deviation of a from b, relative to the largest |b|."""
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(np.asarray(a) - b)) / np.max(np.abs(b)))


def _within_se(mean, se, ref_mean, ref_se, slack=0.0):
    gap = abs(mean - ref_mean)
    tol = 3.0 * math.hypot(se, ref_se) + slack
    return gap <= tol, f"gap {gap:.3g} vs 3 se {tol:.3g}"


# ---------------------------------------------------------------------------
# cli_readme: every README line through cli.dispatch, then reproduce
# ---------------------------------------------------------------------------

def _load(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return json.load(fh)


def _csv_rows(outdir, name):
    with open(os.path.join(outdir, name)) as fh:
        return list(csv.DictReader(l for l in fh if not l.startswith("#")))


def _check_green(out):
    d = _load(out, "green.json")
    gap = abs(d["value"] - REF["green_C00"])
    return gap <= d["abs_error_estimate"], \
        f"C_0(0) gap {gap:.2g} vs reported error {d['abs_error_estimate']:.2g}"


def _check_bubble(out):
    d = _load(out, "bubble.json")
    gap = abs(d["value"] - REF["bubble_1e-6"])
    return gap <= d["abs_error_estimate"], \
        f"Bsf gap {gap:.2g} vs reported error {d['abs_error_estimate']:.2g}"


def _check_decompose(out):
    # beta: acceptance #3 tolerance (5 %); eta: acceptance #4 (1 %);
    # j_m: the exact mass scale, smallest j with 4^j * 1e-3 >= 1
    d = _load(out, "sequences.json")
    rb, re_ = _rel(d["beta"], REF["decompose_beta"]), \
        _rel(d["eta"], REF["decompose_eta"])
    return rb < 0.05 and re_ < 0.01 and d["j_m"] == 5, \
        f"beta rel {rb:.2g}, eta rel {re_:.2g}, j_m {d['j_m']}"


def _check_flow(out):
    # mu0_c: acceptance #4 tolerance (3 %); z0_c = 0 exactly with zero tables
    d = _load(out, "flow.json")
    r = _rel(d["mu0_c"], REF["flow_mu0_c"])
    return r < 0.03 and d["z0_c"] == 0.0, f"mu0_c rel {r:.2g}, z0_c {d['z0_c']}"


def _check_predict(out):
    # nu_c: acceptance #4 tolerance (3 %); chi * m2 = 1 + z0_c = 1 identically
    d = _load(out, "predict.json")
    r = _rel(d["nu_c"], REF["predict_nu_c"])
    ident = abs(d["chi"] * d["m2_of_eps"] - 1.0)
    return r < 0.03 and ident < 1e-12, \
        f"nu_c rel {r:.2g}, |chi*m2 - 1| {ident:.2g}"


def _check_ode_lemma(out):
    # acceptance #7: implicit residual below 1e-10 relative on every row
    rows = _csv_rows(out, "ode_lemma.csv")
    worst = max(float(r["residual"]) / float(r["t"]) for r in rows)
    return len(rows) == 9 and worst < 1e-10, f"max rel residual {worst:.2g}"


def _check_susy_verify(out):
    d = _load(out, "susy.json")
    return d["residual_vs_alt_method"] < 1e-6 and d["self_norm_residual"] < 1e-8, \
        (f"method gap {d['residual_vs_alt_method']:.2g}, "
         f"self-norm residual {d['self_norm_residual']:.2g}")


def _check_walk_mc(out):
    d = _load(out, "walk.json")
    c, ref_c = d["c_T"], REF["walk_c_T"]
    ok_c, det_c = _within_se(c["mean"], c["std_error"], ref_c["mean"],
                             ref_c["std_error"])
    x, ref_x = d["susceptibility"], REF["walk_chi"]
    ok_x, det_x = _within_se(
        x["mean"], x["std_error"], ref_x["mean"], ref_x["std_error"],
        slack=2.0 * (x["truncation_bound"] + x["quadrature_error"]))
    return ok_c and ok_x, f"c_T {det_c}; chi {det_x}"


CLI_CHECKS = {
    "green": _check_green, "bubble": _check_bubble,
    "decompose": _check_decompose, "flow": _check_flow,
    "predict": _check_predict, "ode-lemma": _check_ode_lemma,
    "susy-verify": _check_susy_verify, "walk-mc": _check_walk_mc,
}


def _dispatch_cold(argv):
    """cli.dispatch with empty memo caches, as a fresh wsaw4 process has."""
    lattice_green.constant_a.cache_clear()
    susceptibility.default_flow_coefficients.cache_clear()
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.dispatch(argv)
    return rc, buf.getvalue()


def _tree_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def cli_readme(seed, counts):
    checks = []
    with tempfile.TemporaryDirectory() as tmp:
        outs = [os.path.join(tmp, f"run{i}") for i in range(len(README_LINES))]
        for line, out in zip(README_LINES, outs):
            argv = line.format(seed=seed).split()

            def op():
                rc, _ = _dispatch_cold(argv + ["--out", out])
                return (False, f"exit code {rc}") if rc else \
                    CLI_CHECKS[argv[0]](out)

            _check(checks, argv[0], op)
            if os.path.isdir(out):
                counts["cli.bytes_written"] = \
                    counts.get("cli.bytes_written", 0) + _tree_bytes(out)
        for out in outs:
            def op():
                rc, text = _dispatch_cold(
                    ["reproduce", os.path.join(out, "manifest.json")])
                return rc == 0 and "zero diff" in text, text.strip()

            _check(checks, "reproduce " + os.path.basename(out), op)
    return checks


# ---------------------------------------------------------------------------
# walk_mc: the instance set of acceptance #9 at d = 4
# ---------------------------------------------------------------------------

def walk_mc_suite(seed, counts):
    checks = []
    n = 100_000
    es = {}
    for T in (1.0, 2.0, 3.0, 4.0):
        def op():
            es[T] = e = walk_mc.estimate_cT(SPEC4, 0.1, T, n, seed=seed)
            return 0.0 < e.mean <= 1.0 and e.n_samples == n, \
                f"c_T {e.mean:.6f} +- {e.std_error:.2g}"
        _check(checks, f"estimate_cT T={T:g}", op)
    for T, S in ((1.0, 1.0), (1.0, 2.0), (2.0, 2.0), (1.0, 3.0)):
        def op():
            lhs, a, b = es[T + S], es[T], es[S]
            se = math.hypot(a.std_error * b.mean, b.std_error * a.mean)
            gap = lhs.mean - a.mean * b.mean
            return gap <= 3.0 * (lhs.std_error + se), \
                f"c_(T+S) - c_T c_S = {gap:.3g}"
        _check(checks, f"subadditivity T={T:g} S={S:g}", op)

    def fold():
        worst = 0.0
        for i in range(200):
            s = walk_mc.simulate(SPEC4, 5.0, seed, i)
            out = walk_mc.fold_and_compare(s, [4, 8, 16])
            if not (out[4] >= out[8] - 1e-12 and out[8] >= out[16] - 1e-12
                    and out[16] >= out[None] - 1e-12):
                return False, f"folding not monotone at sample {i}"
            worst = max(worst, abs(s.total_time - 5.0))
        return worst <= 1e-12, f"200 walks, max |sum gaps - T| {worst:.2g}"

    _check(checks, "simulate+fold_and_compare x200", fold)
    for nn in (0, 1, 5, 20):
        def op():
            e = walk_mc.conditioned_intersection(1.0, nn, n, seed=seed)
            target = 2.0 / (nn + 2.0)
            gap = abs(e.mean - target)
            return gap <= 3.0 * e.std_error + 1e-12, \
                f"E I = {e.mean:.6f} vs 2T^2/(n+2) = {target:.6f}"
        _check(checks, f"conditioned_intersection n={nn}", op)

    def chi():
        e = walk_mc.susceptibility_mc(SPEC4, 0.0, 0.5, T_max=16.0, n=3000,
                                      seed=seed)
        err = e.std_error + e.truncation_bound + e.quadrature_error
        return abs(e.mean - 2.0) <= 3.0 * err + 1e-9, \
            f"chi(g=0) = {e.mean:.5f} vs 1/nu = 2, error {err:.2g}"

    _check(checks, "susceptibility_mc g=0", chi)

    def jensen():
        r = walk_mc.jensen_bound_check(0.2, 5.0, n, seed=seed)
        return r.bound_satisfied and r.jensen_satisfied, \
            f"E I {r.mean_I:.4f} <= {r.upper_bound:.4f}; " \
            f"c_T {r.c_T_hat:.4f} >= {r.jensen_floor:.4f}"

    _check(checks, "jensen_bound_check", jensen)

    def saw():
        got = walk_mc.saw_counts(4, 7)
        return got == SAW_COUNTS_4, f"{got}"

    _check(checks, "saw_counts(4, 7)", saw)
    return checks


# ---------------------------------------------------------------------------
# susy: the instance set of acceptance #8
# ---------------------------------------------------------------------------

PATH2 = np.array([[1.0, -1.0], [-1.0, 1.0]])
TRIANGLE = np.array([[2.0, -1.0, -1.0], [-1.0, 2.0, -1.0],
                     [-1.0, -1.0, 2.0]])
TORUS2 = np.array([[2.0, -2.0], [-2.0, 2.0]])


def susy_suite(seed, counts):
    checks = []
    rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
    # 20 self-normalisation draws split 10 / 7 / 3 over 1-, 2-, 3-site graphs
    for k, lap in enumerate([np.zeros((1, 1))] * 10 + [PATH2] * 7
                            + [TRIANGLE] * 3):
        M = lap.shape[0]
        pqr = (rng.uniform(0.0, 0.8, M), rng.uniform(0.4, 1.2, M),
               rng.uniform(-0.3, 0.8, M))
        nodes = dict(radial_nodes=48, angle_nodes=24) if M <= 2 else \
            dict(radial_nodes=32, angle_nodes=16)

        def op():
            val = grassmann.self_normalisation_value(lap, *pqr, **nodes)
            return abs(val - 1.0) < 1e-8, f"|Z - 1| = {abs(val - 1.0):.2g}"

        _check(checks, f"self_normalisation M={M} draw {k}", op)

    def walk_gap():
        g, nu = 0.3, -0.2
        walk, _ = integrate.quad(lambda T: math.exp(-g * T * T - nu * T),
                                 0.0, 80.0, limit=400)
        tp = grassmann.two_point_integral(np.zeros((1, 1)), g, nu, 0, 0)
        return abs(tp - walk) < 1e-6, f"gap {abs(tp - walk):.2g}"

    _check(checks, "two_point one-site vs walk quadrature", walk_gap)
    for lap, g, nu, a, b in ((PATH2, 0.2, 0.1, 0, 1), (PATH2, 0.5, -0.2, 0, 0),
                             (TORUS2, 0.3, 0.2, 0, 1)):
        def op():
            kw = dict(radial_nodes=48, angle_nodes=24)
            v1 = grassmann.two_point_integral(lap, g, nu, a, b, "grassmann",
                                              **kw)
            v2 = grassmann.two_point_integral(lap, g, nu, a, b, "determinant",
                                              **kw)
            return abs(v1 - v2) < 1e-6, f"method gap {abs(v1 - v2):.2g}"
        _check(checks, f"two_point grassmann vs determinant g={g} nu={nu}", op)

    C1 = np.array([[0.5, 0.1], [0.1, 0.4]])
    C2 = np.array([[0.4, -0.05], [-0.05, 0.3]])
    forms = (("phibar_0 phi_1", lambda b: grassmann.wedge_product(
                 grassmann.phibar_poly(b, 0), grassmann.phi_poly(b, 1))),
             ("tau_0", lambda b: grassmann.tau_form(b, 0)))
    for label, form in forms:
        def op():
            F = form(grassmann.FermionBasis(2))
            res = grassmann.convolution_identity_check(
                C1, C2, F, radial_nodes=36, angle_nodes=18)
            return res < 1e-6, f"residual {res:.2g}"
        _check(checks, f"convolution identity {label}", op)
    return checks


WORKLOADS = {"cli_readme": cli_readme, "walk_mc": walk_mc_suite,
             "susy": susy_suite}
