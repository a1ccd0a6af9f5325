"""CLI plumbing: artifacts, manifests, replay determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from wsaw4 import cli, cov_decomp, walk_mc
from wsaw4.cli import SCHEMA_VERSION, dispatch


def run_cli(args, tmp_path, name):
    out = tmp_path / name
    rc = dispatch(args + ["--out", str(out)])
    assert rc == 0
    manifest = json.loads((out / "manifest.json").read_text())
    return out, manifest


class TestArtifacts:
    def test_bubble_json(self, tmp_path):
        out, manifest = run_cli(["bubble", "--dim", "4", "--mass2", "1e-4"],
                                tmp_path, "b")
        data = json.loads((out / "bubble.json").read_text())
        assert data["value"] > 0 and data["abs_error_estimate"] >= 0
        assert manifest["subcommand"] == "bubble"
        assert set(manifest["outputs"]) == {"bubble.json"}
        assert data["run_id"] == manifest["run_id"]  # artifacts carry the run digest

    def test_json_is_strict(self):
        # JSON has no Infinity or NaN: non-finite floats, Python or numpy,
        # in a value, a list or an array, are written as null
        def refuse(name):
            raise ValueError(f"non-standard JSON constant {name}")

        obj = {"inf": float("inf"), "nan": np.float64("nan"),
               "neg": [1.5, -np.inf], "arr": np.array([np.nan, 2.0]),
               "f32": np.float32(0.25), "n": np.int64(3)}
        data = json.loads(cli._json_dumps(obj), parse_constant=refuse)
        assert data == {"inf": None, "nan": None, "neg": [1.5, None],
                        "arr": [None, 2.0], "f32": 0.25, "n": 3}

    def test_flow_row_count(self, tmp_path):
        out, _ = run_cli(["flow", "--g0", "0.05", "--mass2", "1e-3",
                          "--L", "2", "--scales", "48"],
                         tmp_path, "f")
        lines = (out / "flow.csv").read_text().strip().splitlines()
        data = [l for l in lines if not l.startswith(("#", "j,"))]
        assert len(data) == 49  # scales 0..48
        assert lines[0].startswith("# run_id ")
        assert lines[1] == "j,g,z,mu,Pi"
        summary = json.loads((out / "flow.json").read_text())
        assert summary["mu0_c"] < 0
        assert summary["nu_prime_limit"] is not None

    def test_decompose_outputs(self, tmp_path):
        out, _ = run_cli(["decompose", "--mass2", "1e-2", "--scales", "8"],
                         tmp_path, "d")
        seq = json.loads((out / "sequences.json").read_text())
        assert len(seq["beta"]) == 8
        assert seq["j_m"] == 4
        lines = (out / "slices.csv").read_text().strip().splitlines()
        assert len([l for l in lines if not l.startswith(("#", "j,"))]) == 8

    def test_decompose_measure_tails(self, tmp_path, capsys):
        # torus periods 4 L^j are 12, 36 and 108: j = 3 is past the cap of 64
        out, _ = run_cli(["decompose", "--L", "3", "--scales", "3", "--mass2",
                          "1e-2", "--measure-tails"], tmp_path, "d")
        lines = (out / "slices.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        assert [r["j"] for r in rows] == ["1", "2", "3"]
        for r in rows[:2]:
            assert 0.0 <= float(r["range_tail_fraction"]) < 1.0
        assert rows[2]["range_tail_fraction"] == ""
        capsys.readouterr()
        assert dispatch(["reproduce", str(out / "manifest.json")]) == 0
        assert capsys.readouterr().out == "zero diff\n"

    def test_decompose_tails_capped_by_size(self, tmp_path, monkeypatch):
        # at d = 5 the period cap alone let slices 3 and 4 ask for 32^5 and
        # 64^5 points, 8.6 GB in one float64 array of the last
        periods = []
        monkeypatch.setattr(cov_decomp, "range_tail_fraction",
                            lambda dec, j: periods.append(4 * dec.L**j) or 0.5)
        out, _ = run_cli(["decompose", "--dim", "5", "--mass2", "1e-2",
                          "--scales", "4", "--measure-tails"], tmp_path, "d")
        assert periods == [8, 16]
        lines = (out / "slices.csv").read_text().splitlines()
        rows = list(csv.DictReader(l for l in lines if not l.startswith("#")))
        tails = [r["range_tail_fraction"] for r in rows]
        assert tails == ["0.5", "0.5", "", ""]

    def test_predict_and_ode(self, tmp_path):
        out, _ = run_cli(["predict", "--g", "0.02", "--eps", "1e-6"],
                         tmp_path, "p")
        data = json.loads((out / "predict.json").read_text())
        assert data["nu_c"] < 0 and data["chi"] > 0
        out, _ = run_cli(["ode-lemma", "--gamma", "0.25", "--tmin", "1e-6"],
                         tmp_path, "o")
        data = json.loads((out / "ode_lemma.json").read_text())
        assert data["max_residual"] < 1e-12

    def test_susy_verify(self, tmp_path):
        out, _ = run_cli(["susy-verify", "--graph", "path2", "--g", "0.2",
                          "--nu", "0.1", "--a", "0", "--b", "1",
                          "--radial-nodes", "32", "--angle-nodes", "16"],
                         tmp_path, "s")
        data = json.loads((out / "susy.json").read_text())
        assert data["self_norm_residual"] < 1e-6
        assert data["residual_vs_alt_method"] < 1e-5
        assert "method" not in data  # value is the grassmann route

    def test_susy_verify_residual_on_three_sites(self, tmp_path):
        out, _ = run_cli(["susy-verify", "--graph", "triangle", "--g", "0.3",
                          "--nu", "0.2", "--a", "0", "--b", "1",
                          "--radial-nodes", "24", "--angle-nodes", "12"],
                         tmp_path, "s")
        data = json.loads((out / "susy.json").read_text())
        assert data["residual_vs_alt_method"] is not None
        assert data["residual_vs_alt_method"] < 1e-12

    def test_walk_mc_outputs(self, tmp_path):
        out, _ = run_cli(["walk-mc", "--dim", "4", "--g", "0.1", "--T", "1.0",
                          "--samples", "1000", "--seed", "3"], tmp_path, "w")
        data = json.loads((out / "walk.json").read_text())
        assert 0.9 < data["c_T"]["mean"] <= 1.0
        lines = (out / "samples.csv").read_text().strip().splitlines()
        assert len([l for l in lines if not l.startswith(("#", "sample,"))]) == 16


class TestReproduce:
    def test_zero_diff(self, tmp_path, capsys):
        out, _ = run_cli(["walk-mc", "--g", "0.1", "--T", "1.0", "--samples",
                          "2000", "--seed", "11"], tmp_path, "w")
        rc = dispatch(["reproduce", str(out / "manifest.json")])
        assert rc == 0
        assert "zero diff" in capsys.readouterr().out

    def test_zero_diff_with_nu(self, tmp_path, capsys):
        out, _ = run_cli(["walk-mc", "--g", "0.1", "--T", "1.0", "--nu",
                          "0.5", "--samples", "2000", "--samples-chi", "500",
                          "--seed", "11"], tmp_path, "w")
        rc = dispatch(["reproduce", str(out / "manifest.json")])
        assert rc == 0
        assert "zero diff" in capsys.readouterr().out

    def test_thread_env_does_not_change_results(self, tmp_path, child_env):
        # one child runs on one core, the other on all of this process's;
        # 10000 samples are three blocks, so the second runs on a pool
        cores = os.sched_getaffinity(0)
        outs, threads = [], []
        for mask in ({min(cores)}, cores):
            dest = tmp_path / f"t{len(mask)}"
            subprocess.run(
                [sys.executable, "-m", "wsaw4.cli", "walk-mc", "--g", "0.1",
                 "--T", "1.0", "--samples", "10000", "--seed", "7",
                 "--out", str(dest)],
                check=True, env=child_env, capture_output=True,
                preexec_fn=lambda mask=mask: os.sched_setaffinity(0, mask))
            manifest = json.loads((dest / "manifest.json").read_text())
            outs.append(manifest["outputs"])
            threads.append(manifest["threads"])
        assert threads == [1, len(cores)]
        if len(cores) > 1:
            assert threads[0] != threads[1]
        assert outs[0] == outs[1]

    def test_manifest_records_worker_limit(self, tmp_path, monkeypatch):
        args = ["walk-mc", "--T", "1.0", "--samples", "100", "--seed", "7"]
        for k in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity",
                                lambda pid, k=k: set(range(k)))
            _, manifest = run_cli(args, tmp_path, f"w{k}")
            assert manifest["threads"] == k

    def test_blas_threads_do_not_change_results(self, tmp_path, child_env):
        # BLAS may split the Berezin evaluator's matrix products over threads
        env = dict(child_env)
        outs = []
        for threads in ("1", "2"):
            env["OPENBLAS_NUM_THREADS"] = threads
            dest = tmp_path / f"b{threads}"
            subprocess.run(
                [sys.executable, "-m", "wsaw4.cli", "susy-verify", "--graph",
                 "triangle", "--g", "0.3", "--nu", "0.2", "--a", "0", "--b",
                 "1", "--radial-nodes", "32", "--angle-nodes", "16",
                 "--out", str(dest)],
                check=True, env=env, capture_output=True)
            manifest = json.loads((dest / "manifest.json").read_text())
            outs.append(manifest["outputs"])
        assert outs[0] == outs[1]

    def test_manifest_records_schema_version(self, tmp_path):
        _, manifest = run_cli(["ode-lemma", "--gamma", "0.25", "--tmin",
                               "1e-4"], tmp_path, "o")
        assert manifest["schema"] == SCHEMA_VERSION

    def test_tampered_manifest_detected(self, tmp_path):
        out, manifest = run_cli(["predict", "--g", "0.02", "--eps", "1e-5"],
                                tmp_path, "p")
        manifest["outputs"]["predict.json"] = "0" * 64
        (out / "manifest.json").write_text(json.dumps(manifest))
        rc = dispatch(["reproduce", str(out / "manifest.json")])
        assert rc == 1


def readme_lines():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    return [line.split()[1:] for line in block.split("```", 1)[0].splitlines()
            if line.startswith("wsaw4 ")]


class TestImports:
    # importing the package loads numpy only: scipy.special costs ~0.3 s
    # and loads where walk-mc --nu, ode-lemma and fluctuation integrals
    # first call it; the tests keep scipy as an independent oracle
    def scipy_after(self, code, env, cwd=None):
        code = ("import sys\n" + code + "\nprint(*sorted(m for m in "
                "sys.modules if m.split('.')[0] == 'scipy'))")
        proc = subprocess.run([sys.executable, "-c", code], check=True,
                              capture_output=True, text=True, cwd=cwd,
                              env=env)
        return proc.stdout.splitlines()[-1].split()

    def test_cli_loads_no_scipy(self, child_env):
        assert self.scipy_after("import wsaw4.cli", child_env) == []

    def test_readme_lines_load_no_scipy(self, tmp_path, child_env):
        lines = [argv for argv in readme_lines() if argv[0] in (
            "green", "bubble", "decompose", "flow", "predict", "susy-verify")]
        assert len(lines) == 6
        code = f"from wsaw4 import cli\nfor a in {lines!r}: assert cli.dispatch(a) == 0"
        assert self.scipy_after(code, child_env, cwd=tmp_path) == []


class TestReadme:
    def test_command_lines_parse(self):
        # a flag dropped from the parser but left in the README fails here
        lines = readme_lines()
        assert len(lines) == 9
        parser = cli._build_parser()
        for argv in lines:
            parser.parse_args(argv)


@pytest.fixture
def run_proc(child_env):
    def run(args):
        return subprocess.run([sys.executable, "-m", "wsaw4.cli"] + args,
                              capture_output=True, text=True, env=child_env)
    return run


class TestExitCodes:
    def test_ok(self, run_proc, tmp_path):
        r = run_proc(["ode-lemma", "--gamma", "0", "--tmin", "1e-4",
                      "--out", str(tmp_path / "x")])
        assert r.returncode == 0

    def test_user_error_bad_value(self, run_proc, tmp_path):
        r = run_proc(["bubble", "--dim", "4", "--mass2", "0",
                      "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_user_error_unknown_flag(self, run_proc, tmp_path):
        r = run_proc(["bubble", "--dim", "4", "--mass2", "1", "--nope",
                      "1", "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "usage" in r.stderr

    def test_user_error_wrong_length_displacement(self, run_proc, tmp_path):
        r = run_proc(["green", "--dim", "4", "--mass2", "0.5", "--x",
                      "0,0,0,0,3", "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "coordinates" in r.stderr
        assert not (tmp_path / "x").exists()

    def test_user_error_bad_grid(self, run_proc, tmp_path):
        # the Richardson pass at grid // 2 needs a positive multiple of 8
        for grid in ("6", "0", "-4"):
            r = run_proc(["green", "--mass2", "0.5", "--grid", grid,
                          "--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "grid" in r.stderr
            assert not (tmp_path / "x").exists()

    SUSY = ["susy-verify", "--graph", "path2", "--g", "0.2", "--nu", "0.1"]

    @pytest.mark.parametrize("args", [
        ["bubble", "--mass2", "1e-2", "--method", "grid"],
        ["bubble", "--mass2", "1e-2", "--grid", "32"],
        ["decompose", "--mass2", "1e-2", "--grid", "32"],
        ["flow", "--g0", "0.05", "--mass2", "1e-3", "--grid", "32"],
        ["decompose", "--mass2", "1e-2", "--coeff-table", "t.csv"],
        ["flow", "--g0", "0.05", "--mass2", "1e-3", "--coeff-table", "t.csv"],
        ["flow", "--g0", "0.05", "--mass2", "1e-3", "--dim", "4"],
        ["flow", "--g0", "0.05", "--mass2", "1e-3", "--omega", "2"],
        ["ode-lemma", "--points", "9"],
        SUSY + ["--method", "determinant"],
        ["walk-mc", "--samples", "100", "--detail-samples", "16"],
    ], ids=["bubble-method", "bubble-grid", "decompose-grid", "flow-grid",
            "decompose-coeff-table", "flow-coeff-table", "flow-dim",
            "flow-omega", "ode-lemma-points", "susy-verify-method",
            "walk-mc-detail-samples"])
    def test_removed_flags_rejected(self, args, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv",
                            ["wsaw4"] + args + ["--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    def test_user_error_bubble_dimension(self, tmp_path, monkeypatch, capsys):
        for dim in ("0", "-1"):
            monkeypatch.setattr(sys, "argv", [
                "wsaw4", "bubble", "--dim", dim, "--mass2", "1",
                "--out", str(tmp_path / "x")])
            with pytest.raises(SystemExit) as exc:
                cli.main()
            assert exc.value.code == 1
            assert "dimension" in capsys.readouterr().err
            assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args,named", [
        (["bubble", "--mass2", "nan"], "m2 must be finite"),
        (["green", "--mass2", "nan"], "m2 must be finite"),
        (["decompose", "--mass2", "inf"], "m2 must be finite"),
        (["flow", "--g0", "0.05", "--mass2", "1e-3", "--scales", "4"],
         "--scales"),
        (SUSY + ["--angle-nodes", "0"], "angle_nodes must be >= 1"),
        (SUSY + ["--angle-nodes", "-3"], "angle_nodes must be >= 1"),
        (SUSY + ["--radial-nodes", "0"], "radial_nodes must be >= 1"),
        (["bubble", "--dim", "1", "--mass2", "1e-300"], "bubble overflows"),
        (["walk-mc", "--T", "1", "--g", "nan"], "g must be >= 0 and finite"),
        (["susy-verify", "--graph", "path2", "--g", "nan", "--nu", "0.1"],
         "g must be finite"),
        (["susy-verify", "--graph", "path2", "--g", "0.1", "--nu", "nan"],
         "nu must be finite"),
        (["flow", "--g0", "nan", "--mass2", "0.1"],
         "g0 must be >= 0 and finite"),
        (["flow", "--g0", "5", "--mass2", "0.1"], "g0 too large"),
        (["decompose", "--mass2", "1e-2", "--omega", "nan"],
         "Omega must be > 1 and finite"),
        (["green", "--mass2", "0.1", "--x", "1,a"],
         "--x needs an integer, got 'a'"),
        (["walk-mc", "--geometry", "torus:x"],
         "--geometry torus:N needs an integer, got 'x'"),
        (["susy-verify", "--graph", "torus:x", "--g", "0.1", "--nu", "0.1"],
         "--graph torus:N needs an integer, got 'x'"),
        (["walk-mc", "--T", "inf"], "T must be > 0 and finite, got inf"),
        (["walk-mc", "--samples", "100", "--nu", "0.5", "--T-max", "inf"],
         "T must be > 0 and finite, got inf"),
        (["walk-mc", "--g", "0.1", "--nu", "inf", "--samples", "10",
          "--samples-chi", "10"], "nu must be finite, got inf"),
        (["walk-mc", "--dim", "1", "--geometry", "torus:3", "--g", "0.3",
          "--nu=-1000", "--samples", "10", "--samples-chi", "10"],
         "tail bound overflows: nu = -1000.0"),
        (["walk-mc", "--dim", "17", "--T", "2", "--samples", "10"],
         "site key would overflow int64 at d = 17, T = 2.0"),
        (["walk-mc", "--dim", "2", "--geometry", "torus:1099511627776"],
         "period = 1099511627776"),
        (["susy-verify", "--graph", "path2", "--g", "1e-12", "--nu", "-0.1"],
         "not finite in float64 at g = 1e-12, nu = -0.1"),
        (["susy-verify", "--graph", "one-site", "--g", "1e-300", "--nu",
          "-1"], "not finite in float64 at g = 1e-300, nu = -1.0"),
        (["predict", "--g", "0", "--eps", "1e-6"], "g must be > 0"),
    ], ids=["bubble-nan", "green-nan", "decompose-inf", "flow-short-table",
            "susy-angle-nodes-0", "susy-angle-nodes-negative",
            "susy-radial-nodes-0", "bubble-overflow", "walk-mc-g-nan",
            "susy-g-nan", "susy-nu-nan", "flow-g0-nan", "flow-g0-too-large",
            "decompose-omega-nan", "green-x-not-int",
            "walk-mc-geometry-not-int", "susy-graph-not-int", "walk-mc-T-inf",
            "walk-mc-T-max-inf", "walk-mc-nu-inf",
            "walk-mc-torus-tail-overflow", "walk-mc-site-key-overflow",
            "walk-mc-torus-site-key-overflow", "susy-path2-overflow",
            "susy-one-site-overflow", "predict-g-zero"])
    def test_user_error_names_parameter(self, args, named, tmp_path,
                                        monkeypatch, capsys):
        # a non-finite m2, g, nu, g0, Omega or horizon, a g0 whose coupling
        # turns negative, a beta table too short for g_inf, a node count
        # below 1, a bubble or a walk site key past its float or int range
        # and an integer option that is not an integer are the user's
        # input: exit 1, naming the parameter or the overflow
        monkeypatch.setattr(sys, "argv",
                            ["wsaw4"] + args + ["--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        assert named in capsys.readouterr().err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("args,named", [
        (["green", "--dim", "8", "--mass2", "0.1", "--grid", "64"],
         "d = 8 at grid 64"),
        (["decompose", "--dim", "11", "--mass2", "0.1"], "d = 11 at grid 32"),
    ], ids=["green", "decompose"])
    def test_quadrature_over_point_cap(self, args, named, tmp_path,
                                       monkeypatch, capsys):
        # green --dim 8 --grid 64 needs 61.5M points a level and ended in
        # an internal MemoryError; the cap is checked before any is built
        monkeypatch.setattr(sys, "argv",
                            ["wsaw4"] + args + ["--out", str(tmp_path / "x")])
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 1
        assert named in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "x").exists()

    def test_walk_horizon_over_draw_cap(self, tmp_path, monkeypatch, capsys):
        # T_max = 1e9 drew 1.6e10 jump times at once and ended in an
        # internal MemoryError ("Unable to allocate 119. GiB"); the draw
        # budget raises before either pass draws a walk
        monkeypatch.setattr(sys, "argv", [
            "wsaw4", "walk-mc", "--nu", "0.5", "--T-max", "1e9", "--samples",
            "2", "--samples-chi", "2", "--out", str(tmp_path / "x")])
        tracemalloc.start()
        try:
            with pytest.raises(SystemExit) as exc:
                cli.main()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.code == 1
        assert "T = 1000000000.0 needs about 2.93e+06 MiB" in capsys.readouterr().err
        assert peak < 2**20
        assert not (tmp_path / "x").exists()

    def test_walk_mc_too_few_samples(self, run_proc, tmp_path):
        # no c_T = 0.0 +- 0.0 in walk.json: c_T lies in (0, 1]
        for flags in (["--samples", "0"], ["--nu", "0.5", "--samples-chi", "1"]):
            r = run_proc(["walk-mc", "--dim", "2", "--T", "1"] + flags
                         + ["--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "need >= 2" in r.stderr
            assert not (tmp_path / "x").exists()

    def test_walk_mc_nonpositive_nu(self, run_proc, tmp_path):
        # a torus bounds the Laplace tail at g > 0 for every nu; Z^d does not
        flags = ["walk-mc", "--dim", "1", "--g", "0.3", "--nu", "-0.2"]
        r = run_proc(flags + ["--geometry", "torus:3",
                              "--out", str(tmp_path / "t")])
        assert r.returncode == 0
        r = run_proc(flags + ["--out", str(tmp_path / "w")])
        assert r.returncode == 1
        assert "nu > 0" in r.stderr
        assert not (tmp_path / "w").exists()

    @pytest.mark.parametrize("flags,named", [
        (["--g", "0.1", "--nu", "inf"], "nu must be finite, got inf"),
        (["--nu", "0.5", "--T-max", "inf"], "T must be > 0 and finite"),
        (["--nu", "0.5", "--T", "inf"], "T must be > 0 and finite"),
        (["--nu", "0.5", "--g", "-0.1"], "g must be >= 0 and finite"),
        # exp(nu |T_max|) overflowed: an internal error after the c_T pass
        (["--nu", "0.5", "--T-max=-1e4"], "T must be > 0 and finite"),
        # erfcx and exp of the torus tail bound overflowed: an internal error
        (["--dim", "1", "--geometry", "torus:3", "--g", "0.3", "--nu=-1000"],
         "tail bound overflows: nu = -1000.0"),
    ], ids=["nu-inf", "T-max-inf", "T-inf", "g-negative", "T-max-negative",
            "torus-tail-overflow"])
    def test_walk_mc_rejects_before_drawing(self, flags, named, tmp_path,
                                            monkeypatch, capsys):
        # the c_T pass drew all its walks before chi's inputs were checked
        draws = []
        draw = walk_mc._draw
        monkeypatch.setattr(walk_mc, "_draw",
                            lambda *a, **k: draws.append(1) or draw(*a, **k))
        monkeypatch.setattr(sys, "argv", ["wsaw4", "walk-mc", "--samples",
                                          "20000"] + flags
                            + ["--out", str(tmp_path / "x")])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        assert named in capsys.readouterr().err
        assert draws == []

    def test_susy_verify_vertex_out_of_range(self, run_proc, tmp_path):
        for a in ("-1", "2"):
            r = run_proc(["susy-verify", "--graph", "path2", "--g",
                          "0.2", "--nu", "0.1", "--a", a, "--b", "0",
                          "--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "not in 0..1" in r.stderr
            assert not (tmp_path / "x").exists()

    def test_missing_manifest(self, run_proc):
        r = run_proc(["reproduce", "/nonexistent/manifest.json"])
        assert r.returncode == 1

    GREEN = {"subcommand": "green", "outputs": {},
             "params": {"dim": 1, "mass2": 0.5, "x": None}}

    @pytest.mark.parametrize("text,named", [
        (None, "is not a manifest"),
        ("[1, 2]", "is not a manifest"),
        ("", "cannot read manifest"),
        ("not json", "cannot read manifest"),
        (json.dumps({**GREEN, "subcommand": "nope"}), "is not a manifest"),
        (json.dumps({**GREEN, "params": [1]}), "is not a manifest"),
        (json.dumps({**GREEN, "outputs": None}), "is not a manifest"),
        (json.dumps(GREEN), "params lack 'grid'"),
    ], ids=["artifact", "list", "directory", "not-json", "unknown-subcommand",
            "params-not-object", "outputs-not-object", "missing-param"])
    def test_reproduce_not_a_manifest(self, text, named, tmp_path,
                                      monkeypatch, capsys):
        # each exited 2 with "internal error" (KeyError, TypeError,
        # IsADirectoryError); now a user error naming the file and the key
        if text is None:  # an artifact of a run, not its manifest
            run_cli(["bubble", "--mass2", "1"], tmp_path, "run")
            path = tmp_path / "run" / "bubble.json"
        elif text == "":
            path = tmp_path
        else:
            path = tmp_path / "m.json"
            path.write_text(text)
        monkeypatch.setattr(sys, "argv", ["wsaw4", "reproduce", str(path)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert named in err and str(path) in err

    @pytest.mark.parametrize("args,key,value,named", [
        (["bubble", "--mass2", "1"], "dim", "4", "'dim' must be an integer"),
        (["bubble", "--mass2", "1"], "mass2", "1", "'mass2' must be a number"),
        (["bubble", "--mass2", "1"], "dim", 4.0, "'dim' must be an integer"),
        (["bubble", "--mass2", "1"], "dim", True, "'dim' must be an integer"),
        (["bubble", "--mass2", "1"], "mass2", False,
         "'mass2' must be a number"),
        (["bubble", "--mass2", "1"], "mass2", None, "'mass2' must be a number"),
        (["green", "--mass2", "0.5", "--grid", "8"], "x", [1, "0", 0, 0],
         "'x' must be a list of integers"),
        (["green", "--mass2", "0.5", "--grid", "8"], "x", "1,0,0,0",
         "'x' must be a list of integers"),
        (["decompose", "--mass2", "0.1", "--scales", "4"], "measure_tails", 0,
         "'measure_tails' must be true or false"),
        (["walk-mc", "--samples", "100"], "nu", "0.5", "'nu' must be a number"),
    ], ids=["bubble-dim-str", "bubble-mass2-str", "bubble-dim-float",
            "bubble-dim-bool", "bubble-mass2-bool", "bubble-mass2-null",
            "green-x-str-item", "green-x-str", "decompose-tails-int",
            "walk-mc-nu-str"])
    def test_reproduce_param_types(self, args, key, value, named, tmp_path,
                                   monkeypatch, capsys):
        # "dim": "4" or "mass2": "1" exited 2 with "internal error:
        # TypeError"; each param is now checked against its parser type
        _, manifest = run_cli(args, tmp_path, "run")
        manifest["params"][key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        monkeypatch.setattr(sys, "argv", ["wsaw4", "reproduce", str(path)])
        with pytest.raises(SystemExit) as exc:
            cli.main()
        assert exc.value.code == 1
        err = capsys.readouterr().err
        assert named in err and str(path) in err

    @pytest.mark.parametrize("args,key,value", [
        (["bubble", "--mass2", "1"], "mass2", 1),
        (["walk-mc", "--samples", "100"], "nu", None),
        (["green", "--mass2", "0.5", "--grid", "8", "--x", "1,0,0,0"], "x",
         [1, 0, 0, 0]),
    ], ids=["int-for-float", "null-default", "int-list"])
    def test_reproduce_param_types_accepted(self, args, key, value, tmp_path,
                                            capsys):
        # an int replays as the float it stands for (its run_id digested 1
        # where the run's had 1.0, and differed), and null an option whose
        # default it is
        _, manifest = run_cli(args, tmp_path, "run")
        assert manifest["params"][key] == value
        manifest["params"][key] = value
        path = tmp_path / "m.json"
        path.write_text(json.dumps(manifest))
        capsys.readouterr()
        assert dispatch(["reproduce", str(path)]) == 0
        assert capsys.readouterr().out == "zero diff\n"
