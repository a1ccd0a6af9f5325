"""CLI plumbing: artifacts, manifests, replay determinism, exit codes."""

import csv
import json
import os
import subprocess
import sys

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

    def test_flow_row_count(self, tmp_path):
        out, _ = run_cli(["flow", "--g0", "0.05", "--mass2", "1e-3",
                          "--L", "2", "--scales", "48", "--grid", "16"],
                         tmp_path, "f")
        lines = (out / "flow.csv").read_text().strip().splitlines()
        data = [l for l in lines if not l.startswith(("#", "j,"))]
        assert len(data) == 49  # scales 0..48
        assert lines[0].startswith("# run_id ")
        summary = json.loads((out / "flow.json").read_text())
        assert summary["mu0_c"] < 0
        assert summary["nu_prime_limit"] is not None

    def test_decompose_outputs(self, tmp_path):
        out, _ = run_cli(["decompose", "--mass2", "1e-2", "--scales", "8",
                          "--grid", "16"], tmp_path, "d")
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

    def test_thread_env_does_not_change_results(self, tmp_path):
        env = dict(os.environ)
        outs = []
        for threads in ("1", "8"):
            env["WSAW4_THREADS"] = threads
            dest = tmp_path / f"t{threads}"
            subprocess.run(
                [sys.executable, "-m", "wsaw4.cli", "walk-mc", "--g", "0.1",
                 "--T", "1.0", "--samples", "2000", "--seed", "7",
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


class TestExitCodes:
    def run_proc(self, args):
        return subprocess.run([sys.executable, "-m", "wsaw4.cli"] + args,
                              capture_output=True, text=True)

    def test_ok(self, tmp_path):
        r = self.run_proc(["ode-lemma", "--gamma", "0", "--tmin", "1e-4",
                           "--out", str(tmp_path / "x")])
        assert r.returncode == 0

    def test_user_error_bad_value(self, tmp_path):
        r = self.run_proc(["bubble", "--dim", "4", "--mass2", "0",
                           "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "error" in r.stderr

    def test_user_error_unknown_flag(self, tmp_path):
        r = self.run_proc(["bubble", "--dim", "4", "--mass2", "1", "--nope",
                           "1", "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "usage" in r.stderr

    def test_user_error_wrong_length_displacement(self, tmp_path):
        r = self.run_proc(["green", "--dim", "4", "--mass2", "0.5", "--x",
                           "0,0,0,0,3", "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "coordinates" in r.stderr
        assert not (tmp_path / "x").exists()

    def test_user_error_bad_grid(self, tmp_path):
        for args in (["decompose", "--mass2", "1e-2", "--scales", "4",
                      "--grid", "6"],
                     ["decompose", "--mass2", "1e-2", "--grid", "0"],
                     ["flow", "--g0", "0.05", "--mass2", "1e-3",
                      "--grid", "-4"]):
            r = self.run_proc(args + ["--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "grid" in r.stderr
            assert not (tmp_path / "x").exists()

    def test_coeff_table_missing_column(self, tmp_path):
        table = tmp_path / "t.csv"
        table.write_text("j,theta,pi\n3,0.5,0.2\n")
        r = self.run_proc(["decompose", "--mass2", "1e-2", "--scales", "4",
                           "--coeff-table", str(table),
                           "--out", str(tmp_path / "x")])
        assert r.returncode == 1
        assert "missing column(s) xi" in r.stderr
        assert not (tmp_path / "x").exists()

    def test_walk_mc_too_few_samples(self, tmp_path):
        # no c_T = 0.0 +- 0.0 in walk.json: c_T lies in (0, 1]
        for flags in (["--samples", "0"], ["--nu", "0.5", "--samples-chi", "1"]):
            r = self.run_proc(["walk-mc", "--dim", "2", "--T", "1"] + flags
                              + ["--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "need >= 2" in r.stderr
            assert not (tmp_path / "x").exists()

    def test_walk_mc_nonpositive_nu(self, tmp_path):
        # a torus bounds the Laplace tail at g > 0 for every nu; Z^d does not
        flags = ["walk-mc", "--dim", "1", "--g", "0.3", "--nu", "-0.2"]
        r = self.run_proc(flags + ["--geometry", "torus:3",
                                   "--out", str(tmp_path / "t")])
        assert r.returncode == 0
        r = self.run_proc(flags + ["--out", str(tmp_path / "w")])
        assert r.returncode == 1
        assert "nu > 0" in r.stderr
        assert not (tmp_path / "w").exists()

    def test_susy_verify_vertex_out_of_range(self, tmp_path):
        for a in ("-1", "2"):
            r = self.run_proc(["susy-verify", "--graph", "path2", "--g",
                               "0.2", "--nu", "0.1", "--a", a, "--b", "0",
                               "--out", str(tmp_path / "x")])
            assert r.returncode == 1
            assert "not in 0..1" in r.stderr
            assert not (tmp_path / "x").exists()

    def test_missing_manifest(self):
        r = self.run_proc(["reproduce", "/nonexistent/manifest.json"])
        assert r.returncode == 1
