import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "moebiusband.cli"]


def run(*args, **kw):
    return subprocess.run(CLI + list(args), capture_output=True, text=True, **kw)


@pytest.fixture(scope="module")
def tri_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bands") / "tri.json"
    assert run("build-triangular", "-o", str(path)).returncode == 0
    return path


@pytest.fixture(scope="module")
def wrinkle_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("bands") / "w.json"
    assert run("build-wrinkle", "--epsilon", "1e-4", "-o", str(path)).returncode == 0
    return path


class TestBuildValidateVerify:
    def test_triangular_pipeline(self, tri_file):
        assert run("validate", "--input", str(tri_file)).returncode == 0
        res = run("verify", "--input", str(tri_file))
        assert res.returncode == 0, res.stdout + res.stderr

    def test_wrinkle_corollary(self, wrinkle_file, tmp_path):
        report = tmp_path / "rep.json"
        res = run(
            "verify", "--input", str(wrinkle_file), "--theorem", "corollary",
            "--report", str(report),
        )
        assert res.returncode == 0
        data = json.loads(report.read_text())
        assert data[0]["name"] == "corollary"
        assert data[0]["passed"]
        assert data[0]["measured"]["hausdorff"] < data[0]["bounds"]["eighteen_sqrt"]

    def test_tpattern_subcommand(self, tri_file):
        res = run("tpattern", "--input", str(tri_file))
        assert res.returncode == 0
        assert "t=0.577350269190" in res.stdout


class TestExitCodes:
    def test_defective_band_fails_with_1(self, tri_file, tmp_path):
        data = json.loads(tri_file.read_text())
        bend = data["bends"][10]
        bend["space"] = [[c * 1.01 for c in p] for p in bend["space"]]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(data))
        assert run("validate", "--input", str(bad)).returncode == 1
        verify = run("verify", "--input", str(bad))
        assert verify.returncode == 1
        # tpattern reports the failed validation the way verify does
        tpattern = run("tpattern", "--input", str(bad))
        assert tpattern.returncode == 1
        assert tpattern.stdout == verify.stdout
        assert tpattern.stdout.startswith("validation failed: ruling=")

    def test_unknown_flag_exits_2(self):
        assert run("verify", "--frobnicate").returncode == 2

    @pytest.mark.parametrize("argv", [
        ["validate", "--input", "{tri}"],
        ["tpattern", "--input", "{tri}"],
        ["sharpness-sweep", "--epsilons", "1e-3"],
    ])
    def test_inert_eta_rejected(self, tri_file, argv):
        # only verify reads the sampling resolution
        res = run(*[a.format(tri=tri_file) for a in argv], "--eta", "1e-3")
        assert res.returncode == 2
        assert "unrecognized arguments: --eta" in res.stderr

    def test_verify_takes_eta(self, tri_file):
        res = run("verify", "--input", str(tri_file), "--theorem", "eff", "--eta", "1e-3")
        assert res.returncode == 0, res.stderr

    @pytest.mark.parametrize("theorem", ["eff2", "corollary"])
    def test_eta_rejected_without_eff(self, tri_file, theorem):
        # eff2 and corollary sample nothing at the resolution --eta sets
        res = run("verify", "--input", str(tri_file), "--theorem", theorem, "--eta", "1e-3")
        assert res.returncode == 2
        assert res.stderr.startswith("error: --eta")

    @pytest.mark.parametrize("closed", [False, None, "true", 1])
    def test_open_band_exits_2(self, tri_file, tmp_path, closed):
        data = json.loads(tri_file.read_text())
        data["closed"] = closed
        bad = tmp_path / "open.json"
        bad.write_text(json.dumps(data))
        for cmd in ("validate", "verify"):
            res = run(cmd, "--input", str(bad))
            assert res.returncode == 2
            assert res.stderr.startswith("error: closed must be true")

    @pytest.mark.parametrize("epsilons", ["", "1e-3,abc"])
    def test_unparsable_epsilons_exit_2(self, epsilons):
        res = run("sharpness-sweep", "--epsilons", epsilons)
        assert res.returncode == 2
        assert res.stderr.startswith("error: epsilons must be a comma-separated list")

    def test_missing_file_exits_2(self):
        assert run("validate", "--input", "/nonexistent/band.json").returncode == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert run("validate", "--input", str(bad)).returncode == 2

    def test_bad_epsilon_exits_2(self, tmp_path):
        res = run("build-wrinkle", "--epsilon", "0.5", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 2


class TestDeterminism:
    def test_sharpness_sweep_byte_identical(self, tmp_path):
        out1 = tmp_path / "s1.csv"
        out2 = tmp_path / "s2.csv"
        args = ("sharpness-sweep", "--epsilons", "1e-3,1e-4")
        assert run(*args, "-o", str(out1)).returncode == 0
        assert run(*args, "-o", str(out2)).returncode == 0
        assert out1.read_bytes() == out2.read_bytes()
        lines = out1.read_text().strip().splitlines()
        assert lines[0] == "epsilon,lambda,hausdorff,ratio_to_sqrt_eps"
        assert len(lines) == 3

    def test_bounds_sweep_small(self):
        res = run("bounds-sweep", "--grid", "120", "--seed", "7")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout


class TestToleranceEnv:
    def test_override_changes_outcome(self, wrinkle_file):
        import os

        env = dict(os.environ, MOEBIUS_TOL='{"isometry": 1e-14}')
        res = subprocess.run(
            CLI + ["validate", "--input", str(wrinkle_file)],
            capture_output=True, text=True, env=env,
        )
        # the wrinkle's seam closure sits around 1e-11, far over 1e-14
        assert res.returncode == 1

    def test_bad_env_exits_2(self, wrinkle_file):
        import os

        env = dict(os.environ, MOEBIUS_TOL="{broken")
        res = subprocess.run(
            CLI + ["validate", "--input", str(wrinkle_file)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 2

    def test_unknown_key_exits_2(self, wrinkle_file):
        import os

        env = dict(os.environ, MOEBIUS_TOL='{"pose": 1e-12}')
        res = subprocess.run(
            CLI + ["validate", "--input", str(wrinkle_file)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 2
        assert "pose" in res.stderr


class TestRoundTrip:
    def test_rebuild_matches_report_values(self, wrinkle_file, tmp_path):
        rep1 = tmp_path / "r1.json"
        rep2 = tmp_path / "r2.json"
        for rep in (rep1, rep2):
            assert run(
                "verify", "--input", str(wrinkle_file), "--theorem", "eff",
                "--report", str(rep),
            ).returncode == 0
        d1 = json.loads(rep1.read_text())[0]["measured"]
        d2 = json.loads(rep2.read_text())[0]["measured"]
        assert abs(d1["deviation"] - d2["deviation"]) < 1e-12


class TestImport:
    def test_cli_does_not_load_scipy(self):
        # numpy is the only runtime dependency; scipy.spatial would take most
        # of the start-up time and memory of every CLI call
        code = ("import sys, moebiusband.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
        res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "[]"
