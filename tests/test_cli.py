import io
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from moebiusband import band as band_mod
from moebiusband import bounds
from moebiusband import cli as cli_mod
from moebiusband import tpattern as tpattern_mod
from moebiusband.band import read_json, write_json
from moebiusband.cli import main as cli_main
from moebiusband.tpattern import InvalidBandError, find_tpattern
from moebiusband.verify import prepare, verify_all

from conftest import replace, scale_bend

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


def _edited(edit):
    """A band file made from a good one by an in-place edit of its JSON."""
    def make(data):
        edit(data)
        return json.dumps(data)
    return make


# band files that must each end in exit code 2 and a one-line message
MALFORMED_BANDS = {
    "not_an_object": lambda data: "[]",
    "truncated": lambda data: json.dumps(data)[:100],
    "no_bends": _edited(lambda d: d.pop("bends")),
    "lambda_not_a_number": _edited(lambda d: d.update({"lambda": "abc"})),
    # float() read true as 1.0 and the string as its number
    "lambda_true": _edited(lambda d: d.update({"lambda": True})),
    "lambda_numeric_string": _edited(lambda d: d.update({"lambda": str(d["lambda"])})),
    "lambda_negative": _edited(lambda d: d.update({"lambda": -1.0})),
    "no_bend": _edited(lambda d: d.update({"bends": []})),
    "bend_not_an_object": _edited(lambda d: d["bends"].__setitem__(3, [1, 2])),
    "ragged_bend": _edited(lambda d: d["bends"][3]["flat"].append([0.0, 0.5])),
    "planar_space": _edited(lambda d: [b.update({"space": [p[:2] for p in b["space"]]})
                                       for b in d["bends"]]),
    "nan_coordinate": _edited(lambda d: d["bends"][3]["space"][0].__setitem__(0, math.nan)),
    # np.array(..., dtype=float) read null as NaN: "coordinates must be finite"
    "coordinate_null": _edited(lambda d: d["bends"][3]["space"][0].__setitem__(2, None)),
    # np.array(..., dtype=float) read the string as its number, true as 1.0
    # and false as 0.0, so these bands passed as the unedited one
    "coordinate_numeric_string": _edited(
        lambda d: d["bends"][3]["flat"][0].__setitem__(0, str(d["bends"][3]["flat"][0][0]))),
    "coordinate_true": _edited(lambda d: d["bends"][3]["flat"][1].__setitem__(1, True)),
    "coordinate_false": _edited(lambda d: d["bends"][3]["flat"][0].__setitem__(1, False)),
    # squared lengths overflowed: RuntimeWarnings, ruling=nan and exit 1
    "coordinate_1e308": _edited(lambda d: d["bends"][3]["flat"][0].__setitem__(0, 1e308)),
    # an int past the float range raised OverflowError: a traceback
    "coordinate_huge_integer": _edited(lambda d: d["bends"][3]["flat"][0].__setitem__(0, 10**400)),
    "lambda_huge_integer": _edited(lambda d: d.update({"lambda": 10**400})),
    "format_version": _edited(lambda d: d.update({"format_version": 99})),
    # True == 1 and 1.0 == 1, so both read as version 1
    "format_version_true": _edited(lambda d: d.update({"format_version": True})),
    "format_version_float": _edited(lambda d: d.update({"format_version": 1.0})),
    # unknown keys were ignored
    "unknown_key": _edited(lambda d: d.update({"colour": "red"})),
    "unknown_bend_key": _edited(lambda d: d["bends"][3].update({"weight": 1.0})),
    # json.load raised RecursionError: a traceback
    "deep_nesting": lambda data: "[" * 100_000,
    # the coordinate count is kept, so only a per-bend shape check catches
    # these; numpy reported each as an "inhomogeneous shape"
    "flat_rows_of_3_and_1": _edited(
        lambda d: d["bends"][3].update({"flat": [[*d["bends"][3]["flat"][0], 0.5], [1.0]]})),
    "space_rows_of_2_and_4": _edited(
        lambda d: d["bends"][3].update({"space": [d["bends"][3]["space"][0][:2],
                                                  [d["bends"][3]["space"][0][2],
                                                   *d["bends"][3]["space"][1]]]})),
    "row_string": _edited(lambda d: d["bends"][3]["flat"].__setitem__(0, "ab")),
    "row_object": _edited(lambda d: d["bends"][3]["flat"].__setitem__(0, {"x": 0.5, "y": 0.0})),
    "flat_three_rows": _edited(
        lambda d: d["bends"][3].update({"flat": [d["bends"][3]["flat"][0],
                                                 *([x] for x in d["bends"][3]["flat"][1])]})),
}


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
        ["verify", "--input", "{tri}", "--theorem", "eff"],
    ])
    def test_inert_eta_rejected(self, tri_file, argv, capsys):
        # no subcommand samples at a resolution: eff takes its sups at breakpoints
        assert cli_main([*(a.format(tri=tri_file) for a in argv), "--eta", "1e-3"]) == 2
        captured = capsys.readouterr()
        assert "unrecognized arguments: --eta" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("theorem", ["eff2", "corollary"])
    def test_eta_rejected_without_eff(self, tri_file, theorem, capsys):
        assert cli_main(["verify", "--input", str(tri_file), "--theorem", theorem,
                         "--eta", "1e-3"]) == 2
        assert "unrecognized arguments: --eta" in capsys.readouterr().err

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

    @pytest.mark.parametrize("flag, value", [("--seed", "-1"), ("--grid", "-5")])
    def test_negative_sweep_argument_exits_2(self, flag, value, capsys):
        # numpy and math.isqrt raised a ValueError traceback with exit 1
        assert cli_main(["bounds-sweep", flag, value]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {flag} must be a non-negative integer, not {value}\n"
        assert captured.out == ""

    @pytest.mark.parametrize("case", sorted(MALFORMED_BANDS))
    @pytest.mark.parametrize("command", ["validate", "tpattern", "verify"])
    def test_malformed_band_exits_2(self, tri_file, tmp_path, case, command, capsys):
        data = json.loads(tri_file.read_text())
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_BANDS[case](data))
        assert cli_main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert captured.out == ""

    @pytest.mark.parametrize("case, message", [
        ("coordinate_null", "coordinates must be numbers, not null"),
        ("nan_coordinate", "band coordinates must be finite"),
        ("coordinate_true", "bend 3 flat coordinates must be numbers, not true"),
        ("flat_rows_of_3_and_1", "bend 3 flat must be two arrays of 2 numbers"),
    ])
    def test_malformed_coordinate_message(self, tri_file, tmp_path, case, message, capsys):
        path = tmp_path / "bad.json"
        path.write_text(MALFORMED_BANDS[case](json.loads(tri_file.read_text())))
        assert cli_main(["validate", "--input", str(path)]) == 2
        assert capsys.readouterr().err.endswith(f" {message}\n")

    @pytest.mark.parametrize("command", ["validate", "tpattern", "verify"])
    def test_non_utf8_band_exits_2(self, tmp_path, command, capsys):
        # decoding the file raised UnicodeDecodeError: a traceback and exit 1
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff\xfe{}")
        assert cli_main([command, "--input", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: band file is not UTF-8: ")
        assert captured.err.count("\n") == 1
        assert captured.out == ""

    def test_missing_file_exits_2(self):
        assert run("validate", "--input", "/nonexistent/band.json").returncode == 2

    def test_malformed_json_exits_2(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("{not json")
        assert run("validate", "--input", str(bad)).returncode == 2

    def test_bad_epsilon_exits_2(self, tmp_path):
        res = run("build-wrinkle", "--epsilon", "0.5", "-o", str(tmp_path / "x.json"))
        assert res.returncode == 2

    # below the floor, down past where the plug's bends crowd into
    # duplicates (under about 5.5e-13)
    @pytest.mark.parametrize("eps", ["1e-9", "1e-12", "1e-300"])
    def test_epsilon_below_floor_exits_2(self, eps, tmp_path):
        out = tmp_path / "x.json"
        res = run("build-wrinkle", "--epsilon", eps, "-o", str(out))
        assert res.returncode == 2
        assert res.stderr == "error: epsilon must lie in [1e-08, 0.01]\n"
        assert not out.exists()

    def test_epsilon_at_floor_builds_a_valid_band(self, tmp_path):
        out = tmp_path / "x.json"
        for eps in ("1e-8", "1e-7"):
            assert cli_main(["build-wrinkle", "--epsilon", eps, "-o", str(out)]) == 0
            assert cli_main(["validate", "--input", str(out)]) == 0

    @pytest.mark.parametrize("value", ["2", "7", "1002", "100000000"])
    def test_bends_per_fan_out_of_range_exits_2(self, value, tmp_path, monkeypatch, capsys):
        # 100,000,000 ran out of memory, killed with no message
        monkeypatch.setattr(band_mod, "_outer_fans", lambda *a: pytest.fail("band built"))
        out = tmp_path / "x.json"
        assert cli_main(["build-triangular", "--bends-per-fan", value, "-o", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: n_per_fan must be an even integer in [4, 1000], not {value}\n"
        assert captured.out == "" and not out.exists()

    def test_bends_per_fan_at_maximum_builds(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert cli_main(["build-triangular", "--bends-per-fan", "1000", "-o", str(out)]) == 0
        assert "(3000 bends," in capsys.readouterr().out

    def test_sharpness_sweep_below_floor_exits_2(self, capsys):
        assert cli_main(["sharpness-sweep", "--epsilons", "1e-3,1e-9"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: epsilons must lie in [1e-08, 0.01]\n"
        assert captured.out == ""


class TestOnePerProcess:
    """The parser is built once per process, each job validates its band
    once, and `--theorem` finds its verifier when it runs."""

    def test_parser_built_once_and_no_argument_carries_over(self, tri_file, monkeypatch,
                                                            capsys):
        assert cli_main(["verify", "--input", str(tri_file), "--theorem", "eff"]) == 0
        assert [line.split(":")[0] for line in capsys.readouterr().out.splitlines()] == ["eff"]
        monkeypatch.setattr(cli_mod, "build_parser", lambda: pytest.fail("parser rebuilt"))
        assert cli_main(["verify", "--input", str(tri_file)]) == 0
        names = [line.split(":")[0] for line in capsys.readouterr().out.splitlines()]
        assert names == ["eff", "eff2", "corollary"]
        assert cli_main(["verify", "--input", str(tri_file), "--frobnicate"]) == 2
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["tpattern"], ["verify"], ["verify", "--theorem", "eff"]])
    def test_band_validated_once(self, wrinkle_file, argv, monkeypatch, capsys):
        calls = []
        real = tpattern_mod.validate
        monkeypatch.setattr(tpattern_mod, "validate",
                            lambda band: calls.append(1) or real(band))
        monkeypatch.setattr(cli_mod, "validate", lambda *a: pytest.fail("validated twice"))
        assert cli_main([argv[0], "--input", str(wrinkle_file), *argv[1:]]) == 0
        assert calls == [1]

    @pytest.mark.parametrize("theorem", ["eff", "eff2", "corollary"])
    def test_theorem_looked_up_when_run(self, wrinkle_file, theorem, monkeypatch, capsys):
        # `--theorem X` calls the module's verify_X as it stands at the call,
        # so a verifier replaced after import is the one that runs
        calls = []
        real = getattr(cli_mod, f"verify_{theorem}")
        monkeypatch.setattr(cli_mod, f"verify_{theorem}",
                            lambda state: calls.append(state) or real(state))
        assert cli_main(["verify", "--input", str(wrinkle_file), "--theorem", theorem]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out.startswith(f"{theorem}: pass=True")

    def test_library_callers_get_the_report(self, tri_file):
        bad = scale_bend(read_json(tri_file), 4, 1.02)
        for call in (find_tpattern, prepare, verify_all):
            with pytest.raises(InvalidBandError, match="failed validation") as info:
                call(bad)
            assert not info.value.report.passed
            assert info.value.report.max_ruling_residual > 1e-3


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

    def test_sharpness_sweep_slope_needs_two_epsilons(self):
        # np.polyfit through one distinct point warned and printed a slope
        res = run("sharpness-sweep", "--epsilons", "1e-4,1e-4")
        assert res.returncode == 0, res.stderr
        lines = res.stdout.splitlines()
        assert lines[0] == "epsilon,lambda,hausdorff,ratio_to_sqrt_eps"
        assert len(lines) == 3 and lines[1] == lines[2]
        assert res.stderr == ""
        res = run("sharpness-sweep", "--epsilons", "1e-3,1e-4,1e-4")
        assert res.returncode == 0, res.stderr
        assert res.stderr.startswith("# log-log slope: ") and res.stderr.count("\n") == 1

    def test_bounds_sweep_small(self):
        res = run("bounds-sweep", "--grid", "120", "--seed", "7")
        assert res.returncode == 0, res.stdout + res.stderr
        assert "FAIL" not in res.stdout


# every flag and error that `bounds-sweep` reads from the three certificates,
# with a value that fails it, and the line it decides
VERDICT_INPUTS = [
    ("derivative_anchors", "h_prime_err", 1e-6, "derivative-anchors"),
    ("derivative_anchors", "d_prime_err", 1e-6, "derivative-anchors"),
    ("derivative_anchors", "fprime_below_3_4", False, "derivative-anchors"),
    ("hd_grid_certificate", "min_is_sqrt3", False, "aspect-grid"),
    ("hd_grid_certificate", "crossing_at_t_opt", False, "aspect-grid"),
    ("sq_grid_certificate", "sq0_nonnegative", False, "sqrt-margins-grid"),
    ("sq_grid_certificate", "sq0_zero_only_at_corner", False, "sqrt-margins-grid"),
    ("sq_grid_certificate", "sq1_strictly_positive", False, "sqrt-margins-grid"),
]
# the report entries that no draw enters
CERTIFICATE_LINES = ("anchor-identities", "derivative-anchors", "aspect-grid",
                     "sqrt-margins-grid")


class TestBoundsReport:
    def test_verdict_inputs_cover_every_flag(self):
        for name in {certificate for certificate, *_ in VERDICT_INPUTS}:
            keys = {k for k, v in getattr(bounds, name)().items()
                    if isinstance(v, bool) or k.endswith("_err")}
            assert keys == {key for certificate, key, *_ in VERDICT_INPUTS if certificate == name}

    @pytest.mark.parametrize("certificate, key, value, line", VERDICT_INPUTS,
                             ids=[f"{c}-{k}" for c, k, *_ in VERDICT_INPUTS])
    def test_each_verdict_input_takes_effect(self, certificate, key, value, line,
                                             monkeypatch, capsys):
        original = getattr(bounds, certificate)
        monkeypatch.setattr(bounds, certificate, lambda: original() | {key: value})
        assert cli_main(["bounds-sweep", "--grid", "0", "--seed", "7"]) == 1
        out = capsys.readouterr().out
        assert f"{line}: FAIL\n" in out and out.count("FAIL") == 1

    def test_report_certificate_entries(self, tmp_path):
        # the certificates are closed forms: --grid sets only the draws
        entries = []
        for grid in ("0", "120", "1000"):
            report = tmp_path / f"margins-{grid}.json"
            assert cli_main(["bounds-sweep", "--grid", grid, "--seed", "7",
                             "--report", str(report)]) == 0
            lines = json.loads(report.read_text())["lines"]
            entries.append(repr({name: lines[name] for name in CERTIFICATE_LINES}))
        assert entries[0] == entries[1] == entries[2]
        assert lines["aspect-grid"]["min_minus_sqrt3"] == 0.0
        assert lines["sqrt-margins-grid"]["sq0_min"] == 0.0
        assert lines["sqrt-margins-grid"]["sq1_min"] == 4.5 - 3 / math.sqrt(2) - 1 / 16
        assert lines["derivative-anchors"]["max_abs_fprime"] == 1 / math.sqrt(2)

    def test_report_holds_least_margins(self, tmp_path, capsys):
        assert cli_main(["bounds-sweep", "--grid", "120", "--seed", "7"]) == 0
        plain = capsys.readouterr().out
        report = tmp_path / "margins.json"
        assert cli_main(["bounds-sweep", "--grid", "120", "--seed", "7",
                         "--report", str(report)]) == 0
        assert capsys.readouterr().out == plain
        data = json.loads(report.read_text())
        assert (data["grid"], data["seed"]) == (120, 7)
        lines = data["lines"]
        assert list(lines) == [line.split(":")[0].split("[")[0] for line in plain.splitlines()]
        assert all(line["passed"] for line in lines.values())
        assert max(lines["anchor-identities"][k] for k in ("h_err", "d_err", "g_err")) < 1e-12
        assert lines["derivative-anchors"]["h_prime_err"] < 1e-6
        assert lines["aspect-grid"]["min_minus_sqrt3"] >= -1e-12
        assert abs(lines["aspect-grid"]["argmin_t"] - 3 ** -0.5) < 1e-4
        assert lines["sqrt-margins-grid"]["sq0_min"] >= -1e-12
        assert lines["sqrt-margins-grid"]["sq1_min"] > 0.0
        assert lines["offset-sweep"]["offset1_min"] > 0.0
        assert lines["curve-sweep"]["wiggle_min"] > 0.0
        assert lines["curve-sweep"]["graph_min"] >= -1e-12

    def test_report_bytes(self, tmp_path):
        report = tmp_path / "margins.json"
        assert cli_main(["bounds-sweep", "--grid", "0", "--seed", "7",
                         "--report", str(report)]) == 0
        # the bytes that json.dump writes chunk by chunk, then a newline
        want = io.StringIO()
        json.dump(json.loads(report.read_text()), want, indent=2)
        assert report.read_text() == want.getvalue() + "\n"

    def test_report_minima_follow_the_draws(self, tmp_path):
        # the sweeps draw from one generator, offset1 first, then the curves
        report = tmp_path / "margins.json"
        assert cli_main(["bounds-sweep", "--grid", "0", "--seed", "11",
                         "--report", str(report)]) == 0
        lines = json.loads(report.read_text())["lines"]
        rng = np.random.default_rng(11)
        offset1 = []
        for _ in range(500):
            eps = float(rng.uniform(0.001, 0.24))
            offset1.append(bounds.offset1_check(bounds.random_perturbed_triangle(rng, eps),
                                                eps).margin)
        wiggle, graph = [], []
        for _ in range(500):
            eps = float(rng.uniform(0.001, 0.1))
            cg = bounds.curve_with_forced_deviation(rng, eps)
            wiggle.append(bounds.wiggle_check(cg, eps).margin)
            graph.append(bounds.graph_check(cg).margin)
        assert lines["offset-sweep"]["offset1_min"] == min(offset1)
        assert lines["curve-sweep"] == {"passed": True, "wiggle_min": min(wiggle),
                                        "graph_min": min(graph)}


# what every subcommand prints, and nothing else, when MOEBIUS_TOL is set
REJECTED = "error: MOEBIUS_TOL is set, but the tolerances are fixed\n"


@pytest.fixture(scope="module")
def stretched_file(tmp_path_factory):
    """The wrinkle band at eps 1e-2 with every space coordinate scaled by
    1.01: 1% stretched, so no paper band."""
    band = band_mod.build_wrinkle(1e-2)
    path = tmp_path_factory.mktemp("bands") / "stretched.json"
    write_json(replace(band, space=1.01 * band.space), path)
    return path


class TestToleranceEnv:
    """The tolerances are fixed: a non-empty MOEBIUS_TOL, whatever it
    holds, ends every subcommand with exit 2 and one line on stderr before
    it reads or writes anything."""

    @staticmethod
    def _rejected(argv, value, monkeypatch, capsys):
        monkeypatch.setenv("MOEBIUS_TOL", value)
        assert cli_main(argv) == 2
        captured = capsys.readouterr()
        assert captured.err == REJECTED and captured.out == ""

    def test_stretched_band_fails_under_any_env(self, stretched_file, capsys):
        import os

        # an isometry tolerance of 0.03 would pass this band
        for command in ("validate", "verify"):
            assert cli_main([command, "--input", str(stretched_file)]) == 1
        assert "validation failed: ruling=1.000e-02" in capsys.readouterr().out
        env = dict(os.environ, MOEBIUS_TOL='{"isometry": 0.03}')
        res = subprocess.run(CLI + ["verify", "--input", str(stretched_file)],
                             capture_output=True, text=True, env=env)
        assert res.returncode == 2
        assert res.stderr == REJECTED and res.stdout == ""

    @staticmethod
    def _moved_bend_file(tri_file, tmp_path):
        # the top of bend 5 moved 1e-6 along its bend: over the isometry
        # tolerance 1e-9, within 1e-5
        band = read_json(tri_file)
        space = band.space.copy()
        seg = space[5, 1] - space[5, 0]
        space[5, 1] += 1e-6 * seg / np.linalg.norm(seg)
        path = tmp_path / "moved.json"
        write_json(replace(band, space=space), path)
        return path

    @pytest.mark.parametrize("key", ["isometry", "root_residual"])
    def test_former_key_is_rejected(self, key, tri_file, wrinkle_file, tmp_path, monkeypatch,
                                    capsys):
        # each former key at a value that once changed the command's exit
        # code: the command, the value and the exit code without it
        effects = {
            "root_residual": (["tpattern", "--input", str(wrinkle_file)], 1e-20, 0),
            "isometry": (["validate", "--input", str(self._moved_bend_file(tri_file, tmp_path))],
                         1e-5, 1),
        }
        argv, value, code = effects[key]
        monkeypatch.delenv("MOEBIUS_TOL", raising=False)
        assert cli_main(argv) == code
        capsys.readouterr()
        self._rejected(argv, json.dumps({key: value}), monkeypatch, capsys)

    def test_winding_residual_exits_2(self, tri_file, monkeypatch, capsys):
        self._rejected(["verify", "--input", str(tri_file)], '{"winding_residual": 1e-6}',
                       monkeypatch, capsys)

    def test_bad_env_exits_2(self, wrinkle_file):
        import os

        env = dict(os.environ, MOEBIUS_TOL="{broken")
        res = subprocess.run(
            CLI + ["validate", "--input", str(wrinkle_file)],
            capture_output=True, text=True, env=env,
        )
        assert res.returncode == 2
        assert res.stderr == REJECTED and res.stdout == ""

    def test_unknown_key_exits_2(self, wrinkle_file, monkeypatch, capsys):
        self._rejected(["validate", "--input", str(wrinkle_file)], '{"pose": 1e-12}',
                       monkeypatch, capsys)

    @pytest.mark.parametrize("value", ['"abc"', "true", "false", "null", "NaN", "Infinity",
                                       "-Infinity", "[1e-9]", '{"a": 1}', "1" + "0" * 400,
                                       "0", "-1e-9"])
    def test_non_number_exits_2(self, tri_file, value, monkeypatch, capsys):
        self._rejected(["validate", "--input", str(tri_file)], f'{{"isometry": {value}}}',
                       monkeypatch, capsys)

    @pytest.mark.parametrize("value", ["0.5", "1e-7"])
    def test_sampling_eta_out_of_range_exits_2(self, tri_file, value, monkeypatch, capsys):
        self._rejected(["verify", "--input", str(tri_file), "--theorem", "eff"],
                       f'{{"sampling_eta": {value}}}', monkeypatch, capsys)

    @pytest.mark.parametrize("command", ["validate", "verify"])
    def test_sampling_eta_is_unknown(self, tri_file, command, monkeypatch, capsys):
        self._rejected([command, "--input", str(tri_file)], '{"sampling_eta": 1e-4}',
                       monkeypatch, capsys)

    @pytest.mark.parametrize("argv", [
        ["build-triangular", "-o", "{out}"],
        ["build-wrinkle", "--epsilon", "1e-3", "-o", "{out}"],
        ["bounds-sweep", "--grid", "10", "--report", "{out}"],
        ["validate", "--input", "{band}"],
        ["tpattern", "--input", "{band}"],
        ["verify", "--input", "{band}", "--report", "{out}"],
        ["sharpness-sweep", "--epsilons", "1e-3", "-o", "{out}"],
    ])
    def test_bad_env_exits_2_without_tolerances(self, argv, tri_file, tmp_path, monkeypatch,
                                                capsys):
        # no subcommand takes a tolerance, and each rejects the variable
        # before it writes anything
        out = tmp_path / "out"
        self._rejected([a.format(out=out, band=tri_file) for a in argv], '{"isometry": 1e-9}',
                       monkeypatch, capsys)
        assert not out.exists()

    def test_deep_nesting_exits_2(self, tmp_path, monkeypatch, capsys):
        out = tmp_path / "band.json"
        self._rejected(["build-triangular", "-o", str(out)], "[" * 50_000, monkeypatch, capsys)
        assert not out.exists()

    def test_empty_env_is_ignored(self, tri_file, monkeypatch, capsys):
        argv = ["verify", "--input", str(tri_file)]
        monkeypatch.delenv("MOEBIUS_TOL", raising=False)
        assert cli_main(argv) == 0
        unset = capsys.readouterr()
        monkeypatch.setenv("MOEBIUS_TOL", "")
        assert cli_main(argv) == 0
        assert capsys.readouterr() == unset


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
