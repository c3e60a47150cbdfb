import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from simplexreg import estimators
from simplexreg.cli import cli_main

from conftest import random_interior_points

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *args):
    code = cli_main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_never_loads_scipy_special(tmp_path, *args):
    """Run the CLI with ``args`` in a fresh interpreter and check that it
    succeeds without loading scipy.special (about 24 MiB of RSS and half
    the package's import time)."""
    script = (
        "import sys\n"
        "from simplexreg.cli import cli_main\n"
        f"code = cli_main({list(args)!r})\n"
        "assert code == 0, code\n"
        "assert 'scipy.special' not in sys.modules\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stdout


def make_design_csv(path, n=28, seed=4, fn=lambda p: np.log1p(p[:, 0] + p[:, 1])):
    from simplexreg import mesh_design_points

    pts = mesh_design_points(7) if n == 28 else random_interior_points(n, seed)
    y = fn(pts)
    lines = ["s1,s2,y"] + [f"{a},{b},{c}" for (a, b), c in zip(pts, y)]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestMesh:
    def test_emits_points_csv_and_voronoi_json(self, tmp_path, capsys):
        vor = tmp_path / "vor.json"
        code, out, _ = run_cli(
            capsys, "mesh", "--k", "7", "--voronoi-out", str(vor)
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s1,s2"
        assert len(lines) == 29
        data = json.loads(vor.read_text())
        assert len(data["cells"]) == 28

    def test_bad_k_is_data_error(self, tmp_path, capsys):
        code, _, err = run_cli(capsys, "mesh", "--k", "1", "--voronoi-out",
                               str(tmp_path / "v.json"))
        assert code == 2


class TestEstimate:
    def test_single_point(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        code, out, _ = run_cli(
            capsys,
            "estimate", "--method", "NW", "--design", str(design),
            "--bandwidth", "0.1", "--at", "0.3,0.3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s1,s2,estimate"
        s1, s2, est = (float(v) for v in lines[1].split(","))
        assert (s1, s2) == (0.3, 0.3)
        assert 0.0 < est < 1.0

    def test_eval_points_file(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        pts = random_interior_points(17, 3)
        eval_csv = tmp_path / "eval.csv"
        eval_csv.write_text(
            "s1,s2\n" + "\n".join(f"{a},{b}" for a, b in pts) + "\n"
        )
        code, out, _ = run_cli(
            capsys,
            "estimate", "--method", "LL", "--design", str(design),
            "--bandwidth", "0.15", "--eval-points", str(eval_csv),
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "s1,s2,estimate"
        assert len(lines) == 18
        assert all(np.isfinite(float(line.split(",")[2])) for line in lines[1:])

    def test_gm_reports_cells_short_of_tolerance(self, tmp_path, capsys, monkeypatch):
        design = make_design_csv(tmp_path / "design.csv")
        args = (
            "estimate", "--method", "GM", "--design", str(design),
            "--bandwidth", "0.1", "--at", "0.3,0.3",
        )
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        real = estimators.gm_weight_matrix

        def three_cells_missed(partition, b, pts, cfg=None):
            W, conv = real(partition, b, pts, cfg)
            conv[[0, 5, 9]] = False
            return W, conv

        monkeypatch.setattr(estimators, "gm_weight_matrix", three_cells_missed)
        code, out_missed, err = run_cli(capsys, *args)
        assert code == 0 and out_missed == out
        assert err == "warning: cubature tolerance not reached in 3 of 28 cells\n"

    def test_gm_never_imports_scipy_special(self, tmp_path):
        # the GM kernel's log-gamma is math.lgamma
        design = make_design_csv(tmp_path / "design.csv")
        assert_never_loads_scipy_special(
            tmp_path,
            "estimate", "--method", "GM", "--design", str(design),
            "--bandwidth", "0.1", "--at", "0.3,0.3", "--out", str(tmp_path / "est.csv"),
        )

    def test_missing_point_spec_is_usage_error(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        code, _, err = run_cli(
            capsys,
            "estimate", "--method", "NW", "--design", str(design),
            "--bandwidth", "0.1",
        )
        assert code == 1
        assert "usage error" in err

    def test_missing_design_file_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(
            capsys,
            "estimate", "--method", "NW", "--design", str(tmp_path / "nope.csv"),
            "--bandwidth", "0.1", "--at", "0.3,0.3",
        )
        assert code == 2


class TestMalformedPaths:
    """A path through a file or an oversized CSV field is a data error: exit
    2 and one ``data error:`` line, not a traceback."""

    def assert_data_error(self, capsys, *args):
        code, out, err = run_cli(capsys, *args)
        assert code == 2 and out == ""
        assert err.startswith("data error: ") and err.count("\n") == 1

    def test_design_path_through_a_file(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        self.assert_data_error(
            capsys,
            "estimate", "--method", "NW", "--design", str(design / "x.csv"),
            "--bandwidth", "0.1", "--at", "0.3,0.3",
        )

    def test_out_path_through_a_file(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        self.assert_data_error(
            capsys,
            "estimate", "--method", "NW", "--design", str(design),
            "--bandwidth", "0.1", "--at", "0.3,0.3", "--out", str(design / "out.csv"),
        )

    def test_field_over_the_csv_limit(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        with design.open("a") as handle:
            handle.write('0.3,0.3,"' + "1" * 131_073 + '"\n')
        self.assert_data_error(
            capsys,
            "estimate", "--method", "NW", "--design", str(design),
            "--bandwidth", "0.1", "--at", "0.3,0.3",
        )


class TestBandwidth:
    def test_loocv_with_trace(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        trace = tmp_path / "trace.csv"
        code, out, _ = run_cli(
            capsys,
            "bandwidth", "--criterion", "loocv", "--design", str(design),
            "--grid-size", "8", "--grid-min", "0.05", "--grid-max", "1.0",
            "--trace-out", str(trace),
        )
        assert code == 0
        payload = json.loads(out)
        assert 0.05 <= payload["b_hat"] <= 1.0
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "b,value"
        assert len(lines) == payload["evaluations"] + 1

    @pytest.mark.parametrize("method", ["GM", "NW"])
    def test_loocv_rejects_methods_other_than_ll(self, tmp_path, capsys, method):
        # LOOCV is defined for LL only; it used to print LL's b_hat for any method
        design = make_design_csv(tmp_path / "design.csv", n=40)
        code, out, err = run_cli(
            capsys,
            "bandwidth", "--criterion", "loocv", "--method", method,
            "--design", str(design), "--grid-size", "8",
        )
        assert code == 1 and out == ""
        assert "loocv" in err and method in err
        code, out, _ = run_cli(
            capsys,
            "bandwidth", "--criterion", "loocv", "--method", "LL",
            "--design", str(design), "--grid-size", "8",
        )
        assert code == 0 and "b_hat" in json.loads(out)

    def test_lscv_requires_seed(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        code, _, err = run_cli(
            capsys,
            "bandwidth", "--criterion", "lscv", "--method", "NW",
            "--function", "m1", "--design", str(design),
        )
        assert code == 1
        assert "seed" in err

    def test_lscv_deterministic(self, tmp_path, capsys):
        design = make_design_csv(tmp_path / "design.csv")
        args = (
            "bandwidth", "--criterion", "lscv", "--method", "NW",
            "--function", "m1", "--design", str(design), "--seed", "5",
            "--sample-size", "100", "--grid-size", "6", "--grid-min", "0.05",
            "--no-refine",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2


class TestSimulate:
    def test_byte_identical_reruns(self, capsys):
        args = (
            "simulate", "--functions", "m1", "--k", "2", "--methods", "NW,LL",
            "--reps", "2", "--seed", "42", "--lscv-sample-size", "50",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        header = out1.splitlines()[0]
        assert header.startswith("function,n,method,mean,sd,median,iqr")

    def test_warns_when_gm_cubature_tolerance_is_missed(self, capsys, monkeypatch):
        from simplexreg import simulation

        args = (
            "simulate", "--functions", "m1,m4", "--k", "2", "--methods", "GM,LL",
            "--reps", "1", "--seed", "5", "--lscv-sample-size", "40",
        )
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        real = simulation.gm_weight_matrix

        def one_cell_missed(partition, b, pts, cfg=None):
            W, conv = real(partition, b, pts, cfg)
            conv[1] = False
            return W, conv

        monkeypatch.setattr(simulation, "gm_weight_matrix", one_cell_missed)
        code, out_missed, err = run_cli(capsys, *args)
        assert code == 0 and out_missed == out
        assert err == "warning: cubature tolerance not reached in some cells of 2 of 4 rows\n"

    def test_never_imports_scipy_special(self, tmp_path):
        # a study (LSCV selection, GM/NW/LL estimates, ISEs) runs on numpy alone
        assert_never_loads_scipy_special(
            tmp_path,
            "simulate", "--functions", "m1", "--k", "3", "--methods", "GM,NW,LL",
            "--reps", "1", "--seed", "5", "--lscv-sample-size", "40",
            "--out", str(tmp_path / "study.csv"),
        )

    def test_table_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--functions", "m4", "--k", "2", "--methods", "LL",
            "--reps", "1", "--seed", "3", "--lscv-sample-size", "40",
            "--format", "table",
        )
        assert code == 0
        assert out.splitlines()[0].split() == [
            "Function", "n", "Method", "Mean", "SD", "Median", "IQR",
        ]


# exact stdout of `asymptotics --mise`: bias, variance constants and both
# optima, at two points per target
MISE_STDOUT = {
    ("m1", "0.3,0.3"): (
        '{"b_opt_mise": 0.22009917847155452, "b_opt_mse": 0.5559037595838734'
        ', "function": "m1", "g": 0.07812500000000011, "mise_opt": 0.0165278016908362'
        ', "mse_opt": 0.005658489805654648, "n": 100, "psi": 0.41941010087072533'
        ', "s": [0.3, 0.3]}\n'
    ),
    ("m1", "0.6,0.25"): (
        '{"b_opt_mise": 0.22009917847155452, "b_opt_mse": 0.23685970611282153'
        ', "function": "m1", "g": -0.3159240321402482, "mise_opt": 0.0165278016908362'
        ', "mse_opt": 0.01679844006646769, "n": 100, "psi": 0.5305164769729844'
        ', "s": [0.6, 0.25]}\n'
    ),
    ("m2", "0.3,0.3"): (
        '{"b_opt_mise": 0.15136193479004384, "b_opt_mse": 0.6261220856001984'
        ', "function": "m2", "g": -0.06535832481120257, "mise_opt": 0.02403349018456851'
        ', "mse_opt": 0.005023901614195741, "n": 100, "psi": 0.41941010087072533'
        ', "s": [0.3, 0.3]}\n'
    ),
    ("m2", "0.6,0.25"): (
        '{"b_opt_mise": 0.15136193479004384, "b_opt_mse": 0.1195795681064177'
        ', "function": "m2", "g": -0.8807121180841504, "mise_opt": 0.02403349018456851'
        ', "mse_opt": 0.033273858070439394, "n": 100, "psi": 0.5305164769729844'
        ', "s": [0.6, 0.25]}\n'
    ),
    ("m4", "0.3,0.3"): (
        '{"b_opt_mise": 0.15295076144669764, "b_opt_mse": 0.5981281900834816'
        ', "function": "m4", "g": 0.07000000000000015, "mise_opt": 0.02378383435091006'
        ', "mse_opt": 0.005259032777056383, "n": 100, "psi": 0.41941010087072533'
        ', "s": [0.3, 0.3]}\n'
    ),
    ("m4", "0.6,0.25"): (
        '{"b_opt_mise": 0.15295076144669764, "b_opt_mse": 0.10987012750848116'
        ', "function": "m4", "g": -0.9999999999999998, "mise_opt": 0.02378383435091006'
        ', "mse_opt": 0.0362143347561897, "n": 100, "psi": 0.5305164769729844'
        ', "s": [0.6, 0.25]}\n'
    ),
    ("m5", "0.3,0.3"): (
        '{"b_opt_mise": 0.09691895357741975, "b_opt_mse": 0.12417623412846615'
        ', "function": "m5", "g": 0.7400000000000002, "mise_opt": 0.03753399556865773'
        ', "mse_opt": 0.025331544144559855, "n": 100, "psi": 0.41941010087072533'
        ', "s": [0.3, 0.3]}\n'
    ),
    ("m5", "0.6,0.25"): (
        '{"b_opt_mise": 0.09691895357741975, "b_opt_mse": 0.1921124692091803'
        ', "function": "m5", "g": -0.43249999999999966, "mise_opt": 0.03753399556865773'
        ', "mse_opt": 0.020711167753327955, "n": 100, "psi": 0.5305164769729844'
        ', "s": [0.6, 0.25]}\n'
    ),
    ("m6", "0.3,0.3"): (
        '{"b_opt_mise": 0.12188694107578268, "b_opt_mse": 0.19597649130665576'
        ', "function": "m6", "g": 0.37323596029476513, "mise_opt": 0.029845326677220146'
        ', "mse_opt": 0.016050781068472013, "n": 100, "psi": 0.41941010087072533'
        ', "s": [0.3, 0.3]}\n'
    ),
    ("m6", "0.6,0.25"): (
        '{"b_opt_mise": 0.12188694107578268, "b_opt_mse": 0.17131309213207638'
        ', "function": "m6", "g": -0.5136101666750962, "mise_opt": 0.029845326677220146'
        ', "mse_opt": 0.02322574140585713, "n": 100, "psi": 0.5305164769729844'
        ', "s": [0.6, 0.25]}\n'
    ),
}


class TestAsymptotics:
    def test_json_payload(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "asymptotics", "--function", "m5", "--at", "0.3,0.2", "--n", "200",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["psi"] > 0
        assert payload["b_opt_mse"] > 0
        assert payload["mse_opt"] > 0

    def test_zero_bias_reports_null(self, capsys):
        # linear target along its zero-bias locus
        code, out, _ = run_cli(
            capsys,
            "asymptotics", "--function", "m4", "--at", "0.001,0.997",
        )
        assert code == 0

    def test_underflowing_coordinate_product_exits_3(self, capsys):
        # each coordinate is positive, but their product rounds to 0
        code, _, err = run_cli(
            capsys, "asymptotics", "--function", "m5", "--at", "1e-200,1e-200"
        )
        assert code == 3
        assert "numerical failure" in err

    @pytest.mark.parametrize("function, at", sorted(MISE_STDOUT))
    def test_mise_stdout_is_pinned(self, capsys, function, at):
        code, out, err = run_cli(
            capsys, "asymptotics", "--function", function, "--at", at, "--mise"
        )
        assert (code, out, err) == (0, MISE_STDOUT[(function, at)], "")

    def test_warns_when_a_mise_integral_misses_the_tolerance(self, capsys):
        # m3's squared bias coefficient is not integrable over the simplex
        code, out, err = run_cli(
            capsys, "asymptotics", "--function", "m3", "--at", "0.3,0.3", "--mise"
        )
        assert code == 0
        assert err == "warning: cubature tolerance not reached in a MISE integral\n"
        assert json.loads(out)["b_opt_mise"] > 0

    @pytest.mark.parametrize("flag, value", [("--sigma2", "-1"), ("--n", "-5"), ("--n", "0")])
    def test_negative_variance_or_sample_size_is_data_error(self, capsys, flag, value):
        code, out, err = run_cli(
            capsys, "asymptotics", "--function", "m5", "--at", "0.3,0.2", flag, value
        )
        assert (code, out) == (2, "")
        assert err.startswith("data error:")

    def test_zero_variance_gives_zero_bandwidth(self, capsys):
        code, out, _ = run_cli(
            capsys, "asymptotics", "--function", "m5", "--at", "0.3,0.2", "--sigma2", "0"
        )
        assert code == 0
        assert json.loads(out)["b_opt_mse"] == 0.0


def make_soil_csv(path):
    pts = random_interior_points(50, 21)
    clay = 1.0 - pts.sum(axis=1)
    ph = 6.0 + 1.2 * pts[:, 0] - 0.4 * pts[:, 1]
    lines = ["sand,silt,clay,pH"] + [
        f"{100*a},{100*b},{100*c},{v}"
        for (a, b), c, v in zip(pts, clay, ph)
    ]
    path.write_text("\n".join(lines) + "\n")
    return path


class TestFit:
    def test_synthetic_pipeline_round_trip(self, tmp_path, capsys):
        data = make_soil_csv(tmp_path / "soil.csv")
        grid_out = tmp_path / "grid.csv"
        code, out, _ = run_cli(
            capsys,
            "fit", "--input", str(data), "--out", str(grid_out),
            "--grid-resolution", "8", "--grid-size", "5",
            "--grid-min", "0.1", "--grid-max", "0.9", "--no-refine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["n"] == 50
        assert payload["dropped_rows"] == 0
        lines = grid_out.read_text().strip().splitlines()
        assert lines[0] == "s1,s2,s3,estimate,category"
        assert len(lines) == payload["grid_points"] + 1

    def test_missing_input_is_data_error(self, tmp_path, capsys):
        code, _, _ = run_cli(capsys, "fit", "--input", str(tmp_path / "none.csv"))
        assert code == 2

    def test_never_imports_scipy_special(self, tmp_path):
        # NW/LL need no log-gamma, so `fit` never loads scipy.special
        data = make_soil_csv(tmp_path / "soil.csv")
        assert_never_loads_scipy_special(
            tmp_path,
            "fit", "--input", str(data), "--out", str(tmp_path / "grid.csv"),
            "--grid-resolution", "8", "--grid-size", "5", "--no-refine",
        )


class TestClt:
    def test_smoke_and_determinism(self, tmp_path, capsys):
        args = (
            "clt", "--function", "m5", "--at", "0.333,0.333", "--n", "28",
            "--bandwidth", "0.25", "--reps", "40", "--seed", "11",
            "--samples-out", str(tmp_path / "z.csv"),
        )
        code1, out1, _ = run_cli(capsys, *args)
        z1 = (tmp_path / "z.csv").read_text()
        code2, out2, _ = run_cli(capsys, *args)
        z2 = (tmp_path / "z.csv").read_text()
        assert code1 == code2 == 0
        assert out1 == out2
        assert z1 == z2
        payload = json.loads(out1)
        assert payload["replications"] == 40
        assert 0.0 < payload["ks_statistic"] < 1.0

    def test_warns_when_cubature_tolerance_is_missed(self, capsys, monkeypatch):
        from simplexreg import simulation

        args = (
            "clt", "--function", "m5", "--at", "0.333,0.333", "--n", "28",
            "--bandwidth", "0.01", "--reps", "20", "--seed", "3",
        )
        code, out, err = run_cli(capsys, *args)
        assert code == 0 and err == ""
        real = simulation.gm_weight_matrix

        def one_cell_missed(partition, b, pts, cfg=None):
            W, conv = real(partition, b, pts, cfg)
            conv[4] = False
            return W, conv

        monkeypatch.setattr(simulation, "gm_weight_matrix", one_cell_missed)
        code, out_missed, err = run_cli(capsys, *args)
        assert code == 0 and out_missed == out
        assert err == "warning: cubature tolerance not reached in some cells\n"

    def test_invalid_n_is_numerical_or_data_error(self, capsys):
        code, _, _ = run_cli(
            capsys,
            "clt", "--function", "m5", "--at", "0.3,0.3", "--n", "29",
            "--bandwidth", "0.2", "--reps", "16", "--seed", "1",
        )
        assert code == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, "frobnicate")
        assert code == 1

    def test_missing_required_flag(self, capsys):
        code, _, _ = run_cli(capsys, "mesh")
        assert code == 1


class TestNumericalFailureExitCode:
    def test_vanished_weights_exit_3(self, tmp_path, capsys):
        # corner design points carry exactly zero kernel weight at an
        # interior evaluation point, so the weighted average is undefined
        design = tmp_path / "design.csv"
        design.write_text("s1,s2,y\n0,0,1\n1,0,2\n0,1,3\n")
        code, _, err = run_cli(
            capsys,
            "estimate", "--method", "NW", "--design", str(design),
            "--bandwidth", "0.2", "--at", "0.4,0.3",
        )
        assert code == 3
        assert "numerical" in err
