"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

The heavyweight Monte Carlo comparison (criteria on method ordering and error
magnitudes) runs once as a session fixture at the default tolerances
(cubature rtol 1e-3, 1000-point criterion samples, 40-point bandwidth grid)
with 30 replications; expect roughly 15-25 minutes for the whole module.
"""

import os
import sys

import numpy as np
import pytest

from simplexreg import (
    BandwidthSearch,
    CubatureConfig,
    Design,
    StudyConfig,
    bias_g,
    clt_study,
    fit_and_grid,
    gm_estimate,
    integrate_simplex,
    kappa,
    kappa_gradient_coordinate,
    ll_estimate,
    global_bound,
    log_kappa_matrix,
    mise_opt_bandwidth,
    mse_opt_bandwidth,
    nw_estimate,
    psi_J,
    run_study,
    select_loocv_ll,
    target_function,
    uniform_profile,
    uniform_simplex_sample,
)
from simplexreg.app import PH_CATEGORIES, classify_ph, load_composition_csv
from simplexreg.asymptotics import mse_expression
from simplexreg.estimators import gm_weight_matrix

from conftest import random_interior_points

SEED = 20250808


def report(name: str, ok: bool, detail: str) -> None:
    line = f"{name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    print(line, file=sys.stderr)
    assert ok, line


@pytest.fixture(scope="module")
def study_rows():
    cfg = StudyConfig(
        functions=("m1", "m2", "m4"),
        k_values=(7, 10),
        methods=("GM", "NW", "LL"),
        replications=30,
        seed=SEED,
    )
    return run_study(cfg)


@pytest.fixture(scope="module")
def clt_result():
    return clt_study(
        target_function("m5"), [1 / 3, 1 / 3], 105, 0.2, 500, seed=SEED, sigma=1.0
    )


def test_a1_exactness_suite(mesh7):
    cfg = CubatureConfig()
    const = Design(points=mesh7, responses=np.full(28, 3.7))
    nw_err = abs(nw_estimate(const, 0.1, [0.3, 0.3]) - 3.7)
    ll_err = abs(ll_estimate(const, 0.1, [0.3, 0.3]) - 3.7)
    affine = Design(points=mesh7, responses=2.0 + 3.0 * mesh7[:, 0] - mesh7[:, 1])
    ll_affine_err = max(
        abs(ll_estimate(affine, b, s) - (2.0 + 3.0 * s[0] - s[1]))
        for b in (0.05, 0.2)
        for s in random_interior_points(5, 41)
    )
    gm_err = abs(gm_estimate(const, 0.1, [0.3, 0.3], cfg) - 3.7)
    norm_err = 0.0
    for i, s in enumerate(random_interior_points(20, 314)):
        for b in (0.05, 0.1, 0.2):
            res = integrate_simplex(lambda p, s=s, b=b: kappa(s, b, p), cfg)
            norm_err = max(norm_err, abs(res.value - 1.0))
    ok = (
        nw_err <= 1e-10
        and ll_err <= 1e-10
        and ll_affine_err <= 1e-8
        and gm_err <= 20 * cfg.relative_tolerance * 3.7
        and norm_err <= 10 * cfg.relative_tolerance
    )
    report(
        "A1 exactness",
        ok,
        f"nw={nw_err:.1e} ll={ll_err:.1e} affine={ll_affine_err:.1e} "
        f"gm={gm_err:.1e} norm={norm_err:.1e}",
    )


def test_a2_kernel_bounds():
    worst_margin = -np.inf
    for b in (0.05, 0.2, 1.0):
        centers = uniform_simplex_sample(10_000, SEED + 1)
        points = uniform_simplex_sample(10_000, SEED + 2)
        logs = np.diagonal(log_kappa_matrix(centers, b, points))
        margin = np.exp(logs).max() / global_bound(2, b)
        worst_margin = max(worst_margin, margin)
    grad_err = 0.0
    centers = random_interior_points(100, 71, margin=0.04)
    points = random_interior_points(100, 72, margin=0.04)
    h = 1e-6
    for s, x in zip(centers, points):
        for k in (0, 1):
            e = np.zeros(2)
            e[k] = h
            fd = (kappa(s, 0.1, x + e) - kappa(s, 0.1, x - e)) / (2 * h)
            an = kappa_gradient_coordinate(s, 0.1, x, k)
            grad_err = max(grad_err, abs(an - fd) / (1.0 + abs(an)))
    ok = worst_margin <= 1.0 + 1e-12 and grad_err <= 1e-4
    report(
        "A2 kernel bounds",
        ok,
        f"bound margin={worst_margin:.4f} grad rel err={grad_err:.2e}",
    )


def test_a3_bias_rate(mesh14, partition14):
    m5 = target_function("m5")
    s = np.array([1 / 3, 1 / 3])
    truth = np.asarray(m5(mesh14))
    bs = np.array([0.05, 0.1, 0.2, 0.4])
    errs = []
    for b in bs:
        W, _ = gm_weight_matrix(partition14, b, s[None, :])
        errs.append(float(W[0] @ truth) - float(m5(s)))
    design = np.column_stack([np.ones(4), bs])
    slope = np.linalg.lstsq(design, np.array(errs), rcond=None)[0][1]
    g = bias_g(m5, s)
    ratio = slope / g
    ok = 0.7 <= ratio <= 1.3
    report(
        "A3 bias rate",
        ok,
        f"regression slope={slope:.4f} g={g:.4f} ratio={ratio:.3f}; the exact "
        f"smoothing bias is g*b/(1+4b), so the o(b) term is a factor "
        f"{1 / (1 + 4 * bs[-1]):.2f}..{1 / (1 + 4 * bs[0]):.2f} at these bandwidths",
    )


def test_a4_variance_constant(clt_result):
    ratio = float(np.var(clt_result.standardized, ddof=1))
    ok = 0.5 <= ratio <= 2.0
    report("A4 variance constant", ok, f"empirical/theoretical={ratio:.3f}")


def test_a5_clt(clt_result):
    ks = clt_result.ks_statistic
    ok = ks < 0.08
    report("A5 asymptotic normality", ok, f"KS statistic={ks:.4f} (R=500)")


def test_a6_method_ordering(study_rows):
    means = {(r.function, r.n, r.method): r.mean for r in study_rows}
    violations = []
    for f in ("m1", "m2", "m4"):
        for n in (28, 55):
            ll, nw, gm = means[(f, n, "LL")], means[(f, n, "NW")], means[(f, n, "GM")]
            if not ll < nw:
                violations.append(f"{f}/n={n}: LL {ll:.0f} !< NW {nw:.0f}")
            if not nw < gm:
                violations.append(f"{f}/n={n}: NW {nw:.0f} !< GM {gm:.0f}")
    ok = not violations
    report(
        "A6 method ordering",
        ok,
        "LL < NW < GM on all cells" if ok else "; ".join(violations),
    )


def test_a6_supplement_ll_smallest(study_rows):
    # the comparison claim the criterion quotes: the local linear smoother
    # has the smallest mean on every cell
    means = {(r.function, r.n, r.method): r.mean for r in study_rows}
    ok = all(
        means[(f, n, "LL")] < min(means[(f, n, "NW")], means[(f, n, "GM")])
        for f in ("m1", "m2", "m4")
        for n in (28, 55)
    )
    report("A6 supplement (LL smallest)", ok, "LL has the smallest mean in every cell")


def test_a7_magnitudes(study_rows):
    means = {(r.function, r.n, r.method): r.mean for r in study_rows}
    ll = means[("m1", 28, "LL")]
    nw = means[("m1", 28, "NW")]
    ok = 398 / 2 <= ll <= 398 * 2 and 2305 / 2 <= nw <= 2305 * 2
    report(
        "A7 magnitudes",
        ok,
        f"LL mean={ll:.0f} (target 398 x/2) NW mean={nw:.0f} (target 2305 x/2)",
    )


def test_a8_optimal_bandwidth_algebra():
    m5 = target_function("m5")
    profile = uniform_profile(0.9)
    s = [0.3, 0.2]
    worst_deriv = 0.0
    for n in (100, 1000):
        b_opt, value = mse_opt_bandwidth(s, m5, profile, n)
        g2 = bias_g(m5, s) ** 2
        v = psi_J(s) * profile.sigma2(s) / profile.design_density(s)
        h = 1e-4 * b_opt
        deriv = (
            mse_expression(b_opt + h, g2, v, n, 2)
            - mse_expression(b_opt - h, g2, v, n, 2)
        ) / (2 * h)
        worst_deriv = max(worst_deriv, abs(deriv) * b_opt / value)
    b_mise, v_mise = mise_opt_bandwidth(m5, profile, n=500)
    ns = np.array([100, 1000, 10000])
    bs = np.array([mse_opt_bandwidth(s, m5, profile, n)[0] for n in ns])
    slope = np.polyfit(np.log(ns), np.log(bs), 1)[0]
    ok = worst_deriv <= 1e-6 and abs(slope + 1 / 3) <= 1e-6 and b_mise > 0
    report(
        "A8 optimal-bandwidth algebra",
        ok,
        f"stationarity={worst_deriv:.2e} rate slope={slope:.8f}",
    )


def test_a9_application_pipeline(tmp_path):
    pts = random_interior_points(60, 202)
    design = Design(points=pts, responses=6.2 + 0.9 * pts[:, 0] - 0.5 * pts[:, 1])
    result = fit_and_grid(
        design,
        search=BandwidthSearch(grid=np.geomspace(0.1, 0.8, 6), refine=False),
        grid_resolution=15,
    )
    surface_err = max(
        abs(row.estimate - (6.2 + 0.9 * row.s1 - 0.5 * row.s2))
        for row in result.grid
    )
    values = np.linspace(-1.0, 13.0, 1500)
    order = {c.label: i for i, c in enumerate(PH_CATEGORIES)}
    ranks = [order[classify_ph(v).label] for v in values]
    monotone_total = ranks == sorted(ranks)
    gemas_detail = "GEMAS file not supplied; sub-check skipped"
    gemas_ok = True
    gemas_path = os.environ.get("SIMPLEXREG_GEMAS_CSV")
    if gemas_path:
        loaded = load_composition_csv(gemas_path)
        sel = select_loocv_ll(loaded.design)
        gemas_ok = abs(sel.b_hat - 0.0303) <= 0.2 * 0.0303
        gemas_detail = f"GEMAS b_hat={sel.b_hat:.4f} (target 0.0303 +/- 20%)"
    ok = surface_err <= 1e-6 and monotone_total and gemas_ok
    report(
        "A9 application pipeline",
        ok,
        f"affine grid err={surface_err:.1e}; categories total+monotone="
        f"{monotone_total}; {gemas_detail}",
    )


def test_determinism_gate(clt_result):
    clt_again = clt_study(
        target_function("m5"), [1 / 3, 1 / 3], 105, 0.2, 500, seed=SEED, sigma=1.0
    )
    clt_same = np.array_equal(
        clt_result.standardized, clt_again.standardized
    ) and clt_result.ks_statistic == clt_again.ks_statistic
    cfg = StudyConfig(
        functions=("m4",),
        k_values=(2,),
        replications=2,
        seed=SEED,
        lscv_sample_size=64,
        search=BandwidthSearch(grid=np.geomspace(0.05, 1.0, 6), refine=False),
    )
    rows1, rows2 = run_study(cfg), run_study(cfg)
    study_same = all(
        a.mean == b.mean and a.sd == b.sd and a.median == b.median and a.iqr == b.iqr
        for a, b in zip(rows1, rows2)
    )
    sample_same = np.array_equal(
        uniform_simplex_sample(1000, SEED), uniform_simplex_sample(1000, SEED)
    )
    ok = clt_same and study_same and sample_same
    report(
        "Determinism gate",
        ok,
        f"clt={clt_same} study={study_same} sampler={sample_same}",
    )
