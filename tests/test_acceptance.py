"""End-to-end acceptance gate.

Nine criteria, one test each, run in order; every test prints a single
[CRITERION k] PASS/FAIL line directly to the terminal (bypassing capture)
so the gate is auditable from any pytest invocation.  Tolerances are
stated inline next to each check.
"""

import json
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest

import oracles
from ebcred import (
    CoefficientSequence,
    ExperimentConfig,
    ObservationSequence,
    OperatorSpectrum,
    PriorFamily,
    RngSeed,
    build_credible_ball,
    draw_lawmu,
    export_curves,
    fpfn_experiment,
    identity_spectrum,
    make_rng,
    marginal_log_likelihood,
    posterior_spec,
    prior_variance,
    radius_builtin,
    radius_precise,
    rate_experiment,
    recentered_radii,
    volterra_spectrum,
)
from ebcred import cli

FAM1 = PriorFamily.power_law(1.0)


def report(capsys, num, name, ok, detail):
    with capsys.disabled():
        status = "PASS" if ok else "FAIL"
        print(f"\n[CRITERION {num}] {status} {name}: {detail}", flush=True)
    assert ok, f"criterion {num} {name}: {detail}"


def fixed_posterior(i_max, n, spectrum=volterra_spectrum):
    obs = ObservationSequence(np.zeros(i_max), n)
    return posterior_spec(obs, spectrum(i_max), FAM1, check_truncation=False)


def test_criterion_1_reference_radius_via_cli(capsys):
    """One CLI call reproduces the 0.42 radius in under five seconds."""
    with tempfile.TemporaryDirectory() as tmp:
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "ebcred.cli", "radius",
             "--n", "1000", "--alpha", "1", "--gamma", "0.05",
             "--m", "100000", "--outdir", tmp],
            capture_output=True,
            text=True,
            timeout=60,
        )
        wall = time.perf_counter() - t0
        value = None
        if proc.returncode == 0:
            value = json.loads(Path(tmp, "radius.json").read_text())["value"]
    ok = (
        proc.returncode == 0
        and wall < 5.0
        and value is not None
        and abs(value - 0.42) <= 0.02
    )
    report(
        capsys, 1, "reference radius via CLI", ok,
        f"rc={proc.returncode} value={value} |err|<=0.02 wall={wall:.2f}s<5",
    )


def test_criterion_2_builtin_vs_precise_agreement(capsys):
    """Order-statistic and dedicated estimators agree within 5 combined se."""
    post = fixed_posterior(1000, 1000.0)
    worst = 0.0
    for seed in (0, 1, 2):
        radii = recentered_radii(post.var, 100_000, make_rng(seed, stream=10))
        rb = radius_builtin(radii, 0.05)
        rp = radius_precise(post, gamma=0.05, m=100_000, seed=RngSeed(seed, 11))
        gap = abs(rb.value - rp.value) / float(np.hypot(rb.std_error, rp.std_error))
        worst = max(worst, gap)
    report(
        capsys, 2, "builtin vs precise agreement", worst <= 5.0,
        f"max |diff|/combined_se = {worst:.2f} over seeds 0..2 (limit 5)",
    )


def test_criterion_3_fpfn_comparison_table(capsys):
    """The draw-classification table is populated at n = 1e3 and 1e6.

    n = 1e3 must finish inside 120 s; both n must show at least one cell
    with nonzero conditional means on both sides, occurrence percentages
    strictly inside (0, 100), and no row with both fp > 0 and fn > 0,
    which the law of the counts rules out exactly. No count may exceed the
    bound that the binomial law of the counts, with the Monte Carlo error
    of the shared precise radius, puts at a false-alarm rate of 1e-3 for
    this run (41; see oracles.fpfn_count_bound).
    """
    count_bound = oracles.fpfn_count_bound(
        draw_counts=(500, 2000), repetitions=10, m_precise=100_000, gamma=0.05,
        cells=2, alarm=1e-3,
    )
    reports = {}
    t0 = time.perf_counter()
    reports[1e3] = fpfn_experiment(ExperimentConfig(
        n_values=(1000.0,), draw_counts=(500, 2000), repetitions=10,
        fixed_hyperparameter=1.0, i_max=10_000, m_precise=100_000,
        master_seed=0,
    ))
    wall_small = time.perf_counter() - t0
    reports[1e6] = fpfn_experiment(ExperimentConfig(
        n_values=(1_000_000.0,), draw_counts=(500, 2000), repetitions=10,
        fixed_hyperparameter=1.0, i_max=10_000, m_precise=100_000,
        master_seed=0,
    ))
    max_count = 0
    rows_fp_and_fn = 0
    both_sides = 0
    interior = 0
    lines = []
    for rep in reports.values():
        for row in rep.rows:
            max_count = max(max_count, row.fp, row.fn)
            rows_fp_and_fn += row.fp > 0 and row.fn > 0
        for cell in rep.cells:
            if cell.mean_fp_conditional > 0 and cell.mean_fn_conditional > 0:
                both_sides += 1
            if (
                0.0 < cell.occurrence_fp_pct < 100.0
                and 0.0 < cell.occurrence_fn_pct < 100.0
            ):
                interior += 1
            lines.append(
                f"n={cell.n:g} N={cell.N}: "
                f"fp {cell.mean_fp_conditional:.1f}@{cell.occurrence_fp_pct:.0f}% "
                f"fn {cell.mean_fn_conditional:.1f}@{cell.occurrence_fn_pct:.0f}%"
            )
    ok = (
        wall_small < 120.0
        and both_sides >= 1
        and interior >= 1
        and max_count <= count_bound
        and rows_fp_and_fn == 0
    )
    report(
        capsys, 3, "fp/fn comparison table", ok,
        f"wall(n=1e3)={wall_small:.1f}s<120, cells with both sides={both_sides}, "
        f"interior occurrence={interior}, max count={max_count}<={count_bound}, "
        f"rows with fp>0 and fn>0={rows_fp_and_fn}; "
        + "; ".join(lines),
    )


def test_criterion_4_posterior_against_independent_oracles(capsys):
    """Closed-form moments and likelihood match IS and quadrature oracles."""
    y = np.array([1.0, -1.0, 2.0])
    kappa = np.array([1.0, 0.5, 0.25])
    pv = prior_variance(FAM1, np.array([1, 2, 3]))
    m_is, v_is, se_m, se_v = oracles.posterior_moments_is(
        y, kappa, 10.0, pv, samples=10_000_000, seed=99
    )
    post = posterior_spec(
        ObservationSequence(y, 10.0),
        OperatorSpectrum(kappa=kappa, label="custom"),
        FAM1,
        check_truncation=False,
    )
    z_mean = np.max(np.abs((post.mean - m_is) / se_m))
    z_var = np.max(np.abs((post.var - v_is) / se_v))
    ll_quad = oracles.marginal_log_likelihood_quad(y, kappa, 10.0, pv)
    ll_pkg = marginal_log_likelihood(
        ObservationSequence(y, 10.0), OperatorSpectrum(kappa=kappa), FAM1
    )
    rel = abs(ll_pkg - ll_quad) / abs(ll_quad)
    ok = z_mean <= 3.0 and z_var <= 3.0 and rel <= 1e-6
    report(
        capsys, 4, "independent oracles", ok,
        f"IS z(mean)={z_mean:.2f}<=3, z(var)={z_var:.2f}<=3 at 1e7 samples; "
        f"quadrature rel err={rel:.1e}<=1e-6",
    )


def test_criterion_5_contraction_rates(capsys):
    """Radius shrinks like the expected power of n for both operators.

    Monte Carlo slopes must land in the stated bands and agree with two
    simulation-free cross-checks: a normal-approximation quantile oracle
    (0.015) and the posterior variance-mass proxy (0.04).
    """
    slopes = {}
    checks = []
    for label, spectrum_fn, target, tol in (
        ("volterra", volterra_spectrum, -0.20, 0.03),
        ("identity", identity_spectrum, -1.0 / 3.0, 0.03),
    ):
        rep = rate_experiment(ExperimentConfig(
            n_values=(1e3, 1e4, 1e5, 1e6), repetitions=3,
            fixed_hyperparameter=1.0, i_max=10_000, m_precise=20_000,
            master_seed=0, spectrum=label,
        ))
        clt = []
        for n in (1e3, 1e4, 1e5, 1e6):
            post = fixed_posterior(10_000, n, spectrum_fn)
            clt.append(oracles.radius_quantile_normal_approx(post.var, 0.05))
        clt_slope = float(np.polyfit(np.log10([1e3, 1e4, 1e5, 1e6]), np.log10(clt), 1)[0])
        slopes[label] = rep.radius_slope
        checks.append(abs(rep.radius_slope - target) <= tol)
        checks.append(abs(rep.radius_slope - clt_slope) <= 0.015)
        checks.append(
            abs(rep.radius_slope - rep.radius_slope_variance_proxy) <= 0.04
        )
    ok = all(checks)
    report(
        capsys, 5, "contraction rates", ok,
        f"volterra slope {slopes['volterra']:.3f} in -0.20±0.03, "
        f"identity slope {slopes['identity']:.3f} in -0.333±0.03, "
        "oracle cross-checks within 0.015/0.04",
    )


def test_criterion_6_quantile_semantics(capsys):
    """Fresh recentred draws fall inside the estimated radius at rate 0.95."""
    post = fixed_posterior(1024, 1000.0)
    est = radius_precise(post, gamma=0.05, m=100_000, seed=RngSeed(2024, 0))
    fresh = recentered_radii(post.var, 10_000, make_rng(2024, stream=1))
    frac = float(np.mean(fresh <= est.value))
    band = 3.0 * np.sqrt(0.95 * 0.05 / 10_000)
    ok = abs(frac - 0.95) <= band
    report(
        capsys, 6, "quantile semantics", ok,
        f"containment fraction {frac:.4f} within 0.95±{band:.4f}",
    )


def test_criterion_7_recentring_law(capsys):
    """Ball-conditioned draws stay inside, and wiggle more than the
    posterior's own draws on every one of ten seeds."""
    post = fixed_posterior(1024, 1000.0)
    est = radius_precise(post, gamma=0.05, m=100_000, seed=RngSeed(2024, 0))
    ball = build_credible_ball(post, est)
    rng = make_rng(7, stream=3)
    inside = all(
        np.linalg.norm(draw_lawmu(ball.center, est.value, ball, rng).values
                       - ball.center.values) <= ball.radius
        for _ in range(1000)
    )
    ratios = []
    for seed in range(10):
        cs = export_curves(ExperimentConfig(
            n_values=(1000.0,), curve_count=50, i_max=1024,
            fixed_hyperparameter=1.0, grid_points=512, m_precise=20_000,
            master_seed=seed,
        ), which="both")
        ref = next(c.values for c in cs.curves if c.law == "mean")
        sups = {
            law: np.mean([np.max(np.abs(c.values - ref))
                          for c in cs.curves if c.law == law])
            for law in ("lawmu", "posterior")
        }
        ratios.append(sups["lawmu"] / sups["posterior"])
    wigglier = sum(r > 1.3 for r in ratios)
    ok = inside and wigglier == 10
    report(
        capsys, 7, "ball-conditioned recentring law", ok,
        f"1000/1000 draws contained={inside}, wiggliness ratio>1.3 on "
        f"{wigglier}/10 seeds (min {min(ratios):.2f})",
    )


def test_criterion_8_byte_identical_reruns(capsys, tmp_path):
    """Identical invocations reproduce every CSV and SVG byte for byte."""
    fpfn_args = ["fpfn", "--n", "1000", "--draws", "200,500", "--reps", "5",
                 "--imax", "1000", "--m", "20000", "--seed", "0"]
    curve_args = ["curves", "--n", "1000", "--count", "5", "--alpha", "1",
                  "--imax", "512", "--m", "5000", "--grid-points", "128",
                  "--seed", "1"]
    same = []
    for args, names in ((fpfn_args, ["fpfn.csv", "fpfn_cells.json"]),
                        (curve_args, ["curves.csv", "curves.svg"])):
        a, b = tmp_path / (args[0] + "_a"), tmp_path / (args[0] + "_b")
        rc1 = cli.run(args + ["--outdir", str(a)])
        rc2 = cli.run(args + ["--outdir", str(b)])
        capsys.readouterr()
        same.append(rc1 == 0 and rc2 == 0)
        same.extend((a / f).read_bytes() == (b / f).read_bytes() for f in names)
    ok = all(same)
    report(
        capsys, 8, "byte-identical reruns", ok,
        "fpfn.csv, fpfn_cells.json, curves.csv, curves.svg reproduced exactly",
    )


def test_criterion_9_large_scale_run(capsys):
    """The n = 1e8 column at i_max = 1e5 completes in budget.

    Ten repetitions with N = 500 draws each must finish inside ten
    minutes with process peak RSS under 2 GB.
    """
    t0 = time.perf_counter()
    rep = fpfn_experiment(ExperimentConfig(
        n_values=(1e8,), draw_counts=(500,), repetitions=10,
        fixed_hyperparameter=1.0, i_max=100_000, m_precise=100_000,
        master_seed=0,
    ))
    wall = time.perf_counter() - t0
    rss_gb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024**2
    sane = all(
        0 <= row.fp <= 500 and 0 <= row.fn <= 500 and row.radius_precise > 0
        for row in rep.rows
    )
    ok = wall < 600.0 and rss_gb < 2.0 and sane and len(rep.rows) == 10
    report(
        capsys, 9, "large-scale run", ok,
        f"wall={wall:.0f}s<600, peak RSS={rss_gb:.2f}GB<2, rows sane={sane}",
    )
