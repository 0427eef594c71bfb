"""Experiment drivers: truth generators, data simulation, the fp/fn
comparison, coverage, rate scaling, and curve export."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from ebcred import (
    EBFitResult,
    ExperimentConfig,
    ObservationSequence,
    PriorFamily,
    count_fp_fn,
    coverage_experiment,
    export_curves,
    fpfn_experiment,
    make_rng,
    make_spectrum,
    make_truth,
    posterior_spec,
    rate_experiment,
    simulate_data,
    volterra_spectrum,
)
from ebcred.experiments import (
    _fixed_posterior,
    _shared_precise_radius,
    fpfn_repetition,
)
from ebcred.sequence_model import FREE_SCALAR

# ------------------------------------------------------------------ truths


def test_zero_truth():
    truth = make_truth("zero", None, 7)
    assert np.all(truth.values == 0.0)
    assert truth.i_max == 7


def test_power_truth_normalisation():
    # theta_i = c i^(-beta-1/2) with c giving unit norm over the full tail
    truth = make_truth("power", {"beta": 1.0}, 200_000)
    assert truth.values[0] == pytest.approx(1.0 / np.sqrt(zeta(3.0)), rel=1e-14)
    assert abs(np.sum(truth.values**2) - 1.0) < 1e-9
    assert np.all(np.diff(truth.values) < 0)


def test_power_truth_amplitude_override():
    truth = make_truth("power", {"beta": 1.0, "amplitude": 2.0}, 10)
    assert truth.values[0] == 2.0


def test_custom_truth_pads_and_truncates(tmp_path):
    path = tmp_path / "coef.txt"
    path.write_text("1.5\n-0.5\n")
    padded = make_truth("custom", {"path": str(path)}, 4)
    assert np.array_equal(padded.values, np.array([1.5, -0.5, 0.0, 0.0]))
    cut = make_truth("custom", {"path": str(path)}, 1)
    assert np.array_equal(cut.values, np.array([1.5]))


def test_truth_validation(tmp_path):
    with pytest.raises(ValueError):
        make_truth("bogus", None, 5)
    with pytest.raises(ValueError):
        make_truth("power", {"beta": -1.0}, 5)
    with pytest.raises(ValueError):
        make_truth("custom", {}, 5)
    with pytest.raises(ValueError):
        make_truth("zero", None, 0)


# ------------------------------------------------------------- simulation


def test_noiseless_simulation_is_exact():
    spec = volterra_spectrum(6)
    truth = make_truth("power", {"beta": 1.0}, 6)
    obs = simulate_data(truth, spec, 100.0, make_rng(0), noiseless=True)
    assert np.array_equal(obs.y, spec.kappa * truth.values)
    assert obs.n == 100.0


def test_simulation_validation():
    spec = volterra_spectrum(6)
    truth = make_truth("zero", None, 5)
    with pytest.raises(ValueError):
        simulate_data(truth, spec, 100.0, make_rng(0))
    with pytest.raises(ValueError):
        simulate_data(make_truth("zero", None, 6), spec, 0.0, make_rng(0))


def test_simulation_noise_moments():
    """Mean and variance of y over many replicates at n = 4."""
    spec = volterra_spectrum(2)
    truth = make_truth("power", {"beta": 1.0}, 2)
    n, reps = 4.0, 100_000
    rng = make_rng(22)
    ys = np.array([simulate_data(truth, spec, n, rng).y for _ in range(reps)])
    signal = spec.kappa * truth.values
    se_mean = np.sqrt(1.0 / (n * reps))
    assert np.all(np.abs(ys.mean(axis=0) - signal) <= 4.0 * se_mean)
    sample_var = ys.var(axis=0, ddof=1)
    se_var = (1.0 / n) * np.sqrt(2.0 / (reps - 1))
    assert np.all(np.abs(sample_var - 1.0 / n) <= 4.0 * se_var)


# ------------------------------------------------------------ count_fp_fn


def test_count_fp_fn_hand_cases():
    radii = np.array([1.0, 2.0, 3.0, 4.0])
    # threshold keeps {1,2,3}, precise ball keeps {1,2}: one false positive
    assert count_fp_fn(radii, 3.0, 2.0) == (1, 0)
    # threshold keeps {1,2}, precise ball keeps {1,2,3}: one false negative
    assert count_fp_fn(radii, 2.0, 3.0) == (0, 1)
    assert count_fp_fn(radii, 2.5, 2.5) == (0, 0)


@given(seed=st.integers(0, 500), gamma=st.floats(0.01, 0.5))
@settings(max_examples=60, deadline=None)
def test_count_fp_fn_properties(seed, gamma):
    """Identical thresholds give zero counts; fp and fn partition the
    disagreement, so their sum is the symmetric difference of the kept sets."""
    radii = make_rng(seed).exponential(size=120)
    t = float(np.quantile(radii, 1.0 - gamma))
    assert count_fp_fn(radii, t, t) == (0, 0)
    r = float(np.quantile(radii, 0.85))
    fp, fn = count_fp_fn(radii, t, r)
    kept_t = radii <= t
    kept_r = radii <= r
    assert fp + fn == int(np.sum(kept_t != kept_r))
    assert fp == 0 or fn == 0  # thresholds are ordered, so only one side


SMALL_FPFN = ExperimentConfig(
    n_values=(1000.0,),
    draw_counts=(100, 200),
    repetitions=3,
    fixed_hyperparameter=1.0,
    i_max=400,
    m_precise=5000,
    master_seed=0,
)


def test_fpfn_report_shape_and_frozen_cells():
    """Exact cell statistics for the pinned seed and generator stack."""
    report = fpfn_experiment(SMALL_FPFN)
    assert len(report.rows) == 6
    assert len(report.cells) == 2
    by_N = {c.N: c for c in report.cells}
    c100, c200 = by_N[100], by_N[200]
    assert c100.occurrence_fp_pct == pytest.approx(100.0 / 3.0)
    assert c100.occurrence_fn_pct == pytest.approx(100.0 / 3.0)
    assert c100.mean_fp_conditional == 1.0
    assert c100.mean_fn_conditional == 3.0
    assert c200.occurrence_fp_pct == pytest.approx(100.0 / 3.0)
    assert c200.occurrence_fn_pct == pytest.approx(100.0 / 3.0)
    assert c200.mean_fp_conditional == 6.0
    assert c200.mean_fn_conditional == 1.0
    for row in report.rows:
        assert row.threshold_builtin > 0
        assert row.radius_precise > 0
        assert 0 <= row.fp <= row.N and 0 <= row.fn <= row.N


def test_fpfn_experiment_is_deterministic():
    a = fpfn_experiment(SMALL_FPFN)
    b = fpfn_experiment(SMALL_FPFN)
    assert a.rows == b.rows
    assert a.cells == b.cells


def test_fpfn_repetition_reproducible_in_isolation():
    """Any single row can be recomputed without running the whole grid."""
    report = fpfn_experiment(SMALL_FPFN)
    spectrum = make_spectrum(SMALL_FPFN.spectrum, SMALL_FPFN.i_max)
    truth = make_truth(SMALL_FPFN.truth_name, SMALL_FPFN.truth_params, SMALL_FPFN.i_max)
    shared = _shared_precise_radius(SMALL_FPFN, spectrum, 1000.0, 0)
    # row order is (n_idx, N_idx, rep); pick N = 200, rep = 1
    row = fpfn_repetition(SMALL_FPFN, spectrum, truth, 1000.0, 0, 200, 1, 1, shared)
    assert row == report.rows[4]


def test_fpfn_shares_one_precise_radius_when_fixed():
    report = fpfn_experiment(SMALL_FPFN)
    assert len({row.radius_precise for row in report.rows}) == 1


@pytest.mark.parametrize(
    "variant, value", [("power_law", 1.5), ("scaled_power_law", 2.0), ("exponential", 1.0)]
)
def test_fixed_prior_variances_are_posterior_spec_bits(variant, value):
    """The fixed-prior experiments and posterior_spec share one variance formula.

    exp(-i**2) underflows to 0 past i = 27, where the posterior variance is 0.
    """
    cfg = ExperimentConfig(
        prior_variant=variant, fixed_hyperparameter=value, scaled_alpha=0.75,
        lambda_exponent=2.0, i_max=100,
    )
    spectrum = volterra_spectrum(100)
    fixed = _fixed_posterior(cfg, spectrum, 1000.0)
    obs = ObservationSequence(np.zeros(100), 1000.0)
    ref = posterior_spec(obs, spectrum, fixed.family, check_truncation=False)
    assert fixed.var.tobytes() == ref.var.tobytes()
    if variant == "exponential":
        assert np.count_nonzero(ref.var == 0.0) == 73

    family = PriorFamily.with_free(variant, value, alpha=0.75, lambda_exponent=2.0)
    assert family == fixed.family
    assert getattr(family, FREE_SCALAR[variant]) == value
    fit = EBFitResult(family, 0.0, grid=np.empty(0), grid_log_likelihood=np.empty(0))
    assert fit.value == value


@pytest.mark.filterwarnings("ignore::ebcred.TruncationWarning")
def test_fpfn_eb_mode_refits_per_repetition():
    cfg = ExperimentConfig(
        n_values=(1000.0,),
        draw_counts=(100,),
        repetitions=3,
        fixed_hyperparameter=None,
        i_max=400,
        m_precise=2000,
        master_seed=1,
    )
    report = fpfn_experiment(cfg)
    assert len({row.radius_precise for row in report.rows}) == 3


def test_fpfn_misclassification_vanishes_for_large_N():
    cfg = ExperimentConfig(
        n_values=(1000.0,),
        draw_counts=(100_000,),
        repetitions=1,
        fixed_hyperparameter=1.0,
        i_max=400,
        m_precise=20_000,
        master_seed=3,
    )
    row = fpfn_experiment(cfg).rows[0]
    assert (row.fp + row.fn) / 100_000 <= 0.01


# ---------------------------------------------------------------- coverage


@pytest.mark.filterwarnings("ignore::ebcred.TruncationWarning")
def test_zero_truth_coverage_is_full():
    # an oversmooth truth is the easy case: every repetition covers
    cfg = ExperimentConfig(
        n_values=(1000.0,),
        repetitions=20,
        truth_name="zero",
        fixed_hyperparameter=None,
        i_max=500,
        m_precise=5000,
        master_seed=0,
    )
    report = coverage_experiment(cfg)
    assert report.cells[0].coverage == 1.0
    assert report.cells[0].mean_radius > 0
    assert len(report.rows) == 20


def test_smooth_truth_coverage_at_both_ends():
    cfg = ExperimentConfig(
        n_values=(1000.0, 1_000_000.0),
        repetitions=10,
        truth_name="power",
        truth_params={"beta": 2.0},
        fixed_hyperparameter=1.0,
        i_max=2000,
        m_precise=5000,
        master_seed=0,
    )
    report = coverage_experiment(cfg)
    assert all(cell.coverage == 1.0 for cell in report.cells)
    radii = {cell.n: cell.mean_radius for cell in report.cells}
    assert radii[1_000_000.0] < radii[1000.0]


def test_coverage_is_deterministic():
    cfg = ExperimentConfig(
        n_values=(1000.0,),
        repetitions=4,
        fixed_hyperparameter=1.0,
        i_max=300,
        m_precise=2000,
        master_seed=7,
    )
    assert coverage_experiment(cfg).rows == coverage_experiment(cfg).rows


# -------------------------------------------------------------------- rate


def test_rate_slope_near_reference_and_proxy_agrees():
    cfg = ExperimentConfig(
        n_values=(1e3, 1e4, 1e5, 1e6),
        repetitions=2,
        fixed_hyperparameter=1.0,
        i_max=2000,
        m_precise=5000,
        master_seed=0,
    )
    report = rate_experiment(cfg)
    assert report.radius_slope == pytest.approx(-0.21, abs=0.04)
    assert report.radius_slope_variance_proxy is not None
    assert abs(report.radius_slope - report.radius_slope_variance_proxy) <= 0.05
    assert report.risk_slope < -0.1
    radii = [row.mean_radius for row in report.rows]
    assert all(a > b for a, b in zip(radii, radii[1:]))


@pytest.mark.filterwarnings("ignore::ebcred.TruncationWarning")
def test_rate_eb_mode_has_no_variance_proxy():
    cfg = ExperimentConfig(
        n_values=(1e3, 1e4, 1e5, 1e6),
        repetitions=1,
        fixed_hyperparameter=None,
        i_max=500,
        m_precise=2000,
        master_seed=2,
    )
    report = rate_experiment(cfg)
    assert report.radius_slope_variance_proxy is None
    assert report.radius_slope < 0


def test_rate_requires_three_decades():
    cfg = ExperimentConfig(
        n_values=(1e3, 1e4),
        repetitions=1,
        fixed_hyperparameter=1.0,
        i_max=200,
        m_precise=2000,
    )
    with pytest.raises(ValueError):
        rate_experiment(cfg)


# ------------------------------------------------------------------ curves


CURVE_CFG = ExperimentConfig(
    n_values=(1000.0,),
    curve_count=4,
    i_max=512,
    fixed_hyperparameter=1.0,
    grid_points=128,
    m_precise=5000,
    master_seed=6,
)


def test_export_curves_inventory():
    cs = export_curves(CURVE_CFG, which="both")
    assert cs.xs.size == 128
    laws = [c.law for c in cs.curves]
    assert laws.count("truth") == 1
    assert laws.count("mean") == 1
    assert laws.count("lawmu") == 4
    assert laws.count("posterior") == 4
    assert cs.sample_laws() == ["lawmu", "posterior"]
    ids = sorted(c.curve_id for c in cs.curves if c.law == "posterior")
    assert ids == [1, 2, 3, 4]


def test_export_curves_law_filter():
    cs = export_curves(CURVE_CFG, which="posterior")
    assert all(c.law != "lawmu" for c in cs.curves)
    assert cs.sample_laws() == ["posterior"]
    with pytest.raises(ValueError):
        export_curves(CURVE_CFG, which="truth")


def test_export_curves_deterministic():
    a = export_curves(CURVE_CFG, which="both")
    b = export_curves(CURVE_CFG, which="both")
    assert all(np.array_equal(x.values, y.values) for x, y in zip(a.curves, b.curves))


def test_lawmu_curves_wiggle_more_than_posterior_curves():
    """Mean sup distance to the center curve, recentring law vs posterior.

    Measured ratios over ten seeds were all above 1.68; the margin below
    still rules out a swapped or misscaled sampling law.
    """
    cfg = ExperimentConfig(
        n_values=(1000.0,),
        curve_count=50,
        i_max=1024,
        fixed_hyperparameter=1.0,
        grid_points=512,
        m_precise=20_000,
        master_seed=0,
    )
    cs = export_curves(cfg, which="both")
    ref = next(c.values for c in cs.curves if c.law == "mean")
    sups = {
        law: np.mean(
            [np.max(np.abs(c.values - ref)) for c in cs.curves if c.law == law]
        )
        for law in ("lawmu", "posterior")
    }
    assert sups["lawmu"] > 1.3 * sups["posterior"]


# ------------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(gamma=1.5)
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=())
    with pytest.raises(ValueError):
        ExperimentConfig(n_values=(-1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(repetitions=0)
    with pytest.raises(ValueError):
        ExperimentConfig(spectrum="fourier")
    with pytest.raises(ValueError):
        ExperimentConfig(truth_name="bogus")
    with pytest.raises(ValueError):
        ExperimentConfig(fixed_hyperparameter=-1.0)
    with pytest.raises(ValueError):
        ExperimentConfig(search_interval=(1.0, 0.5))
    with pytest.raises(ValueError):
        ExperimentConfig(lawmu_scale=0.0)
    with pytest.raises(ValueError):
        ExperimentConfig(m_precise=1)


@pytest.mark.parametrize(
    "field, value",
    [
        ("n_values", (1000.0, float("inf"))),
        ("n_values", (float("nan"),)),
        ("blowup", float("nan")),
        ("blowup", float("inf")),
        ("scaled_alpha", float("nan")),
        ("lambda_exponent", float("inf")),
        ("fixed_hyperparameter", float("nan")),
        ("lawmu_scale", float("nan")),
        ("search_interval", (0.01, float("inf"))),
    ],
)
def test_config_rejects_non_finite_settings(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})
