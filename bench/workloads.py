"""The four benchmark workloads: their operation lists and output checks.

An operation is one `ebcred` CLI call.  Its inputs derive from the workload
seed alone (see `ops`), so the same seed gives the same calls.  Every output
is checked statistically, not byte for byte, so a change that alters random
streams but not the law still passes.  Why each workload exists is recorded
in README.md next to this file.
"""

from __future__ import annotations

import csv
import functools
import json
import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import chdtri, gammaln, zeta

from ebcred.samplers import make_rng
from ebcred.sequence_model import (
    PriorFamily,
    marginal_log_likelihood,
    volterra_spectrum,
)
from ebcred.experiments import make_truth, simulate_data

REFERENCE = Path(__file__).resolve().parent / "reference.json"

# A statistical check fails beyond this many combined standard errors.  The
# KDE standard error reported by radius_precise runs up to ~15% below the
# spread measured over seeds, so 6 reported errors are still > 5 true ones.
Z_FAIL = 6.0
GAMMA = 0.05

RADIUS_CASES = [("volterra", "1e3"), ("volterra", "1e6"), ("identity", "1e3"), ("identity", "1e6")]
RADIUS_M = 10_000

FPFN_N = ("1e3", "1e6")
FPFN_DRAWS = (500, 2000)
FPFN_REPS = 2
FPFN_IMAX = 1000
FPFN_M = 10_000
EB_SEARCH = {"power_law": (0.01, 10.0), "scaled_power_law": (0.01, 100.0),
             "exponential": (0.01, 10.0)}

CURVES_N = ("1e3", "1e6")
CURVES_COUNT = 20
CURVES_IMAX = 2048
CURVES_M = 10_000
CURVES_GRID = 512
# Criterion 7 of the acceptance suite asks lawmu curves to wiggle > 1.3 times
# as much as posterior curves at n = 1e3.  At n = 1e6 the ratio measures
# 1.10-1.28 over 25 seeds, so there the check asks only that they wiggle more.
WIGGLE_RATIO = {"1e3": 1.3, "1e6": 1.0}

EB_FIT_N = ("1e3", "1e6")
EB_FIT_SEEDS = 5
EB_FIT_IMAX = 10_000
EB_GRID_POINTS = 200  # eb_fit's default search grid


@dataclass(frozen=True)
class Op:
    """One CLI call: subcommand plus flag values (no --outdir)."""

    command: str
    params: dict

    def argv(self) -> list[str]:
        out = [self.command]
        for key, value in self.params.items():
            if value is True:
                out.append("--" + key)
            elif isinstance(value, tuple):
                out += ["--" + key, *map(str, value)]
            else:
                out += ["--" + key, str(value)]
        return out

    @property
    def label(self) -> str:
        keys = ("spectrum", "variant", "n", "draws")
        return " ".join([self.command] + [f"{k}={self.params[k]}" for k in keys
                                          if k in self.params])


def radius_op(spectrum, n, seed):
    return Op("radius", {"spectrum": spectrum, "n": n, "alpha": 1, "gamma": GAMMA,
                         "imax": "auto", "m": RADIUS_M, "seed": seed})


def radius_ops(seeds):
    return [radius_op(spectrum, n, next(seeds)) for spectrum, n in RADIUS_CASES]


def probe_ops(seeds, count=11):
    """Untimed reference radius calls, so every workload reports radius_rel_se."""
    spectrum, n = RADIUS_CASES[0]
    return [radius_op(spectrum, n, next(seeds)) for _ in range(count)]


def fpfn_ops(seeds):
    return [Op("fpfn", {"eb": True, "n": n, "draws": ",".join(map(str, FPFN_DRAWS)),
                        "reps": FPFN_REPS, "gamma": GAMMA, "imax": FPFN_IMAX,
                        "m": FPFN_M, "spectrum": "volterra",
                        "search": EB_SEARCH["power_law"], "seed": next(seeds)})
            for n in FPFN_N]


def curves_ops(seeds):
    return [Op("curves", {"alpha": 1, "n": n, "laws": "both", "count": CURVES_COUNT,
                          "gamma": GAMMA, "imax": CURVES_IMAX, "m": CURVES_M,
                          "grid-points": CURVES_GRID, "spectrum": "volterra",
                          "seed": next(seeds)})
            for n in CURVES_N]


def eb_fit_ops(seeds):
    return [Op("eb-fit", {"variant": variant, "n": n, "search": EB_SEARCH[variant],
                          "alpha": 1, "q": 2, "truth": "power", "beta": 1,
                          "imax": EB_FIT_IMAX, "spectrum": "volterra", "seed": next(seeds)})
            for _ in range(EB_FIT_SEEDS) for variant in EB_SEARCH for n in EB_FIT_N]


# --------------------------------------------------------------------------
# output checks: each returns (problems, observations)


def _read_json(path):
    return json.loads(Path(path).read_text())


@functools.lru_cache(maxsize=1)
def _references():
    return _read_json(REFERENCE)["cases"]


def check_radius(op, outdir):
    out = _read_json(Path(outdir) / "radius.json")
    ref = _references()[f"{op.params['spectrum']} n={op.params['n']}"]
    value, se = out["value"], out["std_error"]
    problems = []
    if not (math.isfinite(value) and value > 0 and math.isfinite(se) and se > 0):
        problems.append(f"radius {value!r} with std_error {se!r} is not positive and finite")
        return problems, {}
    if out["sample_size"] != op.params["m"]:
        problems.append(f"sample_size {out['sample_size']} != m {op.params['m']}")
    combined = math.hypot(se, ref["std_error"])
    if abs(value - ref["value"]) > Z_FAIL * combined:
        problems.append(f"radius {value:.6g} differs from reference {ref['value']:.6g} "
                        f"by more than {Z_FAIL} combined standard errors ({combined:.3g})")
    return problems, {"rel_se": se / value}


@functools.lru_cache(maxsize=8)
def _eb_radius_law(n, i_max, lo, hi):
    """Welch-Satterthwaite law c * chi2_nu of the squared radius, over the EB range.

    For a power-law prior of regularity alpha on the Volterra spectrum the
    posterior variances are data-free given alpha; the squared radius is
    sum var_i Z_i^2, matched in mean and variance by c * chi2_nu.
    Returns approximate (1 - GAMMA) radii and nu on a grid of alpha.
    """
    i = np.arange(1, i_max + 1, dtype=np.float64)
    kappa_sq = 1.0 / ((i - 0.5) ** 2 * np.pi**2)
    alphas = np.geomspace(lo, hi, 400)
    var = 1.0 / (i[None, :] ** (1.0 + 2.0 * alphas[:, None]) + n * kappa_sq[None, :])
    s1, s2 = var.sum(axis=1), (var**2).sum(axis=1)
    nu = s1**2 / s2
    radius = np.sqrt(s2 / s1 * chdtri(nu, GAMMA))
    return radius, nu


def _quantile_rel_se_unit(nu):
    """Relative standard error of the (1 - GAMMA) radius quantile from one draw."""
    x = chdtri(nu, GAMMA)
    log_pdf = (nu / 2 - 1) * np.log(x) - x / 2 - (nu / 2) * np.log(2.0) - gammaln(nu / 2)
    return math.sqrt(GAMMA * (1 - GAMMA)) / (2.0 * x * math.exp(log_pdf))


def check_fpfn(op, outdir):
    p = op.params
    n = float(p["n"])
    with open(Path(outdir) / "fpfn.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    expected = len(FPFN_DRAWS) * p["reps"]
    if len(rows) != expected:
        problems.append(f"{len(rows)} rows, expected {expected}")
    radius_grid, nu_grid = _eb_radius_law(n, p["imax"], *p["search"])
    for row in rows:
        N, fp, fn = int(row["N"]), int(row["fp"]), int(row["fn"])
        threshold, precise = float(row["threshold_builtin"]), float(row["radius_precise"])
        tag = f"row n={row['n']} N={N} rep={row['rep']}"
        if float(row["n"]) != n or N not in FPFN_DRAWS:
            problems.append(f"{tag}: unexpected cell")
        if not (0 <= fp <= N and 0 <= fn <= N and fp + fn <= N):
            problems.append(f"{tag}: fp={fp}, fn={fn} outside [0, N]")
        if not (threshold > 0 and precise > 0 and math.isfinite(threshold + precise)):
            problems.append(f"{tag}: radii {threshold!r}, {precise!r} not positive")
            continue
        # The fitted alpha is not in the output; take the smallest nu over the
        # alphas whose approximate radius is near the precise one (largest se).
        near = np.abs(radius_grid / precise - 1.0) <= 0.25
        if not near.any():
            problems.append(f"{tag}: precise radius {precise:.4g} outside the radii "
                            f"of the EB search range")
            continue
        rel_se = _quantile_rel_se_unit(float(nu_grid[near].min())) * math.sqrt(1 / N + 1 / p["m"])
        if abs(threshold - precise) > Z_FAIL * rel_se * precise:
            problems.append(f"{tag}: builtin {threshold:.5g} vs precise {precise:.5g} "
                            f"beyond {Z_FAIL} combined standard errors")
    return problems, {}


def _truth_curve(i_max, xs, beta=1.0):
    """Power truth sum_i theta_i sqrt(2) cos((i - 1/2) pi x), summed as complex exponentials."""
    i = np.arange(1, i_max + 1, dtype=np.float64)
    theta = i ** (-beta - 0.5) / math.sqrt(zeta(2.0 * beta + 1.0))
    total = np.zeros(xs.size, dtype=np.complex128)
    for start in range(0, i_max, 512):
        block = np.exp(1j * np.pi * np.outer(xs, i[start:start + 512]))
        total += block @ theta[start:start + 512]
    return math.sqrt(2.0) * (np.exp(-0.5j * np.pi * xs) * total).real


def check_curves(op, outdir):
    p = op.params
    problems = []
    curves = {}
    with open(Path(outdir) / "curves.csv", newline="") as fh:
        reader = csv.reader(fh)
        if next(reader) != ["law", "n", "curve_id", "x", "value"]:
            problems.append("unexpected curves.csv header")
        for law, _, curve_id, x, value in reader:
            curves.setdefault((law, int(curve_id)), []).append((float(x), float(value)))
    want = {("truth", 0), ("mean", 0)} | {(law, j) for law in ("lawmu", "posterior")
                                          for j in range(1, p["count"] + 1)}
    if set(curves) != want:
        return problems + [f"curves {sorted(set(curves) ^ want)[:4]} missing or unexpected"], {}
    xs_ref = np.linspace(0.0, 1.0, p["grid-points"])
    values = {}
    for key, pts in curves.items():
        arr = np.array(pts)
        if arr.shape != (p["grid-points"], 2) or not np.array_equal(arr[:, 0], xs_ref):
            problems.append(f"curve {key} not on the {p['grid-points']}-point grid")
            return problems, {}
        if not np.all(np.isfinite(arr[:, 1])):
            problems.append(f"curve {key} has non-finite values")
        values[key] = arr[:, 1]
    err = float(np.max(np.abs(values[("truth", 0)] - _truth_curve(p["imax"], xs_ref))))
    if err > 1e-9:
        problems.append(f"truth curve off its independent evaluation by {err:.3g}")
    mean = values[("mean", 0)]
    sups = {law: np.mean([np.max(np.abs(values[(law, j)] - mean))
                          for j in range(1, p["count"] + 1)])
            for law in ("lawmu", "posterior")}
    ratio = sups["lawmu"] / sups["posterior"]
    if not ratio > WIGGLE_RATIO[p["n"]]:
        problems.append(f"wiggliness ratio lawmu/posterior {ratio:.3f} <= {WIGGLE_RATIO[p['n']]}")
    svg = (Path(outdir) / "curves.svg").read_text()
    if not (svg.startswith("<svg") and svg.rstrip().endswith("</svg>")):
        problems.append("curves.svg is not a complete SVG document")
    return problems, {"wiggle_ratio": ratio}


def _eb_family(variant, value, params):
    if variant == "power_law":
        return PriorFamily.power_law(value)
    if variant == "scaled_power_law":
        return PriorFamily.scaled_power_law(params["alpha"], value)
    return PriorFamily.exponential(value, params["q"])


def _grid_log_likelihood(y, n, params, grid):
    """Reference marginal log-likelihood on a grid of the free scalar.

    Written out here rather than through the package, so it is an
    independent evaluation: Y_i ~ N(0, kappa_i^2 v_i + 1/n) on the Volterra
    spectrum, with v the prior variances of the variant.  One grid point at
    a time, so the working vectors stay in cache.
    """
    i = np.arange(1, y.size + 1, dtype=np.float64)
    kappa_sq = 1.0 / ((i - 0.5) ** 2 * np.pi**2)
    log_i, y_sq = np.log(i), y**2
    scaled_base = i ** (-1.0 - 2.0 * params["alpha"])
    i_q = i ** params["q"]
    out = np.empty(grid.size)
    with np.errstate(under="ignore"):
        for k, h in enumerate(grid):
            if params["variant"] == "power_law":
                v = np.exp((-1.0 - 2.0 * h) * log_i)
            elif params["variant"] == "scaled_power_law":
                v = h * h * scaled_base
            else:
                v = np.exp(-h * i_q)
            marg = kappa_sq * v + 1.0 / n
            out[k] = -0.5 * np.sum(np.log(2.0 * np.pi * marg) + y_sq / marg)
    return out


def check_eb_fit(op, outdir):
    p = op.params
    out = _read_json(Path(outdir) / "eb_fit.json")
    lo, hi = p["search"]
    problems = []
    if out["variant"] != p["variant"] or out["search"] != [lo, hi]:
        problems.append(f"output variant/search {out['variant']}/{out['search']} not as asked")
    value, reported = out["value"], out["log_likelihood"]
    if not (lo <= value <= hi):
        return problems + [f"fitted value {value!r} outside [{lo}, {hi}]"], {}
    spectrum = volterra_spectrum(p["imax"])
    truth = make_truth("power", {"beta": float(p["beta"])}, p["imax"])
    obs = simulate_data(truth, spectrum, float(p["n"]), make_rng(p["seed"]))
    ll = marginal_log_likelihood(obs, spectrum, _eb_family(p["variant"], value, p))
    if not math.isclose(ll, reported, rel_tol=1e-9, abs_tol=1e-9):
        problems.append(f"reported log-likelihood {reported!r} != recomputed {ll!r}")
    # eb_fit documents that its result is no worse than any point of its
    # uniform search grid; every fifth point of that grid is the reference.
    # A log-spaced grid can find a higher local maximum the uniform grid
    # missed; that is counted, not failed, since eb_fit does not promise it.
    uniform = np.linspace(lo, hi, EB_GRID_POINTS)[::5]
    grid_ll = _grid_log_likelihood(obs.y, obs.n, p,
                                   np.concatenate([uniform, np.geomspace(lo, hi, 33)]))
    best, log_best = float(grid_ll[:uniform.size].max()), float(grid_ll[uniform.size:].max())
    slack = 1e-6 * max(1.0, abs(best))
    if reported < best - slack:
        problems.append(f"log-likelihood {reported!r} below its search grid maximum {best!r}")
    return problems, {"below_log_grid": int(reported < log_best - slack)}


CHECKS = {"radius": check_radius, "fpfn": check_fpfn, "curves": check_curves,
          "eb-fit": check_eb_fit}


@dataclass(frozen=True)
class Workload:
    ops: Callable[[Iterator[int]], list[Op]]  # one pass, op seeds from the iterator
    expected: tuple  # span names that must record calls in a traced run
    sizes: dict


_COMMON = ("cli.run", "experiments.make_truth", "experiments.simulate_data")

WORKLOADS = {
    "radius": Workload(
        radius_ops,
        ("cli.run", "sequence_model.adequate_i_max", "sequence_model.truncation_tail_bound",
         "sequence_model.posterior_spec", "credible_set.radius_precise",
         "samplers.recentered_radii"),
        {"cases": RADIUS_CASES, "alpha": 1, "gamma": GAMMA, "imax": "auto", "m": RADIUS_M},
    ),
    "fpfn_eb": Workload(
        fpfn_ops,
        _COMMON + ("experiments.fpfn_experiment", "sequence_model.eb_fit",
                   "sequence_model.posterior_spec", "sequence_model.truncation_tail_bound",
                   "samplers.recentered_radii", "credible_set.radius_builtin",
                   "credible_set.radius_precise", "cli.emit_csv"),
        {"n": FPFN_N, "draws": FPFN_DRAWS, "reps": FPFN_REPS, "imax": FPFN_IMAX,
         "m": FPFN_M, "search": EB_SEARCH["power_law"]},
    ),
    "curves": Workload(
        curves_ops,
        _COMMON + ("experiments.export_curves", "sequence_model.posterior_spec",
                   "sequence_model.truncation_tail_bound", "credible_set.radius_precise",
                   "samplers.recentered_radii", "samplers.draw_lawmu",
                   "credible_set.contains", "samplers.draw_posterior",
                   "function_space.reconstruct", "cli.emit_csv", "cli.emit_svg"),
        {"n": CURVES_N, "alpha": 1, "count": CURVES_COUNT, "imax": CURVES_IMAX,
         "m": CURVES_M, "grid_points": CURVES_GRID},
    ),
    "eb_fit": Workload(
        eb_fit_ops,
        _COMMON + ("sequence_model.eb_fit",),
        {"variants": list(EB_SEARCH), "n": EB_FIT_N, "seeds_per_pass": EB_FIT_SEEDS,
         "imax": EB_FIT_IMAX},
    ),
}
