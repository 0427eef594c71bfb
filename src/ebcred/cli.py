"""Command-line front end: subcommands, config resolution, CSV/JSON/SVG output.

Every subcommand resolves its settings from built-in defaults, then an
optional --config JSON file, then explicit flags (flags win).  The resolved
settings are echoed in a JSON run manifest on stdout; feeding that object
back through --config reproduces the run bit for bit.  Exit codes: 0 on
success, 2 on invalid configuration, 3 on runtime failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .credible_set import radius_precise
from .experiments import (
    CURVE_LAWS,
    TRUTHS,
    ExperimentConfig,
    coverage_experiment,
    export_curves,
    fpfn_experiment,
    make_truth,
    rate_experiment,
    simulate_data,
)
from .samplers import ProposalExhausted, head_tail_split, make_rng
from .sequence_model import (
    FREE_SCALAR,
    SPECTRA,
    TRUNCATION_RTOL,
    ObservationSequence,
    PriorFamily,
    adequate_i_max,
    eb_fit,
    make_spectrum,
    posterior_spec,
    posterior_variances,
    truncation_tail_bound,
)

__all__ = ["run", "main", "emit_csv", "emit_svg"]

# Deepest truncation level check-truncation searches for an adequate one.
_SUGGEST_CAP = 1 << 20

_SEARCH_DEFAULTS = {
    "power_law": (0.01, 10.0),
    "scaled_power_law": (0.01, 100.0),
    "exponential": (0.01, 10.0),
}

# Key groups shared by several subcommands: key -> (default, kind), where
# the kind is a key of _KINDS or of _CHOICES.
_RUN = {
    "spectrum": ("volterra", "spectrum"),
    "seed": (0, "int"),
    "outdir": (None, "str"),
}
# a fixed prior of any variant; the variant picks which of alpha, tau, t is free
_PRIOR = {
    "variant": ("power_law", "variant"),
    "alpha": (1.0, "float"),
    "tau": (1.0, "float"),
    "t": (1.0, "float"),
    "q": (2.0, "float"),
}
_TRUTH = {
    "truth": ("power", "truth"),
    "beta": (1.0, "float"),
    "truth-path": (None, "str"),
}
# settings shared by the four experiment subcommands
_EXPERIMENT = {
    "search": (None, "search"),
    "gamma": (0.05, "float"),
    "imax": (10_000, "int"),
    "m": (100_000, "int"),
    **_TRUTH,
    **_RUN,
}

# One entry per subcommand.
_SCHEMA: dict[str, dict] = {
    "radius": {
        "n": (1000.0, "float"),
        **_PRIOR,
        "gamma": (0.05, "float"),
        "m": (100_000, "int"),
        "imax": ("auto", "imax"),
        **_RUN,
    },
    "eb-fit": {
        "n": (1000.0, "float"),
        "variant": ("power_law", "variant"),
        "search": (None, "search"),
        "alpha": (1.0, "float"),
        "q": (2.0, "float"),
        **_TRUTH,
        "noiseless": (False, "flag"),
        "imax": (10_000, "int"),
        **_RUN,
    },
    "fpfn": {
        "n": ([1000.0, 1_000_000.0], "floats"),
        "draws": ([500, 2000], "ints"),
        "reps": (10, "int"),
        "alpha": (1.0, "float"),
        "eb": (False, "flag"),
        **_EXPERIMENT,
    },
    "coverage": {
        "n": ([1000.0], "floats"),
        "reps": (10, "int"),
        "alpha": (None, "float"),
        **_EXPERIMENT,
    },
    "rate": {
        "n": ([1000.0, 10_000.0, 100_000.0, 1_000_000.0], "floats"),
        "reps": (10, "int"),
        "alpha": (1.0, "float"),
        "eb": (False, "flag"),
        **_EXPERIMENT,
    },
    "curves": {
        "n": ([1000.0, 1_000_000.0], "floats"),
        "laws": ("both", "laws"),
        "count": (50, "int"),
        "alpha": (None, "float"),
        "grid-points": (512, "int"),
        "lawmu-scale": (1.0, "float"),
        "max-attempts": (10_000, "int"),
        **_EXPERIMENT,
    },
    "check-truncation": {
        "n": (1000.0, "float"),
        **_PRIOR,
        "imax": (10_000, "int"),
        **_RUN,
    },
}

_HELP = {
    "radius": "precise credible radius for a fixed prior (no data involved)",
    "eb-fit": "simulate data and fit the prior hyperparameter by marginal likelihood",
    "fpfn": "false-positive/false-negative comparison of the two radius estimators",
    "coverage": "frequentist coverage of the credible ball over repeated data",
    "rate": "log-log scaling of radius and risk in the noise level n",
    "curves": "export sampled curves (posterior and ball-conditioned laws) as CSV/SVG",
    "check-truncation": "report the posterior variance tail beyond a truncation level",
}

_CHOICES = {
    "variant": tuple(FREE_SCALAR),
    "spectrum": tuple(SPECTRA),
    "laws": CURVE_LAWS,
    "truth": TRUTHS,
}


def _as_list(cast):
    """Normaliser for a comma-separated string, a JSON list or one scalar."""

    def parse(value) -> list:
        if isinstance(value, str):
            return [cast(part) for part in value.split(",") if part != ""]
        if isinstance(value, (list, tuple)):
            return [cast(v) for v in value]
        return [cast(value)]

    return parse


def _search(value) -> list:
    lo, hi = value
    return [float(lo), float(hi)]


# Each value kind: the argparse keywords of its flag, and the normaliser of
# its value, whether it came from a flag or from --config.  The kinds in
# _CHOICES are strings checked against their choices instead.
_KINDS = {
    "float": ({"type": float}, float),
    "int": ({"type": int}, int),
    "floats": ({"type": _as_list(float), "metavar": "V1,V2,..."}, _as_list(float)),
    "ints": ({"type": _as_list(int), "metavar": "V1,V2,..."}, _as_list(int)),
    "flag": ({"action": "store_true", "default": None}, bool),
    "imax": ({"metavar": "INT|auto"}, lambda v: v if v == "auto" else int(v)),
    "search": ({"nargs": 2, "type": float, "metavar": ("LO", "HI")}, _search),
    "str": ({}, lambda v: v),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ebcred",
        description="credible-ball construction and stress tests for the "
        "Gaussian sequence white noise model",
    )
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)
    for cmd, schema in _SCHEMA.items():
        sp = subs.add_parser(cmd, help=_HELP[cmd])
        sp.add_argument("--config", help="JSON file with settings; flags override")
        for key, (_, kind) in schema.items():
            options = {"choices": _CHOICES[kind]} if kind in _CHOICES else _KINDS[kind][0]
            sp.add_argument("--" + key, **options)
    return parser


def _normalize(cmd: str, cfg: dict) -> dict:
    out = dict(cfg)
    for key, (_, kind) in _SCHEMA[cmd].items():
        v = out[key]
        if v is None:
            continue
        if kind not in _CHOICES:
            out[key] = _KINDS[kind][1](v)
        elif v not in _CHOICES[kind]:
            raise ValueError(f"{key} must be one of {_CHOICES[kind]}")
    if out.get("outdir") is None:
        out["outdir"] = os.environ.get("EBCRED_OUTDIR", ".")
    return out


def _resolve(cmd: str, args: argparse.Namespace) -> dict:
    schema = _SCHEMA[cmd]
    resolved = {key: default for key, (default, _) in schema.items()}
    if args.config is not None:
        data = json.loads(Path(args.config).read_text())
        if not isinstance(data, dict):
            raise ValueError("config file must hold a JSON object")
        unknown = set(data) - set(schema)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        resolved.update(data)
    for key in schema:
        value = getattr(args, key.replace("-", "_"))
        if value is not None:
            resolved[key] = value
    return _normalize(cmd, resolved)


# ---------------------------------------------------------------------------
# output helpers


def _cell_format(kind: type) -> str:
    # bool is an int, and "%d" % True is "1"; numpy bools are not, and print as True
    if issubclass(kind, (int, np.integer)):
        return "%d"
    if issubclass(kind, (float, np.floating)):
        return "%.17g"
    return "%s"


def emit_csv(path, header: list[str], rows: list[tuple]) -> None:
    """Plain numeric CSV; floats carry 17 significant digits, bools print as 1 or 0.

    Each row is formatted with one %-format built from its own cell types,
    so a column whose types vary never goes through another type's format.
    """
    if not rows:
        raise ValueError("dataset must be nonempty")
    formats = {}
    lines = [",".join(header)]
    for row in rows:
        kinds = tuple(map(type, row))
        fmt = formats.get(kinds)
        if fmt is None:
            fmt = formats[kinds] = ",".join(map(_cell_format, kinds))
        lines.append(fmt % tuple(row))
    Path(path).write_text("\n".join(lines) + "\n")


def _write_json(path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def _write_report(cfg: dict, csv_name: str, rows: list, sort_by: tuple[str, ...],
                  json_name: str, payload: dict):
    """Write the row dataclasses, sorted by the fields sort_by, as a CSV with one
    column per field, and payload as JSON; return the payload and both paths."""
    rows = sorted(rows, key=lambda r: [getattr(r, name) for name in sort_by])
    out = _outdir(cfg)
    csv_path = out / csv_name
    header = [f.name for f in dataclasses.fields(rows[0])]
    emit_csv(csv_path, header, [dataclasses.astuple(r) for r in rows])
    json_path = out / json_name
    _write_json(json_path, payload)
    return payload, [str(csv_path), str(json_path)]


_PANEL_W = 420
_PANEL_H = 280
_MARGIN = 56
_GAP = 40


def emit_svg(path, curve_set) -> None:
    """Panel grid of line plots: one panel per (sampling law, n).

    Sample curves are light gray; the truth curve is black and the
    posterior-mean curve blue, redrawn in every panel of their n.
    """
    if not curve_set.curves:
        raise ValueError("dataset must be nonempty")
    laws = curve_set.sample_laws() or ["mean"]
    ns = list(dict.fromkeys(c.n for c in curve_set.curves))
    cols, nrows = len(laws), len(ns)
    width = 2 * _MARGIN + cols * _PANEL_W + (cols - 1) * _GAP
    height = 2 * _MARGIN + nrows * _PANEL_H + (nrows - 1) * _GAP
    xs = curve_set.xs
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for row, n in enumerate(ns):
        for col, law in enumerate(laws):
            x0 = _MARGIN + col * (_PANEL_W + _GAP)
            y0 = _MARGIN + row * (_PANEL_H + _GAP)
            panel = [
                c
                for c in curve_set.curves
                if c.n == n and c.law in (law, "mean", "truth")
            ]
            lo = min(float(c.values.min()) for c in panel)
            hi = max(float(c.values.max()) for c in panel)
            pad = 0.05 * (hi - lo) if hi > lo else 1.0
            lo, hi = lo - pad, hi + pad

            def poly(curve, stroke, width_px):
                pts = " ".join(
                    f"{x0 + x * _PANEL_W:.2f},"
                    f"{y0 + _PANEL_H * (1.0 - (v - lo) / (hi - lo)):.2f}"
                    for x, v in zip(xs, curve.values)
                )
                return (
                    f'<polyline fill="none" stroke="{stroke}" '
                    f'stroke-width="{width_px}" points="{pts}"/>'
                )

            parts.append(
                f'<rect x="{x0}" y="{y0}" width="{_PANEL_W}" '
                f'height="{_PANEL_H}" fill="none" stroke="#888888"/>'
            )
            for c in panel:
                if c.law == law:
                    parts.append(poly(c, "#bbbbbb", 1))
            for c in panel:
                if c.law == "truth":
                    parts.append(poly(c, "#000000", 1.5))
            for c in panel:
                if c.law == "mean":
                    parts.append(poly(c, "#1f77b4", 2))
            label = f"{law}, n={n:g}"
            parts.append(
                f'<text x="{x0 + 4}" y="{y0 - 8}" font-size="13" '
                f'font-family="sans-serif">{label}</text>'
            )
            parts.append(
                f'<text x="{x0 + _PANEL_W / 2:.0f}" y="{y0 + _PANEL_H + 30}" '
                f'font-size="12" font-family="sans-serif" text-anchor="middle">x</text>'
            )
            for frac, tick in ((0.0, "0"), (1.0, "1")):
                parts.append(
                    f'<text x="{x0 + frac * _PANEL_W:.0f}" y="{y0 + _PANEL_H + 14}" '
                    f'font-size="11" font-family="sans-serif" '
                    f'text-anchor="middle">{tick}</text>'
                )
            for frac, val in ((0.0, lo), (1.0, hi)):
                ypix = y0 + _PANEL_H * (1.0 - frac)
                parts.append(
                    f'<text x="{x0 - 5}" y="{ypix + 4:.0f}" font-size="11" '
                    f'font-family="sans-serif" text-anchor="end">{val:.3g}</text>'
                )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------
# subcommand implementations


def _truth_params(cfg: dict) -> dict:
    if cfg["truth"] == "power":
        return {"beta": cfg["beta"]}
    if cfg["truth"] == "custom":
        return {"path": cfg.get("truth-path")}
    return {}


def _outdir(cfg: dict) -> Path:
    out = Path(cfg["outdir"])
    out.mkdir(parents=True, exist_ok=True)
    return out


def _experiment_config(cfg: dict, **overrides) -> ExperimentConfig:
    fixed = None if cfg.get("eb") else cfg["alpha"]
    kwargs = dict(
        n_values=tuple(cfg["n"]),
        repetitions=cfg.get("reps", 1),
        gamma=cfg["gamma"],
        i_max=cfg["imax"],
        m_precise=cfg["m"],
        fixed_hyperparameter=fixed,
        search_interval=tuple(cfg["search"] or _SEARCH_DEFAULTS["power_law"]),
        truth_name=cfg["truth"],
        truth_params=_truth_params(cfg),
        spectrum=cfg["spectrum"],
        master_seed=cfg["seed"],
    )
    kwargs.update(overrides)
    return ExperimentConfig(**kwargs)


def _prior(cfg: dict) -> PriorFamily:
    variant = cfg["variant"]
    return PriorFamily.with_free(
        variant, cfg[FREE_SCALAR[variant]], alpha=cfg["alpha"], lambda_exponent=cfg["q"]
    )


def _cmd_radius(cfg: dict):
    family = _prior(cfg)
    label = cfg["spectrum"]
    i_max = cfg["imax"]
    if i_max == "auto":
        i_max = adequate_i_max(family, label, cfg["n"])
    spectrum = make_spectrum(label, i_max)
    obs = ObservationSequence(np.zeros(i_max), cfg["n"])
    post = posterior_spec(obs, spectrum, family)
    tail = truncation_tail_bound(family, label, cfg["n"], i_max)
    if cfg["imax"] == "auto" and tail > TRUNCATION_RTOL * float(np.sum(post.var)):
        suggested = adequate_i_max(family, label, cfg["n"], cap=_SUGGEST_CAP)
        raise RuntimeError(
            f"--imax auto stopped at its cap {i_max}, where the truncation tail "
            f"bound {tail:.3e} exceeds {TRUNCATION_RTOL:g} of the retained "
            f"posterior variance; check-truncation suggests --imax {suggested}"
        )
    est = radius_precise(post, cfg["gamma"], cfg["m"], make_rng(cfg["seed"]))
    split = head_tail_split(post.var, cfg["m"])
    payload = {
        "value": est.value,
        "std_error": est.std_error,
        "method": est.method,
        "sample_size": est.sample_size,
        "gamma": cfg["gamma"],
        "n": cfg["n"],
        "i_max": i_max,
        "variant": cfg["variant"],
        "tail_bound": tail,
        "head_size": split.head_size,
        "tail_sd": split.tail_sd,
    }
    path = _outdir(cfg) / "radius.json"
    _write_json(path, payload)
    return payload, [str(path)]


def _cmd_eb_fit(cfg: dict):
    search = tuple(cfg["search"] or _SEARCH_DEFAULTS[cfg["variant"]])
    spectrum = make_spectrum(cfg["spectrum"], cfg["imax"])
    truth = make_truth(cfg["truth"], _truth_params(cfg), cfg["imax"])
    obs = simulate_data(
        truth, spectrum, cfg["n"], make_rng(cfg["seed"]), noiseless=cfg["noiseless"]
    )
    fit = eb_fit(
        obs,
        spectrum,
        variant=cfg["variant"],
        search_interval=search,
        alpha=cfg["alpha"],
        lambda_exponent=cfg["q"],
    )
    payload = {
        "variant": cfg["variant"],
        "value": fit.value,
        "log_likelihood": fit.log_likelihood,
        "at_bound": fit.at_bound,
        "search": list(search),
        "n": cfg["n"],
        "i_max": cfg["imax"],
    }
    path = _outdir(cfg) / "eb_fit.json"
    _write_json(path, payload)
    return payload, [str(path)]


def _cmd_fpfn(cfg: dict):
    config = _experiment_config(cfg, draw_counts=tuple(cfg["draws"]))
    report = fpfn_experiment(config)
    cells = {"cells": [dataclasses.asdict(c) for c in report.cells]}
    sort_by = ("n", "N", "rep")
    return _write_report(
        cfg, "fpfn.csv", report.rows, sort_by, "fpfn_cells.json", cells
    )


def _cmd_coverage(cfg: dict):
    report = coverage_experiment(_experiment_config(cfg))
    cells = {"cells": [dataclasses.asdict(c) for c in report.cells]}
    sort_by = ("n", "rep")
    return _write_report(
        cfg, "coverage.csv", report.rows, sort_by, "coverage_cells.json", cells
    )


def _cmd_rate(cfg: dict):
    report = rate_experiment(_experiment_config(cfg))
    payload = {
        "radius_slope": report.radius_slope,
        "risk_slope": report.risk_slope,
        "radius_slope_variance_proxy": report.radius_slope_variance_proxy,
    }
    return _write_report(cfg, "rate.csv", report.rows, ("n",), "rate.json", payload)


def _cmd_curves(cfg: dict):
    config = _experiment_config(
        cfg,
        curve_count=cfg["count"],
        grid_points=cfg["grid-points"],
        lawmu_scale=cfg["lawmu-scale"],
        max_attempts=cfg["max-attempts"],
    )
    curve_set = export_curves(config, cfg["laws"])
    ordered = sorted(curve_set.curves, key=lambda c: (c.law, c.n, c.curve_id))
    rows = [
        (c.law, c.n, c.curve_id, x, v)
        for c in ordered
        for x, v in zip(curve_set.xs, c.values)
    ]
    out = _outdir(cfg)
    csv_path = out / "curves.csv"
    emit_csv(csv_path, ["law", "n", "curve_id", "x", "value"], rows)
    svg_path = out / "curves.svg"
    emit_svg(svg_path, curve_set)
    result = {
        "curves": len(curve_set.curves),
        "sample_laws": curve_set.sample_laws(),
        "n_values": list(config.n_values),
    }
    return result, [str(csv_path), str(svg_path)]


def _cmd_check_truncation(cfg: dict):
    family = _prior(cfg)
    label = cfg["spectrum"]
    i_max = cfg["imax"]
    tail = truncation_tail_bound(family, label, cfg["n"], i_max)
    kappa = make_spectrum(label, i_max).kappa
    retained = float(np.sum(posterior_variances(family, kappa, cfg["n"])))
    payload = {
        "n": cfg["n"],
        "i_max": i_max,
        "tail_bound": tail,
        "retained_variance": retained,
        # an underflowing prior retains no variance and leaves no tail
        "ratio": tail / retained if retained > 0 else 0.0,
        "adequate": bool(tail <= TRUNCATION_RTOL * retained),
        "suggested_i_max": adequate_i_max(family, label, cfg["n"], cap=_SUGGEST_CAP),
    }
    path = _outdir(cfg) / "truncation.json"
    _write_json(path, payload)
    return payload, [str(path)]


_DISPATCH = {
    "radius": _cmd_radius,
    "eb-fit": _cmd_eb_fit,
    "fpfn": _cmd_fpfn,
    "coverage": _cmd_coverage,
    "rate": _cmd_rate,
    "curves": _cmd_curves,
    "check-truncation": _cmd_check_truncation,
}


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return 0 if code == 0 else 2
    try:
        cfg = _resolve(args.command, args)
    except (ValueError, TypeError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    start = time.monotonic()
    try:
        result, outputs = _DISPATCH[args.command](cfg)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ProposalExhausted, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    manifest = {
        "command": args.command,
        "version": __version__,
        "master_seed": cfg.get("seed"),
        "duration_seconds": round(time.monotonic() - start, 3),
        "config": cfg,
        "outputs": outputs,
        "result": result,
    }
    print(json.dumps(manifest, indent=2, sort_keys=True))
    return 0


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
