"""Command line interface: config resolution, outputs, exit codes, manifest."""

import json
import subprocess
import sys
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import oracles
from ebcred import cli, make_truth


def run_ok(capsys, argv):
    """Run a CLI invocation expected to succeed and parse its manifest."""
    rc = cli.run(argv)
    captured = capsys.readouterr()
    assert rc == 0, captured.err
    return json.loads(captured.out)


@pytest.fixture(autouse=True)
def isolate_outdir(monkeypatch, tmp_path):
    # keep accidental writes out of the working tree
    monkeypatch.setenv("EBCRED_OUTDIR", str(tmp_path / "env_default"))


# ------------------------------------------------------------------ radius


def test_radius_manifest_and_payload(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["radius", "--n", "1000", "--m", "2000", "--seed", "3",
         "--outdir", str(tmp_path)],
    )
    assert man["command"] == "radius"
    assert man["master_seed"] == 3
    assert set(man) >= {"version", "duration_seconds", "config", "outputs", "result"}
    assert man["config"]["imax"] == "auto"
    payload = json.loads((tmp_path / "radius.json").read_text())
    assert payload == man["result"]
    assert payload["i_max"] == 1024  # resolved from the n = 1000 tail rule
    assert payload["value"] == pytest.approx(0.42, abs=0.02)
    assert payload["tail_bound"] < 1e-4
    assert man["outputs"] == [str(tmp_path / "radius.json")]


def test_radius_reference_value_at_seed_7(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["radius", "--n", "1000", "--alpha", "1", "--gamma", "0.05",
         "--m", "100000", "--seed", "7", "--outdir", str(tmp_path)],
    )
    assert man["result"]["value"] == pytest.approx(0.42, abs=0.02)
    assert man["result"]["std_error"] < 0.005


@pytest.mark.filterwarnings("ignore::ebcred.TruncationWarning")
def test_radius_auto_imax_exits_3_when_inadequate(capsys, tmp_path):
    # at n = 1e12 the auto level stops at its cap 10 000, whose tail bound is
    # about 1.9e-4 of the retained variance; the adequate level is 65 536
    out = tmp_path / "out"
    rc = cli.run(["radius", "--n", "1e12", "--m", "500", "--outdir", str(out)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "check-truncation suggests --imax 65536" in err
    assert not (out / "radius.json").exists()


def test_radius_respects_env_outdir(capsys, monkeypatch, tmp_path):
    target = tmp_path / "from_env"
    monkeypatch.setenv("EBCRED_OUTDIR", str(target))
    run_ok(capsys, ["radius", "--n", "100", "--imax", "512", "--m", "500"])
    assert (target / "radius.json").exists()


# ------------------------------------------------------------------ eb-fit


def test_eb_fit_noiseless_zero_truth_saturates(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["eb-fit", "--truth", "zero", "--noiseless", "--imax", "200",
         "--n", "1000", "--outdir", str(tmp_path)],
    )
    assert man["result"]["value"] == 10.0
    assert (tmp_path / "eb_fit.json").exists()


def test_eb_fit_search_override(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["eb-fit", "--truth", "zero", "--noiseless", "--imax", "100",
         "--n", "1000", "--search", "0.5", "2.5", "--outdir", str(tmp_path)],
    )
    assert man["result"]["value"] == 2.5
    assert man["result"]["search"] == [0.5, 2.5]


# -------------------------------------------------------------------- fpfn


FPFN_ARGS = [
    "fpfn", "--n", "1000", "--draws", "100,200", "--reps", "3",
    "--imax", "400", "--m", "5000", "--seed", "0",
]


def test_fpfn_outputs_and_schema(capsys, tmp_path):
    man = run_ok(capsys, FPFN_ARGS + ["--outdir", str(tmp_path)])
    csv_lines = (tmp_path / "fpfn.csv").read_text().splitlines()
    assert csv_lines[0] == "n,N,rep,fp,fn,threshold_builtin,radius_precise"
    assert len(csv_lines) == 1 + 6  # 2 draw counts x 3 reps
    keys = [tuple(line.split(",")[:3]) for line in csv_lines[1:]]
    assert keys == sorted(keys)
    cells = json.loads((tmp_path / "fpfn_cells.json").read_text())["cells"]
    assert len(cells) == 2
    assert man["result"]["cells"] == cells
    for cell in cells:
        assert 0.0 <= cell["occurrence_fp_pct"] <= 100.0
        assert 0.0 <= cell["occurrence_fn_pct"] <= 100.0


def test_fpfn_reruns_are_byte_identical(capsys, tmp_path):
    run_ok(capsys, FPFN_ARGS + ["--outdir", str(tmp_path / "a")])
    run_ok(capsys, FPFN_ARGS + ["--outdir", str(tmp_path / "b")])
    a = (tmp_path / "a" / "fpfn.csv").read_bytes()
    b = (tmp_path / "b" / "fpfn.csv").read_bytes()
    assert a == b


ROUND_TRIP_ARGS = [
    ["radius", "--n", "1000", "--m", "2000", "--seed", "3"],
    ["eb-fit", "--n", "1000", "--imax", "300", "--seed", "2"],
    FPFN_ARGS,
    ["coverage", "--n", "1000", "--reps", "2", "--alpha", "1", "--imax", "300",
     "--m", "2000"],
    ["rate", "--n", "1e3,1e4,1e5,1e6", "--reps", "1", "--alpha", "1",
     "--imax", "2000", "--m", "1000"],
    ["curves", "--n", "1000", "--count", "2", "--alpha", "1", "--imax", "256",
     "--m", "2000", "--grid-points", "32", "--seed", "5"],
    ["check-truncation", "--n", "1000", "--imax", "100"],
]


@pytest.mark.parametrize("argv", ROUND_TRIP_ARGS, ids=lambda argv: argv[0])
def test_manifest_config_round_trips(capsys, tmp_path, argv):
    man = run_ok(capsys, argv + ["--outdir", str(tmp_path / "a")])
    cfg_file = tmp_path / "replay.json"
    cfg_file.write_text(json.dumps(man["config"]))
    replay = run_ok(
        capsys,
        [argv[0], "--config", str(cfg_file), "--outdir", str(tmp_path / "b")],
    )
    assert replay["result"] == man["result"]
    assert {**replay["config"], "outdir": None} == {**man["config"], "outdir": None}
    assert man["outputs"]
    for path in man["outputs"]:
        name = path.rsplit("/", 1)[-1]
        a = (tmp_path / "a" / name).read_bytes()
        b = (tmp_path / "b" / name).read_bytes()
        assert a == b


def test_fpfn_flag_overrides_config_file(capsys, tmp_path):
    cfg_file = tmp_path / "base.json"
    cfg_file.write_text(json.dumps({"n": [1000.0], "draws": [50], "reps": 2,
                                    "imax": 300, "m": 2000}))
    man = run_ok(
        capsys,
        ["fpfn", "--config", str(cfg_file), "--reps", "1",
         "--outdir", str(tmp_path)],
    )
    assert man["config"]["reps"] == 1
    assert man["config"]["draws"] == [50]


# ---------------------------------------------------------------- coverage


def test_coverage_outputs(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["coverage", "--n", "1000", "--reps", "4", "--alpha", "1",
         "--imax", "300", "--m", "2000", "--outdir", str(tmp_path)],
    )
    lines = (tmp_path / "coverage.csv").read_text().splitlines()
    assert lines[0] == "n,rep,covered,radius"
    assert len(lines) == 5
    assert all(line.split(",")[2] in ("0", "1") for line in lines[1:])
    cell = man["result"]["cells"][0]
    assert 0.0 <= cell["coverage"] <= 1.0


# -------------------------------------------------------------------- rate


def test_rate_outputs(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["rate", "--n", "1e3,1e4,1e5,1e6", "--reps", "1", "--alpha", "1",
         "--imax", "2000", "--m", "2000", "--outdir", str(tmp_path)],
    )
    lines = (tmp_path / "rate.csv").read_text().splitlines()
    assert lines[0] == "n,mean_radius,mean_risk"
    assert len(lines) == 5
    payload = json.loads((tmp_path / "rate.json").read_text())
    assert payload["radius_slope"] == pytest.approx(-0.21, abs=0.05)
    assert payload["radius_slope_variance_proxy"] is not None
    assert man["result"] == payload


@pytest.mark.filterwarnings("ignore::ebcred.TruncationWarning")
def test_rate_eb_mode_drops_proxy(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["rate", "--n", "1e3,1e4,1e5,1e6", "--reps", "1", "--eb",
         "--imax", "500", "--m", "2000", "--outdir", str(tmp_path)],
    )
    assert man["result"]["radius_slope_variance_proxy"] is None


# ------------------------------------------------------------------ curves


CURVE_ARGS = [
    "curves", "--n", "1000", "--count", "3", "--alpha", "1",
    "--imax", "256", "--m", "2000", "--grid-points", "64", "--seed", "5",
]


def test_curves_csv_and_svg(capsys, tmp_path):
    man = run_ok(capsys, CURVE_ARGS + ["--outdir", str(tmp_path)])
    lines = (tmp_path / "curves.csv").read_text().splitlines()
    assert lines[0] == "law,n,curve_id,x,value"
    # truth + mean + 3 lawmu + 3 posterior = 8 curves, 64 points each
    assert len(lines) == 1 + 8 * 64
    assert man["result"]["curves"] == 8
    assert man["result"]["sample_laws"] == ["lawmu", "posterior"]

    svg = (tmp_path / "curves.svg").read_text()
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    ns = "{http://www.w3.org/2000/svg}"
    polylines = root.findall(f".//{ns}polyline")
    # per panel: 3 samples + truth + mean; panels: lawmu and posterior
    assert len(polylines) == 2 * 5
    rects = root.findall(f".//{ns}rect")
    assert len(rects) == 1 + 2  # background plus one frame per panel


def test_curves_rerun_is_byte_identical(capsys, tmp_path):
    run_ok(capsys, CURVE_ARGS + ["--outdir", str(tmp_path / "a")])
    run_ok(capsys, CURVE_ARGS + ["--outdir", str(tmp_path / "b")])
    for name in ("curves.csv", "curves.svg"):
        assert (tmp_path / "a" / name).read_bytes() == (
            tmp_path / "b" / name
        ).read_bytes()


def test_curves_csv_floats_round_trip(capsys, tmp_path):
    run_ok(capsys, CURVE_ARGS + ["--outdir", str(tmp_path)])
    lines = (tmp_path / "curves.csv").read_text().splitlines()[1:]
    xs = np.array([float(line.split(",")[3]) for line in lines[:64]])
    assert np.array_equal(xs, np.linspace(0.0, 1.0, 64))


def test_curves_truth_rows_are_the_dense_cosine_sum(capsys, tmp_path):
    run_ok(
        capsys,
        ["curves", "--n", "1000", "--count", "1", "--alpha", "1", "--imax", "300",
         "--m", "1000", "--grid-points", "33", "--outdir", str(tmp_path)],
    )
    rows = [line.split(",") for line in (tmp_path / "curves.csv").read_text().splitlines()[1:]]
    truth = [row for row in rows if row[0] == "truth"]
    xs = np.array([float(row[3]) for row in truth])
    values = np.array([float(row[4]) for row in truth])
    assert np.array_equal(xs, np.linspace(0.0, 1.0, 33))
    dense = oracles.dense_cosine_sum(make_truth("power", {}, 300).values, xs)
    np.testing.assert_allclose(values, dense, rtol=0, atol=1e-12)


# --------------------------------------------------------- check-truncation


def test_check_truncation_flags_inadequate_level(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["check-truncation", "--n", "1000", "--imax", "100",
         "--outdir", str(tmp_path)],
    )
    res = man["result"]
    assert res["adequate"] is False
    assert res["ratio"] > 1e-4
    assert res["suggested_i_max"] == 1024
    assert res["tail_bound"] > 0
    assert res["retained_variance"] > 0
    assert (tmp_path / "truncation.json").exists()


def test_check_truncation_accepts_adequate_level(capsys, tmp_path):
    man = run_ok(
        capsys,
        ["check-truncation", "--n", "1000", "--imax", "4096",
         "--outdir", str(tmp_path)],
    )
    assert man["result"]["adequate"] is True


def test_check_truncation_with_underflowing_prior_reports_ratio_0(capsys, tmp_path):
    # exp(-1000 i**2) underflows for every i, so no variance is retained and
    # none lies past i_max either
    man = run_ok(
        capsys,
        ["check-truncation", "--variant", "exponential", "--t", "1000",
         "--imax", "10", "--outdir", str(tmp_path)],
    )
    res = man["result"]
    assert res["retained_variance"] == 0.0
    assert res["tail_bound"] == 0.0
    assert res["ratio"] == 0.0
    assert res["adequate"] is True
    assert json.loads((tmp_path / "truncation.json").read_text()) == res


# -------------------------------------------------------------- exit codes


def test_unknown_flag_exits_2_and_writes_nothing(capsys, tmp_path):
    out = tmp_path / "untouched"
    rc = cli.run(["radius", "--bogus", "1", "--outdir", str(out)])
    capsys.readouterr()
    assert rc == 2
    assert not out.exists()


def test_missing_command_exits_2(capsys):
    assert cli.run([]) == 2
    capsys.readouterr()


def test_invalid_choice_exits_2(capsys):
    assert cli.run(["radius", "--spectrum", "fourier"]) == 2
    capsys.readouterr()


def test_invalid_value_exits_2(capsys, tmp_path):
    rc = cli.run(["radius", "--gamma", "1.5", "--outdir", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "error:" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["radius", "--alpha", "nan", "--imax", "10", "--m", "500"],
        ["radius", "--alpha", "inf", "--imax", "10", "--m", "500"],
        ["radius", "--variant", "scaled_power_law", "--tau", "inf", "--imax", "10"],
        ["radius", "--variant", "exponential", "--t", "nan", "--imax", "10"],
        ["radius", "--variant", "exponential", "--q", "nan", "--imax", "10"],
        ["check-truncation", "--n", "nan"],
        ["check-truncation", "--n", "inf"],
    ],
)
def test_non_finite_hyperparameter_or_noise_level_exits_2(capsys, tmp_path, argv):
    out = tmp_path / "untouched"
    rc = cli.run(argv + ["--outdir", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "error:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, field",
    [
        (["rate", "--n", "1e3,inf", "--reps", "1", "--imax", "64", "--m", "1000"], "n_values"),
        (["eb-fit", "--search", "0.01", "inf", "--imax", "64"], "search interval"),
        (["curves", "--lawmu-scale", "nan", "--imax", "64", "--m", "1000"], "lawmu_scale"),
    ],
)
def test_non_finite_setting_exits_2_naming_it(capsys, tmp_path, argv, field):
    out = tmp_path / "untouched"
    rc = cli.run(argv + ["--outdir", str(out)])
    captured = capsys.readouterr()
    assert rc == 2
    assert field in captured.err
    assert not out.exists()


def test_bad_imax_string_exits_2(capsys, tmp_path):
    rc = cli.run(["radius", "--imax", "abc", "--outdir", str(tmp_path)])
    capsys.readouterr()
    assert rc == 2


def test_missing_config_file_exits_2(capsys):
    assert cli.run(["fpfn", "--config", "/nonexistent/cfg.json"]) == 2
    capsys.readouterr()


def test_non_object_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("[1, 2, 3]")
    assert cli.run(["fpfn", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_unknown_config_key_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"bogus": 1}))
    assert cli.run(["fpfn", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_malformed_json_config_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.run(["fpfn", "--config", str(bad)]) == 2
    capsys.readouterr()


def test_unwritable_outdir_exits_3(capsys):
    # procfs refuses directory creation no matter the privileges
    rc = cli.run(["radius", "--n", "100", "--imax", "512", "--m", "500",
                  "--outdir", "/proc/ebcred_not_writable"])
    capsys.readouterr()
    assert rc == 3


def test_lawmu_starvation_exits_3(capsys, tmp_path):
    # a proposal scale far above the radius makes acceptance hopeless
    rc = cli.run(
        ["curves", "--n", "1000", "--count", "1", "--alpha", "1",
         "--imax", "256", "--m", "2000", "--grid-points", "64",
         "--lawmu-scale", "60", "--max-attempts", "2",
         "--outdir", str(tmp_path)],
    )
    err = capsys.readouterr().err
    assert rc == 3
    assert "error:" in err


def test_version_flag_exits_0(capsys):
    assert cli.run(["--version"]) == 0
    assert capsys.readouterr().out.strip()


# ---------------------------------------------------------------- emitters


def test_emit_csv_rejects_empty(tmp_path):
    with pytest.raises(ValueError):
        cli.emit_csv(tmp_path / "x.csv", ["a"], [])


def test_emit_csv_float_format_round_trips(tmp_path):
    path = tmp_path / "x.csv"
    cli.emit_csv(path, ["v"], [(0.1,), (1.0 / 3.0,)])
    lines = path.read_text().splitlines()
    assert [float(s) for s in lines[1:]] == [0.1, 1.0 / 3.0]
    assert lines[1] == "0.10000000000000001"


def _reference_cell(v) -> str:
    """The per-cell formatter emit_csv used before it formatted whole rows."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format(float(v), ".17g")
    return str(v)


def test_emit_csv_matches_per_cell_formatting(tmp_path):
    rows = [
        (True, np.bool_(True), 3, np.int64(-7), 0.1, np.float32(0.1), "law", None),
        (False, np.bool_(False), 0, np.int64(2**62), float("nan"), np.float32(-0.0),
         "", None),
        (1, np.bool_(True), -2, np.uint64(2**64 - 1), float("inf"), float("-inf"),
         "x", None),
        # the same columns with other types: 3.5 must not print as "%d" would
        (3.5, 2, 1.0, -0.0, 7, True, 1e300, 5e-324),
        (None, "s", np.float64(2.5), np.int32(4), np.bool_(False), "t", 1, 0.0),
    ]
    path = tmp_path / "x.csv"
    cli.emit_csv(path, [f"c{i}" for i in range(8)], rows)
    expected = [",".join(f"c{i}" for i in range(8))]
    expected += [",".join(_reference_cell(v) for v in row) for row in rows]
    assert path.read_text() == "\n".join(expected) + "\n"
    assert path.read_text().splitlines()[4].startswith("3.5,2,1,-0,7,1,")


def test_cli_import_leaves_scipy_unloaded():
    """scipy.special was most of the import time; only the power truth needs it."""
    code = "import sys, ebcred.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
