import json
import math
from pathlib import Path

import click
import numpy as np
import pytest
from click.testing import CliRunner

from oudesign import (
    OuParams,
    Design1D,
    GridDesign2D,
    McConfig,
    SheetParams,
    asymptotics,
    fim_2d,
    fim_entries_1d,
    fim_entries_2d,
    nine_point_restricted_2d,
    run_efficiency_1d,
    run_efficiency_2d,
    three_point_restricted_1d,
    two_point_k_optimal,
)
from oudesign.cli import main


@pytest.fixture
def runner():
    return CliRunner()


def run_ok(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result.output


def parse_csv(text):
    lines = [l for l in text.strip().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [l.split(",") for l in lines[1:]]
    return header, rows


def test_fim_process_matches_library(runner):
    out = run_ok(runner, ["fim", "--model", "process", "--beta", "1", "--design", "0,0.5,1"])
    header, rows = parse_csv(out)
    values = {r[1]: float(r[2]) for r in rows if r[0] == "entry"}
    e = fim_entries_1d(OuParams(1.0), Design1D((0.0, 0.5, 1.0)))
    assert values["l1"] == pytest.approx(e.l1, rel=1e-11)
    assert values["l3"] == pytest.approx(e.l3, rel=1e-11)
    matrix = {r[1]: float(r[2]) for r in rows if r[0] == "matrix"}
    assert matrix["a01"] == pytest.approx(e.l2, rel=1e-11)


def test_fim_sheet_emits_3x3(runner):
    out = run_ok(
        runner,
        ["fim", "--model", "sheet", "--beta", "1", "--gamma", "2", "--grid", "0,1x0,1"],
    )
    _, rows = parse_csv(out)
    matrix_rows = [r for r in rows if r[0] == "matrix"]
    assert len(matrix_rows) == 9


def test_fim_sheet_rows_are_the_library_values(runner):
    argv = ["fim", "--model", "sheet", "--beta", "0.7", "--gamma", "3",
            "--grid", "-1,0.2,4x0.5,1,2,9"]
    _, rows = parse_csv(run_ok(runner, argv))
    params, grid = SheetParams(0.7, 3.0), GridDesign2D((-1.0, 0.2, 4.0), (0.5, 1.0, 2.0, 9.0))
    entries = fim_entries_2d(params, grid)
    s, t = entries.s_entries, entries.t_entries
    matrix = fim_2d(params, grid)
    expected = [("entry", name, value) for name, value in zip(
        ("l1", "l2", "l3", "m1", "m2", "m3"), (s.l1, s.l2, s.l3, t.l1, t.l2, t.l3))]
    expected += [("matrix", f"a{i}{j}", matrix[i, j]) for i in range(3) for j in range(3)]
    assert rows == [[section, name, f"{value:.12g}"] for section, name, value in expected]


@pytest.mark.parametrize("rates", [("30",), ("10", "12")], ids=["process", "sheet"])
def test_simulate_eff_row_is_the_library_report(runner, rates):
    argv = ["simulate", "eff", "--beta", rates[0], *(["--gamma", rates[1]] if rates[1:] else []),
            "--reps", "200", "--seed", "4", "--sigma", "0.5"]
    header, rows = parse_csv(run_ok(runner, argv))
    config = McConfig(replicates=200, seed=4, sigma=0.5)
    if len(rates) == 1:
        rep = run_efficiency_1d(OuParams(float(rates[0])), config)
    else:
        rep = run_efficiency_2d(SheetParams(*map(float, rates)), config)
    assert header == [*("beta", "gamma")[:len(rates)], "mse_k", "mse_d", "eff_percent", "mc_se"]
    values = (*map(float, rates), rep.mse_k, rep.mse_d, rep.eff_percent, rep.mc_standard_error)
    assert rows == [[f"{v:.12g}" for v in values]]


def test_fim_past_the_double_range_exits_3(runner):
    argv = ["fim", "--model", "process", "--beta", "1", "--design", "0,1e154,2e154"]
    assert "overflows double precision" in run_error(runner, argv, 3)


def test_fim_invalid_design_exits_2(runner):
    result = runner.invoke(main, ["fim", "--model", "process", "--beta", "1", "--design", "0,0"])
    assert result.exit_code == 2


def test_numerical_error_exits_3(runner):
    # scaled gaps below the floor trip the near-singularity guard
    result = runner.invoke(
        main, ["fim", "--model", "process", "--beta", "1", "--design", "0,1e-13,1"]
    )
    assert result.exit_code == 3


def test_json_errors_flag(runner):
    result = runner.invoke(
        main,
        ["--json-errors", "fim", "--model", "process", "--beta", "1", "--design", "0,0"],
    )
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 2


def test_optimize_three_point_noncollapsing(runner):
    out = run_ok(runner, ["optimize", "three-point", "--beta", "50", "--criterion", "K"])
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["collapsed"] == "false"
    res = three_point_restricted_1d(OuParams(50.0), "K")
    assert float(row["d_opt"]) == pytest.approx(res.argopt, rel=1e-11)


def test_optimize_three_point_collapsed(runner):
    out = run_ok(runner, ["optimize", "three-point", "--beta", "2", "--criterion", "K"])
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert row["collapsed"] == "true"
    assert float(row["d_opt"]) in (0.0, 1.0)


def test_optimize_two_point(runner):
    out = run_ok(runner, ["optimize", "two-point", "--beta", "0.1"])
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["d_opt"]) == pytest.approx(0.1943297519, abs=1e-6)


def test_optimize_nine_point(runner):
    out = run_ok(
        runner,
        ["optimize", "nine-point", "--beta", "1", "--gamma", "2", "--criterion", "D"],
    )
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["d_opt"]) == pytest.approx(0.5, abs=1e-5)
    assert float(row["delta_opt"]) == pytest.approx(0.5, abs=1e-5)


def test_optimize_rows_report_boundary_margin_and_collapsed_axes(runner):
    from oudesign import SheetParams, nine_point_restricted_2d

    args = ["optimize", "nine-point", "--beta", "2", "--gamma", "2", "--criterion", "K"]
    doc = json.loads(run_ok(runner, ["--format", "json", *args]))
    row = dict(zip(doc["columns"], doc["rows"][0]))
    res = nine_point_restricted_2d(SheetParams(2.0, 2.0), "K")
    # the CLI's optimum is the API's, bit for bit
    assert (row["d_opt"], row["delta_opt"]) == res.argopt == (0.0, 0.0)
    assert (row["collapsed_s"], row["collapsed_t"]) == res.collapsed_axes == (True, True)
    assert row["boundary_margin"] == pytest.approx(res.boundary_margin, rel=1e-11)
    assert row["boundary_margin"] > 0.0
    assert row["iterations"] == res.iterations
    args = ["optimize", "four-point", "--beta", "1", "--gamma", "2"]
    header, rows = parse_csv(run_ok(runner, args))
    row = dict(zip(header, rows[0]))
    assert (row["collapsed_s"], row["collapsed_t"]) == ("false", "false")
    assert row["boundary_margin"] == "0"
    args = ["optimize", "three-point", "--beta", "0.3", "--criterion", "K"]
    header, rows = parse_csv(run_ok(runner, args))
    assert "boundary_margin" in header and "collapsed_s" not in header
    doc = json.loads(run_ok(runner, ["--format", "json", *args]))
    row = dict(zip(doc["columns"], doc["rows"][0]))
    res = three_point_restricted_1d(OuParams(0.3), "K")
    assert row["d_opt"] == float(f"{res.argopt:.12g}")  # as the CLI prints it


def test_asymptotics_limits(runner):
    out = run_ok(runner, ["asymptotics", "limits", "--beta", "1"])
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["limit_d"]) == pytest.approx(224.0 / 57.0, rel=1e-11)
    assert float(row["limit_d_axis"]) == pytest.approx((4 / 3) * 224 / 57, rel=1e-11)


def test_asymptotics_double(runner):
    out = run_ok(
        runner,
        ["asymptotics", "double", "--beta", "1", "--n", "500", "--mode", "domain"],
    )
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert float(row["ratio_det"]) == pytest.approx(float(row["limit_det"]), abs=1e-2)


def test_asymptotics_surface_small(runner):
    out = run_ok(
        runner,
        ["asymptotics", "surface", "--mode", "both", "--param-min", "0.5",
         "--param-max", "2", "--grid-size", "2"],
    )
    header, rows = parse_csv(out)
    assert len(rows) == 4
    assert header == ["beta", "gamma", "estimate", "error_estimate", "converged"]


def test_kopt_curve_csv(runner):
    out = run_ok(
        runner,
        ["asymptotics", "kopt-curve", "--family", "three-point", "--beta-min", "0.1",
         "--beta-max", "0.4", "--points", "4"],
    )
    header, rows = parse_csv(out)
    assert header == ["beta", "d_opt", "k_value", "collapsed"]
    assert len(rows) == 4
    assert all(r[3] == "false" for r in rows)


def test_simulate_eff_2d(runner):
    out = run_ok(
        runner,
        ["simulate", "eff", "--beta", "10", "--gamma", "10", "--reps", "2000", "--seed", "7"],
    )
    header, rows = parse_csv(out)
    row = dict(zip(header, rows[0]))
    assert 100.0 < float(row["eff_percent"]) < 130.0


def test_simulate_eff_collapse_exit_2(runner):
    result = runner.invoke(main, ["simulate", "eff", "--beta", "2", "--reps", "10"])
    assert result.exit_code == 2


def test_simulate_curve_lower_interval(runner):
    out = run_ok(
        runner,
        ["simulate", "curve", "--interval", "lower", "--points", "3",
         "--reps", "300", "--seed", "5"],
    )
    header, rows = parse_csv(out)
    assert header[-1] == "collapsed"
    assert len(rows) == 3
    assert all(r[-1] == "false" for r in rows)  # stays below the collapse onset


def test_byte_identical_reruns(runner, tmp_path):
    args = ["simulate", "eff", "--beta", "20", "--reps", "500", "--seed", "11"]
    out1 = run_ok(runner, args)
    out2 = run_ok(runner, args)
    assert out1 == out2


def test_unwritable_output_exits_2(runner, tmp_path):
    target = str(tmp_path / "missing_dir" / "x.csv")
    args = ["fim", "--model", "process", "--beta", "1", "--design", "0,0.5,1"]
    result = runner.invoke(main, ["-o", target] + args)
    assert result.exit_code == 2
    assert "cannot write output file" in result.stderr
    result = runner.invoke(main, ["--json-errors", "-o", target] + args)
    assert result.exit_code == 2
    err = json.loads(result.stderr.strip().splitlines()[-1])
    assert err["error"] == "ValidationError"
    assert err["exit_code"] == 2


def test_output_file_and_env_dir(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("OUDESIGN_OUTPUT_DIR", str(tmp_path))
    run_ok(runner, ["-o", "limits.csv", "asymptotics", "limits", "--beta", "1"])
    text = (tmp_path / "limits.csv").read_text()
    assert text.startswith("# tool: ")
    assert "limit_d" in text


def test_json_format(runner):
    out = run_ok(runner, ["--format", "json", "asymptotics", "limits", "--beta", "1"])
    doc = json.loads(out)
    assert doc["meta"]["tool"].startswith("oudesign ")
    assert doc["columns"][0] == "beta"
    assert doc["rows"][0][1] == pytest.approx(224.0 / 57.0, rel=1e-11)


def test_numeric_precision_12_digits(runner):
    out = run_ok(runner, ["asymptotics", "limits", "--beta", "1"])
    _, rows = parse_csv(out)
    value = rows[0][1]
    assert len(value.replace(".", "").replace("-", "").lstrip("0")) >= 11


# One cheap invocation of every leaf command, by command path.
LEAF_ARGS = {
    "fim": ["--model", "process", "--beta", "1", "--design", "0,0.5,1"],
    "optimize three-point": ["--beta", "50", "--criterion", "K"],
    "optimize nine-point": ["--beta", "10", "--gamma", "10", "--criterion", "D"],
    "optimize two-point": ["--beta", "0.1"],
    "optimize four-point": ["--beta", "0.2", "--gamma", "0.3"],
    "optimize equidistant": ["--beta", "1", "--n", "5"],
    "asymptotics limits": ["--beta", "1"],
    "asymptotics double": ["--beta", "1", "--n", "10", "--mode", "domain"],
    "asymptotics surface": ["--mode", "both", "--grid-size", "2"],
    "asymptotics kopt-curve": ["--family", "three-point", "--beta-min", "0.05",
                               "--beta-max", "0.55", "--points", "2"],
    "simulate eff": ["--beta", "10", "--reps", "20"],
    "simulate table1": ["--reps", "20"],
    "simulate curve": ["--interval", "upper", "--points", "2", "--reps", "20"],
}


def leaf_commands(group=main, path=()):
    """Every leaf command below ``group``, keyed by its command path."""
    leaves = {}
    for name, command in group.commands.items():
        if isinstance(command, click.Group):
            leaves.update(leaf_commands(command, (*path, name)))
        else:
            leaves[" ".join((*path, name))] = command
    return leaves


def test_header_args_cover_every_leaf_command():
    assert set(LEAF_ARGS) == set(leaf_commands())


@pytest.mark.parametrize("path", LEAF_ARGS)
def test_header_lists_the_parsed_options(runner, path):
    argv = ["--format", "json", *path.split(), *LEAF_ARGS[path]]
    meta = json.loads(run_ok(runner, argv))["meta"]
    spec = dict(meta["spec"])
    assert spec.pop("command") == path
    keys = [*spec, *(["seed"] if "seed" in meta else [])]
    expected = {param.name for param in leaf_commands()[path].params}
    if path == "simulate table1":
        expected |= {"small_block", "large_block"}  # the two rate blocks it simulates
    assert len(keys) == len(set(keys))
    assert set(keys) == expected


# Every rate-like option and --sigma of a leaf command takes each of these
# values in turn: invalid ones, subnormals, tiny and huge rates, the largest
# double, inf and nan.
SWEEP_VALUES = ["0", "-1", "5e-324", "1e-320", "1e-300", "1e-160", "1e-12", "1e7", "1e9", "1e12",
                "1e154", "1e300", "1.7e308", "inf", "nan"]
SWEEP_OPTIONS = {"beta", "gamma", "beta_min", "beta_max", "gamma_min", "gamma_max", "param_min",
                 "param_max", "sigma"}


def sweep_argvs(path):
    """``path``'s LEAF_ARGS command line with one swept option set to each
    of SWEEP_VALUES (appended where the line does not give it)."""
    for param in leaf_commands()[path].params:
        if param.name in SWEEP_OPTIONS:
            option = "--" + param.name.replace("_", "-")
            args = list(LEAF_ARGS[path])
            if option not in args:
                args += [option, ""]
            at = args.index(option) + 1
            for value in SWEEP_VALUES:
                args[at] = value
                yield [*path.split(), *args]


@pytest.mark.parametrize("path", LEAF_ARGS)
def test_every_rate_and_sigma_exits_cleanly_with_finite_rows(runner, path):
    # exit 0, 2 or 3 and no traceback, in both formats; a JSON row of a
    # successful run holds no null (a non-finite number) but in simulate
    # curve's collapsed rows, which are marked and carry no simulation
    for argv in sweep_argvs(path):
        for fmt in ("csv", "json"):
            result = runner.invoke(main, ["--format", fmt, *argv])
            assert result.exit_code in (0, 2, 3), (argv, result.output, result.exception)
            assert "Traceback" not in result.output + result.stderr, argv
            if fmt == "json" and result.exit_code == 0:
                doc = json.loads(result.output)
                collapsed = doc["columns"].index("collapsed") if path == "simulate curve" else None
                for row in doc["rows"]:
                    marked = collapsed is not None and row[collapsed]
                    assert None not in row or marked, (argv, row)


SEARCH_TOLERANCE_ARGVS = [
    ["optimize", "three-point", "--beta", "1", "--criterion", "K", "--refine-tol"],
    ["optimize", "nine-point", "--beta", "1", "--gamma", "2", "--criterion", "K", "--refine-tol"],
    ["optimize", "four-point", "--beta", "1", "--gamma", "2", "--tol"],
    ["optimize", "equidistant", "--beta", "1", "--n", "5", "--tol"],
    ["asymptotics", "surface", "--mode", "both", "--grid-size", "2", "--tol"],
]


def run_error(runner, args, code):
    """Run a failing command: no traceback, the given exit code and a
    one-line error message."""
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == code, result.output
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1
    return result.stderr


def run_unknown_option(runner, args):
    """Run a command with an option it does not have: click's usage error,
    exit code 2."""
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 2, result.output
    assert "No such option" in result.stderr and args[-2] in result.stderr


@pytest.mark.parametrize("tol", ["0", "-1", "nan"])
@pytest.mark.parametrize("argv", SEARCH_TOLERANCE_ARGVS, ids=lambda argv: argv[1])
def test_bad_search_tolerance_exits_2(runner, argv, tol):
    # the tolerances are fixed: every value is refused as an unknown option
    run_unknown_option(runner, [*argv, tol])


def test_bad_grid_resolution_exits_2(runner):
    # so are the scan sizes, even a huge one that would not fit in memory
    for argv in (["three-point", "--beta", "1"], ["nine-point", "--beta", "1", "--gamma", "2"]):
        for resolution in ("2", "41", "100000000000"):
            run_unknown_option(runner, ["optimize", *argv, "--criterion", "K",
                                        "--grid-resolution", resolution])


@pytest.mark.parametrize("argv,message", [
    (["asymptotics", "double", "--model", "sheet", "--beta", "1", "--gamma", "2", "--n", "4",
      "--m", "0", "--mode", "infill-both"], "m must be"),
    (["asymptotics", "kopt-curve", "--family", "nine-point", "--beta-min", "1", "--beta-max", "2",
      "--gamma-min", "1", "--gamma-max", "2", "--points", "2", "--gamma-points", "0"], "two points"),
    (["simulate", "curve", "--interval", "lower", "--points", "-1"], "two points"),
    (["simulate", "curve", "--interval", "upper", "--points", "1"], "two points"),
], ids=["double-m", "kopt-curve-gamma-points", "curve-lower-points", "curve-upper-points"])
def test_zero_counts_are_rejected_not_defaulted(runner, argv, message):
    # an explicit 0 is bad input, not "use the other count"
    assert message in run_error(runner, argv, 2)


KOPT_NINE = ["asymptotics", "kopt-curve", "--family", "nine-point", "--beta-min", "1",
             "--beta-max", "2", "--points", "2"]


@pytest.mark.parametrize("argv,message", [
    (["fim", "--model", "process", "--beta", "1"], "--design is required for --model process"),
    (["fim", "--model", "sheet", "--beta", "1", "--grid", "0,1x0,1"],
     "--gamma and --grid are required for --model sheet"),
    (["fim", "--model", "sheet", "--beta", "1", "--gamma", "2"],
     "--gamma and --grid are required for --model sheet"),
    (["fim", "--model", "process", "--beta", "1", "--design", "0,half,1"],
     "cannot parse design points '0,half,1'"),
    (["fim", "--model", "sheet", "--beta", "1", "--gamma", "2", "--grid", "0,1"],
     "grid spec must look like"),
    (["fim", "--model", "sheet", "--beta", "1", "--gamma", "2", "--grid", "0,1x0,1x0,1"],
     "grid spec must look like"),
    (["asymptotics", "double", "--model", "sheet", "--beta", "1", "--n", "4",
      "--mode", "infill-both"], "--gamma is required for --model sheet"),
    (KOPT_NINE, "nine-point curves need --gamma-min/--gamma-max"),
    ([*KOPT_NINE, "--gamma-min", "1"], "nine-point curves need --gamma-min/--gamma-max"),
    (["asymptotics", "kopt-curve", "--family", "three-point", "--beta-min", "0",
      "--beta-max", "2", "--points", "2", "--log"], "log-spaced ranges need lo > 0"),
    (["asymptotics", "kopt-curve", "--family", "three-point", "--beta-min", "-1",
      "--beta-max", "2", "--points", "2", "--log"], "log-spaced ranges need lo > 0"),
], ids=["fim-process-design", "fim-sheet-gamma", "fim-sheet-grid", "fim-design-parse",
        "fim-grid-one-part", "fim-grid-three-parts", "double-sheet-gamma", "nine-point-gammas",
        "nine-point-gamma-max", "log-zero-min", "log-negative-min"])
def test_missing_or_malformed_input_exits_2(runner, argv, message):
    assert run_error(runner, argv, 2).startswith(f"error: {message}")


def test_nine_point_kopt_curve_rows_are_the_searches(runner):
    argv = ["--format", "json", "asymptotics", "kopt-curve", "--family", "nine-point",
            "--beta-min", "10", "--beta-max", "30", "--gamma-min", "0.05", "--gamma-max", "2",
            "--points", "2", "--gamma-points", "3", "--log"]
    doc = json.loads(run_ok(runner, argv))
    assert doc["columns"] == ["beta", "gamma", "d_opt", "delta_opt", "k_value", "collapsed_s",
                              "collapsed_t"]
    cells = [(b, g) for b in np.geomspace(10, 30, 2) for g in np.geomspace(0.05, 2, 3)]
    assert len(doc["rows"]) == len(cells)
    for row, (b, g) in zip(doc["rows"], cells):
        res = nine_point_restricted_2d(SheetParams(b, g), "K")
        expected = [b, g, *res.argopt, res.value, *res.collapsed_axes]
        assert row == [float(f"{v:.12g}") if isinstance(v, float) else v for v in expected]


def test_negative_seed_exits_2(runner):
    argv = ["simulate", "eff", "--beta", "30", "--seed", "-1"]
    assert "seed must be" in run_error(runner, argv, 2)


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 373. GiB for an array"), "error: Unable to allocate 373."),
    (MemoryError(), "error: MemoryError"),
], ids=["numpy-message", "bare"])
def test_out_of_memory_exits_2(runner, monkeypatch, exc, message):
    # an oversized count ends in one error line, not a traceback; the
    # library call is replaced, so the test allocates nothing large
    def oversized(*args, **kwargs):
        raise exc

    monkeypatch.setattr(asymptotics, "cond_limit_surface_2d", oversized)
    argv = ["asymptotics", "surface", "--mode", "both", "--grid-size", "100000"]
    assert run_error(runner, argv, 2).startswith(message)


@pytest.mark.parametrize("argv", [
    ["asymptotics", "limits", "--beta", "1e100"],
    ["asymptotics", "double", "--beta", "1e100", "--n", "10", "--mode", "domain"],
])
def test_limits_stay_finite_at_huge_rates(runner, argv):
    doc = json.loads(run_ok(runner, ["--format", "json", *argv]))
    (row,) = doc["rows"]
    assert all(isinstance(v, str) or (v is not None and math.isfinite(v)) for v in row)


def test_limits_at_the_smallest_rate(runner):
    _, rows = parse_csv(run_ok(runner, ["asymptotics", "limits", "--beta", "5e-324"]))
    assert rows == [["4.94065645841e-324", "2", "2", "2"]]


def test_two_point_below_its_rate_floor_exits_2(runner):
    from oudesign.search import TWO_POINT_MIN_RATE

    message = run_error(runner, ["optimize", "two-point", "--beta", "1e-200"], 2)
    assert f"{TWO_POINT_MIN_RATE:g}" in message


@pytest.mark.parametrize("extra", [[], ["--gamma", "1"]], ids=["process", "sheet"])
def test_vanishing_noise_exits_3(runner, extra):
    argv = ["simulate", "eff", "--beta", "1e100", *extra, "--reps", "20"]
    assert "simulated MSE" in run_error(runner, argv, 3)


@pytest.mark.parametrize("argv,message", [
    (["--beta", "10", "--sigma", "1e200"], "noise standard deviation overflows"),
    (["--beta", "10", "--gamma", "10", "--sigma", "1e200"], "noise standard deviation overflows"),
    (["--beta", "20", "--sigma", "1.2e154"], "simulated MSE is inf"),
], ids=["process", "sheet", "squares"])
def test_noise_past_the_double_range_exits_3(runner, argv, message):
    # the stationary variance overflows, or the squared errors do
    argv = ["--format", "json", "simulate", "eff", *argv, "--reps", "100"]
    assert message in run_error(runner, argv, 3)


def test_json_writes_an_overflowed_number_as_null(runner):
    # squares of errors near 1e158 are finite, their deviations' squares
    # are not: the SE is taken relative to the MSE and stays finite; one
    # replicate has no SE (nan), and JSON has no NaN or Infinity
    argv = ["--format", "json", "simulate", "eff", "--beta", "20", "--sigma", "1e80"]
    for reps, se_is_finite in (("100", True), ("1", False)):
        out = run_ok(runner, [*argv, "--reps", reps])
        doc = json.loads(out, parse_constant=lambda name: pytest.fail(f"{name} in the JSON"))
        (row,) = doc["rows"]
        assert math.isfinite(row[1]) and math.isfinite(row[3])
        assert math.isfinite(row[4]) if se_is_finite else row[4] is None


# An option given where it does not apply, by command: the argv and the
# error's message.
IGNORED_OPTIONS = {
    "fim process --gamma": (["fim", "--model", "process", "--beta", "1", "--gamma", "2",
                             "--design", "0,1"], "--gamma does not apply to --model process"),
    "fim process --grid": (["fim", "--model", "process", "--beta", "1", "--design", "0,1",
                            "--grid", "0,1x0,1"], "--grid does not apply to --model process"),
    "fim sheet --design": (["fim", "--model", "sheet", "--beta", "1", "--gamma", "2", "--grid",
                            "0,1x0,1", "--design", "0,1"], "--design does not apply to --model sheet"),
    "double process --m": (["asymptotics", "double", "--beta", "1", "--n", "10", "--m", "5",
                            "--mode", "infill"], "--m does not apply to --model process"),
    "double process --gamma": (["asymptotics", "double", "--beta", "1", "--n", "10", "--gamma",
                                "3", "--mode", "infill"], "--gamma does not apply to --model process"),
    "kopt-curve three-point --gamma-points": (
        ["asymptotics", "kopt-curve", "--family", "three-point", "--beta-min", "1", "--beta-max",
         "2", "--points", "2", "--gamma-points", "3"],
        "--gamma-points does not apply to --family three-point"),
}


@pytest.mark.parametrize("case", IGNORED_OPTIONS)
def test_options_that_do_not_apply_exit_2(runner, case):
    argv, message = IGNORED_OPTIONS[case]
    assert run_error(runner, argv, 2) == f"error: {message}\n"


def test_coincident_equidistant_steps_exit_3(runner):
    message = run_error(runner, ["asymptotics", "double", "--beta", "1e-13", "--n", "2",
                                 "--mode", "infill"], 3)
    assert "numerically coincident" in message


SWEEP_RATES = ["5e-324", "1e-300", "1e-160", "1e-20", "1e-14", "1e-12", "1", "1e100", "1e300",
               "1.7e308"]
# Every optimize leaf, by name: its argv without --beta, and its criterion.
SWEEP_SEARCHES = {
    "three-point D": (["three-point", "--criterion", "D"], "D"),
    "three-point K": (["three-point", "--criterion", "K"], "K"),
    "nine-point D": (["nine-point", "--gamma", "1", "--criterion", "D"], "D"),
    "nine-point K": (["nine-point", "--gamma", "1", "--criterion", "K"], "K"),
    "two-point": (["two-point"], "K"),
    "four-point": (["four-point", "--gamma", "1"], "K"),
    "equidistant": (["equidistant", "--n", "5"], "K"),
}


@pytest.mark.parametrize("rate", SWEEP_RATES)
@pytest.mark.parametrize("search", SWEEP_SEARCHES)
def test_searches_at_extreme_rates_answer_or_say_why(rate, search):
    # a search either prints a finite criterion value (a positive one for
    # K) or exits 2/3 with one error line; never a traceback
    argv, criterion = SWEEP_SEARCHES[search]
    result = CliRunner().invoke(main, ["--format", "json", "optimize", *argv, "--beta", rate],
                                catch_exceptions=False)
    assert result.exit_code in (0, 2, 3), result.output
    if result.exit_code:
        assert result.stderr.startswith("error: ")
        assert result.stderr.count("\n") == 1, result.stderr
        return
    (row,) = json.loads(result.stdout)["rows"]
    value = dict(zip(json.loads(result.stdout)["columns"], row))["value"]
    assert value is not None and math.isfinite(value)
    assert criterion == "D" or value > 0.0


def test_four_point_keeps_its_value_at_a_tiny_rate(runner):
    # one axis at a tiny rate still finds the optimum, the floor that the
    # two-point K at rate 1 along the other axis sets by interlacing; at
    # 1e-160 K is lost to rounding.  The bound covers the known near-double
    # eigenvalue error: the search is drawn to where the deflated quadratic
    # errs low, 2.1e-8 at 1e-12 (ROADMAP item 6)
    floor = two_point_k_optimal(OuParams(1.0)).value
    for beta in ("1e-12", "1e-14", "1e-20"):
        args = ["--format", "json", "optimize", "four-point", "--beta", beta, "--gamma", "1"]
        doc = json.loads(run_ok(runner, args))
        value = dict(zip(doc["columns"], doc["rows"][0]))["value"]
        assert value == pytest.approx(floor, rel=5e-8), beta
    message = run_error(runner, ["optimize", "four-point", "--beta", "1e-160", "--gamma", "1"], 3)
    assert "1e-160, 1" in message


def readme_command_lines():
    """Every line of README's "Command line" sh block, as CLI arguments."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#", 1)[0].split() for line in block.splitlines()]
    return [line[1:] for line in lines if line]


@pytest.mark.parametrize("argv", readme_command_lines(), ids=" ".join)
def test_readme_command_lines_run(runner, argv):
    assert argv[0] in {"fim", "optimize", "asymptotics", "simulate"}
    if argv[0] == "simulate":
        argv = [*argv, "--reps", "200"]  # the last --reps wins
    run_ok(runner, argv)
