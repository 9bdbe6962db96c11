"""Command-line interface.

Every command computes through the library and writes a CSV (default) or
JSON document whose header embeds the tool version (which fixes every
search setting) and the command's parsed options as its spec (with the
seed listed apart), so any output file can be reproduced exactly.
Numbers print with 12 significant digits.  Exit codes: 0 success, 2 validation error
(an input too large for memory included), 3 numerical error, mapped in one place
(:class:`_Main`).
"""

from __future__ import annotations

import json
import math
import os
import sys

import click
import numpy as np

from . import __version__, asymptotics, mc, search
from .exceptions import NumericalError, ValidationError
from .fim import fim_entries_1d, fim_entries_2d
from .model import Design1D, GridDesign2D, OuParams, SheetParams

OUTPUT_DIR_ENV = "OUDESIGN_OUTPUT_DIR"


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        return f"{value:.12g}"
    return str(value)


def _json_value(value):
    if isinstance(value, float):
        if math.isnan(value):
            return None
        return float(f"{value:.12g}")
    return value


def _emit(columns: list[str], rows: list[tuple], **extra) -> None:
    """Write the running command's document.  Its spec is the command path
    and the parsed options, minus ``seed`` (listed apart), plus ``extra``."""
    ctx = click.get_current_context()
    params = {p.name: ctx.params[p.name] for p in ctx.command.params}
    command = ctx.command_path.removeprefix(ctx.find_root().command_path + " ")
    spec = {k: v for k, v in params.items() if k != "seed"}
    meta = {"tool": f"oudesign {__version__}", "spec": {"command": command, **spec, **extra}}
    if "seed" in params:
        meta["seed"] = params["seed"]
    fmt = ctx.obj["format"]
    if fmt == "json":
        doc = {
            "meta": meta,
            "columns": columns,
            "rows": [[_json_value(v) for v in row] for row in rows],
        }
        text = json.dumps(doc, indent=2) + "\n"
    else:
        lines = [f"# {key}: {json.dumps(val, default=str)}" for key, val in meta.items()]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(v) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    output = ctx.obj["output"]
    if output is None:
        click.echo(text, nl=False)
        return
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not os.path.isabs(output):
        output = os.path.join(base, output)
    try:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValidationError(
            f"cannot write output file {output!r}: {exc.strerror or exc}"
        ) from exc


def _report_error(ctx, exc, code):
    if ctx.obj.get("json_errors"):
        click.echo(
            json.dumps({"error": type(exc).__name__, "message": str(exc), "exit_code": code}),
            err=True,
        )
    else:
        click.echo(f"error: {str(exc) or type(exc).__name__}", err=True)
    sys.exit(code)


def _parse_points(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(x) for x in text.split(",") if x.strip() != "")
    except ValueError as exc:
        raise ValidationError(f"cannot parse design points {text!r}: {exc}") from exc


def _parse_grid(text: str) -> tuple[tuple[float, ...], tuple[float, ...]]:
    parts = text.split("x")
    if len(parts) != 2:
        raise ValidationError(f"grid spec must look like 's1,s2,...xt1,t2,...', got {text!r}")
    return _parse_points(parts[0]), _parse_points(parts[1])


def _param_range(lo: float, hi: float, points: int, log: bool) -> np.ndarray:
    if points < 2 or hi <= lo:
        raise ValidationError("parameter range needs hi > lo and at least two points")
    if log:
        if lo <= 0:
            raise ValidationError("log-spaced ranges need lo > 0")
        return np.geomspace(lo, hi, points)
    return np.linspace(lo, hi, points)


class _Main(click.Group):
    """The root command: the one place where the library's two error
    families, and running out of memory, become exit codes, with numpy's
    floating-point warnings silenced."""

    def invoke(self, ctx):
        try:
            with np.errstate(all="ignore"):  # failures surface as the errors below
                return super().invoke(ctx)
        except (ValidationError, MemoryError) as exc:  # memory: an oversized count or grid
            _report_error(ctx, exc, 2)
        except NumericalError as exc:
            _report_error(ctx, exc, 3)


@click.group(cls=_Main)
@click.option("--format", "fmt", type=click.Choice(["csv", "json"]), default="csv",
              show_default=True, help="Output document format.")
@click.option("--output", "-o", type=str, default=None,
              help=f"Output file (default stdout); relative paths resolve against ${OUTPUT_DIR_ENV}.")
@click.option("--json-errors", is_flag=True, help="Report errors as JSON on stderr.")
@click.version_option(version=__version__)
@click.pass_context
def main(ctx, fmt, output, json_errors):
    """Optimal designs for regression driven by Ornstein-Uhlenbeck noise."""
    ctx.ensure_object(dict)
    ctx.obj["format"] = fmt
    ctx.obj["output"] = output
    ctx.obj["json_errors"] = json_errors


@main.command("fim")
@click.option("--model", type=click.Choice(["process", "sheet"]), required=True)
@click.option("--beta", type=float, required=True)
@click.option("--gamma", type=float, default=None)
@click.option("--design", type=str, default=None, help="1D points, e.g. 0,0.5,1")
@click.option("--grid", type=str, default=None, help="2D grid, e.g. 0,0.5,1x0,1")
def cmd_fim(model, beta, gamma, design, grid):
    """Information-matrix entries and matrix for a design."""
    rows = []
    if model == "process":
        if design is None:
            raise ValidationError("--design is required for --model process")
        d = Design1D(_parse_points(design))
        entries = fim_entries_1d(OuParams(beta), d)
        matrix = entries.matrix()
        rows += [("entry", "l1", entries.l1), ("entry", "l2", entries.l2),
                 ("entry", "l3", entries.l3)]
    else:
        if gamma is None or grid is None:
            raise ValidationError("--gamma and --grid are required for --model sheet")
        s_pts, t_pts = _parse_grid(grid)
        g = GridDesign2D(Design1D(s_pts), Design1D(t_pts))
        entries = fim_entries_2d(SheetParams(beta, gamma), g)
        matrix = entries.matrix()
        se, te = entries.s_entries, entries.t_entries
        rows += [("entry", "l1", se.l1), ("entry", "l2", se.l2), ("entry", "l3", se.l3),
                 ("entry", "m1", te.l1), ("entry", "m2", te.l2), ("entry", "m3", te.l3)]
    for i in range(matrix.shape[0]):
        for j in range(matrix.shape[1]):
            rows.append(("matrix", f"a{i}{j}", matrix[i, j]))
    _emit(["section", "name", "value"], rows)


@main.group("optimize")
def optimize_group():
    """Design searches under the D or K criterion."""


def _emit_search(result, coords):
    columns = [*coords, "value", "converged", "collapsed", "iterations", "boundary_margin"]
    argopt = result.argopt if isinstance(result.argopt, tuple) else (result.argopt,)
    row = (*argopt, result.value, result.converged, result.collapsed, result.iterations,
           result.boundary_margin)
    if result.collapsed_axes is not None:
        columns += ["collapsed_s", "collapsed_t"]
        row += tuple(result.collapsed_axes)
    _emit(columns, [row])


@optimize_group.command("three-point")
@click.option("--beta", type=float, required=True)
@click.option("--criterion", type=click.Choice(["D", "K"], case_sensitive=False), required=True)
def cmd_three_point(beta, criterion):
    """Free point of the design {0, d, 1} on the unit interval."""
    _emit_search(search.three_point_restricted_1d(OuParams(beta), criterion), ["d_opt"])


@optimize_group.command("nine-point")
@click.option("--beta", type=float, required=True)
@click.option("--gamma", type=float, required=True)
@click.option("--criterion", type=click.Choice(["D", "K"], case_sensitive=False), required=True)
def cmd_nine_point(beta, gamma, criterion):
    """Free coordinates of the grid {0, d, 1} x {0, delta, 1}."""
    res = search.nine_point_restricted_2d(SheetParams(beta, gamma), criterion)
    _emit_search(res, ["d_opt", "delta_opt"])


@optimize_group.command("two-point")
@click.option("--beta", type=float, required=True)
def cmd_two_point(beta):
    """K-optimal spacing of the two-point design {0, d}."""
    _emit_search(search.two_point_k_optimal(OuParams(beta)), ["d_opt"])


@optimize_group.command("four-point")
@click.option("--beta", type=float, required=True)
@click.option("--gamma", type=float, required=True)
def cmd_four_point(beta, gamma):
    """K-optimal spacings of the 2x2 grid {0, d} x {0, delta}."""
    res = search.four_point_grid_k_optimal(SheetParams(beta, gamma))
    _emit_search(res, ["d_opt", "delta_opt"])


@optimize_group.command("equidistant")
@click.option("--beta", type=float, required=True)
@click.option("--n", type=int, required=True)
def cmd_equidistant(beta, n):
    """K-optimal step size of the equidistant n-point design."""
    _emit_search(search.equidistant_k_optimal_1d(OuParams(beta), n), ["d_opt"])


@main.group("asymptotics")
def asymptotics_group():
    """Doubling ratios, closed-form limits, and limit surfaces."""


@asymptotics_group.command("limits")
@click.option("--beta", type=float, required=True)
def cmd_limits(beta):
    """Closed-form window-doubling limits at one rate."""
    rows = [(
        beta,
        asymptotics.domain_doubling_limit_d(beta),
        asymptotics.domain_doubling_limit_k(beta),
        asymptotics.domain_doubling_limit_d_axis(beta),
    )]
    _emit(["beta", "limit_d", "limit_k", "limit_d_axis"], rows)


@asymptotics_group.command("double")
@click.option("--model", type=click.Choice(["process", "sheet"]), default="process",
              show_default=True)
@click.option("--beta", type=float, required=True)
@click.option("--gamma", type=float, default=None)
@click.option("--n", type=int, required=True)
@click.option("--m", type=int, default=None)
@click.option("--mode", type=str, required=True,
              help="process: infill|domain; sheet: infill-both|infill-one|domain-both|domain-one")
def cmd_double(model, beta, gamma, n, m, mode):
    """Criterion ratios for one doubled design."""
    if model == "process":
        report = asymptotics.doubling_ratio_1d(OuParams(beta), n, mode)
    else:
        if gamma is None:
            raise ValidationError("--gamma is required for --model sheet")
        m = n if m is None else m
        report = asymptotics.doubling_ratio_2d(SheetParams(beta, gamma), n, m, mode)
    rows = [(
        report.mode, report.n, report.m if report.m is not None else "",
        report.ratio_det, report.ratio_cond,
        report.limit_det if report.limit_det is not None else "",
        report.limit_cond if report.limit_cond is not None else "",
    )]
    _emit(["mode", "n", "m", "ratio_det", "ratio_cond", "limit_det", "limit_cond"], rows)


@asymptotics_group.command("surface")
@click.option("--mode", type=click.Choice(["both", "one"]), required=True)
@click.option("--param-min", type=float, default=0.05, show_default=True)
@click.option("--param-max", type=float, default=50.0, show_default=True)
@click.option("--grid-size", type=int, default=40, show_default=True)
def cmd_surface(mode, param_min, param_max, grid_size):
    """Numeric condition-number doubling-limit surface over a rate grid."""
    grid = _param_range(param_min, param_max, grid_size, log=True)
    cells = asymptotics.cond_limit_surface_2d(grid, grid, mode=mode)
    rows = [(c.beta, c.gamma, c.estimate, c.error_estimate, c.converged) for c in cells]
    _emit(["beta", "gamma", "estimate", "error_estimate", "converged"], rows)


@asymptotics_group.command("kopt-curve")
@click.option("--family", type=click.Choice(["three-point", "nine-point"]), required=True)
@click.option("--beta-min", type=float, required=True)
@click.option("--beta-max", type=float, required=True)
@click.option("--points", type=int, default=50, show_default=True)
@click.option("--gamma-min", type=float, default=None)
@click.option("--gamma-max", type=float, default=None)
@click.option("--gamma-points", type=int, default=None)
@click.option("--log/--linear", default=False, show_default=True)
def cmd_kopt_curve(family, beta_min, beta_max, points, gamma_min, gamma_max,
                   gamma_points, log):
    """K-optimal coordinates swept over the rate parameter(s)."""
    betas = _param_range(beta_min, beta_max, points, log)
    if family == "three-point":
        rows = [
            (r.beta, r.d_opt, r.k_value, r.collapsed)
            for r in search.kopt_curve_1d(betas)
        ]
        _emit(["beta", "d_opt", "k_value", "collapsed"], rows)
    else:
        if gamma_min is None or gamma_max is None:
            raise ValidationError("nine-point curves need --gamma-min/--gamma-max")
        gamma_points = points if gamma_points is None else gamma_points
        gammas = _param_range(gamma_min, gamma_max, gamma_points, log)
        rows = [
            (r.beta, r.gamma, r.d_opt, r.delta_opt, r.k_value, r.collapsed_s, r.collapsed_t)
            for r in search.kopt_surface_2d(betas, gammas)
        ]
        _emit(["beta", "gamma", "d_opt", "delta_opt", "k_value", "collapsed_s", "collapsed_t"],
              rows)


@main.group("simulate")
def simulate_group():
    """Monte Carlo efficiency comparisons of K- vs D-optimal designs."""


TABLE1_SMALL = (0.01, 0.03, 0.05, 0.10, 0.15)
TABLE1_LARGE = (10.0, 15.0, 20.0, 25.0, 30.0)


def _mc_options(fn):
    """The Monte Carlo options of every simulate command."""
    for option in (
        click.option("--sigma", type=float, default=0.25, show_default=True),
        click.option("--seed", type=int, default=0, show_default=True),
        click.option("--reps", type=int, default=10000, show_default=True),
    ):
        fn = option(fn)
    return fn


@simulate_group.command("eff")
@click.option("--beta", type=float, required=True)
@click.option("--gamma", type=float, default=None)
@_mc_options
def cmd_eff(beta, gamma, reps, seed, sigma):
    """Relative efficiency at a single rate (pair)."""
    config = mc.McConfig(replicates=reps, seed=seed, sigma=sigma)
    if gamma is None:
        rep = mc.run_efficiency_1d(OuParams(beta), config)
        rows = [(beta, rep.mse_k, rep.mse_d, rep.eff_percent, rep.mc_standard_error)]
        cols = ["beta", "mse_k", "mse_d", "eff_percent", "mc_se"]
    else:
        rep = mc.run_efficiency_2d(SheetParams(beta, gamma), config)
        rows = [(beta, gamma, rep.mse_k, rep.mse_d, rep.eff_percent, rep.mc_standard_error)]
        cols = ["beta", "gamma", "mse_k", "mse_d", "eff_percent", "mc_se"]
    _emit(cols, rows)


@simulate_group.command("table1")
@_mc_options
def cmd_table1(reps, seed, sigma):
    """Efficiency grids over the two 5x5 rate blocks."""
    config = mc.McConfig(replicates=reps, seed=seed, sigma=sigma)
    rows = []
    for block, values in (("small", TABLE1_SMALL), ("large", TABLE1_LARGE)):
        for b in values:
            for g in values:
                rep = mc.run_efficiency_2d(SheetParams(b, g), config)
                rows.append((block, b, g, rep.mse_k, rep.mse_d,
                             rep.eff_percent, rep.mc_standard_error))
    _emit(["block", "beta", "gamma", "mse_k", "mse_d", "eff_percent", "mc_se"], rows,
          small_block=list(TABLE1_SMALL), large_block=list(TABLE1_LARGE))


@simulate_group.command("curve")
@click.option("--interval", type=click.Choice(["lower", "upper"]), required=True)
@click.option("--points", type=int, default=25, show_default=True)
@_mc_options
def cmd_curve(interval, points, reps, seed, sigma):
    """Efficiency sweep over the rates below (lower) or above (upper)
    the collapse interval."""
    bounds = search.collapse_interval()
    if interval == "lower":
        betas = _param_range(0.02, bounds.lower - 0.01, points, log=False)
    else:
        betas = _param_range(bounds.upper + 0.05, 100.0, points, log=True)
    config = mc.McConfig(replicates=reps, seed=seed, sigma=sigma)
    rows = [
        (p.beta, p.mse_k, p.mse_d, p.eff_percent, p.mc_standard_error, p.collapsed)
        for p in mc.efficiency_curve(betas, config)
    ]
    _emit(["beta", "mse_k", "mse_d", "eff_percent", "mc_se", "collapsed"], rows)


if __name__ == "__main__":
    main()
