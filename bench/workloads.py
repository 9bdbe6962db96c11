"""The benchmark's three workloads: their items, operations and checks.

An *operation* is one call into ``oudesign`` whose answer is checked: one
CLI command (run in-process through ``oudesign.cli.main``) or one public
API call.  An *item* is the timed unit: one operation, or a few
operations whose single call would be shorter than a few milliseconds.
A *round* is the workload's full item list; runs repeat whole rounds, so
every run attempts the same operations the same number of times per round.

Every check compares against ``oracle`` (dense linear algebra, no closed
form of the program) or against a property the method must have.  An
operation fails when its answer cannot be verified: the call raised or
exited non-zero, or the oracle disagrees.  :func:`known_fault` tags the
operations that fail because of the faults F1-F4 described in README.md;
any other failure makes the run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracle

# Table 1 of the paper: the two 5x5 rate blocks of the sheet simulation.
TABLE1_SMALL = (0.01, 0.03, 0.05, 0.10, 0.15)
TABLE1_LARGE = (10.0, 15.0, 20.0, 25.0, 30.0)
MC_REPLICATES = 10_000  # the CLI default
MC_SIGMA = 0.25  # the CLI default
# The simulated MSEs of 10000 replicates are near normal around the exact
# value; |z| <= 6 fails a correct program with odds ~2e-9 per design.
PAPER_Z_MAX = 6.0
# The reported mc_se must lie within this factor of the exact SE.  With
# 10000 replicates the sample SE is within 8% of it even when each
# replicate's MSE is a scaled chi-square with one degree of freedom.
PAPER_SE_FACTOR = 1.25
# K beats D at large rates: eff must lie below 100 by more than 3 exact SE.
CLAIM_SE = 3.0
CLAIM_CELL = (30.0, 30.0)
CLAIM_1D_MIN_RATE = 30.0  # upper-curve rates at or above this

RATES = tuple(10.0**k for k in range(-6, 8))  # 1e-6 .. 1e7, log-spaced
PAIRS = tuple((r, r) for r in RATES) + tuple((r, 1.0) for r in RATES if r != 1.0)
EQUIDISTANT_N = (3, 10, 30, 100, 300, 1000)
# Left out: the 3x3 trigonometric condition number loses digits at these
# rates (see the FOUND line in CHANGES.md); the D searches still run there.
NINE_POINT_K_LEFT_OUT = ((1e-6, 1.0), (1e-5, 1.0))
KOPT_CURVE_POINTS = 5  # per axis
KOPT_CURVE_ARGS = ("--beta-min", "0.05", "--beta-max", "50", "--gamma-min", "0.05",
                   "--gamma-max", "50", "--points", str(KOPT_CURVE_POINTS), "--log")
SURFACE_GRID = 10
SURFACE_SAMPLE = ((0, 0), (3, 7), (9, 9))  # cells recomputed by the oracle

LARGE_REPLICATES = 64
# Few replicates make the MSE skewed (a chi-square with >= 64 degrees of
# freedom); |z| <= 8 fails a correct program with odds ~1e-8 per design.
LARGE_Z_MAX = 8.0
# 64 replicates estimate the SE loosely: with one-degree-of-freedom
# replicate MSEs, 2e5 simulated runs gave ratios from 0.30 to 3.4.
LARGE_SE_FACTOR = 4.0
LARGE_RATE_RANGE = (0.5, 20.0)
# (kind, size, count per round): grid side or process length.  Sorted by
# latency a round is 2 small items, 5 2000-point processes, then the 70x70,
# 80x80 and 4000-point items.  In four rounds the median falls in the
# middle of the 20 process items and p75 (ten items beyond) in the middle
# of the four 70x70 sheets, never at the edge of a group of sizes.
LARGE_ITEMS = (
    ("sheet", 40, 1), ("process", 1000, 1), ("process", 2000, 5),
    ("sheet", 70, 1), ("sheet", 80, 1), ("process", 4000, 1),
)


def known_fault(key: tuple) -> str | None:
    """Which of F1-F4 makes this design_search operation fail, if any."""
    cmd = key[0]
    if cmd == "three-point" and key[1] >= 1e7 and key[2] == "K":
        return "F1"
    if cmd == "nine-point" and key[1:] == (1e7, 1.0, "K"):
        return "F1"
    if cmd == "four-point":
        b, g = key[1], key[2]
        if (b == g and b >= 70.0) or (g == 1.0 and (b <= 1e-4 or b >= 100.0)):
            return "F2"
    if cmd == "two-point" and key[1] <= 1e-5:
        return "F3"
    if cmd == "equidistant" and (key[1] <= 1e-6 or (key[1] <= 1e-5 and key[2] >= 30)):
        return "F4"
    return None


@dataclass
class Op:
    key: tuple
    argv: list | None = None  # CLI operation
    call: object = None  # API operation: a no-argument callable


@dataclass
class Item:
    kind: str
    ops: list = field(default_factory=list)


# --- running operations -------------------------------------------------------


class Runner:
    """Runs operations; a tracer, when given, records each cli.main call."""

    def __init__(self, cli_main, tracer):
        self.cli_main = cli_main
        self.tracer = tracer

    def _invoke(self, argv):
        return self.cli_main.main(args=argv, prog_name="oudesign", standalone_mode=False)

    def run(self, op: Op):
        """Returns (exit code or exception name, output) for one operation."""
        if op.argv is None:
            try:
                return 0, op.call()
            except Exception as exc:  # reported as a failed operation
                return type(exc).__name__, str(exc)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                if self.tracer is None:
                    self._invoke(op.argv)
                else:
                    self.tracer.call("cli.main", self._invoke, (op.argv,), {})
                code = 0
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # reported as a failed operation
                code = type(exc).__name__
                err.write(str(exc))
        return code, out.getvalue() if code == 0 else err.getvalue()


def _cli(*args):
    return ["--format", "json", *args]


def _rows(text):
    doc = json.loads(text)
    return [dict(zip(doc["columns"], row)) for row in doc["rows"]]


# --- paper_mc -----------------------------------------------------------------------


def paper_mc(seed, api):
    """Table 1's two 5x5 blocks and both simulate-curve sweeps, one
    ``simulate eff`` command per cell or rate, at the CLI defaults."""
    ci = api.search.collapse_interval()
    lower = np.linspace(0.02, ci.lower - 0.01, 25)
    upper = np.geomspace(ci.upper + 0.05, 100.0, 25)
    common = ["--reps", str(MC_REPLICATES), "--seed", str(seed), "--sigma", repr(MC_SIGMA)]
    items = []
    for block in (TABLE1_SMALL, TABLE1_LARGE):
        for b in block:
            for g in block:
                argv = _cli("simulate", "eff", "--beta", repr(b), "--gamma", repr(g), *common)
                items.append(Item("eff2d", [Op(("eff2d", b, g), argv)]))
    rates = [float(b) for b in np.concatenate([lower, upper])]
    for pair in zip(rates[0::2], rates[1::2]):  # one 1D call is ~6 ms: two per item
        ops = [Op(("eff1d", b), _cli("simulate", "eff", "--beta", repr(b), *common)) for b in pair]
        items.append(Item("eff1d", ops))
    return items


class PaperChecker:
    def __init__(self):
        self._designs = {}

    def _moments(self, key):
        """Exact GLS MSE moments of the K candidates and of the D design."""
        if key not in self._designs:
            if key[0] == "eff2d":
                _, b, g = key
                cands = [oracle.gls_exact_2d(b, g, oracle.axis_points(x), oracle.axis_points(y), MC_SIGMA)
                         for x, y, _ in oracle.kopt_nine_point_candidates(b, g)]
                d_design = oracle.gls_exact_2d(b, g, [0.0, 0.5, 1.0], [0.0, 0.5, 1.0], MC_SIGMA)
            else:
                b = key[1]
                d, _ = oracle.kopt_three_point(b)
                cands = [oracle.gls_exact_1d(b, [0.0, d, 1.0], MC_SIGMA)]
                d_design = oracle.gls_exact_1d(b, [0.0, 0.5, 1.0], MC_SIGMA)
            self._designs[key] = (cands, d_design)
        return self._designs[key]

    def check(self, op, code, text):
        if code != 0:
            return oracle.Verdict(False, f"exit {code}: {text.strip()[:200]}")
        (row,) = _rows(text)
        cands, d_design = self._moments(op.key)
        checks, se = _mc_checks(row["mse_k"], row["mse_d"], row["eff_percent"], row["mc_se"],
                                cands, d_design, MC_REPLICATES, PAPER_Z_MAX, PAPER_SE_FACTOR)
        if _claims_k_beats_d(op.key):
            checks.append((f"K does not beat D: eff {row['eff_percent']:.2f} +- {se:.2f}",
                           row["eff_percent"] + CLAIM_SE * se < 100.0))
        return oracle.verdict(checks)


def _mc_checks(mse_k, mse_d, eff_percent, mc_se, k_cands, d_moments, reps, z_max, se_factor):
    """Checks of one efficiency report against the exact MSE moments of the
    D design and of the K candidates (the one nearest mse_k is used).
    Returns the (message, passed) pairs and the exact SE of eff."""
    z_k, k_moments = min(((oracle.mc_z(mse_k, m, reps), m) for m in k_cands), key=lambda p: abs(p[0]))
    z_d = oracle.mc_z(mse_d, d_moments, reps)
    se = oracle.eff_se(k_moments, d_moments, reps)
    checks = [
        (f"mse_k z={z_k:.2f}", abs(z_k) <= z_max),
        (f"mse_d z={z_d:.2f}", abs(z_d) <= z_max),
        ("eff != 100 mse_k/mse_d", math.isclose(100.0 * mse_k / mse_d, eff_percent, rel_tol=1e-9)),
        (f"mc_se {mc_se:.4g} vs exact {se:.4g}", 1.0 / se_factor <= mc_se / se <= se_factor),
    ]
    return checks, se


def _claims_k_beats_d(key):
    if key[0] == "eff2d":
        return key[1:] == CLAIM_CELL
    return key[1] >= CLAIM_1D_MIN_RATE


# --- design_search ------------------------------------------------------------


def design_search(seed, api):
    """Searches and limits on log-spaced rates 1e-6..1e7, no sampling.
    The inputs do not depend on the seed, so the faults F1-F4 fail the
    same operations on every run."""
    del seed, api
    items = []
    for r in RATES:
        items.append(Item("three-point", [
            Op(("three-point", r, c), _cli("optimize", "three-point", "--beta", repr(r), "--criterion", c))
            for c in "DK"]))
    for r in RATES:
        ops = [Op(("two-point", r), _cli("optimize", "two-point", "--beta", repr(r)))]
        ops += [Op(("equidistant", r, n), _cli("optimize", "equidistant", "--beta", repr(r), "--n", str(n)))
                for n in EQUIDISTANT_N]
        items.append(Item("two-point+equidistant", ops))
    for b, g in PAIRS:
        crits = "D" if (b, g) in NINE_POINT_K_LEFT_OUT else "DK"
        items.append(Item("nine-point", [
            Op(("nine-point", b, g, c),
               _cli("optimize", "nine-point", "--beta", repr(b), "--gamma", repr(g), "--criterion", c))
            for c in crits]))
    for b, g in PAIRS:
        items.append(Item("four-point", [
            Op(("four-point", b, g), _cli("optimize", "four-point", "--beta", repr(b), "--gamma", repr(g)))]))
    items.append(Item("kopt-curve", [
        Op(("kopt-curve",), _cli("asymptotics", "kopt-curve", "--family", "nine-point", *KOPT_CURVE_ARGS))]))
    for mode in ("both", "one"):
        items.append(Item("surface", [
            Op(("surface", mode), _cli("asymptotics", "surface", "--mode", mode,
                                      "--grid-size", str(SURFACE_GRID)))]))
    return items


class SearchChecker:
    def __init__(self):
        self.equidistant = oracle.EquidistantScan()

    def check(self, op, code, text):
        if code != 0:
            return oracle.Verdict(False, f"exit {code}: {text.strip()[:200]}")
        rows = _rows(text)
        key = op.key
        cmd = key[0]
        if cmd in ("three-point", "nine-point", "two-point", "four-point", "equidistant"):
            (row,) = rows
            if not row["converged"] and cmd != "equidistant":
                return oracle.Verdict(False, "search reports converged=false")
        if cmd == "three-point":
            return oracle.check_three_point(key[1], key[2], row["d_opt"], row["value"])
        if cmd == "nine-point":
            return oracle.check_nine_point(key[1], key[2], key[3], row["d_opt"], row["delta_opt"],
                                           row["value"])
        if cmd == "two-point":
            return oracle.check_two_point(key[1], row["d_opt"], row["value"])
        if cmd == "four-point":
            return oracle.check_four_point(key[1], key[2], row["d_opt"], row["delta_opt"], row["value"])
        if cmd == "equidistant":
            return oracle.check_equidistant(key[1], key[2], row["d_opt"], row["value"],
                                            row["converged"], self.equidistant)
        if cmd == "kopt-curve":
            bad = [] if len(rows) == KOPT_CURVE_POINTS**2 else [f"{len(rows)} rows"]
            for r in rows:
                v = oracle.check_nine_point(r["beta"], r["gamma"], "K", r["d_opt"], r["delta_opt"],
                                            r["k_value"])
                if not v:
                    bad.append(f"({r['beta']:.4g}, {r['gamma']:.4g}): {v.why}")
            return oracle.Verdict(not bad, "; ".join(bad))
        return self._check_surface(key[1], rows)

    @staticmethod
    def _check_surface(mode, rows):
        n = SURFACE_GRID
        if len(rows) != n * n:
            return oracle.Verdict(False, f"{len(rows)} rows")
        bad = []
        for i, j in SURFACE_SAMPLE:
            r = rows[i * n + j]
            v = oracle.check_surface_cell(r["beta"], r["gamma"], mode, r["estimate"])
            if not v:
                bad.append(f"cell ({i}, {j}): {v.why}")
        if mode == "both":
            # (beta, gamma) and (gamma, beta) are computed apart and may differ
            # by rounding: allow the oracle's error at the cell's finest gap.
            for i in range(n):
                for j in range(i):
                    r, a, b = rows[i * n + j], rows[i * n + j]["estimate"], rows[j * n + i]["estimate"]
                    if not oracle.matches(a, b, min(r["beta"], r["gamma"]) / oracle.SURFACE_N_SEQUENCE[-1]):
                        bad.append(f"axis swap ({i}, {j}): {a!r} != {b!r}")
        return oracle.Verdict(not bad, "; ".join(bad))


# --- large_design_mc -------------------------------------------------------------------


def _stretched(n):
    """Points clustered toward both ends of [0, 1] (cosine spacing)."""
    return tuple(0.5 - 0.5 * np.cos(np.pi * np.arange(n) / (n - 1)))


def _even(n):
    return tuple(np.arange(n) / (n - 1))


def large_design_mc(seed, api):
    """Large explicit design pairs (cosine-spaced against even), few
    replicates: ``run_efficiency_2d`` on grids up to 80x80 and
    ``run_efficiency_1d`` on processes up to 4000 points."""
    rng = np.random.default_rng(seed)
    lo, hi = np.log(LARGE_RATE_RANGE[0]), np.log(LARGE_RATE_RANGE[1])
    items = []
    for kind, size, count in LARGE_ITEMS:
        for k in range(count):
            if kind == "sheet":
                b, g = (float(np.exp(v)) for v in rng.uniform(lo, hi, 2))
                k_design = api.GridDesign2D(api.Design1D(_stretched(size)), api.Design1D(_stretched(size)))
                d_design = api.GridDesign2D(api.Design1D(_even(size)), api.Design1D(_even(size)))
                config = api.McConfig(replicates=LARGE_REPLICATES, seed=seed,
                                      design_pair=(k_design, d_design))
                params = api.SheetParams(b, g)
                call = _mc_call(api.mc, "run_efficiency_2d", params, config)
                key = ("sheet", size, k, b, g)
            else:
                b = float(np.exp(rng.uniform(lo, hi)))
                pair = (api.Design1D(_stretched(size)), api.Design1D(_even(size)))
                config = api.McConfig(replicates=LARGE_REPLICATES, seed=seed, design_pair=pair)
                call = _mc_call(api.mc, "run_efficiency_1d", api.OuParams(b), config)
                key = ("process", size, k, b)
            items.append(Item(kind, [Op(key, call=call)]))
    return items


def _mc_call(mc, name, params, config):
    # The function is looked up at call time, so a traced run sees its wrapper.
    return lambda: getattr(mc, name)(params, config)


class LargeChecker:
    def check(self, op, code, report):
        if code != 0:
            return oracle.Verdict(False, f"{code}: {report}")
        kind, size, _, *rates = op.key
        if kind == "sheet":
            b, g = rates
            mk = oracle.gls_exact_2d(b, g, _stretched(size), _stretched(size), MC_SIGMA)
            md = oracle.gls_exact_2d(b, g, _even(size), _even(size), MC_SIGMA)
        else:
            (b,) = rates
            mk = oracle.gls_exact_1d(b, _stretched(size), MC_SIGMA)
            md = oracle.gls_exact_1d(b, _even(size), MC_SIGMA)
        checks, _ = _mc_checks(report.mse_k, report.mse_d, report.eff_percent,
                               report.mc_standard_error, [mk], md, LARGE_REPLICATES,
                               LARGE_Z_MAX, LARGE_SE_FACTOR)
        return oracle.verdict(checks)


@dataclass(frozen=True)
class Workload:
    build: object  # (seed, api) -> list[Item]
    checker: type
    tail_percentile: int
    min_rounds: int


# The tail percentile is the highest one with at least ten items beyond it
# in the smallest run (min_rounds rounds).
WORKLOADS = {
    "paper_mc": Workload(paper_mc, PaperChecker, 95, 3),  # 75 items per round
    "design_search": Workload(design_search, SearchChecker, 98, 6),  # 85 items per round
    "large_design_mc": Workload(large_design_mc, LargeChecker, 75, 4),  # 10 items per round
}
