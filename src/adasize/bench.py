"""Measurement utilities: reference optima, effective passes, trace CSVs, comparisons.

Suboptimality is always measured against a high-accuracy reference
minimizer computed once per risk: damped Newton-CG from zero, to a measured
gradient 2-norm at most the tolerance.  It shares no step rule with the
GD/AGD/SVRG solvers it judges, only the risk oracle `erm.Measurement`.  One
effective pass is N per-sample gradient evaluations where N is the full
training-set size.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np
from scipy.sparse import linalg as sparse_linalg

from . import driver, erm, schedule, solvers
from .data import Dataset
from .erm import RiskSpec

TRACE_CSV_HEADER = "effective_passes,grad_evals,stage_n,suboptimality,grad_norm,test_error"
SUMMARY_COLUMNS = ("method", "adaptive", "passes_to_VN", "passes_to_min_test_error",
                   "min_test_error", "speedup_vs_fixed")
SUMMARY_CSV_HEADER = ",".join(SUMMARY_COLUMNS)
NEWTON_CG_RTOL = 1e-3
NEWTON_SIGMA = 1e-4
NEWTON_MIN_STEP = 2.0**-20
NEWTON_MAX_STEPS = 100


@dataclass(frozen=True)
class ReferenceOptimum:
    n: int
    w_star_n: np.ndarray
    risk_star: float
    grad_norm_at_star: float


def reference_optimum(spec: RiskSpec, view: Dataset,
                      tolerance: float = 1e-10) -> ReferenceOptimum:
    """High-accuracy minimizer of the view's risk, used as the suboptimality oracle.

    Newton's method for grad R_n = 0 from zero: each step solves H d = -grad R_n
    by conjugate gradients on Hessian-vector products, then halves t from 1
    until ||grad R_n(w + t d)||^2 <= (1 - 2 NEWTON_SIGMA t) ||grad R_n(w)||^2.
    The steps never read R_n, which is rounding noise near the optimum; it is
    computed once, at w_star_n, and each Hessian takes the margins of the
    accepted trial's measurement.  The 2-norm grad_norm_at_star measured at
    w_star_n is <= tolerance, so R_n(w) - risk_star is accurate to
    tolerance^2 / (2 c V_n) for any w; otherwise (t below NEWTON_MIN_STEP, or
    NEWTON_MAX_STEPS steps) BudgetError.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    at = erm.Measurement(spec, np.zeros(view.dim), view)
    for _ in range(NEWTON_MAX_STEPS):
        if at.grad_norm <= tolerance:
            break
        hess = sparse_linalg.LinearOperator((view.dim, view.dim), dtype=float,
                                            matvec=erm.risk_hessian(at))
        d = sparse_linalg.cg(hess, -at.grad, rtol=NEWTON_CG_RTOL)[0]
        t = 1.0
        while t >= NEWTON_MIN_STEP:
            trial = erm.Measurement(spec, at.w + t * d, view)
            if trial.grad_norm ** 2 <= (1.0 - 2.0 * NEWTON_SIGMA * t) * at.grad_norm**2:
                break
            t /= 2.0
        else:  # no step down to the floor lowers the merit: rounding noise
            break
        at = trial
    if at.grad_norm > tolerance:
        raise solvers.BudgetError(
            f"reference solve at n={view.n_samples} did not reach tolerance {tolerance}: "
            f"||grad R_n|| = {at.grad_norm}")
    return ReferenceOptimum(n=view.n_samples, w_star_n=at.w, risk_star=at.risk,
                            grad_norm_at_star=at.grad_norm)


def effective_passes(grad_evals: int, N: int) -> float:
    """Work in units of full-set passes: grad_evals / N."""
    if N < 1:
        raise ValueError(f"N must be >= 1, got {N}")
    return grad_evals / N


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def trace_csv_text(trace: driver.Trace, ref: ReferenceOptimum) -> str:
    """The trace as CSV; suboptimality is measured against ref and clamped at 0."""
    N = trace.N
    if ref.n != N:
        raise ValueError(f"reference optimum is for n={ref.n}, trace final stage is N={N}")
    out = io.StringIO()
    out.write(TRACE_CSV_HEADER + "\n")
    for ev in trace.events:
        sub = max(0.0, ev.risk_value - ref.risk_star)
        cells = [
            _fmt(effective_passes(ev.grad_evals, N)),
            str(ev.grad_evals),
            str(ev.stage_n),
            _fmt(sub),
            _fmt(ev.grad_norm),
            "" if ev.test_error is None else _fmt(ev.test_error),
        ]
        out.write(",".join(cells) + "\n")
    return out.getvalue()


@dataclass
class CompareRow:
    method: str
    adaptive: bool
    passes_to_target: float | None = None      # first time suboptimality <= V_N
    passes_to_min_test_error: float | None = None
    min_test_error: float | None = None
    speedup_vs_fixed: float | None = None
    diverged: bool = False
    exhausted: bool = False  # an adaptive stage reached solvers.MAX_ITERATIONS above its threshold


def _scan_trace(trace: driver.Trace, ref: ReferenceOptimum, target: float, N: int):
    passes_to_target = None
    best_err = None
    passes_at_best = None
    for ev in trace.events:
        sub = max(0.0, ev.risk_value - ref.risk_star)
        if passes_to_target is None and sub <= target:
            passes_to_target = effective_passes(ev.grad_evals, N)
        if ev.test_error is not None and (best_err is None or ev.test_error < best_err):
            best_err = ev.test_error
            passes_at_best = effective_passes(ev.grad_evals, N)
    return passes_to_target, passes_at_best, best_err


def compare_matrix(configs: list, spec: RiskSpec, train: Dataset,
                   test: Dataset | None = None):
    """Run every config on all N training samples and summarize time-to-target per method.

    Rows for adaptive configs carry the speedup ratio against the fixed run
    of the same method when both reached the target.  Returns the rows, the
    (config, trace) pairs (trace None for diverged or exhausted runs) and the reference
    optimum of the full-set risk that suboptimality was measured against.
    """
    N = train.n_samples
    ref = reference_optimum(spec, train)
    target = schedule.statistical_accuracy(spec, N)

    rows = []
    traces = []
    for cfg in configs:
        row, trace = CompareRow(method=cfg.method, adaptive=cfg.adaptive), None
        try:
            if cfg.adaptive:
                _, trace, _ = driver.adaptive_run(cfg, spec, train, test)
            else:
                _, trace = driver.fixed_run(cfg, spec, train, test)
        except solvers.DivergenceError:
            row.diverged = True
        except solvers.BudgetError:
            row.exhausted = True
        else:
            row.passes_to_target, row.passes_to_min_test_error, row.min_test_error = \
                _scan_trace(trace, ref, target, N)
        rows.append(row)
        traces.append((cfg, trace))

    fixed_passes = {
        r.method: r.passes_to_target for r in rows if not r.adaptive and not r.diverged
    }
    for row in rows:
        if row.adaptive and not row.diverged and row.passes_to_target is not None:
            base = fixed_passes.get(row.method)
            if base is not None:
                row.speedup_vs_fixed = (
                    math.inf if row.passes_to_target == 0 else base / row.passes_to_target)
    return rows, traces, ref


def _summary_cells(r: CompareRow, fmt: str, speedup_fmt: str) -> list[str]:
    """One summary row's cells, numbers in the given format specs, empty where unknown."""
    head = [r.method, str(r.adaptive).lower()]
    if r.diverged or r.exhausted:
        return head + ["diverged" if r.diverged else "exhausted", "", "", ""]
    values = ((r.passes_to_target, fmt), (r.passes_to_min_test_error, fmt),
              (r.min_test_error, fmt), (r.speedup_vs_fixed, speedup_fmt))
    return head + ["" if v is None else format(v, f) for v, f in values]


def format_summary_table(rows: list[CompareRow]) -> str:
    table = [list(SUMMARY_COLUMNS)] + [_summary_cells(r, ".4g", ".3g") for r in rows]
    widths = [max(len(row[i]) for row in table) for i in range(len(SUMMARY_COLUMNS))]
    lines = ["  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() for row in table]
    return "\n".join(lines) + "\n"


def summary_csv_text(rows: list[CompareRow]) -> str:
    lines = [SUMMARY_CSV_HEADER] + [",".join(_summary_cells(r, ".17g", ".17g")) for r in rows]
    return "\n".join(lines) + "\n"
