"""Measurement utilities: reference optima, comparisons, and the CSV and table text.

Suboptimality is always measured against a high-accuracy reference
minimizer computed once per risk: damped Newton-CG to a measured gradient
2-norm at most the tolerance, started from the iterate it judges where a
caller holds one, else from zero.  It shares no step rule with the
GD/AGD/SVRG solvers it judges, only the risk oracle `erm.Measurement`, which
is also what it returns.  Its conjugate gradients are the package's own,
`conjugate_gradients`, which takes scipy's `cg` steps bit for bit, so no
command imports `scipy.sparse.linalg`: that import alone would raise the
resident peak after `import adasize.cli` from about 58 to 66 MB (numpy
2.4, scipy 1.17, one BLAS thread).  The saving needs a scipy whose
`scipy.sparse` loads `linalg` on first use, as 1.17 does; one that imports
it with `scipy.sparse` pays the 8 MB whatever this module does.  `run`
and `compare` start it from the judged run's exit measurement, so the
margins and gradient there are the run's and are not computed again.  One
effective pass is N per-sample gradient evaluations where N is the full
training-set size, so a run's work in passes is its grad_evals / N.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from . import driver, erm, schedule, solvers
from .data import Dataset
from .erm import RiskSpec

TRACE_COLUMNS = ("effective_passes", "grad_evals", "stage_n", "suboptimality", "grad_norm",
                 "test_error")
SUMMARY_COLUMNS = ("method", "adaptive", "passes_to_VN", "passes_to_min_test_error",
                   "min_test_error", "speedup_vs_fixed")
NEWTON_CG_RTOL = 1e-3
NEWTON_SIGMA = 1e-4
NEWTON_MIN_STEP = 2.0**-20
NEWTON_MAX_STEPS = 100


def conjugate_gradients(matvec: Callable[[np.ndarray], np.ndarray], b: np.ndarray,
                        rtol: float) -> np.ndarray:
    """x with ||b - A x|| < rtol ||b|| by conjugate gradients from zero; matvec is v -> A v.

    The steps of scipy's `cg(A, b, rtol=rtol)` with no preconditioner, in
    its order of operations, so x has its bits: zeros where ||b|| = 0, the
    residual test before each step, p updated in place, and at most
    10 dim steps.  rho stays a numpy scalar, as there, so a zero p.q gives
    nan with a warning, as there, and not ZeroDivisionError.
    """
    x = np.zeros(b.shape[0])
    b_norm = float(np.linalg.norm(b))
    if b_norm == 0.0:
        return x
    atol = rtol * b_norm
    r, p, rho_prev = b.copy(), None, None
    for _ in range(10 * b.shape[0]):
        rho = np.dot(r, r)
        if math.sqrt(rho) < atol:  # np.linalg.norm(r), from the same dot product
            break
        if p is None:
            p = r.copy()
        else:
            p *= rho / rho_prev
            p += r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    return x


def reference_optimum(spec: RiskSpec, view: Dataset, tolerance: float = 1e-10,
                      start: np.ndarray | erm.Measurement | None = None) -> erm.Measurement:
    """The measurement at a high-accuracy minimizer w* of the view's risk: the suboptimality oracle.

    Newton's method for grad R_n = 0 from a copy of `start` (zero when None),
    or from `start` itself where it is a measurement on the view under spec:
    each step solves H d = -grad R_n by conjugate gradients on Hessian-vector
    products, then halves t from 1 until
    ||grad R_n(w + t d)||^2 <= (1 - 2 NEWTON_SIGMA t) ||grad R_n(w)||^2.
    The steps never read R_n, which is rounding noise near the optimum; it is
    computed once, at w*, and each Hessian takes the margins of the accepted
    trial's measurement.  The returned `.grad_norm` is <= tolerance, so
    R_n(w) - `.risk` is accurate to tolerance^2 / (2 c V_n) for any w;
    otherwise (t below NEWTON_MIN_STEP, or NEWTON_MAX_STEPS steps) BudgetError.
    A caller that judges an iterate passes it as `start`, which saves Newton
    steps near w*, and passes its measurement where it holds one, which
    saves the first margins, loss coefficients and gradient too.  Only the
    start point comes from the judged run: the steps and the stop test are
    the oracle's own, so the result does not depend on the start beyond
    tolerance^2 / (2 c V_n) in `.risk`.
    """
    if tolerance <= 0:
        raise ValueError(f"tolerance must be positive, got {tolerance}")
    if isinstance(start, erm.Measurement):
        if start.view is not view or start.spec != spec:
            raise ValueError("a start measurement must be on the view, under spec")
        at = start
    else:
        w = np.zeros(view.dim) if start is None else np.array(start, dtype=float)
        if w.shape != (view.dim,):
            raise ValueError(f"start must have shape ({view.dim},), got {w.shape}")
        at = erm.Measurement(spec, w, view)
    for _ in range(NEWTON_MAX_STEPS):
        if at.grad_norm <= tolerance:
            break
        d = conjugate_gradients(erm.risk_hessian(at), -at.grad, NEWTON_CG_RTOL)
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
    return at


def csv_text(header: Sequence[str], rows: Iterable[Sequence[str]]) -> str:
    """The header, then each row, as lines of comma-separated cells."""
    return "".join(",".join(cells) + "\n" for cells in (header, *rows))


def aligned_text(rows: list[Sequence[str]], right: bool = False) -> str:
    """Rows of cells in columns two spaces apart, padded to the widest cell on the left
    where `right`, else on the right; no line ends in a blank."""
    widths = [max(map(len, column)) for column in zip(*rows)]
    pad = str.rjust if right else str.ljust
    return "".join("  ".join(pad(cell, w) for cell, w in zip(row, widths)).rstrip() + "\n"
                   for row in rows)


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _suboptimality(ev: driver.TraceEvent, risk_star: float) -> float:
    """R_N at the event less the reference risk, clamped at 0."""
    return max(0.0, ev.risk_value - risk_star)


def trace_csv_text(trace: driver.Trace, risk_star: float) -> str:
    """The trace as CSV; suboptimality is measured against risk_star and clamped at 0."""
    N = trace.N
    return csv_text(TRACE_COLUMNS, (
        [_fmt(ev.grad_evals / N), str(ev.grad_evals), str(ev.stage_n),
         _fmt(_suboptimality(ev, risk_star)), _fmt(ev.grad_norm),
         "" if ev.test_error is None else _fmt(ev.test_error)]
        for ev in trace.events))


@dataclass
class CompareRow:
    method: str
    adaptive: bool
    passes_to_target: float | None = None      # first time suboptimality <= V_N
    passes_to_min_test_error: float | None = None
    min_test_error: float | None = None
    speedup_vs_fixed: float | None = None
    # "diverged", or "exhausted" (an adaptive stage reached solvers.MAX_ITERATIONS above
    # its threshold); a failed row has no numbers
    failure: str | None = None


def _scan_trace(trace: driver.Trace, risk_star: float, target: float, N: int):
    passes_to_target = None
    best_err = None
    passes_at_best = None
    for ev in trace.events:
        if passes_to_target is None and _suboptimality(ev, risk_star) <= target:
            passes_to_target = ev.grad_evals / N
        if ev.test_error is not None and (best_err is None or ev.test_error < best_err):
            best_err = ev.test_error
            passes_at_best = ev.grad_evals / N
    return passes_to_target, passes_at_best, best_err


def compare_matrix(configs: list, spec: RiskSpec, train: Dataset,
                   test: Dataset | None = None):
    """Run every config on all N training samples and summarize time-to-target per method.

    Rows for adaptive configs carry the speedup ratio against the fixed run
    of the same method when both reached the target.  Returns the rows, the
    (config, trace) pairs (trace None for diverged or exhausted runs) and the
    `reference_optimum` measurement of the full-set risk that suboptimality
    was measured against.  That reference is solved once, after the runs,
    from the exit measurement of the last run that finished (from zero when
    none did).
    """
    N = train.n_samples
    rows = []
    traces = []
    start = None
    for cfg in configs:
        row, trace = CompareRow(method=cfg.method, adaptive=cfg.adaptive), None
        try:
            if cfg.adaptive:
                start, trace, _ = driver.adaptive_run(cfg, spec, train, test)
            else:
                start, trace = driver.fixed_run(cfg, spec, train, test)
        except solvers.DivergenceError:
            row.failure = "diverged"
        except solvers.BudgetError:
            row.failure = "exhausted"
        rows.append(row)
        traces.append((cfg, trace))

    ref = reference_optimum(spec, train, start=start)
    target = schedule.statistical_accuracy(spec, N)
    for row, (_, trace) in zip(rows, traces):
        if trace is not None:
            row.passes_to_target, row.passes_to_min_test_error, row.min_test_error = \
                _scan_trace(trace, ref.risk, target, N)

    fixed_passes = {
        r.method: r.passes_to_target for r in rows if not r.adaptive
    }
    for row in rows:
        if row.adaptive and row.passes_to_target is not None:
            base = fixed_passes.get(row.method)
            if base is not None:
                row.speedup_vs_fixed = (
                    math.inf if row.passes_to_target == 0 else base / row.passes_to_target)
    return rows, traces, ref


def _summary_cells(r: CompareRow, fmt: str, speedup_fmt: str) -> list[str]:
    """One summary row's cells, numbers in the given format specs, empty where unknown."""
    head = [r.method, str(r.adaptive).lower()]
    if r.failure:
        return head + [r.failure, "", "", ""]
    values = ((r.passes_to_target, fmt), (r.passes_to_min_test_error, fmt),
              (r.min_test_error, fmt), (r.speedup_vs_fixed, speedup_fmt))
    return head + ["" if v is None else format(v, f) for v, f in values]


def format_summary_table(rows: list[CompareRow]) -> str:
    return aligned_text([SUMMARY_COLUMNS, *(_summary_cells(r, ".4g", ".3g") for r in rows)])


def summary_csv_text(rows: list[CompareRow]) -> str:
    return csv_text(SUMMARY_COLUMNS, (_summary_cells(r, ".17g", ".17g") for r in rows))
