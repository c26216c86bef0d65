"""The adaptive sample-size mechanism and fixed-size baseline runs.

Both runs walk one stage loop over a list of sample sizes: m0, 2 m0, 4 m0,
..., N (the last clamped at N) for an adaptive run, [N] for a fixed run.
The first stage starts from the zero vector; each later stage warm-starts
at the previous stage's exit iterate.  Stages stop either on the
gradient-norm rule ||grad R_n|| <= sqrt(2c) V_n, which certifies
suboptimality within statistical accuracy, or after the closed-form
iteration count for the chosen method.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import erm, schedule, solvers
from .data import Dataset
from .erm import RiskSpec
from .schedule import WstarEstimate
from .solvers import Measurement, SolverState, StepBudget

BUDGET_MODES = ("until_threshold", "theoretical_s_n")


@dataclass
class RunConfig:
    method: str = "agd"
    adaptive: bool = True
    m0: int = 400
    N: int = 0
    budget_mode: str = "until_threshold"
    seed: int = 0
    eval_every: int = 1
    pass_cap: int = 100            # fixed runs stop after this many effective passes
    wstar_norm_sq: float = 0.0     # feeds the theoretical iteration counts

    def __post_init__(self):
        if self.method not in solvers.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget mode {self.budget_mode!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.N and not 1 <= self.m0 <= self.N:
            raise ValueError(f"need 1 <= m0 <= N, got m0={self.m0}, N={self.N}")
        if self.pass_cap < 0:
            raise ValueError(f"pass_cap must be >= 0, got {self.pass_cap}")
        WstarEstimate(self.wstar_norm_sq)  # its range check, whatever the budget mode


@dataclass(frozen=True)
class TraceEvent:
    grad_evals: int
    stage_n: int
    risk_value: float      # full-set risk R_N at the iterate
    grad_norm: float       # current-stage gradient norm
    test_error: float | None = None


@dataclass
class Trace:
    """Append-only event log of one run whose final stage has N samples."""

    N: int
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        # keep grad_evals strictly increasing; measurements at an unchanged
        # counter supersede the previous event at that counter
        if self.events and event.grad_evals == self.events[-1].grad_evals:
            self.events[-1] = event
            return
        if self.events and event.grad_evals < self.events[-1].grad_evals:
            raise ValueError("trace events must have nondecreasing grad_evals")
        self.events.append(event)


@dataclass(frozen=True)
class StageReport:
    n: int
    iterations: int
    grad_evals_at_exit: int
    exit_grad_norm: float
    threshold: float
    budget_exhausted: bool
    w: np.ndarray = field(repr=False, compare=False)  # exit iterate


class _Recorder:
    """Builds the trace: full-set risk, stage gradient norm, optional test error."""

    def __init__(self, config: RunConfig, spec: RiskSpec, train: Dataset,
                 test: Dataset | None):
        self.spec = spec
        self.full_view = train.prefix(config.N)
        self.test = test
        self.eval_every = config.eval_every
        self.trace = Trace(config.N)

    def record(self, state: SolverState, at_w: Measurement) -> None:
        n = at_w.view.count
        # on the full set the stage risk is R_N itself, bit for bit
        risk = at_w.risk if n == self.full_view.count else \
            erm.risk_value(self.spec, state.w, self.full_view)
        err = None
        if self.test is not None and self.test.n_samples:
            err = erm.test_error(self.spec.loss, state.w, self.test)
        self.trace.append(TraceEvent(state.grad_evals, n, risk, at_w.grad_norm, err))


def _theoretical_iterations(config: RunConfig, spec: RiskSpec, n: int) -> int:
    wstar = WstarEstimate(config.wstar_norm_sq)
    if config.method == "agd":
        return schedule.iterations_agd(spec, n, wstar)
    if config.method == "svrg":
        return schedule.iterations_svrg(spec, wstar)
    return schedule.iterations_generic(schedule.gd_contraction_factor(spec, n), spec, wstar)


def _run_stages(config: RunConfig, spec: RiskSpec, train: Dataset, test: Dataset | None,
                sizes: list[int], max_iterations: int = StepBudget.max_iterations
                ) -> tuple[np.ndarray, Trace, list[StageReport]]:
    """Solve the stages in order, the first from zero, each later one from the last exit.

    The first stage always uses the threshold rule: it must establish the
    entry certificate the later fixed-count stages rely on.  With no stages
    the zero vector and an empty trace come back.
    """
    if train.n_samples < config.N:
        raise ValueError(f"training set has {train.n_samples} samples, config.N={config.N}")
    rec = _Recorder(config, spec, train, test)

    def cb(st: SolverState, it: int, at_w: Measurement) -> None:
        if it % rec.eval_every == 0:
            rec.record(st, at_w)

    state = solvers.init_state(config.method, train.dim, config.seed)
    reports = []
    for n in sizes:
        state = solvers.reset_aux(state)  # warm start: aux sequences re-anchored at w
        threshold = schedule.stop_threshold(spec, n)
        if reports and config.budget_mode == "theoretical_s_n":
            budget = StepBudget(mode="fixed_iterations", max_iterations=max_iterations,
                                iterations=_theoretical_iterations(config, spec, n))
        else:
            budget = StepBudget(mode="until_threshold", threshold=threshold,
                                max_iterations=max_iterations)
        result = solvers.solve(state, spec, train.prefix(n), budget, callback=cb)
        state = result.state
        rec.record(state, result.exit)
        reports.append(StageReport(
            n=n,
            iterations=result.iterations,
            grad_evals_at_exit=state.grad_evals,
            exit_grad_norm=result.exit.grad_norm,
            threshold=threshold,
            budget_exhausted=result.budget_exhausted,
            w=state.w,
        ))
    return state.w, rec.trace, reports


def adaptive_run(config: RunConfig, spec: RiskSpec, train: Dataset,
                 test: Dataset | None = None) -> tuple[np.ndarray, Trace, list[StageReport]]:
    """Run the doubling scheme m0 -> 2 m0 -> ... -> N with warm starts.

    Every distinct sample size is processed exactly once; the last stage is
    clamped to N.  Returns the final iterate, the trace and one report per
    stage, which carries that stage's exit iterate.
    """
    if not config.adaptive:
        raise ValueError("adaptive_run requires config.adaptive")
    return _run_stages(config, spec, train, test, schedule.stage_sizes(config.m0, config.N))


def fixed_run(config: RunConfig, spec: RiskSpec, train: Dataset,
              test: Dataset | None = None) -> tuple[np.ndarray, Trace]:
    """Baseline: the stage loop over the single size N, until threshold or the pass cap."""
    if config.adaptive:
        raise ValueError("fixed_run requires a non-adaptive config")
    # one GD/AGD iteration costs one pass; one SVRG epoch costs two
    cap = config.pass_cap if config.method in ("gd", "agd") else config.pass_cap // 2
    w, trace, _ = _run_stages(config, spec, train, test, [config.N] if cap >= 1 else [], cap)
    return w, trace
