"""The adaptive sample-size mechanism and fixed-size baseline runs.

A run bootstraps at m0 samples from the zero vector, then repeatedly
doubles the active training prefix (clamped at N), warm-starting each
stage at the previous stage's exit iterate.  Stages stop either on the
gradient-norm rule ||grad R_n|| <= sqrt(2c) V_n, which certifies
suboptimality within statistical accuracy, or after the closed-form
iteration count for the chosen method.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

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


@dataclass(frozen=True)
class TraceEvent:
    grad_evals: int
    stage_n: int
    risk_value: float      # full-set risk R_N at the iterate
    grad_norm: float       # current-stage gradient norm
    test_error: float | None = None


@dataclass
class Trace:
    """Append-only event log of one run; meta echoes the run configuration."""

    events: list[TraceEvent] = field(default_factory=list)
    meta: dict = field(default_factory=dict)

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


class _Recorder:
    """Builds the trace: full-set risk, stage gradient norm, optional test error."""

    def __init__(self, config: RunConfig, spec: RiskSpec, train: Dataset,
                 test: Dataset | None):
        self.spec = spec
        self.full_view = train.prefix(config.N)
        self.test = test
        self.eval_every = config.eval_every
        self.trace = Trace(meta={
            "method": config.method,
            "adaptive": config.adaptive,
            "m0": config.m0,
            "N": config.N,
            "budget_mode": config.budget_mode,
            "seed": config.seed,
            "eval_every": config.eval_every,
            "pass_cap": config.pass_cap,
            "loss": spec.loss,
            "c": spec.c,
            "alpha": spec.alpha,
            "gamma": spec.gamma,
            "M": spec.M,
            "dataset": train.name,
        })

    def record(self, state: SolverState, at_w: Measurement) -> None:
        n = at_w.view.count
        # on the full set the stage risk is R_N itself, bit for bit
        risk = at_w.risk if n == self.full_view.count else \
            erm.risk_value(self.spec, state.w, self.full_view)
        err = None
        if self.test is not None and self.test.n_samples:
            err = erm.test_error(self.spec.loss, state.w, self.test)
        self.trace.append(TraceEvent(state.grad_evals, n, risk, at_w.grad_norm, err))


def _theoretical_iterations(method: str, spec: RiskSpec, n: int, wstar: WstarEstimate) -> int:
    if method == "agd":
        return schedule.iterations_agd(spec, n, wstar)
    if method == "svrg":
        return schedule.iterations_svrg(spec, wstar)
    return schedule.iterations_generic(schedule.gd_contraction_factor(spec, n), spec, wstar)


def _stage_budget(config: RunConfig, spec: RiskSpec, n: int,
                  bootstrap: bool = False) -> StepBudget:
    # the bootstrap stage always uses the threshold rule: it must establish
    # the entry certificate the later fixed-count stages rely on
    if bootstrap or config.budget_mode == "until_threshold":
        return StepBudget(mode="until_threshold", threshold=schedule.stop_threshold(spec, n))
    wstar = WstarEstimate(config.wstar_norm_sq)
    return StepBudget(mode="fixed_iterations",
                      iterations=_theoretical_iterations(config.method, spec, n, wstar))


def _run_stage(state: SolverState, config: RunConfig, spec: RiskSpec, view,
               budget: StepBudget, rec: _Recorder) -> tuple[SolverState, StageReport]:
    def cb(st: SolverState, it: int, at_w: Measurement) -> None:
        if it % rec.eval_every == 0:
            rec.record(st, at_w)

    result = solvers.solve(state, spec, view, budget, callback=cb)
    rec.record(result.state, result.exit)
    report = StageReport(
        n=view.count,
        iterations=result.iterations,
        grad_evals_at_exit=result.state.grad_evals,
        exit_grad_norm=result.exit.grad_norm,
        threshold=schedule.stop_threshold(spec, view.count),
        budget_exhausted=result.budget_exhausted,
    )
    return result.state, report


def bootstrap(config: RunConfig, spec: RiskSpec, train: Dataset,
              rec: _Recorder | None = None) -> tuple[SolverState, StageReport]:
    """Solve the m0-stage from the zero vector until its gradient-norm certificate holds."""
    rec = rec or _Recorder(config, spec, train, None)
    state = solvers.init_state(config.method, train.dim, config.seed)
    view = train.prefix(config.m0)
    budget = _stage_budget(config, spec, config.m0, bootstrap=True)
    return _run_stage(state, config, spec, view, budget, rec)


def adaptive_run(
    config: RunConfig,
    spec: RiskSpec,
    train: Dataset,
    test: Dataset | None = None,
    on_stage_exit: Callable[[SolverState, StageReport], None] | None = None,
) -> tuple[np.ndarray, Trace, list[StageReport]]:
    """Run the doubling scheme m0 -> 2 m0 -> ... -> N with warm starts.

    Every distinct sample size is processed exactly once; the last stage is
    clamped to N.  `on_stage_exit` observes each stage's exit state.
    """
    if not config.adaptive:
        raise ValueError("adaptive_run requires config.adaptive")
    if train.n_samples < config.N:
        raise ValueError(f"training set has {train.n_samples} samples, config.N={config.N}")
    rec = _Recorder(config, spec, train, test)

    state, report = bootstrap(config, spec, train, rec)
    reports = [report]
    if on_stage_exit is not None:
        on_stage_exit(state, report)

    n = config.m0
    while n < config.N:
        n = schedule.next_sample_size(n, config.N)
        state = solvers.reset_aux(state)  # warm start: aux sequences re-anchored at w
        view = train.prefix(n)
        budget = _stage_budget(config, spec, n)
        state, report = _run_stage(state, config, spec, view, budget, rec)
        reports.append(report)
        if on_stage_exit is not None:
            on_stage_exit(state, report)
    return state.w, rec.trace, reports


def fixed_run(config: RunConfig, spec: RiskSpec, train: Dataset,
              test: Dataset | None = None) -> tuple[np.ndarray, Trace]:
    """Baseline: solve the full-size risk from zero until threshold or the pass cap."""
    if config.adaptive:
        raise ValueError("fixed_run requires a non-adaptive config")
    if train.n_samples < config.N:
        raise ValueError(f"training set has {train.n_samples} samples, config.N={config.N}")
    rec = _Recorder(config, spec, train, test)
    # one GD/AGD iteration costs one pass; one SVRG epoch costs two
    cap = config.pass_cap if config.method in ("gd", "agd") else config.pass_cap // 2
    if cap < 1:
        return np.zeros(train.dim), rec.trace
    state = solvers.init_state(config.method, train.dim, config.seed)
    view = train.prefix(config.N)
    budget = StepBudget(mode="until_threshold",
                        threshold=schedule.stop_threshold(spec, config.N),
                        max_iterations=cap)
    state, _ = _run_stage(state, config, spec, view, budget, rec)
    return state.w, rec.trace
