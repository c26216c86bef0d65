"""The adaptive sample-size mechanism and fixed-size baseline runs.

Both runs walk one stage loop over a list of sample sizes: m0, 2 m0, 4 m0,
..., N (the last clamped at N) for an adaptive run, [N] for a fixed run,
where N is the size of the training set a run is given.  The first stage
starts from the zero vector; each later stage warm-starts at the previous
stage's exit iterate.  Stages stop either on the gradient-norm rule
||grad R_n|| <= sqrt(2c) V_n, which certifies suboptimality within
statistical accuracy (budget "threshold"), or, after the first stage, after
the closed-form iteration count for the chosen method (budget "theory").
An adaptive stage that does not meet its threshold within
solvers.MAX_ITERATIONS steps raises `solvers.solve`'s BudgetError; a fixed
run gives solve its pass cap as well, and stops there.

The trace records every eval_every-th iterate of a stage and its exit, each
once: the stage measurement's margins give R_N with one more product over
rows n..N only.  Each iterate's rows are multiplied once: the recorder's
full-set margins at a stage's exit give the next stage its entry
measurement, and a run returns its exit measurement, from which a
reference solve can start.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import erm, schedule, solvers
from .data import Dataset, row_block
from .erm import Measurement, RiskSpec
from .solvers import SolverState

BUDGET_MODES = ("threshold", "theory")


@dataclass
class RunConfig:
    method: str = "agd"
    adaptive: bool = True
    m0: int = 400
    budget_mode: str = "threshold"  # or "theory": closed-form counts after the first stage
    seed: int = 0
    eval_every: int = 1
    pass_cap: int = 100            # fixed runs stop after this many effective passes

    def __post_init__(self):
        if self.method not in solvers.METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.budget_mode not in BUDGET_MODES:
            raise ValueError(f"unknown budget mode {self.budget_mode!r}")
        if self.eval_every < 1:
            raise ValueError(f"eval_every must be >= 1, got {self.eval_every}")
        if self.m0 < 1:  # m0 <= N is checked when a run knows its training set
            raise ValueError(f"m0 must be >= 1, got {self.m0}")
        if self.pass_cap < 0:
            raise ValueError(f"pass_cap must be >= 0, got {self.pass_cap}")


@dataclass(frozen=True)
class TraceEvent:
    grad_evals: int
    stage_n: int
    risk_value: float      # full-set risk R_N at the iterate
    grad_norm: float       # current-stage gradient norm
    test_error: float | None = None


@dataclass
class Trace:
    """Event log of one run whose final stage has N samples, in strictly increasing grad_evals."""

    N: int
    events: list[TraceEvent] = field(default_factory=list)

    def append(self, event: TraceEvent) -> None:
        if self.events and event.grad_evals <= self.events[-1].grad_evals:
            raise ValueError("trace events must have strictly increasing grad_evals")
        self.events.append(event)


@dataclass(frozen=True)
class StageReport:
    n: int
    iterations: int
    grad_evals_at_exit: int
    threshold: float
    exit: Measurement = field(repr=False, compare=False)  # at the exit iterate, on n samples

    @property
    def w(self) -> np.ndarray:
        return self.exit.w

    @property
    def exit_grad_norm(self) -> float:
        return self.exit.grad_norm


class _Recorder:
    """Builds the trace: full-set risk, stage gradient norm, optional test error.

    R_N at a stage-n iterate takes the stage measurement's n margins and a
    product over rows n..N (`erm.extend`), through a CSR of those rows built
    once per stage; the first n margins of x_N @ w are the bits of x_n @ w.
    `last` is the full-set measurement of the last event, so its margins
    serve the next stage's entry.

    The recorder alone keeps the trace at one event per grad_evals value: an
    iterate that is the array recorded last, as a stage that exits without
    a step gives, overwrites that event's stage_n and gradient norm and keeps
    its R_N and test error.  Solvers never change an iterate in place, and
    every step makes a new array, so the same array is the same counter.
    """

    def __init__(self, config: RunConfig, spec: RiskSpec, train: Dataset,
                 test: Dataset | None):
        self.spec = spec
        self.full = train
        self.test = test
        self.eval_every = config.eval_every
        self.trace = Trace(train.n_samples)
        self._tail = None  # (n, rows n..N of the full set)
        self.last: Measurement | None = None  # on the full set, at the last event's iterate

    def record(self, state: SolverState, at_w: Measurement) -> None:
        n, full = at_w.view.n_samples, self.full
        if self.last is not None and state.w is self.last.w:
            events = self.trace.events
            events[-1] = replace(events[-1], stage_n=n, grad_norm=at_w.grad_norm)
            return
        at_full = at_w  # on the full set the stage risk is R_N itself
        if n < full.n_samples:
            if self._tail is None or self._tail[0] != n:
                self._tail = (n, row_block(full.x, n, full.n_samples))
            at_full = erm.extend(self.spec, at_w, full, self._tail[1])
        self.last = at_full
        err = None
        if self.test is not None and self.test.n_samples:
            err = erm.test_error(self.spec.loss, state.w, self.test)
        self.trace.append(TraceEvent(state.grad_evals, n, at_full.risk, at_w.grad_norm, err))


def _run_stages(config: RunConfig, spec: RiskSpec, train: Dataset, test: Dataset | None,
                sizes: list[int], cap: int | None
                ) -> tuple[Measurement, Trace, list[StageReport]]:
    """Solve the stages in order, the first from zero, each later one from the last exit.

    The first stage always uses the threshold rule: it must establish the
    entry certificate the later fixed-count stages rely on.  A fixed run
    gives its pass cap as `cap`, and each threshold stage stops there too;
    without it, solve raises BudgetError for a stage that stays above its
    threshold.  Every exit is recorded, so a later stage's entry measurement
    takes its n margins from the recorder's full-set ones at that iterate.
    No stages give the measurement at zero and an empty trace.
    """
    rec = _Recorder(config, spec, train, test)

    def cb(st: SolverState, it: int, at_w: Measurement) -> None:
        if it % rec.eval_every == 0:
            rec.record(st, at_w)

    state = solvers.init_state(config.method, train.dim, config.seed)
    at_exit = Measurement(spec, state.w, train)
    reports = []
    for n in sizes:
        state = solvers.reset_aux(state)  # warm start: aux sequences re-anchored at w
        view = train.prefix(n)
        last = rec.last  # None before the first stage, else at state.w
        entry = Measurement(spec, state.w, view, None if last is None else last.margins[:n])
        threshold = schedule.stop_threshold(spec, n)
        counted = bool(reports) and config.budget_mode == "theory"
        result = solvers.solve(
            state, spec, view,
            threshold=None if counted else threshold,
            iterations=schedule.stage_iterations(config.method, spec, n) if counted else cap,
            callback=cb, entry=entry)
        state, at_exit = result.state, result.exit
        if result.iterations == 0 or result.iterations % rec.eval_every:
            rec.record(state, at_exit)  # no callback recorded the exit iterate
        reports.append(StageReport(
            n=n,
            iterations=result.iterations,
            grad_evals_at_exit=state.grad_evals,
            threshold=threshold,
            exit=at_exit,
        ))
    return at_exit, rec.trace, reports


def adaptive_run(config: RunConfig, spec: RiskSpec, train: Dataset,
                 test: Dataset | None = None) -> tuple[Measurement, Trace, list[StageReport]]:
    """Run the doubling scheme m0 -> 2 m0 -> ... -> N with warm starts, N = train.n_samples.

    Every distinct sample size is processed exactly once; the last stage is
    clamped to N.  Returns the measurement of R_N at the final iterate (its
    `.w`; its `.view` is `train`), the trace and one report per stage, which
    carries that stage's exit measurement.
    """
    if not config.adaptive:
        raise ValueError("adaptive_run requires config.adaptive")
    return _run_stages(config, spec, train, test,
                       schedule.stage_sizes(config.m0, train.n_samples), None)


def fixed_run(config: RunConfig, spec: RiskSpec, train: Dataset,
              test: Dataset | None = None) -> tuple[Measurement, Trace]:
    """Baseline: the stage loop over all N training samples, until threshold or the pass cap.

    Returns the measurement of R_N at the final iterate and the trace.
    """
    if config.adaptive:
        raise ValueError("fixed_run requires a non-adaptive config")
    # one GD/AGD iteration costs one pass; one SVRG epoch costs two
    cap = config.pass_cap if config.method in ("gd", "agd") else config.pass_cap // 2
    at_w, trace, _ = _run_stages(config, spec, train, test,
                                 [train.n_samples] if cap >= 1 else [], cap)
    return at_w, trace
