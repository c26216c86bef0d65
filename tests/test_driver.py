import math

import numpy as np
import pytest
from scipy import sparse

from adasize import RiskSpec, RunConfig, adaptive_run, fixed_run, generate_synthetic, \
    normalize, reference_optimum, statistical_accuracy, stop_threshold
from adasize import driver as driver_mod
from adasize import erm, schedule, solvers
from adasize.data import Dataset
from adasize.driver import Trace, TraceEvent
from adasize.erm import Measurement
from adasize.schedule import iterations_svrg


@pytest.fixture(scope="module")
def train_2k():
    ds, _ = generate_synthetic(2048, 10, 1.0, seed=17)
    return normalize(ds)


@pytest.fixture(scope="module")
def train_10k():
    ds, _ = generate_synthetic(10000, 6, 1.0, seed=5)
    return normalize(ds)


def test_stage_size_protocol(train_10k):
    # a loose accuracy level makes every stage exit immediately, so this is a
    # pure structural check of the doubling schedule
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=100.0, M=1.0)
    cfg = RunConfig(method="gd", adaptive=True, m0=400, seed=0)
    _, _, reports = adaptive_run(cfg, spec, train_10k)
    assert [r.n for r in reports] == [400, 800, 1600, 3200, 6400, 10000]


def test_stage_count_invariant(train_2k, spec):
    for m0 in (100, 256, 2048):
        cfg = RunConfig(method="agd", adaptive=True, m0=m0, seed=1)
        _, _, reports = adaptive_run(cfg, spec, train_2k)
        assert len(reports) == 1 + math.ceil(math.log2(2048 / m0))


def test_single_stage_when_m0_is_N(train_2k, spec):
    cfg = RunConfig(method="agd", adaptive=True, m0=2048, seed=1)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    assert len(reports) == 1 and reports[0].n == 2048


def test_warm_start_chain_bitwise(train_2k, spec, monkeypatch):
    entries = []
    real_solve = solvers.solve

    def spying_solve(state, spec_, view, **rule):
        entries.append((view.n_samples, state.w.copy()))
        return real_solve(state, spec_, view, **rule)

    monkeypatch.setattr(driver_mod.solvers, "solve", spying_solve)
    cfg = RunConfig(method="agd", adaptive=True, m0=256, seed=3)
    w, _, reports = adaptive_run(cfg, spec, train_2k)
    assert len(entries) == len(reports)
    np.testing.assert_array_equal(entries[0][1], np.zeros(train_2k.dim))
    for k in range(1, len(entries)):
        np.testing.assert_array_equal(entries[k][1], reports[k - 1].w)
    np.testing.assert_array_equal(w, reports[-1].w)


def test_bootstrap_certificate(spec):
    ds, _ = generate_synthetic(512, 10, 1.0, seed=1)
    train = normalize(ds)
    cfg = RunConfig(method="agd", adaptive=True, m0=64, seed=1)
    _, _, reports = adaptive_run(cfg, spec, train)
    report = reports[0]
    assert report.n == 64
    assert report.exit_grad_norm <= stop_threshold(spec, 64)
    # the report's counter and norm are those of its exit iterate: one AGD
    # step from zero costs 64 gradient evaluations
    assert report.grad_evals_at_exit == 64 * report.iterations
    assert Measurement(spec, report.w, train.prefix(64)).grad_norm == report.exit_grad_norm


def test_bootstrap_zero_iterations_under_loose_accuracy(train_2k):
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=50.0, M=1.0)
    cfg = RunConfig(method="gd", adaptive=True, m0=128, seed=0)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    assert reports[0].iterations == 0


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
def test_threshold_stages_certify_suboptimality(train_2k, spec, method):
    cfg = RunConfig(method=method, adaptive=True, m0=256, seed=7)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    for rep in reports:
        assert rep.exit_grad_norm <= rep.threshold
        view = train_2k.prefix(rep.n)
        ref = reference_optimum(spec, view, tolerance=1e-10)
        gap = Measurement(spec, rep.w, view).risk - ref.risk_star
        assert gap <= statistical_accuracy(spec, rep.n) + 1e-9


def test_theoretical_budget_svrg_constant_epochs(train_2k, spec):
    cfg = RunConfig(method="svrg", adaptive=True, m0=256, seed=2,
                    budget_mode="theory")
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    expected = iterations_svrg(spec)
    assert expected == 3
    for rep in reports[1:]:  # the first stage uses the threshold rule
        assert rep.iterations == expected


def test_trace_grad_evals_strictly_increase(train_2k, spec):
    cfg = RunConfig(method="svrg", adaptive=True, m0=128, seed=4, eval_every=1)
    _, trace, _ = adaptive_run(cfg, spec, train_2k)
    evals = [ev.grad_evals for ev in trace.events]
    assert all(b > a for a, b in zip(evals, evals[1:]))


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
def test_trace_risk_is_full_set_risk_at_every_stage(train_2k, spec, method):
    # on a stage below N the trace must evaluate R_N; on the N stage it reuses
    # the solver's R_n, which must be the same number
    cfg = RunConfig(method=method, adaptive=True, m0=256, seed=2)
    _, trace, reports = adaptive_run(cfg, spec, train_2k)
    assert len(reports) > 1
    events = {ev.grad_evals: ev for ev in trace.events}
    # a stage that exits without a step supersedes the event at the same counter
    last_exits = {rep.grad_evals_at_exit: (rep.n, rep.w) for rep in reports}
    for grad_evals, (n, w) in last_exits.items():
        ev = events[grad_evals]
        assert ev.stage_n == n
        assert ev.risk_value == Measurement(spec, w, train_2k.prefix(2048)).risk


def test_trace_records_test_error(split_data, spec):
    train, test = split_data
    cfg = RunConfig(method="agd", adaptive=True, m0=128, seed=4)
    _, trace, _ = adaptive_run(cfg, spec, train, test)
    assert trace.events
    assert all(ev.test_error is not None for ev in trace.events)
    assert all(0.0 <= ev.test_error <= 1.0 for ev in trace.events)


def test_eval_every_stride(train_2k, spec):
    cfg = RunConfig(method="gd", adaptive=True, m0=2048, seed=0, eval_every=5)
    _, trace, reports = adaptive_run(cfg, spec, train_2k)
    iters = reports[0].iterations
    # one event per stride plus the stage-boundary event (deduplicated)
    expected = iters // 5 + (0 if iters % 5 == 0 else 1)
    assert len(trace.events) == expected


def _old_full_risk(spec, w, view):
    """R_N as the recorder computed it before tail margins: one product over all N rows."""
    margins = view.x @ w
    y = view.y
    if spec.loss == "logistic":
        values = np.logaddexp(0.0, -y * margins)
    else:
        values = 0.5 * (margins - y) ** 2
    v_n = statistical_accuracy(spec, view.n_samples)
    return float(values.mean()) + 0.5 * spec.c * v_n * float(w @ w)


def _old_run_stages(config, spec, train, test, sizes, cap):
    """The trace of the stage loop and recorder before each iterate was evaluated once.

    Every stage records its exit, even where the last callback recorded that
    same iterate (the trace keeps one event per counter), and R_N is one
    product over all N rows.  A fixed run gives its pass cap, an adaptive run None.
    """
    full, trace = train, Trace(train.n_samples)

    def record(st, at_w):
        err = None if test is None else erm.test_error(spec.loss, st.w, test)
        trace.append(TraceEvent(st.grad_evals, at_w.view.n_samples,
                                _old_full_risk(spec, st.w, full), at_w.grad_norm, err))

    def cb(st, it, at_w):
        if it % config.eval_every == 0:
            record(st, at_w)

    state = solvers.init_state(config.method, train.dim, config.seed)
    for k, n in enumerate(sizes):
        state = solvers.reset_aux(state)
        counted = k > 0 and config.budget_mode == "theory"
        result = solvers.solve(
            state, spec, train.prefix(n),
            threshold=None if counted else stop_threshold(spec, n),
            iterations=driver_mod._theoretical_iterations(config, spec, n) if counted else cap,
            callback=cb)
        state = result.state
        record(state, result.exit)
    return trace


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
@pytest.mark.parametrize("case", ["adaptive", "adaptive_loose", "fixed"])
@pytest.mark.parametrize("eval_every", [1, 3])
def test_each_recorded_iterate_is_evaluated_once(split_data, method, case, eval_every,
                                                 monkeypatch):
    train, test = split_data
    # gamma = 50 makes the first adaptive stage exit without a step
    spec = RiskSpec(loss="logistic", gamma=50.0 if case == "adaptive_loose" else 1.0)
    adaptive = case != "fixed"
    cfg = RunConfig(method=method, adaptive=adaptive, m0=64, seed=4,
                    eval_every=eval_every, pass_cap=8)
    if adaptive:
        old = _old_run_stages(cfg, spec, train, test, schedule.stage_sizes(64, 512), None)
    else:
        old = _old_run_stages(cfg, spec, train, test, [512], 8 if method != "svrg" else 4)
    calls = []
    real = erm.test_error
    monkeypatch.setattr(erm, "test_error", lambda *a: calls.append(a) or real(*a))
    if adaptive:
        _, trace, reports = adaptive_run(cfg, spec, train, test)
        iterations = [rep.iterations for rep in reports]
    else:
        _, trace = fixed_run(cfg, spec, train, test)
        iterations = [trace.events[-1].grad_evals // (1024 if method == "svrg" else 512)]
    if case == "adaptive_loose":
        assert iterations[0] == 0
    # one evaluation per callback at the stride, and one for an exit no callback recorded
    assert len(calls) == sum(k // eval_every + (k == 0 or k % eval_every > 0)
                             for k in iterations)
    assert trace.events == old.events


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("data", ["empty_rows", "rcv1_shaped"])
def test_recorder_tail_margins_give_the_full_risk_bits(loss, data, rcv1_tiny, rng):
    spec = RiskSpec(loss=loss, c=0.7, alpha=0.75, gamma=1.3, M=1.0)
    if data == "empty_rows":
        # rows 95-99 and 200 are empty: stages 100 and 201 begin just after empty
        # rows, stage 200 at one
        x = rng.normal(size=(257, 8)) * (rng.random((257, 8)) < 0.6)
        x[95:100] = 0.0
        x[200] = 0.0
        train = Dataset(sparse.csr_matrix(x), np.where(rng.random(257) < 0.5, 1.0, -1.0))
        N, extra = 257, [100, 200, 201]
    else:
        train, N, extra = normalize(rcv1_tiny), 2000, []
    cfg = RunConfig(method="gd", m0=32)
    full = train.prefix(N)
    rec = driver_mod._Recorder(cfg, spec, full, None)
    for n in schedule.stage_sizes(32, N) + extra + [N - 1]:
        for scale in (0.1, 5.0, 40.0):  # 40 puts logistic margins in both tails
            w = rng.normal(0.0, scale, train.dim)
            rec.record(solvers.SolverState("gd", w), Measurement(spec, w, train.prefix(n)))
            risk = rec.trace.events[-1].risk_value
            assert risk == _old_full_risk(spec, w, full)
            assert risk == Measurement(spec, w, full).risk


class TestFixedRun:
    @pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
    def test_equals_one_stage_adaptive_run(self, train_2k, spec, method):
        w_fix, trace_fix = fixed_run(
            RunConfig(method=method, adaptive=False, m0=128, seed=5), spec, train_2k)
        w_ada, trace_ada, reports = adaptive_run(
            RunConfig(method=method, adaptive=True, m0=2048, seed=5), spec, train_2k)
        assert len(reports) == 1
        np.testing.assert_array_equal(w_fix, w_ada)
        assert trace_fix.events == trace_ada.events

    def test_deterministic(self, train_2k, spec):
        runs = []
        for _ in range(2):
            cfg = RunConfig(method="svrg", adaptive=False, m0=128, seed=11)
            w, trace = fixed_run(cfg, spec, train_2k)
            runs.append((w, [(e.grad_evals, e.risk_value, e.grad_norm) for e in trace.events]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_pass_cap_zero(self, train_2k, spec):
        cfg = RunConfig(method="gd", adaptive=False, m0=128, seed=0, pass_cap=0)
        w, trace = fixed_run(cfg, spec, train_2k)
        np.testing.assert_array_equal(w, np.zeros(train_2k.dim))
        assert trace.events == []

    def test_svrg_pass_cap_halved(self, train_2k):
        # 2 passes per epoch: a cap of 5 passes allows at most 2 epochs
        spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1e-6, M=1.0)
        cfg = RunConfig(method="svrg", adaptive=False, m0=128, seed=0, pass_cap=5)
        _, trace = fixed_run(cfg, spec, train_2k)
        assert trace.events[-1].grad_evals == 2 * 2 * 2048

    def test_wrong_mode_rejected(self, train_2k, spec):
        with pytest.raises(ValueError):
            fixed_run(RunConfig(method="gd", adaptive=True, m0=1), spec, train_2k)
        with pytest.raises(ValueError):
            adaptive_run(RunConfig(method="gd", adaptive=False, m0=1), spec, train_2k)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="newton")
    with pytest.raises(ValueError, match="m0 must be >= 1"):
        RunConfig(method="gd", m0=0)
    with pytest.raises(ValueError):
        RunConfig(method="gd", eval_every=0)
    with pytest.raises(ValueError):
        RunConfig(method="gd", budget_mode="exact")
    with pytest.raises(ValueError):
        RunConfig(method="gd", pass_cap=-1)
    with pytest.raises(ValueError, match="wstar_sq"):
        RiskSpec(wstar_sq=-1.0)


def test_m0_above_the_training_set_rejected(train_2k, spec):
    # a run's N is its training set's size, so m0 <= N is checked when it starts
    with pytest.raises(ValueError, match="m0=200, N=100"):
        adaptive_run(RunConfig(method="gd", m0=200), spec, train_2k.prefix(100))


class TestExhaustedStage:
    """An adaptive stage that stops at solvers.MAX_ITERATIONS above its threshold is an error."""

    SPEC = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1e-6, M=1.0)

    @pytest.mark.parametrize("budget_mode", ["threshold", "theory"])
    def test_adaptive_run_raises(self, train_2k, monkeypatch, budget_mode):
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 3)
        cfg = RunConfig(method="agd", adaptive=True, m0=1024, seed=0,
                        budget_mode=budget_mode)
        threshold = stop_threshold(self.SPEC, 1024)
        with pytest.raises(solvers.BudgetError,
                           match=rf"n=1024 stopped after 3 iterations at \|\|grad R_n\|\| = "
                                 rf"[0-9.e+-]+, above its threshold {threshold:.6g}$"):
            adaptive_run(cfg, self.SPEC, train_2k)

    def test_fixed_run_stops_at_its_pass_cap(self, train_2k, monkeypatch):
        # the pass cap is the fixed run's budget, even above MAX_ITERATIONS
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 3)
        cfg = RunConfig(method="gd", adaptive=False, m0=128, seed=0, pass_cap=5)
        _, trace = fixed_run(cfg, self.SPEC, train_2k)
        assert trace.events[-1].grad_evals == 5 * 2048
        assert trace.events[-1].grad_norm > stop_threshold(self.SPEC, 2048)
