import math

import numpy as np
import pytest

from adasize import RiskSpec, RunConfig, adaptive_run, fixed_run, generate_synthetic, \
    normalize, reference_optimum, risk_value, risk_value_and_grad, statistical_accuracy, \
    stop_threshold
from adasize import driver as driver_mod
from adasize import solvers
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
    cfg = RunConfig(method="gd", adaptive=True, m0=400, N=10000, seed=0)
    _, _, reports = adaptive_run(cfg, spec, train_10k)
    assert [r.n for r in reports] == [400, 800, 1600, 3200, 6400, 10000]


def test_stage_count_invariant(train_2k, spec):
    for m0 in (100, 256, 2048):
        cfg = RunConfig(method="agd", adaptive=True, m0=m0, N=2048, seed=1)
        _, _, reports = adaptive_run(cfg, spec, train_2k)
        assert len(reports) == 1 + math.ceil(math.log2(2048 / m0))


def test_single_stage_when_m0_is_N(train_2k, spec):
    cfg = RunConfig(method="agd", adaptive=True, m0=2048, N=2048, seed=1)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    assert len(reports) == 1 and reports[0].n == 2048


def test_warm_start_chain_bitwise(train_2k, spec, monkeypatch):
    entries = []
    real_solve = solvers.solve

    def spying_solve(state, spec_, view, budget, callback=None):
        entries.append((view.count, state.w.copy()))
        return real_solve(state, spec_, view, budget, callback)

    monkeypatch.setattr(driver_mod.solvers, "solve", spying_solve)
    cfg = RunConfig(method="agd", adaptive=True, m0=256, N=2048, seed=3)
    w, _, reports = adaptive_run(cfg, spec, train_2k)
    assert len(entries) == len(reports)
    np.testing.assert_array_equal(entries[0][1], np.zeros(train_2k.dim))
    for k in range(1, len(entries)):
        np.testing.assert_array_equal(entries[k][1], reports[k - 1].w)
    np.testing.assert_array_equal(w, reports[-1].w)


def test_bootstrap_certificate(spec):
    ds, _ = generate_synthetic(512, 10, 1.0, seed=1)
    train = normalize(ds)
    cfg = RunConfig(method="agd", adaptive=True, m0=64, N=512, seed=1)
    _, _, reports = adaptive_run(cfg, spec, train)
    report = reports[0]
    assert report.n == 64
    assert not report.budget_exhausted
    assert report.exit_grad_norm <= stop_threshold(spec, 64)
    # the report's counter and norm are those of its exit iterate: one AGD
    # step from zero costs 64 gradient evaluations
    assert report.grad_evals_at_exit == 64 * report.iterations
    assert risk_value_and_grad(spec, report.w, train.prefix(64))[2] == report.exit_grad_norm


def test_bootstrap_zero_iterations_under_loose_accuracy(train_2k):
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=50.0, M=1.0)
    cfg = RunConfig(method="gd", adaptive=True, m0=128, N=2048, seed=0)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    assert reports[0].iterations == 0


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
def test_threshold_stages_certify_suboptimality(train_2k, spec, method):
    cfg = RunConfig(method=method, adaptive=True, m0=256, N=2048, seed=7)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    for rep in reports:
        assert not rep.budget_exhausted
        assert rep.exit_grad_norm <= rep.threshold
        view = train_2k.prefix(rep.n)
        ref = reference_optimum(spec, view, tolerance=1e-10)
        gap = risk_value(spec, rep.w, view) - ref.risk_star
        assert gap <= statistical_accuracy(spec, rep.n) + 1e-9


def test_theoretical_budget_svrg_constant_epochs(train_2k, spec):
    cfg = RunConfig(method="svrg", adaptive=True, m0=256, N=2048, seed=2,
                    budget_mode="theoretical_s_n", wstar_norm_sq=0.0)
    _, _, reports = adaptive_run(cfg, spec, train_2k)
    expected = iterations_svrg(spec)
    assert expected == 3
    for rep in reports[1:]:  # the first stage uses the threshold rule
        assert rep.iterations == expected


def test_trace_grad_evals_strictly_increase(train_2k, spec):
    cfg = RunConfig(method="svrg", adaptive=True, m0=128, N=2048, seed=4, eval_every=1)
    _, trace, _ = adaptive_run(cfg, spec, train_2k)
    evals = [ev.grad_evals for ev in trace.events]
    assert all(b > a for a, b in zip(evals, evals[1:]))


@pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
def test_trace_risk_is_full_set_risk_at_every_stage(train_2k, spec, method):
    # on a stage below N the trace must evaluate R_N; on the N stage it reuses
    # the solver's R_n, which must be the same number
    cfg = RunConfig(method=method, adaptive=True, m0=256, N=2048, seed=2)
    _, trace, reports = adaptive_run(cfg, spec, train_2k)
    assert len(reports) > 1
    events = {ev.grad_evals: ev for ev in trace.events}
    # a stage that exits without a step supersedes the event at the same counter
    last_exits = {rep.grad_evals_at_exit: (rep.n, rep.w) for rep in reports}
    for grad_evals, (n, w) in last_exits.items():
        ev = events[grad_evals]
        assert ev.stage_n == n
        assert ev.risk_value == risk_value(spec, w, train_2k.prefix(2048))


def test_trace_records_test_error(split_data, spec):
    train, test = split_data
    cfg = RunConfig(method="agd", adaptive=True, m0=128, N=512, seed=4)
    _, trace, _ = adaptive_run(cfg, spec, train, test)
    assert trace.events
    assert all(ev.test_error is not None for ev in trace.events)
    assert all(0.0 <= ev.test_error <= 1.0 for ev in trace.events)


def test_eval_every_stride(train_2k, spec):
    cfg = RunConfig(method="gd", adaptive=True, m0=2048, N=2048, seed=0, eval_every=5)
    _, trace, reports = adaptive_run(cfg, spec, train_2k)
    iters = reports[0].iterations
    # one event per stride plus the stage-boundary event (deduplicated)
    expected = iters // 5 + (0 if iters % 5 == 0 else 1)
    assert len(trace.events) == expected


class TestFixedRun:
    @pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
    def test_equals_one_stage_adaptive_run(self, train_2k, spec, method):
        w_fix, trace_fix = fixed_run(
            RunConfig(method=method, adaptive=False, m0=128, N=2048, seed=5), spec, train_2k)
        w_ada, trace_ada, reports = adaptive_run(
            RunConfig(method=method, adaptive=True, m0=2048, N=2048, seed=5), spec, train_2k)
        assert len(reports) == 1
        np.testing.assert_array_equal(w_fix, w_ada)
        assert trace_fix.events == trace_ada.events

    def test_deterministic(self, train_2k, spec):
        runs = []
        for _ in range(2):
            cfg = RunConfig(method="svrg", adaptive=False, m0=128, N=2048, seed=11)
            w, trace = fixed_run(cfg, spec, train_2k)
            runs.append((w, [(e.grad_evals, e.risk_value, e.grad_norm) for e in trace.events]))
        np.testing.assert_array_equal(runs[0][0], runs[1][0])
        assert runs[0][1] == runs[1][1]

    def test_pass_cap_zero(self, train_2k, spec):
        cfg = RunConfig(method="gd", adaptive=False, m0=128, N=2048, seed=0, pass_cap=0)
        w, trace = fixed_run(cfg, spec, train_2k)
        np.testing.assert_array_equal(w, np.zeros(train_2k.dim))
        assert trace.events == []

    def test_svrg_pass_cap_halved(self, train_2k):
        # 2 passes per epoch: a cap of 5 passes allows at most 2 epochs
        spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1e-6, M=1.0)
        cfg = RunConfig(method="svrg", adaptive=False, m0=128, N=2048, seed=0, pass_cap=5)
        _, trace = fixed_run(cfg, spec, train_2k)
        assert trace.events[-1].grad_evals == 2 * 2 * 2048

    def test_wrong_mode_rejected(self, train_2k, spec):
        with pytest.raises(ValueError):
            fixed_run(RunConfig(method="gd", adaptive=True, m0=1, N=2048), spec, train_2k)
        with pytest.raises(ValueError):
            adaptive_run(RunConfig(method="gd", adaptive=False, m0=1, N=2048), spec, train_2k)


def test_config_validation():
    with pytest.raises(ValueError):
        RunConfig(method="newton", N=100)
    with pytest.raises(ValueError):
        RunConfig(method="gd", m0=200, N=100)
    with pytest.raises(ValueError):
        RunConfig(method="gd", N=100, eval_every=0)
    with pytest.raises(ValueError):
        RunConfig(method="gd", N=100, budget_mode="exact")
    with pytest.raises(ValueError):
        RunConfig(method="gd", N=100, pass_cap=-1)
    with pytest.raises(ValueError):  # checked under the threshold budget too
        RunConfig(method="gd", N=100, wstar_norm_sq=-1.0)
