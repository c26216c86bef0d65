import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize
from scipy.sparse import linalg as sparse_linalg
from scipy.special import expit

from adasize import RiskSpec, RunConfig, reference_optimum, statistical_accuracy
from adasize import bench, driver, erm, solvers
from adasize.bench import CompareRow, compare_matrix, format_summary_table, summary_csv_text, \
    trace_csv_text
from adasize.driver import Trace, TraceEvent
from adasize.data import generate_synthetic, normalize
from adasize.erm import Measurement, smoothness_constant


@pytest.fixture(scope="module")
def squared_problem():
    ds, _ = generate_synthetic(64, 6, 1.0, seed=2)
    ds = normalize(ds)
    spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=1.0, M=1.0)
    return ds, spec


class TestReferenceOptimum:
    def test_matches_normal_equations(self, squared_problem):
        ds, spec = squared_problem
        view = ds
        ref = reference_optimum(spec, view, tolerance=1e-12)
        x = view.x.toarray()
        n = view.n_samples
        cv = spec.c * statistical_accuracy(spec, n)
        w_closed = np.linalg.solve(x.T @ x / n + cv * np.eye(ds.dim), x.T @ view.y / n)
        assert np.linalg.norm(ref.w - w_closed) < 1e-6
        assert ref.grad_norm <= 1e-12

    def test_suboptimality_nonnegative(self, squared_problem, rng):
        ds, spec = squared_problem
        view = ds
        ref = reference_optimum(spec, view, tolerance=1e-11)
        for _ in range(10):
            w = rng.uniform(-2, 2, ds.dim)
            assert Measurement(spec, w, view).risk - ref.risk >= -1e-12

    def test_idempotent(self, squared_problem):
        ds, spec = squared_problem
        a = reference_optimum(spec, ds, tolerance=1e-10)
        b = reference_optimum(spec, ds, tolerance=1e-10)
        assert abs(a.risk - b.risk) < 1e-14

    def test_tolerance_validation(self, squared_problem):
        ds, spec = squared_problem
        with pytest.raises(ValueError):
            reference_optimum(spec, ds, tolerance=0.0)

    def test_unreachable_tolerance_raises(self, squared_problem):
        ds, spec = squared_problem
        with pytest.raises(solvers.BudgetError, match=f"n={ds.n_samples}"):
            reference_optimum(spec, ds, tolerance=1e-30)

    def test_step_halving(self, monkeypatch):
        # nearly separable data under a tiny ridge: after ten unit steps, the next unit
        # Newton step would raise ||grad R_n|| from 3.38e-4 to 4.12e-4, so it is halved
        ds, _ = generate_synthetic(200, 5, 1.0, seed=0, margin_scale=20.0)
        spec = RiskSpec(loss="logistic", gamma=1e-6)
        view = ds
        ref = reference_optimum(spec, view, tolerance=1e-10)
        assert ref.grad_norm <= 1e-10
        # an independent quasi-Newton solve, here only, agrees on R_n*
        def risk_and_grad(w):
            at = Measurement(spec, w, view)
            return at.risk, at.grad

        lbfgs = optimize.minimize(risk_and_grad, np.zeros(view.dim), jac=True, method="L-BFGS-B",
                                  options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10**4})
        assert abs(lbfgs.fun - ref.risk) <= 1e-16
        monkeypatch.setattr(bench, "NEWTON_MIN_STEP", 1.0)  # unit steps only
        with pytest.raises(solvers.BudgetError, match="n=200"):
            reference_optimum(spec, view, tolerance=1e-10)


def _old_risk_value_and_grad(spec, w, view):
    """(R_n, grad R_n, ||grad R_n||) as erm computed them before the lazy measurement."""
    margins = view.x @ w
    y, n = view.y, view.n_samples
    if spec.loss == "logistic":
        values, coefs = np.logaddexp(0.0, -y * margins), -y * expit(-y * margins)
    else:
        values, coefs = 0.5 * (margins - y) ** 2, margins - y
    reg = spec.c * statistical_accuracy(spec, n)
    g = view.xt @ (coefs / n) + reg * w
    return float(values.mean()) + 0.5 * reg * float(w @ w), g, float(np.linalg.norm(g))


def _old_reference_optimum(spec, view, tolerance):
    """(w*, R_n(w*), ||grad R_n(w*)||) of the Newton loop on the old oracle.

    Every line-search trial computes R_n, and each Hessian product starts
    from a margin product of its own.
    """
    n, dim = view.n_samples, view.dim
    w = np.zeros(dim)
    risk, grad, grad_norm = _old_risk_value_and_grad(spec, w, view)
    for _ in range(bench.NEWTON_MAX_STEPS):
        if grad_norm <= tolerance:
            break
        if spec.loss == "logistic":
            margins = view.x @ w
            h = expit(margins) * expit(-margins) / n
        else:
            h = 1.0 / n
        reg = spec.c * statistical_accuracy(spec, n)
        hess = sparse_linalg.LinearOperator(
            (dim, dim), dtype=float, matvec=lambda v: view.xt @ (h * (view.x @ v)) + reg * v)
        d = sparse_linalg.cg(hess, -grad, rtol=bench.NEWTON_CG_RTOL)[0]
        t = 1.0
        while t >= bench.NEWTON_MIN_STEP:
            trial = _old_risk_value_and_grad(spec, w + t * d, view)
            if trial[2] ** 2 <= (1.0 - 2.0 * bench.NEWTON_SIGMA * t) * grad_norm**2:
                break
            t /= 2.0
        else:
            break
        w = w + t * d
        risk, grad, grad_norm = trial
    return w, risk, grad_norm


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("data", ["dense_8192x20", "rcv1_shaped"])
def test_reference_optimum_is_the_old_newton_loops_bits(loss, data, rcv1_tiny):
    if data == "rcv1_shaped":
        view = normalize(rcv1_tiny).prefix(2000)
    else:
        view = normalize(generate_synthetic(8192, 20, 1.0, seed=6)[0])
    spec = RiskSpec(loss=loss, c=1.0, alpha=0.5, gamma=0.5, M=1.0)
    w, risk, grad_norm = _old_reference_optimum(spec, view, 1e-10)
    ref = reference_optimum(spec, view, tolerance=1e-10)
    np.testing.assert_array_equal(ref.w, w)
    assert (ref.risk, ref.grad_norm) == (risk, grad_norm)


def _cross_check_problems():
    """Dense logistic and squared, a sparse wide view, and the normal-equations problem."""
    dense, _ = generate_synthetic(300, 20, 1.0, seed=5)
    dense = normalize(dense)
    wide, _ = generate_synthetic(400, 6000, 0.01, seed=6, feature_decay=0.5)
    small, _ = generate_synthetic(64, 6, 1.0, seed=2)  # the squared_problem fixture's data
    return [
        pytest.param(RiskSpec(loss="logistic", gamma=0.5), dense, 1e-10, id="logistic_dense"),
        pytest.param(RiskSpec(loss="squared", gamma=0.5), dense, 1e-10, id="squared_dense"),
        pytest.param(RiskSpec(loss="logistic"), normalize(wide), 1e-10,
                     id="logistic_sparse"),
        pytest.param(RiskSpec(loss="squared"), normalize(small), 1e-12,
                     id="normal_equations"),
    ]


@pytest.mark.parametrize("spec,view,tol", _cross_check_problems())
def test_reference_optimum_agrees_with_agd(spec, view, tol):
    # the oracle (damped Newton-CG) against the solvers it judges,
    # run from zero to the same gradient-norm tolerance
    ref = reference_optimum(spec, view, tolerance=tol)
    agd = solvers.solve(solvers.init_state("agd", view.dim),
                        replace(spec, M=smoothness_constant(spec.loss, view)), view,
                        threshold=tol, iterations=10**7)
    assert agd.exit.grad_norm <= tol
    assert abs(ref.risk - agd.exit.risk) <= 1e-15
    # both gradients are within tol, so strong convexity puts each within tol/(cV_n) of w*
    cv = spec.c * statistical_accuracy(spec, view.n_samples)
    assert np.linalg.norm(ref.w - agd.state.w) <= 2 * tol / cv


@pytest.fixture(scope="module")
def dense_4096x20():
    return normalize(generate_synthetic(4096, 20, 1.0, seed=6)[0])


@pytest.fixture(scope="module")
def rcv1_2000(rcv1_tiny):
    return normalize(rcv1_tiny).prefix(2000)


def _tight_spec(loss, view):
    return RiskSpec(loss=loss, c=1.0, alpha=0.5, gamma=0.5, M=smoothness_constant(loss, view))


def _risk_gap_bound(spec, view, tol):
    # R_n(w) - R_n(w*) <= ||grad R_n(w)||^2 / (2 cV_n) for the cV_n-strongly convex R_n
    return tol**2 / (2 * spec.c * statistical_accuracy(spec, view.n_samples))


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("data", ["dense_4096x20", "rcv1_2000"])
def test_warm_start_agrees_with_the_zero_start(loss, data, request):
    # both starts meet the stop test, so both risks lie within tol^2 / (2 cV_n) above R_n(w*);
    # tol = 1e-8 puts that bound (about 5e-15) above the risk's rounding
    view = request.getfixturevalue(data)
    spec = _tight_spec(loss, view)
    w, _, _ = driver.adaptive_run(RunConfig(method="agd", m0=256, seed=1), spec, view)
    cold = reference_optimum(spec, view, tolerance=1e-8)
    warm = reference_optimum(spec, view, tolerance=1e-8, start=w)
    assert cold.grad_norm <= 1e-8 and warm.grad_norm <= 1e-8
    assert abs(warm.risk - cold.risk) <= _risk_gap_bound(spec, view, 1e-8)


def test_warm_start_from_an_adaptive_exit_takes_fewer_hessian_products(rcv1_2000, monkeypatch):
    view = rcv1_2000
    spec = _tight_spec("logistic", view)
    w, _, reports = driver.adaptive_run(RunConfig(method="agd", m0=256, seed=1), spec, view)
    assert reports[-1].exit_grad_norm <= reports[-1].threshold  # stopped on its threshold
    products = []
    real = erm.risk_hessian

    def counting(at):
        matvec = real(at)
        return lambda v: products.append(1) or matvec(v)

    monkeypatch.setattr(erm, "risk_hessian", counting)
    counts = []
    for start in (None, w):
        products.clear()
        assert reference_optimum(spec, view, start=start).grad_norm <= 1e-10
        counts.append(len(products))
    cold, warm = counts
    assert 0 < warm < cold


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("start", ["one_gd_pass", "large_random"])
def test_poor_start_still_converges(loss, start, dense_4096x20):
    view = dense_4096x20
    spec = _tight_spec(loss, view)
    if start == "one_gd_pass":
        w, _ = driver.fixed_run(RunConfig(method="gd", adaptive=False, pass_cap=1), spec, view)
    else:  # logistic margins in the thousands: the Hessian is nearly cV_n I there
        w = 1e4 * np.random.default_rng(0).standard_normal(view.dim)
    cold = reference_optimum(spec, view, tolerance=1e-8)
    warm = reference_optimum(spec, view, tolerance=1e-8, start=w)
    assert warm.grad_norm <= 1e-8
    assert abs(warm.risk - cold.risk) <= _risk_gap_bound(spec, view, 1e-8)


def test_start_is_copied_and_shape_checked(squared_problem):
    ds, spec = squared_problem
    for bad in (np.zeros(ds.dim + 1), np.zeros((ds.dim, 1)), np.zeros(()), np.zeros((0,))):
        with pytest.raises(ValueError, match=rf"start must have shape \({ds.dim},\)"):
            reference_optimum(spec, ds, start=bad)
    start = np.zeros(ds.dim)
    ref = reference_optimum(spec, ds, start=start)
    np.testing.assert_array_equal(ref.w, reference_optimum(spec, ds).w)
    assert not np.shares_memory(ref.w, start) and not start.any()


RISK_STAR = 0.5


class TestCsv:
    def test_header_and_rows(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(2, 2, 0.75, 0.1, None))
        trace.append(TraceEvent(4, 4, 0.6, 0.05, 0.25))
        lines = trace_csv_text(trace, RISK_STAR).splitlines()
        assert lines[0] == "effective_passes,grad_evals,stage_n,suboptimality,grad_norm,test_error"
        assert lines[1].endswith(",")  # empty test_error cell
        assert lines[2].split(",")[0] == "1"  # one full pass

    def test_empty_trace_header_only(self):
        assert trace_csv_text(Trace(N=4), RISK_STAR).count("\n") == 1

    def test_suboptimality_clamped(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(1, 4, 0.5 - 1e-13, 0.1, None))
        assert float(trace_csv_text(trace, RISK_STAR).splitlines()[1].split(",")[3]) == 0.0

    def test_round_trip(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(2, 2, 0.75, 0.1, None))
        trace.append(TraceEvent(4, 4, 0.6, 1.0 / 3.0, 0.125))
        rows = list(csv.DictReader(io.StringIO(trace_csv_text(trace, RISK_STAR))))
        assert rows[0]["test_error"] == ""
        assert float(rows[1]["grad_norm"]) == 1.0 / 3.0
        assert float(rows[1]["suboptimality"]) == 0.6 - 0.5
        assert float(rows[1]["effective_passes"]) == 1.0
        assert float(rows[1]["test_error"]) == 0.125

    def test_trace_append_rules(self):
        # the trace takes events in strictly increasing grad_evals and refuses
        # any other; one event per counter is the recorder's rule, not the trace's
        trace = Trace(N=1)
        trace.append(TraceEvent(1, 1, 0.1, 0.1))
        trace.append(TraceEvent(3, 1, 0.05, 0.05))
        for grad_evals in (3, 2, 0):
            with pytest.raises(ValueError, match="strictly increasing"):
                trace.append(TraceEvent(grad_evals, 1, 0.2, 0.2))
        assert [ev.grad_evals for ev in trace.events] == [1, 3]
        assert trace.events[-1].risk_value == 0.05


@pytest.fixture(scope="module")
def compare_setup():
    ds, _ = generate_synthetic(1024, 12, 1.0, seed=8, margin_scale=1.3, feature_decay=1.0)
    train = normalize(ds)
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=0.25)
    return train, spec


class TestCompareMatrix:
    def test_single_config_no_ratio(self, compare_setup):
        train, spec = compare_setup
        cfg = RunConfig(method="agd", adaptive=True, m0=256, seed=1)
        rows, _, _ = compare_matrix([cfg], spec, train)
        assert len(rows) == 1
        assert rows[0].speedup_vs_fixed is None
        assert rows[0].passes_to_target is not None

    def test_degenerate_single_stage_ratio_one(self, compare_setup):
        # with m0 = N the adaptive run degenerates to the fixed run
        train, spec = compare_setup
        cfgs = [RunConfig(method="agd", adaptive=False, m0=1024, seed=1),
                RunConfig(method="agd", adaptive=True, m0=1024, seed=1)]
        rows, _, _ = compare_matrix(cfgs, spec, train)
        ada = next(r for r in rows if r.adaptive)
        assert ada.speedup_vs_fixed == pytest.approx(1.0)

    def test_traces_returned(self, compare_setup):
        train, spec = compare_setup
        cfg = RunConfig(method="svrg", adaptive=True, m0=256, seed=2)
        rows, traces, ref = compare_matrix([cfg], spec, train)
        assert len(traces) == 1
        assert traces[0][1].events
        assert ref.view.n_samples == 1024

    def test_every_run_failed_solves_from_zero(self, compare_setup):
        # squared-loss steps of about 1/(M + cV_n) = 3e7 send every iterate to infinity
        train, spec = compare_setup
        spec = replace(spec, loss="squared", gamma=1e-6, M=1e-9)
        cfgs = [RunConfig(method=m, adaptive=a, m0=256, seed=1)
                for m in ("gd", "agd", "svrg") for a in (False, True)]
        with pytest.warns(RuntimeWarning, match="overflow"):  # numpy, on the way to infinity
            rows, traces, ref = compare_matrix(cfgs, spec, train)
        assert [r.failure for r in rows] == ["diverged"] * 6
        assert all(trace is None for _, trace in traces)
        cold = reference_optimum(spec, train)
        np.testing.assert_array_equal(ref.w, cold.w)
        assert ref.risk == cold.risk

    def test_reference_starts_from_the_last_run_that_finished(self, compare_setup,
                                                                 monkeypatch):
        # the adaptive runs stop at the step cap far above their thresholds
        train, spec = compare_setup
        spec = replace(spec, gamma=1e-30)
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 50)
        cfgs = [RunConfig(method="agd", adaptive=False, seed=1, pass_cap=3),
                RunConfig(method="gd", adaptive=False, seed=1, pass_cap=2),
                RunConfig(method="agd", adaptive=True, m0=256, seed=1)]
        starts = []
        real = bench.reference_optimum
        monkeypatch.setattr(bench, "reference_optimum",
                            lambda *a, start=None, **k: starts.append(start) or real(
                                *a, start=start, **k))
        rows, _, ref = compare_matrix(cfgs, spec, train)
        assert [r.failure for r in rows] == [None, None, "exhausted"]
        w_gd, _ = driver.fixed_run(cfgs[1], spec, train)
        assert len(starts) == 1
        np.testing.assert_array_equal(starts[0], w_gd)
        assert ref.grad_norm <= 1e-10


def test_fixed_gd_suboptimality_nonincreasing(compare_setup):
    # gd descends the full-set risk monotonically, so the suboptimality
    # column of a fixed gd trace never increases
    train, spec = compare_setup
    cfg = RunConfig(method="gd", adaptive=False, m0=256, seed=3, pass_cap=200)
    from adasize.driver import fixed_run

    _, trace = fixed_run(cfg, spec, train)
    ref = reference_optimum(spec, train.prefix(1024), tolerance=1e-11)
    subs = [max(0.0, ev.risk_value - ref.risk) for ev in trace.events]
    assert all(b <= a + 1e-12 for a, b in zip(subs, subs[1:]))


class TestSummaryFormat:
    def test_csv_header_exact(self):
        assert summary_csv_text([]) == ("method,adaptive,passes_to_VN,passes_to_min_test_error,"
                                  "min_test_error,speedup_vs_fixed\n")

    def test_rows_and_diverged(self):
        rows = [
            CompareRow("gd", False, passes_to_target=4.0, min_test_error=0.125,
                       passes_to_min_test_error=3.0),
            CompareRow("gd", True, failure="diverged"),
            CompareRow("agd", True, failure="exhausted"),
        ]
        lines = summary_csv_text(rows).splitlines()
        assert lines[1].startswith("gd,false,4")
        assert lines[2] == "gd,true,diverged,,,"
        assert lines[3] == "agd,true,exhausted,,,"
        table = format_summary_table(rows)
        assert "diverged" in table and table.splitlines()[0].startswith("method")
        assert "exhausted" in table
