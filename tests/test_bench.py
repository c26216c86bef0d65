import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
from scipy import optimize
from scipy.sparse import linalg as sparse_linalg
from scipy.special import expit

from adasize import RiskSpec, RunConfig, effective_passes, reference_optimum, \
    statistical_accuracy
from adasize import bench, solvers
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
        assert np.linalg.norm(ref.w_star_n - w_closed) < 1e-6
        assert ref.grad_norm_at_star <= 1e-12

    def test_suboptimality_nonnegative(self, squared_problem, rng):
        ds, spec = squared_problem
        view = ds
        ref = reference_optimum(spec, view, tolerance=1e-11)
        for _ in range(10):
            w = rng.uniform(-2, 2, ds.dim)
            assert Measurement(spec, w, view).risk - ref.risk_star >= -1e-12

    def test_idempotent(self, squared_problem):
        ds, spec = squared_problem
        a = reference_optimum(spec, ds, tolerance=1e-10)
        b = reference_optimum(spec, ds, tolerance=1e-10)
        assert abs(a.risk_star - b.risk_star) < 1e-14

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
        assert ref.grad_norm_at_star <= 1e-10
        # an independent quasi-Newton solve, here only, agrees on R_n*
        def risk_and_grad(w):
            at = Measurement(spec, w, view)
            return at.risk, at.grad

        lbfgs = optimize.minimize(risk_and_grad, np.zeros(view.dim), jac=True, method="L-BFGS-B",
                                  options={"gtol": 1e-12, "ftol": 0.0, "maxiter": 10**4})
        assert abs(lbfgs.fun - ref.risk_star) <= 1e-16
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
    """(w_star_n, risk_star, grad_norm_at_star) of the Newton loop on the old oracle.

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
    np.testing.assert_array_equal(ref.w_star_n, w)
    assert (ref.risk_star, ref.grad_norm_at_star) == (risk, grad_norm)


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
    assert abs(ref.risk_star - agd.exit.risk) <= 1e-15
    # both gradients are within tol, so strong convexity puts each within tol/(cV_n) of w*
    cv = spec.c * statistical_accuracy(spec, view.n_samples)
    assert np.linalg.norm(ref.w_star_n - agd.state.w) <= 2 * tol / cv


class TestEffectivePasses:
    def test_definitional(self):
        assert effective_passes(2048, 2048) == 1.0
        assert effective_passes(3 * 500, 500) == 3.0
        assert effective_passes(0, 10) == 0.0

    def test_svrg_epoch_at_half_size(self):
        N = 1000
        evals_one_epoch = 2 * (N // 2)
        assert effective_passes(evals_one_epoch, N) == 1.0

    def test_exact_for_integer_multiples(self):
        for k in range(1, 7):
            assert effective_passes(k * 123, 123) == float(k)

    def test_invalid_N(self):
        with pytest.raises(ValueError):
            effective_passes(5, 0)


def _tiny_ref(n=4):
    return bench.ReferenceOptimum(n=n, w_star_n=np.zeros(2), risk_star=0.5,
                                  grad_norm_at_star=1e-12)


class TestCsv:
    def test_header_and_rows(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(2, 2, 0.75, 0.1, None))
        trace.append(TraceEvent(4, 4, 0.6, 0.05, 0.25))
        lines = trace_csv_text(trace, _tiny_ref()).splitlines()
        assert lines[0] == "effective_passes,grad_evals,stage_n,suboptimality,grad_norm,test_error"
        assert lines[1].endswith(",")  # empty test_error cell
        assert lines[2].split(",")[0] == "1"  # one full pass

    def test_empty_trace_header_only(self):
        assert trace_csv_text(Trace(N=4), _tiny_ref()).count("\n") == 1

    def test_suboptimality_clamped(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(1, 4, 0.5 - 1e-13, 0.1, None))
        assert float(trace_csv_text(trace, _tiny_ref()).splitlines()[1].split(",")[3]) == 0.0

    def test_round_trip(self):
        trace = Trace(N=4)
        trace.append(TraceEvent(2, 2, 0.75, 0.1, None))
        trace.append(TraceEvent(4, 4, 0.6, 1.0 / 3.0, 0.125))
        rows = list(csv.DictReader(io.StringIO(trace_csv_text(trace, _tiny_ref()))))
        assert rows[0]["test_error"] == ""
        assert float(rows[1]["grad_norm"]) == 1.0 / 3.0
        assert float(rows[1]["suboptimality"]) == 0.6 - 0.5
        assert float(rows[1]["effective_passes"]) == 1.0
        assert float(rows[1]["test_error"]) == 0.125

    def test_stage_mismatch_rejected(self):
        trace = Trace(N=8)
        with pytest.raises(ValueError):
            trace_csv_text(trace, _tiny_ref(n=4))

    def test_trace_append_rules(self):
        trace = Trace(N=1)
        trace.append(TraceEvent(1, 1, 0.1, 0.1))
        trace.append(TraceEvent(1, 1, 0.2, 0.2))  # supersedes, same counter
        assert len(trace.events) == 1 and trace.events[0].risk_value == 0.2
        with pytest.raises(ValueError):
            trace.append(TraceEvent(0, 1, 0.1, 0.1))


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
        assert ref.n == 1024


def test_fixed_gd_suboptimality_nonincreasing(compare_setup):
    # gd descends the full-set risk monotonically, so the suboptimality
    # column of a fixed gd trace never increases
    train, spec = compare_setup
    cfg = RunConfig(method="gd", adaptive=False, m0=256, seed=3, pass_cap=200)
    from adasize.driver import fixed_run

    _, trace = fixed_run(cfg, spec, train)
    ref = reference_optimum(spec, train.prefix(1024), tolerance=1e-11)
    subs = [max(0.0, ev.risk_value - ref.risk_star) for ev in trace.events]
    assert all(b <= a + 1e-12 for a, b in zip(subs, subs[1:]))


class TestSummaryFormat:
    def test_csv_header_exact(self):
        assert summary_csv_text([]) == ("method,adaptive,passes_to_VN,passes_to_min_test_error,"
                                  "min_test_error,speedup_vs_fixed\n")

    def test_rows_and_diverged(self):
        rows = [
            CompareRow("gd", False, passes_to_target=4.0, min_test_error=0.125,
                       passes_to_min_test_error=3.0),
            CompareRow("gd", True, diverged=True),
            CompareRow("agd", True, exhausted=True),
        ]
        lines = summary_csv_text(rows).splitlines()
        assert lines[1].startswith("gd,false,4")
        assert lines[2] == "gd,true,diverged,,,"
        assert lines[3] == "agd,true,exhausted,,,"
        table = format_summary_table(rows)
        assert "diverged" in table and table.splitlines()[0].startswith("method")
        assert "exhausted" in table
