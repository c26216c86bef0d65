import copy
import math
import shlex
import shutil
import sys
from contextlib import nullcontext
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from adasize import RiskSpec, init_state, solve
from adasize import erm, schedule, solvers, ckernel
from adasize.data import Dataset, generate_synthetic, normalize, parse_sparse_text
from adasize.erm import Measurement
from adasize.solvers import BudgetError, DivergenceError, agd_step, gd_step, svrg_epoch


def _precondition_warning(violated=True):
    """The SVRG contraction precondition warning, expected where an svrg epoch violates it."""
    return pytest.warns(RuntimeWarning, match="precondition") if violated else nullcontext()


class _ProductLog(sparse.csr_matrix):
    """A view's rows that log every vector they are multiplied with."""

    def __init__(self, x, operands):
        super().__init__(x)
        self.operands = operands

    def __matmul__(self, other):
        if np.ndim(other) == 1:
            self.operands.append(other)
        return super().__matmul__(other)


def _reference_epoch(state, spec, view):
    """The dense SVRG epoch: n steps along svrg_direction from the entry iterate."""
    n = view.n_samples
    _, eta, _ = schedule.svrg_params(spec, n)
    anchor = state.w
    full_grad = Measurement(spec, anchor, view).grad
    w_hat = anchor.copy()
    for i in state.rng.integers(0, n, size=n):
        w_hat -= eta * solvers.svrg_direction(spec, view, int(i), w_hat, anchor, full_grad)
    return w_hat


def _svrg_case(data, loss):
    """(dataset, spec) of the SVRG epoch tests.

    "dense" is 512 x 20 generated data, "sparse" has about 4 nonzeros per row
    over 6000 columns, and "renormalized" is long enough (a^n < 1e-100) that
    every epoch folds s into u; without the fold s would underflow to 0.
    """
    if data == "sparse":
        rng = np.random.default_rng(8)
        x = sparse.random(400, 6000, density=4 / 6000, format="csr", random_state=rng,
                          data_rvs=rng.standard_normal)
        ds = normalize(Dataset(x, np.where(rng.random(400) < 0.5, 1.0, -1.0)))
    else:
        n, seed = (512, 2) if data == "dense" else (8000, 3)
        ds = normalize(generate_synthetic(n, 20, 1.0, seed=seed)[0])
    c = 1000.0 if data == "renormalized" else 1.0
    spec = RiskSpec(loss=loss, c=c, gamma=1.0, M=0.25)
    n = ds.n_samples
    a = 1.0 - schedule.svrg_params(spec, n).eta * c * schedule.statistical_accuracy(spec, n)
    assert (a**n < 1e-100) == (data == "renormalized")
    assert (a**n == 0.0) == (data == "renormalized")
    return ds, spec


def _epochs(state, spec, view, count):
    for _ in range(count):
        state = svrg_epoch(state, spec, view, Measurement(spec, state.w, view))
    return state


def _one_sample_squared(cv_target=1e-12):
    """1-d regularized least squares with a single sample x=e1, y=1."""
    ds = parse_sparse_text("+1 1:1\n")
    # pick gamma so that c*V_1 equals cv_target exactly
    spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=cv_target, M=1.0)
    return ds, spec


class TestGd:
    def test_stationary_point_is_fixed(self):
        view, spec = _one_sample_squared(cv_target=0.25)
        w_star = np.array([1.0 / 1.25])  # (X'X/n + cV)^-1 X'y/n
        state = init_state("gd", 1)
        state.w = w_star
        out = gd_step(state, spec, view, Measurement(spec, state.w, view))
        np.testing.assert_allclose(out.w, w_star, atol=1e-16)

    def test_converges_to_least_squares_solution(self):
        view, spec = _one_sample_squared()
        state = init_state("gd", 1)
        for _ in range(200):
            state = gd_step(state, spec, view, Measurement(spec, state.w, view))
        assert state.w[0] == pytest.approx(1.0, abs=1e-6)

    def test_grad_eval_accounting(self, spec, small_train):
        view = small_train.prefix(100)
        state = init_state("gd", small_train.dim)
        for k in range(1, 4):
            state = gd_step(state, spec, view, Measurement(spec, state.w, view))
            assert state.grad_evals == k * 100

    def test_monotone_descent_with_tight_constant(self, small_train, rng):
        spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=0.25)
        view = small_train.prefix(256)
        state = init_state("gd", small_train.dim)
        state.w = rng.uniform(-1, 1, small_train.dim)
        prev = Measurement(spec, state.w, view).risk
        for _ in range(50):
            state = gd_step(state, spec, view, Measurement(spec, state.w, view))
            cur = Measurement(spec, state.w, view).risk
            assert cur <= prev + 1e-10
            prev = cur

    def test_wrong_state_kind(self, spec, small_train):
        with pytest.raises(ValueError):
            state, view = init_state("agd", small_train.dim), small_train.prefix(10)
            gd_step(state, spec, view, Measurement(spec, state.w, view))


class TestAgd:
    def test_zero_momentum_reduces_to_gd(self, spec, small_train, monkeypatch):
        view = small_train.prefix(64)
        eta = 1.0 / (spec.M + spec.c * schedule.statistical_accuracy(spec, 64))
        monkeypatch.setattr(schedule, "agd_params", lambda s, n: (eta, 0.0))
        ga = init_state("gd", small_train.dim)
        aa = init_state("agd", small_train.dim)
        for _ in range(5):
            ga = gd_step(ga, spec, view, Measurement(spec, ga.w, view))
            aa = agd_step(aa, spec, view)
            np.testing.assert_array_equal(ga.w, aa.w)

    def test_fixed_point(self):
        view, spec = _one_sample_squared(cv_target=0.25)
        w_star = np.array([1.0 / 1.25])
        state = init_state("agd", 1)
        state.w = w_star.copy()
        state.agd_y = w_star.copy()
        for _ in range(3):
            state = agd_step(state, spec, view)
            np.testing.assert_allclose(state.w, w_star, atol=1e-15)

    def test_linear_rate_on_quadratic(self):
        # two orthogonal samples give a diagonal quadratic; the exact optimum
        # is closed-form, and the observed contraction must respect the rate
        # implied by the (M, cV) parameter pair
        ds = parse_sparse_text("+1 1:1\n-1 2:0.4\n")
        spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=0.02, M=1.0)
        view = ds
        cv = spec.c * schedule.statistical_accuracy(spec, 2)
        # risk = (1/2n) sum (w.x_i - y_i)^2 + cv/2 |w|^2, Hessian diag
        h = np.array([0.5 * 1.0 + cv, 0.5 * 0.16 + cv])
        b = np.array([0.5 * 1.0, 0.5 * 0.4 * -1.0])
        w_star = b / h
        r_star = Measurement(spec, w_star, view).risk
        kappa = (spec.M + cv) / cv
        state = init_state("agd", 2)
        gaps = []
        for _ in range(60):
            state = agd_step(state, spec, view)
            gaps.append(Measurement(spec, state.w, view).risk - r_star)
        observed = (gaps[49] / gaps[9]) ** (1.0 / 40.0)
        assert observed <= (1.0 - 1.0 / math.sqrt(kappa)) + 0.05

    def test_accounting(self, spec, small_train):
        state = init_state("agd", small_train.dim)
        state = agd_step(state, spec, small_train.prefix(70))
        assert state.grad_evals == 70


class TestSvrg:
    def test_epoch_at_optimum_is_identity(self):
        view, spec = _one_sample_squared(cv_target=0.25)
        w_star = np.array([1.0 / 1.25])
        state = init_state("svrg", 1, seed=3)
        state.w = w_star.copy()
        with _precondition_warning():
            out = svrg_epoch(state, spec, view, Measurement(spec, state.w, view))
        np.testing.assert_allclose(out.w, w_star, atol=1e-15)

    def test_direction_mean_is_exact_gradient(self, spec, small_train, rng):
        view = small_train.prefix(5)
        w_hat = rng.uniform(-1, 1, small_train.dim)
        anchor = rng.uniform(-1, 1, small_train.dim)
        full_grad = Measurement(spec, anchor, view).grad
        mean = np.zeros(small_train.dim)
        for i in range(5):
            mean += solvers.svrg_direction(spec, view, i, w_hat, anchor, full_grad)
        mean /= 5
        grad_hat = Measurement(spec, w_hat, view).grad
        np.testing.assert_allclose(mean, grad_hat, atol=1e-12)

    def test_direction_at_anchor_equals_full_gradient(self, spec, small_train):
        view = small_train.prefix(8)
        w = np.full(small_train.dim, 0.3)
        full_grad = Measurement(spec, w, view).grad
        for i in range(8):
            d = solvers.svrg_direction(spec, view, i, w, w, full_grad)
            np.testing.assert_array_equal(d, full_grad)

    def test_epoch_accounting_and_anchor(self, spec, small_train):
        view = small_train.prefix(40)
        state = init_state("svrg", small_train.dim, seed=9)
        with _precondition_warning():
            out = svrg_epoch(state, spec, view, Measurement(spec, state.w, view))
        assert out.grad_evals == 80
        # the next epoch anchors at the exit iterate: it depends only on w and
        # the generator, as an epoch from a fresh state with both copied shows
        fresh = init_state("svrg", small_train.dim)
        fresh.w = out.w.copy()
        fresh.rng.bit_generator.state = out.rng.bit_generator.state
        with _precondition_warning():
            np.testing.assert_array_equal(
                svrg_epoch(out, spec, view, Measurement(spec, out.w, view)).w,
                svrg_epoch(fresh, spec, view, Measurement(spec, fresh.w, view)).w)

    @pytest.mark.parametrize("case", ["dense_logistic", "dense_squared", "wide_sparse",
                                      "renormalized"])
    def test_epoch_matches_dense_reference(self, case):
        # svrg_epoch keeps w as s*u + r*b; the reference applies svrg_direction densely
        data, loss = {"dense_logistic": ("dense", "logistic"),
                      "dense_squared": ("dense", "squared"),
                      "wide_sparse": ("sparse", "logistic"),
                      "renormalized": ("renormalized", "logistic")}[case]
        ds, spec = _svrg_case(data, loss)
        view = ds
        fast = init_state("svrg", ds.dim, seed=6)
        fast.w = np.random.default_rng(7).uniform(-1, 1, ds.dim)
        for _ in range(2):  # the second epoch anchors at an iterate the first one moved
            ref = replace(fast, rng=copy.deepcopy(fast.rng))
            expected = _reference_epoch(ref, spec, view)
            fast = svrg_epoch(fast, spec, view, Measurement(spec, fast.w, view))
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(fast.w - expected)) <= 1e-12 * scale
        assert fast.rng.random() == ref.rng.random()  # both drew the same picks

    def test_duplicate_columns_are_merged(self):
        # a CSR row that lists column 0 twice means the sum of both entries
        x = sparse.csr_matrix((np.array([0.75, -0.25, 0.5, 0.8]), np.array([0, 0, 1, 1]),
                               np.array([0, 3, 4])), shape=(2, 2))
        ds = Dataset(x, np.array([1.0, -1.0]))
        assert ds.x.has_canonical_format
        np.testing.assert_array_equal(ds.x.toarray(), [[0.5, 0.5], [0.0, 0.8]])
        spec = RiskSpec(loss="squared", c=1.0, gamma=1.0, M=1.0)
        view = ds
        w_hat, anchor = np.array([0.4, -0.7]), np.array([-0.2, 0.3])
        full_grad = Measurement(spec, anchor, view).grad
        mean = sum(solvers.svrg_direction(spec, view, i, w_hat, anchor, full_grad)
                   for i in range(2)) / 2
        grad_hat = Measurement(spec, w_hat, view).grad
        np.testing.assert_allclose(mean, grad_hat, atol=1e-12)

    def test_deterministic_given_seed(self, spec, small_train):
        view = small_train.prefix(30)
        runs = []
        for _ in range(2):
            state = init_state("svrg", small_train.dim, seed=42)
            with _precondition_warning():
                for _ in range(3):
                    state = svrg_epoch(state, spec, view, Measurement(spec, state.w, view))
            runs.append(state.w.copy())
        np.testing.assert_array_equal(runs[0], runs[1])


def _kernel_or_skip():
    kernel = ckernel.get()
    if kernel is None:
        pytest.skip(ckernel.reason)
    return kernel


class TestSvrgKernel:
    """The compiled pick loop against the numpy loop it replaces, and its loader."""

    @pytest.mark.parametrize("index_dtype", [np.int32, np.int64])
    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    @pytest.mark.parametrize("data", ["dense", "sparse", "renormalized"])
    def test_kernel_matches_numpy_loop(self, data, loss, index_dtype, monkeypatch):
        kernel = _kernel_or_skip()
        ds, spec = _svrg_case(data, loss)
        view = ds
        # scipy builds the view's matrix with int32 indices; int64 ones take the
        # kernel's conversion route
        view.x.indices = view.x.indices.astype(index_dtype)
        view.x.indptr = view.x.indptr.astype(index_dtype)
        start = init_state("svrg", ds.dim, seed=6)
        start.w = np.random.default_rng(7).uniform(-1, 1, ds.dim)
        ends = []
        for path in (kernel, None):
            monkeypatch.setattr(ckernel, "get", lambda path=path: path)
            ends.append(_epochs(replace(start, rng=copy.deepcopy(start.rng)), spec, view, 3))
        compiled, numpy_loop = ends
        assert compiled.grad_evals == numpy_loop.grad_evals == 6 * ds.n_samples
        np.testing.assert_equal(compiled.rng.bit_generator.state,
                                numpy_loop.rng.bit_generator.state)
        np.testing.assert_array_equal(compiled.w, numpy_loop.w)  # one set of bits on every host

    @pytest.mark.parametrize("loss", ["logistic", "squared"])
    def test_loss_coef_is_sample_loss_coef(self, loss):
        kernel = _kernel_or_skip()
        for label in (1.0, -1.0):
            for margin in (0.0, 1e-8, -1e-8, 1.0, -1.0, 30.0, -30.0, 800.0, -800.0):
                assert kernel.loss_coef(loss, margin, label) == \
                    erm.sample_loss_coef(loss, margin, label), (label, margin)

    def test_kernel_loads_where_a_compiler_exists(self, tmp_path):
        compiler = shlex.split(ckernel.default_compiler())[0]
        if shutil.which(compiler) is None:
            pytest.skip(f"no C compiler {compiler!r} on PATH")
        # the process's own kernel: a silent fall back to the numpy loop fails here
        assert ckernel.get() is not None, ckernel.reason
        kernel, reason = ckernel.load(cache_dir=tmp_path)
        assert kernel is not None and reason.startswith("C kernel: built"), reason
        assert [p.suffix for p in tmp_path.iterdir()] == [".so"]  # no temporary file left
        kernel, reason = ckernel.load(cache_dir=tmp_path)
        assert kernel is not None and reason.startswith("C kernel: loaded"), reason

    @pytest.mark.parametrize("failure", ["no_compiler", "compiler_fails", "unwritable_cache"])
    def test_failed_load_runs_the_numpy_loop(self, failure, tmp_path, monkeypatch):
        cache_dir = tmp_path / "cache"
        compiler = None
        if failure == "no_compiler":
            compiler = str(tmp_path / "no-such-cc")
        elif failure == "compiler_fails":
            compiler = shlex.join([sys.executable, "-c", "raise SystemExit(3)"])
        else:  # a path below a regular file cannot be created, whatever the user
            (tmp_path / "file").write_text("")
            cache_dir = tmp_path / "file" / "cache"
        kernel, reason = ckernel.load(compiler=compiler, cache_dir=cache_dir)
        assert kernel is None and reason.startswith("no C kernel: "), reason
        if failure != "unwritable_cache":
            assert list(cache_dir.iterdir()) == []  # the temporary file is removed

        # a process whose first epoch meets that failure runs the numpy loop
        ds, spec = _svrg_case("dense", "logistic")
        view = ds
        start = init_state("svrg", ds.dim, seed=6)
        monkeypatch.setattr(ckernel, "get", lambda: None)
        expected = _epochs(replace(start, rng=copy.deepcopy(start.rng)), spec, view, 2)
        monkeypatch.undo()
        for name, value in (("_tried", False), ("kernel", None), ("reason", "not loaded yet"),
                            ("load", lambda: (kernel, reason))):
            monkeypatch.setattr(ckernel, name, value)
        got = _epochs(start, spec, view, 2)
        assert ckernel.kernel is None and ckernel.reason == reason
        np.testing.assert_array_equal(got.w, expected.w)
        assert got.grad_evals == expected.grad_evals


class TestSolve:
    def test_threshold_met_at_entry(self, spec, small_train):
        view = small_train.prefix(50)
        state = init_state("gd", small_train.dim)
        result = solve(state, spec, view, threshold=10.0)
        assert result.iterations == 0
        assert result.exit.grad_norm <= 10.0
        np.testing.assert_array_equal(result.state.w, np.zeros(small_train.dim))

    def test_threshold_reached(self, spec, small_train):
        view = small_train.prefix(200)
        thr = schedule.stop_threshold(spec, 200)
        result = solve(init_state("agd", small_train.dim), spec, view, threshold=thr)
        assert result.exit.grad_norm <= thr

    def test_fixed_iterations_exact(self, spec, small_train):
        view = small_train.prefix(25)
        result = solve(init_state("gd", small_train.dim), spec, view, iterations=7)
        assert result.iterations == 7
        assert result.state.grad_evals == 7 * 25

    def test_threshold_alone_raises_after_max_iterations(self, spec, small_train, monkeypatch):
        # MAX_ITERATIONS is read when solve runs, not when it is defined
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 3)
        calls = []
        with pytest.raises(BudgetError, match=r"^stage n=200 stopped after 3 iterations at "
                                              r"\|\|grad R_n\|\| = [0-9.e+-]+, "
                                              r"above its threshold 1e-14$"):
            solve(init_state("gd", small_train.dim), spec, small_train.prefix(200),
                  threshold=1e-14, callback=lambda st, it, at_w: calls.append(it))
        assert calls == [1, 2, 3]

    def test_both_rules_stop_at_whichever_holds_first(self, spec, small_train, monkeypatch):
        # the count is a cap, and may exceed MAX_ITERATIONS: stopping there is no error
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 3)
        view = small_train.prefix(200)
        capped = solve(init_state("gd", small_train.dim), spec, view, threshold=1e-14,
                       iterations=5)
        assert capped.iterations == 5 and capped.exit.grad_norm > 1e-14
        met = solve(init_state("gd", small_train.dim), spec, view, threshold=10.0,
                    iterations=5)
        assert met.iterations == 0
        zero = solve(init_state("gd", small_train.dim), spec, view, threshold=1e-14,
                     iterations=0)
        assert zero.iterations == 0

    @pytest.mark.parametrize("rule", [
        pytest.param({}, id="neither"),
        pytest.param({"iterations": -1}, id="negative_iterations"),
        pytest.param({"iterations": -1, "threshold": 0.1}, id="negative_cap"),
        pytest.param({"iterations": solvers.MAX_ITERATIONS + 1}, id="iterations_above_cap"),
    ])
    def test_invalid_budgets(self, spec, small_train, rule):
        state = init_state("gd", small_train.dim)
        with pytest.raises(BudgetError):
            solve(state, spec, small_train.prefix(8), **rule)

    def test_callback_sees_every_iteration(self, spec, small_train):
        seen = []
        solve(init_state("gd", small_train.dim), spec, small_train.prefix(30),
              iterations=4, callback=lambda st, it, at_w: seen.append((it, st.grad_evals)))
        assert seen == [(1, 30), (2, 60), (3, 90), (4, 120)]

    @pytest.mark.parametrize("method", ["gd", "agd", "svrg"])
    @pytest.mark.parametrize("mode", ["until_threshold", "fixed_iterations"])
    def test_one_measurement_per_iterate(self, method, mode, spec, small_train):
        # the stop test, the GD step and the SVRG anchor share the margins x @ w of
        # the measurement at w; AGD steps from y, so a fixed-count AGD solve reads
        # w's only at the exit, and its first step, where y is w, reads w's too
        view = small_train.prefix(64)
        operands = []
        view.x = _ProductLog(view.x, operands)
        state = init_state(method, small_train.dim, seed=5)
        points = [state.w, state.agd_y]  # every iterate and lookahead, by identity
        rule = {"threshold": 1e-3} if mode == "until_threshold" else {"iterations": 3}
        with _precondition_warning(method == "svrg"):
            result = solve(state, spec, view, **rule,
                           callback=lambda st, it, at_w: points.extend((st.w, st.agd_y)))
        result.exit.grad_norm  # every caller reads the exit measurement
        k = result.iterations
        assert k >= 1
        expected = 2 * k if (method, mode) == ("agd", "until_threshold") else k + 1
        margin_products = [v for v in operands if any(v is p for p in points)]
        assert len(margin_products) == expected
        # besides them, only each SVRG epoch's product with its shift b
        assert len(operands) == expected + (k if method == "svrg" else 0)
        if method != "agd":
            # one product per iterate, by value: an SVRG epoch makes no product
            # of its own for its anchor
            for w in points[::2]:
                assert sum(np.array_equal(v, w) for v in operands) == 1

    def test_agd_callback_measures_w_not_y(self, spec, small_train):
        view = small_train.prefix(64)
        seen = []
        solve(init_state("agd", small_train.dim), spec, view, iterations=3,
              callback=lambda st, it, at_w: seen.append((st.w, st.agd_y, at_w)))
        assert len(seen) == 3
        for w, y, at_w in seen:
            assert not np.array_equal(w, y)
            at = Measurement(spec, w, view)
            r, g, gnorm = at.risk, at.grad, at.grad_norm
            assert (at_w.risk, at_w.grad_norm) == (r, gnorm)
            np.testing.assert_array_equal(at_w.grad, g)

    def test_divergence_detected(self):
        # absurdly small smoothness constant gives a step far above 2/L
        ds = parse_sparse_text("+1 1:40\n")
        spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=1e-9, M=1e-9)
        with pytest.raises(DivergenceError):
            solve(init_state("gd", 1), spec, ds, iterations=2000)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            init_state("newton", 3)
