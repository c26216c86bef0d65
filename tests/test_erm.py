import math

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from adasize import Dataset, RiskSpec, smoothness_constant
from adasize.erm import test_error as classification_error
from adasize.data import EmptyDatasetError, generate_synthetic, normalize, parse_sparse_text
from adasize.erm import Measurement, _loss_coefs, _loss_values, risk_hessian, \
    sample_loss_coef
from adasize.schedule import statistical_accuracy
from adasize.verify import _risk_value_scalar

# log1p(exp(-50)) at 40 decimal digits
LOGISTIC_AT_MARGIN_50 = 1.928749847963917783e-22


def _loss_and_grad(loss, w, view):
    """The average loss over the view and its gradient: R_n and grad R_n without the ridge.

    Both come from one `Measurement`'s margins and loss coefficients.
    """
    at = Measurement(RiskSpec(loss=loss), w, view)
    return (float(_loss_values(loss, at.margins, view.y).mean()),
            view.xt @ (at.coefs / view.n_samples))


def _losses(loss, w, ds, i=0):
    """Sample i's loss through the vectorized path and through the scalar oracle.

    The oracle evaluates the risk; its ridge weight gamma=1e-300 keeps the
    ridge term below the last bit of every loss in these tests.
    """
    view = Dataset(ds.x[i], ds.y[i:i + 1])
    vectorized, _ = _loss_and_grad(loss, w, view)
    return vectorized, _risk_value_scalar(RiskSpec(loss=loss, gamma=1e-300), w, view)


def test_logistic_at_origin_is_log2(small_train):
    w = np.zeros(small_train.dim)
    for i in (0, 7, 31):
        for v in _losses("logistic", w, small_train, i):
            assert v == pytest.approx(math.log(2))


def test_logistic_large_margin_stable():
    ds = parse_sparse_text("+1 1:1\n")
    for v in _losses("logistic", np.array([50.0]), ds):
        assert 0.0 < v < 1e-20
        assert v == pytest.approx(LOGISTIC_AT_MARGIN_50, rel=1e-12)
    # the mirrored margin must not overflow either
    for big in _losses("logistic", np.array([-800.0]), ds):
        assert big == pytest.approx(800.0, rel=1e-12)


def test_squared_exact_fit_is_zero():
    ds = parse_sparse_text("+1 1:0.5\n")
    w = np.array([2.0])
    vectorized, _ = _losses("squared", w, ds)
    assert vectorized == 0.0
    # a zero loss leaves exactly the ridge term on both paths
    spec = RiskSpec(loss="squared")
    assert _risk_value_scalar(spec, w, ds) == Measurement(spec, w, ds).risk


@pytest.mark.parametrize("loss", ["logistic", "squared"])
def test_sample_loss_coef_matches_vectorized(loss):
    margins = np.array([0.0, 1.0, -1.0, 50.0, -50.0, 800.0, -800.0])
    for label in (1.0, -1.0):
        coefs = _loss_coefs(loss, margins, np.full(margins.size, label))
        for t, expected in zip(margins.tolist(), coefs.tolist()):
            assert sample_loss_coef(loss, t, label) == pytest.approx(expected, rel=1e-15, abs=0)


def test_unknown_loss_rejected():
    with pytest.raises(ValueError):
        _loss_and_grad("hinge", np.zeros(1), parse_sparse_text("+1 1:1\n"))
    with pytest.raises(ValueError):
        RiskSpec(loss="hinge")


def test_dimension_mismatch():
    ds = parse_sparse_text("+1 3:1\n")
    with pytest.raises(ValueError):
        _loss_and_grad("logistic", np.zeros(2), ds)


def test_empirical_loss_at_origin(small_train):
    view = small_train.prefix(200)
    w = np.zeros(small_train.dim)
    value, grad = _loss_and_grad("logistic", w, view)
    assert value == pytest.approx(math.log(2))
    expected = -(view.y @ view.x) / (2 * view.n_samples)
    np.testing.assert_allclose(grad, np.asarray(expected).ravel(), rtol=1e-12)


def test_single_sample_view_matches_scalar_oracle(small_train, rng):
    w = rng.uniform(-1, 1, small_train.dim)
    for loss in ("logistic", "squared"):
        vectorized, scalar = _losses(loss, w, small_train)
        assert vectorized == pytest.approx(scalar)


def _risk_value_loop(spec, w, view):
    """The per-row loop the vectorized `_risk_value_scalar` replaced, kept as its reference."""
    terms = []
    for i in range(view.n_samples):
        idx, vals, y = view.sample_arrays(i)
        t = float(vals @ w[idx])
        if spec.loss == "logistic":
            z = -y * t
            terms.append(z + math.log1p(math.exp(-z)) if z > 0 else math.log1p(math.exp(z)))
        else:
            terms.append(0.5 * (t - y) ** 2)
    v_n = statistical_accuracy(spec, view.n_samples)
    return math.fsum(terms) / view.n_samples + 0.5 * spec.c * v_n * float(w @ w)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
def test_scalar_oracle_matches_per_row_loop(loss):
    rng = np.random.default_rng(11)
    dense = rng.uniform(-1.0, 1.0, (12, 6)) * (rng.random((12, 6)) < 0.5)
    dense[:4] = 0.0
    dense[:4, 0] = 1.0  # rows 0-3 have margin w[0]: +-800 below, under both labels
    dense[[4, 8]] = 0.0  # all-zero rows, each the last row of a prefix view below
    y = np.array([1.0, -1.0, 1.0, -1.0] + [1.0 if v else -1.0 for v in rng.random(8) < 0.5])
    ds = Dataset(sparse.csr_matrix(dense), y)
    assert ds.x.indptr[5] == ds.x.indptr[4] and ds.x.indptr[9] == ds.x.indptr[8]
    spec = RiskSpec(loss=loss)
    for w0 in (800.0, -800.0, 0.3):
        w = rng.uniform(-2.0, 2.0, 6)
        w[0] = w0
        for view in (ds, ds.prefix(9), ds.prefix(5), ds.prefix(1)):
            expected = _risk_value_loop(spec, w, view)
            assert _risk_value_scalar(spec, w, view) == pytest.approx(expected, rel=1e-14)


def test_gradient_matches_finite_differences(small_train, rng):
    view = small_train.prefix(64)
    for loss in ("logistic", "squared"):
        spec = RiskSpec(loss=loss, c=1.0, alpha=0.5, gamma=1.0, M=1.0)
        w = rng.uniform(-1, 1, small_train.dim)
        grad = Measurement(spec, w, view).grad
        h = 1e-6
        for j in rng.choice(small_train.dim, 4, replace=False):
            wp, wm = w.copy(), w.copy()
            wp[j] += h
            wm[j] -= h
            fd = (Measurement(spec, wp, view).risk - Measurement(spec, wm, view).risk) / (2 * h)
            assert fd == pytest.approx(grad[j], rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
def test_hessian_vector_matches_finite_differences(loss, small_train, rng):
    # central differences of the analytic gradient along v
    spec = RiskSpec(loss=loss, c=0.7, alpha=0.75, gamma=1.3, M=1.0)
    view = small_train.prefix(300)
    h = 1e-5
    for _ in range(5):
        w = rng.uniform(-2, 2, small_train.dim)
        v = rng.standard_normal(small_train.dim)
        fd = (Measurement(spec, w + h * v, view).grad
              - Measurement(spec, w - h * v, view).grad) / (2 * h)
        np.testing.assert_allclose(risk_hessian(Measurement(spec, w, view))(v), fd,
                                   rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("shape", [(256, 20, 1.0), (8192, 20, 1.0), (3000, 500, 0.05)],
                         ids=["256x20", "8192x20", "3000x500_sparse"])
def test_transpose_products_are_the_rmatmul_bits(loss, shape, rng):
    # the gradient and the Hessian product were once `vector @ x`, which scipy
    # serves through __rmatmul__ by building a transpose on every call
    ds, _ = generate_synthetic(*shape, seed=5)
    view = normalize(ds).prefix(shape[0] - 1)
    spec = RiskSpec(loss=loss, c=0.7, alpha=0.75, gamma=1.3, M=1.0)
    w, v = rng.normal(size=ds.dim), rng.normal(size=ds.dim)
    margins = view.x @ w
    coefs = _loss_coefs(loss, margins, view.y)
    old_grad = np.asarray((coefs / view.n_samples) @ view.x).ravel()
    np.testing.assert_array_equal(_loss_and_grad(loss, w, view)[1], old_grad)
    n = view.n_samples
    h = expit(margins) * expit(-margins) / n if loss == "logistic" else 1.0 / n
    reg = spec.c * statistical_accuracy(spec, view.n_samples)
    old_hv = np.asarray((h * (view.x @ v)) @ view.x).ravel() + reg * v
    np.testing.assert_array_equal(risk_hessian(Measurement(spec, w, view))(v), old_hv)
    assert view.xt is view.xt


def test_risk_at_origin_equals_loss(spec, small_train):
    view = small_train.prefix(100)
    w = np.zeros(small_train.dim)
    at = Measurement(spec, w, view)
    r, g, gnorm = at.risk, at.grad, at.grad_norm
    value, grad = _loss_and_grad(spec.loss, w, view)
    assert r == value
    np.testing.assert_array_equal(g, grad)
    assert gnorm == pytest.approx(float(np.linalg.norm(grad)))


def _old_loss_terms(loss, margins, y):
    """Per-sample loss values and coefficients, as erm computed them in one function."""
    if loss == "logistic":
        return np.logaddexp(0.0, -y * margins), -y * expit(-y * margins)
    resid = margins - y
    return 0.5 * resid**2, resid


def _old_risk_value_and_grad(spec, w, view):
    """(R_n, grad R_n, ||grad R_n||) as erm computed them before the lazy measurement.

    One margin product gives both the loss values and the coefficients.
    """
    n = view.n_samples
    values, coefs = _old_loss_terms(spec.loss, view.x @ w, view.y)
    l_n, g = float(values.mean()), view.xt @ (coefs / n)
    reg = spec.c * statistical_accuracy(spec, n)
    r_n = l_n + 0.5 * reg * float(w @ w)
    # the old risk_value wrote the ridge term as 0.5 * c * V_n: the same number
    assert r_n == l_n + 0.5 * spec.c * statistical_accuracy(spec, n) * float(w @ w)
    g = g + reg * w
    return r_n, g, float(np.linalg.norm(g))


@pytest.mark.parametrize("loss", ["logistic", "squared"])
def test_loss_helpers_split_the_old_loss_terms(loss, rng):
    margins = np.concatenate(([0.0, 50.0, -50.0, 800.0, -800.0], rng.normal(0.0, 5.0, 200)))
    y = np.where(rng.random(margins.size) < 0.5, 1.0, -1.0)
    values, coefs = _old_loss_terms(loss, margins, y)
    np.testing.assert_array_equal(_loss_values(loss, margins, y), values)
    np.testing.assert_array_equal(_loss_coefs(loss, margins, y), coefs)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
@pytest.mark.parametrize("order", ["risk_first", "risk_last", "risk_never"])
def test_measurement_is_the_old_oracles_bits(loss, order, small_train, rcv1_tiny, rng):
    spec = RiskSpec(loss=loss, c=0.7, alpha=0.75, gamma=1.3, M=1.0)
    rcv1 = normalize(rcv1_tiny)
    views = [small_train.prefix(1), small_train.prefix(97), small_train,
             rcv1.prefix(1999), rcv1]
    for view in views:
        for scale in (0.1, 3.0, 40.0):  # 40 puts logistic margins in both tails
            w = rng.normal(0.0, scale, view.dim)
            r, g, gnorm = _old_risk_value_and_grad(spec, w, view)
            at = Measurement(spec, w, view)
            if order == "risk_first":
                assert at.risk == r
            np.testing.assert_array_equal(at.grad, g)
            assert at.grad_norm == gnorm
            if order == "risk_last":
                assert at.risk == r
            if order == "risk_never":
                assert "risk" not in vars(at)  # no loss values were computed
            assert Measurement(spec, w, view).risk == r
            at = Measurement(spec, w, view)
            r2, g2, gnorm2 = at.risk, at.grad, at.grad_norm
            assert (r2, gnorm2) == (r, gnorm)
            np.testing.assert_array_equal(g2, g)


@pytest.mark.parametrize("loss", ["logistic", "squared"])
def test_risk_read_alone_is_bitwise_the_risk_read_after_the_gradient(loss, small_train, rng):
    # the trace reuses the solver's stage risk as R_N when the stage is the full set
    spec = RiskSpec(loss=loss, c=0.7, alpha=0.75, gamma=1.3, M=1.0)
    for n in (1, 97, 512):
        view = small_train.prefix(n)
        for _ in range(5):
            w = rng.normal(0.0, 2.0, small_train.dim)
            after_grad = Measurement(spec, w, view)
            after_grad.grad
            assert Measurement(spec, w, view).risk == after_grad.risk


def test_regularizer_weight_matches_protocol(small_train, rng):
    # c=1, alpha=0.5, gamma=2, n=400: the ridge term is (1/sqrt(400)) ||w||^2
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=2.0, M=1.0)
    view = small_train.prefix(400)
    w = rng.uniform(-1, 1, small_train.dim)
    value, _ = _loss_and_grad(spec.loss, w, view)
    reg = Measurement(spec, w, view).risk - value
    assert reg == pytest.approx(0.05 * float(w @ w), rel=1e-12)
    # quadratic homogeneity in w
    reg2 = Measurement(spec, 2 * w, view).risk - _loss_and_grad(spec.loss, 2 * w, view)[0]
    assert reg2 == pytest.approx(4 * reg, rel=1e-12)


def test_smoothness_constant(small_train):
    assert smoothness_constant("logistic", small_train) == pytest.approx(0.25, rel=1e-12)
    ds = parse_sparse_text("+1 1:2\n-1 1:3\n")
    assert smoothness_constant("squared", ds) == pytest.approx(9.0)
    # a view sees only its own rows
    assert smoothness_constant("squared", ds.prefix(1)) == pytest.approx(4.0)
    # an all-zero set is floored so step sizes stay finite
    assert smoothness_constant("logistic", parse_sparse_text("+1 1:0\n", dim=1)) == 1e-12
    with pytest.raises(ValueError):
        smoothness_constant("hinge", small_train)


def test_strong_convexity_property(spec, small_train, rng):
    view = small_train.prefix(128)
    cv = spec.c * spec.gamma / math.sqrt(view.n_samples)
    for _ in range(25):
        w1 = rng.uniform(-1, 1, small_train.dim)
        w2 = rng.uniform(-1, 1, small_train.dim)
        theta = rng.uniform(0.05, 0.95)
        mid = Measurement(spec, theta * w1 + (1 - theta) * w2, view).risk
        chord = (theta * Measurement(spec, w1, view).risk
                 + (1 - theta) * Measurement(spec, w2, view).risk)
        gap = 0.5 * cv * theta * (1 - theta) * float(np.sum((w1 - w2) ** 2))
        assert mid <= chord - gap + 1e-9


def test_gradient_smoothness_property(small_train, rng):
    m_tight = smoothness_constant("logistic", small_train)
    spec = RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=m_tight)
    view = small_train.prefix(128)
    lip = m_tight + spec.c * spec.gamma / math.sqrt(view.n_samples)
    for _ in range(25):
        w1 = rng.uniform(-2, 2, small_train.dim)
        w2 = rng.uniform(-2, 2, small_train.dim)
        g1 = Measurement(spec, w1, view).grad
        g2 = Measurement(spec, w2, view).grad
        assert np.linalg.norm(g1 - g2) <= lip * np.linalg.norm(w1 - w2) + 1e-9


def test_averaging_consistency(small_train, rng):
    # loss over the first n samples is the sample-count-weighted average of
    # the first m and the next n-m
    w = rng.uniform(-1, 1, small_train.dim)
    m, n = 150, 400
    l_n, _ = _loss_and_grad("logistic", w, small_train.prefix(n))
    l_m, _ = _loss_and_grad("logistic", w, small_train.prefix(m))
    tail = small_train.prefix(n)
    margins = tail.x[m:] @ w
    tail_losses = np.logaddexp(0.0, -small_train.y[m:n] * margins)
    l_tail = float(tail_losses.mean())
    assert l_n == pytest.approx((m / n) * l_m + ((n - m) / n) * l_tail, rel=1e-12)


class TestTestError:
    def test_zero_weights_predict_plus_one(self, small_train):
        err = classification_error("logistic", np.zeros(small_train.dim), small_train)
        assert err == pytest.approx(float(np.mean(small_train.y == -1.0)))

    def test_perfect_classifier(self):
        ds = parse_sparse_text("+1 1:1\n-1 1:-1\n")
        assert classification_error("logistic", np.array([3.0]), ds) == 0.0

    def test_informative_weights_beat_chance(self):
        raw, w_true = generate_synthetic(2000, 10, 1.0, seed=21, margin_scale=2.5)
        # evaluate on the raw features that generated the labels
        assert classification_error("logistic", w_true, raw) < 0.5

    def test_empty_test_set_rejected(self, small_train):
        from adasize.data import shuffle_and_split

        _, empty = shuffle_and_split(small_train, small_train.n_samples, seed=0)
        with pytest.raises(EmptyDatasetError):
            classification_error("logistic", np.zeros(small_train.dim), empty)
        with pytest.raises(EmptyDatasetError):
            smoothness_constant("logistic", empty)
