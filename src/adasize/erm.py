"""Loss models and the regularized empirical risk.

The risk over the first n training samples is

    R_n(w) = L_n(w) + (c * V_n / 2) * ||w||^2,

where L_n is the average per-sample loss and V_n = gamma / n^alpha is the
statistical-accuracy level of an n-sample set.  R_n is strongly convex with
modulus c*V_n and has (M + c*V_n)-Lipschitz gradients.

`Measurement` is the one risk oracle: it computes the margins x_n @ w once
and everything else on first read, the loss values only where R_n itself is
read.  `risk_hessian` is built on it.  A caller that already holds an
iterate's margins hands them over instead: the driver gives a stage's entry
measurement the first n of the full-set margins its recorder built at the
previous exit, and the reference solve starts from a run's exit
measurement.  `margins` is the one product x @ w; the zero vector's margins
are zeros and take no product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import expit

from . import schedule
from .data import Dataset, EmptyDatasetError, row_sq_norms

LOSSES = ("logistic", "squared")


def _check_loss(loss: str) -> None:
    if loss not in LOSSES:
        raise ValueError(f"unknown loss {loss!r}; expected one of {LOSSES}")


@dataclass(frozen=True)
class RiskSpec:
    """Parameters defining R_n for every n.

    c scales the adaptive regularizer, alpha in [0.5, 1] is the statistical
    accuracy decay exponent, gamma its numerator, and M the gradient
    Lipschitz constant used by solver step sizes.  wstar_sq = ||w*||^2 of the
    unobservable statistical optimum is user-supplied; only the warm-start
    bound and the closed-form iteration counts read it (0 gives the smallest).
    """

    loss: str = "logistic"
    c: float = 1.0
    alpha: float = 0.5
    gamma: float = 1.0
    M: float = 1.0
    wstar_sq: float = 0.0

    def __post_init__(self):
        _check_loss(self.loss)
        if not 0.5 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must lie in [0.5, 1], got {self.alpha}")
        for field in ("c", "gamma", "M"):
            if getattr(self, field) <= 0:
                raise ValueError(f"{field} must be positive, got {getattr(self, field)}")
        if self.wstar_sq < 0:
            raise ValueError(f"wstar_sq must be nonnegative, got {self.wstar_sq}")


def margins(x, w: np.ndarray) -> np.ndarray:
    """The margins x @ w: zeros, with no product, where w is the zero vector.

    A `Dataset` holds finite values only, so its product with zero is +0.0 in
    every row, the bits of these zeros.  A w whose shape does not match x
    goes to the product, which refuses it.
    """
    if w.shape == (x.shape[1],) and not w.any():
        return np.zeros(x.shape[0])
    return x @ w


def _loss_values(loss: str, margins: np.ndarray, y: np.ndarray, out=None) -> np.ndarray:
    """Per-sample loss values, in one new array or in `out`, which may be `margins`."""
    if loss == "logistic":
        z = np.multiply(-y, margins, out=out)
        return np.logaddexp(0.0, z, out=z)
    d = np.subtract(margins, y, out=out)
    return np.multiply(0.5, np.square(d, out=d), out=d)


def _loss_coefs(loss: str, margins: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-sample d(loss)/d(margin) coefficients; the per-sample gradient is coef * x."""
    if loss == "logistic":
        return -y * expit(-y * margins)
    return margins - y


class Measurement:
    """R_n, grad R_n and ||grad R_n|| at w on the view: the one risk oracle; uncounted.

    The margins view.x @ w are computed once, by `margins`, or taken from the
    caller when it already holds them, and every other quantity on its first
    read: the gradient needs only the loss coefficients, so the loss values
    are computed only where `risk` is read.
    """

    def __init__(self, spec: RiskSpec, w: np.ndarray, view: Dataset,
                 margins: np.ndarray | None = None):
        self.spec, self.w, self.view = spec, w, view
        if margins is not None:
            self.margins = margins

    @cached_property
    def margins(self) -> np.ndarray:
        return margins(self.view.x, self.w)

    @cached_property
    def coefs(self) -> np.ndarray:
        return _loss_coefs(self.spec.loss, self.margins, self.view.y)

    @cached_property
    def _reg(self) -> float:
        return schedule.regularization(self.spec, self.view.n_samples)

    @cached_property
    def grad(self) -> np.ndarray:
        return self.view.xt @ (self.coefs / self.view.n_samples) + self._reg * self.w

    @cached_property
    def grad_norm(self) -> float:
        return float(np.linalg.norm(self.grad))

    @cached_property
    def risk(self) -> float:
        values = _loss_values(self.spec.loss, self.margins, self.view.y)
        return float(values.mean()) + 0.5 * self._reg * float(self.w @ self.w)


def risk_hessian(at: Measurement):
    """The Hessian-vector product v -> grad^2 R_n(w) v = X^T (h * Xv) / n + cV_n v at at.w.

    h is the per-sample d^2(loss)/d(margin)^2 at w: sigmoid(t)(1 - sigmoid(t))
    for logistic, written as sigmoid(t) sigmoid(-t) so it stays accurate in
    both tails, and 1 for squared.  The logistic margins are the measurement's.
    """
    view = at.view
    if at.spec.loss == "logistic":
        h = expit(at.margins) * expit(-at.margins) / view.n_samples
    else:
        h = 1.0 / view.n_samples
    reg, x, xt = at._reg, view.x, view.xt
    return lambda v: xt @ (h * (x @ v)) + reg * v


def sample_loss_coef(loss: str, margin: float, label: float) -> float:
    """d(loss)/d(margin) for one sample; the per-sample gradient is coef * x.

    The scalar twin of `_loss_coefs`: the logistic coefficient is
    -y * sigmoid(-y*t), evaluated with exp of a non-positive argument only,
    so no margin overflows.
    """
    if loss == "logistic":
        z = label * margin
        if z >= 0.0:
            e = math.exp(-z)
            return -label * e / (1.0 + e)
        return -label / (1.0 + math.exp(z))
    return margin - label


def smoothness_constant(loss: str, d: Dataset) -> float:
    """Tight gradient Lipschitz constant of the empirical loss over d's samples.

    The per-loss curvature bound (1/4 for logistic, 1 for squared) times the
    largest squared sample norm, floored at 1e-12 so that an all-zero set
    still gives finite step sizes.
    """
    _check_loss(loss)
    if d.x.shape[0] == 0:
        raise EmptyDatasetError("smoothness constant needs a nonempty dataset")
    max_sq = float(np.max(row_sq_norms(d.x)))
    return max(max_sq / 4.0 if loss == "logistic" else max_sq, 1e-12)


def test_error(loss: str, w: np.ndarray, test: Dataset) -> float:
    """Fraction of test samples misclassified by sign(w.x); sign(0) counts as +1."""
    _check_loss(loss)
    if test.n_samples == 0:
        raise EmptyDatasetError("test set is empty")
    preds = np.where(margins(test.x, w) >= 0.0, 1.0, -1.0)
    return float(np.mean(preds != test.y))
