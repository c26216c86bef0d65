"""Loss models and the regularized empirical risk.

The risk over the first n training samples is

    R_n(w) = L_n(w) + (c * V_n / 2) * ||w||^2,

where L_n is the average per-sample loss and V_n = gamma / n^alpha is the
statistical-accuracy level of an n-sample set.  R_n is strongly convex with
modulus c*V_n and has (M + c*V_n)-Lipschitz gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from . import schedule
from .data import Dataset, DatasetView

LOSSES = ("logistic", "squared")


class EmptyViewError(ValueError):
    pass


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


def _loss_terms(loss: str, margins: np.ndarray, y: np.ndarray):
    """Per-sample loss values and d(loss)/d(margin) coefficients."""
    if loss == "logistic":
        values = np.logaddexp(0.0, -y * margins)
        coefs = -y * expit(-y * margins)
    else:
        resid = margins - y
        values = 0.5 * resid**2
        coefs = resid
    return values, coefs


def risk_hessian(spec: RiskSpec, w: np.ndarray, view: DatasetView):
    """The Hessian-vector product v -> grad^2 R_n(w) v = X^T (h * Xv) / n + cV_n v.

    h is the per-sample d^2(loss)/d(margin)^2 at w: sigmoid(t)(1 - sigmoid(t))
    for logistic, written as sigmoid(t) sigmoid(-t) so it stays accurate in
    both tails, and 1 for squared.  The margins are computed once, here.
    """
    if spec.loss == "logistic":
        margins = view.x @ w
        h = expit(margins) * expit(-margins) / view.count
    else:
        h = 1.0 / view.count
    reg = spec.c * schedule.statistical_accuracy(spec, view.count)
    x = view.x
    return lambda v: np.asarray((h * (x @ v)) @ x).ravel() + reg * v


def empirical_loss_and_grad(loss: str, w: np.ndarray, view: DatasetView):
    """Average loss over the view and its exact gradient."""
    _check_loss(loss)
    if w.shape[0] != view.dim:
        raise ValueError(f"weight dim {w.shape[0]} != feature dim {view.dim}")
    margins = view.x @ w
    values, coefs = _loss_terms(loss, margins, view.y)
    n = view.count
    grad = (coefs / n) @ view.x
    return float(values.mean()), np.asarray(grad).ravel()


def risk_value(spec: RiskSpec, w: np.ndarray, view: DatasetView) -> float:
    """R_n(w) without the gradient (cheap measurement path)."""
    margins = view.x @ w
    values, _ = _loss_terms(spec.loss, margins, view.y)
    v_n = schedule.statistical_accuracy(spec, view.count)
    return float(values.mean()) + 0.5 * spec.c * v_n * float(w @ w)


def risk_value_and_grad(spec: RiskSpec, w: np.ndarray, view: DatasetView):
    """(R_n(w), grad R_n(w), ||grad R_n(w)||)."""
    l_n, g = empirical_loss_and_grad(spec.loss, w, view)
    v_n = schedule.statistical_accuracy(spec, view.count)
    reg = spec.c * v_n
    r_n = l_n + 0.5 * reg * float(w @ w)
    g = g + reg * w
    return r_n, g, float(np.linalg.norm(g))


def sample_loss_coef(loss: str, margin: float, label: float) -> float:
    """d(loss)/d(margin) for one sample; the per-sample gradient is coef * x.

    The scalar twin of `_loss_terms`: the logistic coefficient is
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


def smoothness_constant(loss: str, d: Dataset | DatasetView) -> float:
    """Tight gradient Lipschitz constant of the empirical loss over d's samples.

    The per-loss curvature bound (1/4 for logistic, 1 for squared) times the
    largest squared sample norm, floored at 1e-12 so that an all-zero set
    still gives finite step sizes.
    """
    _check_loss(loss)
    if d.x.shape[0] == 0:
        raise EmptyViewError("smoothness constant needs a nonempty dataset")
    max_sq = float(np.max(np.asarray(d.x.multiply(d.x).sum(axis=1)).ravel()))
    return max(max_sq / 4.0 if loss == "logistic" else max_sq, 1e-12)


def test_error(loss: str, w: np.ndarray, test: Dataset) -> float:
    """Fraction of test samples misclassified by sign(w.x); sign(0) counts as +1."""
    _check_loss(loss)
    if test.n_samples == 0:
        raise EmptyViewError("test set is empty")
    margins = test.x @ w
    preds = np.where(margins >= 0.0, 1.0, -1.0)
    return float(np.mean(preds != test.y))
