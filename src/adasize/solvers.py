"""Inner stage solvers: GD, Nesterov-accelerated GD, and SVRG epochs.

Each update returns a fresh state and adds its exact per-sample
gradient-evaluation cost to the state counter: n for a GD or AGD step, 2n
for an SVRG epoch (full gradient at the anchor plus n inner steps).  One
uncounted `erm.Measurement` per iterate serves the stop test, the step, the
SVRG anchor and the trace; the counter is the unit the complexity bounds
are written in.  `solve` runs one stage under a gradient-norm threshold, a
step count or both, and is the one place where a threshold not met within
MAX_ITERATIONS steps becomes a BudgetError.

The n inner steps of an SVRG epoch run in the C kernel, `ckernel.c`, called
through ctypes.  The first epoch or text parse of a process compiles it with
the system C compiler (sysconfig's CC where installed, else `cc`) into this
package's `__pycache__` directory, or loads the copy an earlier process left
there.  If there is no compiler, the directory cannot be written or the
library does not load, the epoch runs the same steps in a numpy loop instead.
`ckernel.reason` says which path the process took and why.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, NamedTuple

import numpy as np

from . import ckernel, erm, schedule
from .data import Dataset
from .erm import RiskSpec

METHODS = ("gd", "agd", "svrg")
MAX_ITERATIONS = 10**6  # step cap of a solve that gives one rule alone


class DivergenceError(RuntimeError):
    """An iterate left the finite range; usually a mis-set c or gamma."""


class BudgetError(ValueError):
    pass


@dataclass
class SolverState:
    """Iterate plus the auxiliary sequences of the active method."""

    method: str
    w: np.ndarray
    agd_y: np.ndarray | None = None  # momentum lookahead sequence
    rng: np.random.Generator | None = None
    grad_evals: int = 0


def init_state(method: str, dim: int, seed: int = 0) -> SolverState:
    """Fresh zero-initialized state; SVRG sampling is driven by a counter-based generator.

    AGD's lookahead starts as w's own array: no solver writes an iterate in
    place, so sharing it is safe, and `agd_step` sees by identity that y = w.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    w = np.zeros(dim)
    state = SolverState(method=method, w=w)
    if method == "agd":
        state.agd_y = w
    elif method == "svrg":
        state.rng = np.random.Generator(np.random.Philox(seed))
    return state


def reset_aux(state: SolverState) -> SolverState:
    """Re-anchor the momentum sequence at the current iterate (stage warm start).

    The lookahead becomes w's own array, as in `init_state`.  SVRG needs
    nothing here: every epoch anchors at the iterate it starts from.
    """
    if state.method == "agd":
        return replace(state, agd_y=state.w)
    return state


class SolveResult(NamedTuple):
    state: SolverState
    iterations: int
    exit: erm.Measurement  # at state.w


def _ensure_finite(w: np.ndarray, context: str) -> None:
    if not np.all(np.isfinite(w)):
        raise DivergenceError(f"non-finite iterate during {context}")


def gd_step(state: SolverState, spec: RiskSpec, view: Dataset,
            at_w: erm.Measurement) -> SolverState:
    """w <- w - eta * grad R_n(w) with eta = 1/(M + cV_n); at_w is the measurement at w."""
    if state.method != "gd":
        raise ValueError(f"gd_step on {state.method!r} state")
    eta = schedule.gd_step_size(spec, view.n_samples)
    w_new = state.w - eta * at_w.grad
    _ensure_finite(w_new, f"gd step at n={view.n_samples}")
    return replace(state, w=w_new, grad_evals=state.grad_evals + view.n_samples)


def agd_step(state: SolverState, spec: RiskSpec, view: Dataset,
             at_w: erm.Measurement | None = None) -> SolverState:
    """Advance both accelerated sequences one step.

    w_{k+1} = y_k - eta * grad R_n(y_k);  y_{k+1} = w_{k+1} + beta (w_{k+1} - w_k).
    Where y_k is w_k's own array, as on a stage's first step, the gradient
    is at_w's, which a threshold stop test has evaluated already; otherwise
    the step reads no gradient at w, and at_w is left unevaluated.
    """
    if state.method != "agd" or state.agd_y is None:
        raise ValueError("agd_step needs an agd state with the momentum sequence set")
    eta, beta = schedule.agd_params(spec, view.n_samples)
    at_y = at_w if at_w is not None and state.agd_y is state.w else \
        erm.Measurement(spec, state.agd_y, view)
    w_new = state.agd_y - eta * at_y.grad
    y_new = w_new + beta * (w_new - state.w)
    _ensure_finite(w_new, f"agd step at n={view.n_samples}")
    return replace(state, w=w_new, agd_y=y_new, grad_evals=state.grad_evals + view.n_samples)


def svrg_direction(spec: RiskSpec, view: Dataset, i: int, w_hat: np.ndarray,
                   anchor: np.ndarray, full_grad: np.ndarray) -> np.ndarray:
    """Variance-reduced direction for inner sample i.

    grad f(w_hat, z_i) + cV_n w_hat - grad f(anchor, z_i) - cV_n anchor + grad R_n(anchor);
    its average over i in {1..n} equals grad R_n(w_hat) exactly.
    """
    idx, vals, y = view.sample_arrays(i)
    cv = schedule.regularization(spec, view.n_samples)
    coef_hat = erm.sample_loss_coef(spec.loss, float(vals @ w_hat[idx]), y)
    coef_anchor = erm.sample_loss_coef(spec.loss, float(vals @ anchor[idx]), y)
    d = full_grad + cv * (w_hat - anchor)
    d[idx] += (coef_hat - coef_anchor) * vals
    return d


def _pick_loop(x, picks: np.ndarray, coef_anchor: np.ndarray, xb: np.ndarray, y: np.ndarray,
               loss: str, a: float, eta: float, u: np.ndarray) -> tuple[float, float]:
    """The epoch's inner steps in numpy, used where the C kernel is not available.

    Runs the picks on u in place from s = 1, r = 0 and returns (s, r), as
    `ckernel.Kernel.pick_loop` does, bit for bit: each sparse dot product
    is summed left to right in Python floats, as the kernel sums it.
    """
    coef_anchor, xb, y = coef_anchor.tolist(), xb.tolist(), y.tolist()
    indptr, indices, data = x.indptr.tolist(), x.indices, x.data
    s, r = 1.0, 0.0
    for i in picks.tolist():
        lo, hi = indptr[i], indptr[i + 1]
        idx, vals = indices[lo:hi], data[lo:hi]
        u_idx = u.take(idx)
        dot = 0.0
        for v, u_j in zip(vals.tolist(), u_idx.tolist()):
            dot += v * u_j
        coef = erm.sample_loss_coef(loss, s * dot + r * xb[i], y[i])
        s *= a
        r = a * r + 1.0
        u.put(idx, u_idx - (eta * (coef - coef_anchor[i]) / s) * vals)
        if s < 1e-100:
            u *= s
            s = 1.0
    return s, r


def svrg_epoch(state: SolverState, spec: RiskSpec, view: Dataset,
               at_w: erm.Measurement) -> SolverState:
    """One outer loop: full gradient at the anchor, then n variance-reduced inner steps.

    The anchor is the entry iterate w (at_w holds its full gradient mu): the
    inner iterate starts there; the last inner iterate is the exit and the
    next anchor.  Inner indices are drawn uniformly with replacement from the
    state generator, so the epoch is deterministic given the state.

    An inner step w <- w - eta * svrg_direction(w) is affine off the sample's
    columns: w <- a*w + b with a = 1 - eta*cV_n and b = eta*(cV_n*anchor - mu),
    both fixed for the epoch.  So the inner iterate is kept as w = s*u + r*b
    with scalars s and r: a step scales s by a, sets r to a*r + 1 and updates
    u on the sample's nonzeros only, so it costs O(nnz of the sample).  The
    anchor coefficients are at_w's, so the epoch's one product of its own
    gives the sample margins of b; s is folded into u before it can
    underflow (a >= 0.9).

    The indices are drawn before the steps run, and the steps run in the C
    kernel of `ckernel` where it loaded, else in the numpy loop
    `_pick_loop`; both take the same steps in the same order of operations,
    so the generator stream, grad_evals and the exit iterate do not depend
    on the path.
    """
    if state.method != "svrg" or state.rng is None:
        raise ValueError("svrg_epoch needs an svrg state with its generator set")
    n = view.n_samples
    q, eta, _ = schedule.svrg_params(spec, n)
    cv = schedule.regularization(spec, n)
    anchor, x = state.w, view.x
    a = 1.0 - eta * cv
    b = eta * (cv * anchor - at_w.grad)
    xb = x @ b
    picks = state.rng.integers(0, n, size=q)
    u = anchor.copy()
    kernel = ckernel.get()
    pick_loop = _pick_loop if kernel is None else kernel.pick_loop
    s, r = pick_loop(x, picks, at_w.coefs, xb, view.y, spec.loss, a, eta, u)
    w = s * u + r * b
    _ensure_finite(w, f"svrg epoch at n={n}")
    return replace(state, w=w, grad_evals=state.grad_evals + 2 * n)


_STEPPERS: dict[str, Callable[..., SolverState]] = {
    "gd": gd_step,
    "agd": agd_step,
    "svrg": svrg_epoch,
}


def solve(state: SolverState, spec: RiskSpec, view: Dataset, *,
          threshold: float | None = None, iterations: int | None = None,
          callback: Callable[[SolverState, int, erm.Measurement], None] | None = None,
          entry: erm.Measurement | None = None) -> SolveResult:
    """Run the state's method on the view until its stop rule holds.

    `threshold` steps until ||grad R_n|| <= threshold, tested before every
    step; alone, it raises BudgetError if MAX_ITERATIONS steps do not reach
    it.  `iterations` alone takes exactly that many steps, at most
    MAX_ITERATIONS.  Both stop at whichever comes first, never with an
    error, so there the count is a cap of any size.  One uncounted
    measurement per iterate serves the stop test, the step and the trace;
    it is evaluated on first use only, so a fixed-count AGD solve evaluates
    it only where it is read.  `entry` is the measurement at state.w on the
    view, where the caller holds one already; else solve makes its own.  The
    callback, if given, runs after every step with the state, the step count
    and its measurement.
    """
    if threshold is None and iterations is None:
        raise BudgetError("give threshold, iterations or both")
    limit = MAX_ITERATIONS if threshold is None else np.inf  # beside a threshold, a cap
    if iterations is not None and not 0 <= iterations <= limit:
        raise BudgetError(f"iterations must lie in [0, {limit}], got {iterations}")
    cap = MAX_ITERATIONS if iterations is None else iterations
    if entry is not None and (entry.w is not state.w or entry.view is not view
                              or entry.spec != spec):
        raise ValueError("entry must be the measurement at state.w on the view, under spec")
    k = 0
    at_w = erm.Measurement(spec, state.w, view) if entry is None else entry
    while threshold is None or not at_w.grad_norm <= threshold:
        if k == cap:
            if iterations is None:
                raise BudgetError(
                    f"stage n={view.n_samples} stopped after {k} iterations at ||grad R_n|| = "
                    f"{at_w.grad_norm:.6g}, above its threshold {threshold:.6g}")
            break
        state = _STEPPERS[state.method](state, spec, view, at_w)
        k += 1
        at_w = erm.Measurement(spec, state.w, view)
        if callback is not None:
            callback(state, k, at_w)
    return SolveResult(state, k, at_w)
