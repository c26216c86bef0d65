"""Empirical checks of the scheme's guarantees against independent oracles.

Gradient correctness is checked by central finite differences through a
reference risk that is independent of the vectorized evaluation: its
margins are summed from the CSR arrays by `np.bincount` and its loss terms
are added by the compensated `math.fsum`.  The variance-reduced direction
is checked by exact enumeration over inner indices.  The statistical
inequalities (loss-difference bound, optimum-norm bound, warm-start bound,
sufficiency of the per-stage iteration counts) are checked at the level of
Monte-Carlo means, because that is the level at which they hold; per-draw
excursions are reported as diagnostics only.

The statistical-accuracy level of a k-sample set is not observable, so the
checks estimate it empirically against the full base set as a stand-in for
the expectation, over a fixed 32-point probe grid (the supremum over all
weight vectors is not computable; this is a documented limitation).  Slack
factors absorb the proxy error.  ||w*||^2 is read from spec.wstar_sq; the
proxy for it, `unregularized_optimum_proxy`, is the reference solver's
minimizer of the full-base loss under a tiny ridge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import bench, driver, erm, schedule, solvers
from .data import Dataset, row_block
from .driver import RunConfig
from .erm import RiskSpec

PROBE_COUNT = 32
LEMMA1_SLACK = 0.25
LEMMA2_SLACK = 0.10
PROP1_SLACK = 0.25
FD_ABS_TOL = 1e-9
FD_STEP = 1e-6
FD_COORDS_PER_TRIAL = 5
SVRG_DIRECTION_ABS_TOL = 1e-12
PROXY_L2 = 1e-10
CHECKS_COLUMNS = ("name", "trials", "violations", "worst_margin", "passed")


@dataclass
class CheckReport:
    """Outcome of one check; margin is (bound - observed), so >= 0 passes.

    worst_margin is the smallest margin seen across the check's inequality
    instances; violations counts instances whose margin is negative or NaN.
    """

    name: str
    trials: int
    violations: int
    worst_margin: float
    notes: str = ""

    @property
    def passed(self) -> bool:
        return self.violations == 0

    def csv_cells(self) -> list[str]:
        """One row's cells under CHECKS_COLUMNS."""
        return [self.name, str(self.trials), str(self.violations), f"{self.worst_margin:.6g}",
                str(self.passed).lower()]


def _report(name: str, trials: int, margins, notes: str) -> CheckReport:
    """The one violation rule: every margin that is not >= 0 (NaN too) is a violation."""
    margins = np.asarray(margins, dtype=float)
    return CheckReport(name=name, trials=trials, violations=int(np.sum(~(margins >= 0))),
                       worst_margin=float(np.min(margins, initial=math.inf)), notes=notes)


def _row_ids(view: Dataset) -> np.ndarray:
    """The row of each stored entry of view.x, in storage order."""
    return np.repeat(np.arange(view.n_samples), np.diff(view.x.indptr))


def _risk_value_scalar(spec: RiskSpec, w: np.ndarray, view: Dataset,
                       row_ids: np.ndarray | None = None) -> float:
    """Compensated risk evaluation, independent of the vectorized path.

    Each margin is summed straight from the CSR arrays by `np.bincount`, left
    to right, not by the sparse product `erm` uses; the logistic term is
    max(z, 0) + log1p(exp(-|z|)), so exp never overflows; the terms are
    added by `math.fsum`.  `minlength` keeps empty rows as zero margins.
    `row_ids` is `_row_ids(view)`, which a caller with many weights on
    one view builds once.
    """
    x, n = view.x, view.n_samples
    if row_ids is None:
        row_ids = _row_ids(view)
    t = np.bincount(row_ids, weights=x.data * w[x.indices], minlength=n)
    if spec.loss == "logistic":
        z = -view.y * t
        terms = np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))
    else:
        terms = 0.5 * (t - view.y) ** 2
    v_n = schedule.statistical_accuracy(spec, n)
    return math.fsum(terms.tolist()) / n + 0.5 * spec.c * v_n * float(w @ w)


def fd_gradient_check(spec: RiskSpec, view: Dataset, trials: int, seed: int = 0,
                      rel_tol: float = 1e-5) -> CheckReport:
    """Central finite differences vs the analytic risk gradient.

    A coordinate passes when |fd - analytic| <= FD_ABS_TOL + rel_tol * |analytic|;
    the absolute floor covers coordinates whose analytic partial vanishes.
    """
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    dim = view.dim
    k = min(FD_COORDS_PER_TRIAL, dim)
    h = FD_STEP
    row_ids = _row_ids(view)
    margins = []
    for _ in range(trials):
        w = rng.uniform(-1.0, 1.0, dim)
        grad = erm.Measurement(spec, w, view).grad
        for j in rng.choice(dim, size=k, replace=False):
            wp = w.copy()
            wp[j] += h
            wm = w.copy()
            wm[j] -= h
            fd = (_risk_value_scalar(spec, wp, view, row_ids)
                  - _risk_value_scalar(spec, wm, view, row_ids)) / (2 * h)
            err = abs(fd - grad[j])
            margins.append(FD_ABS_TOL + rel_tol * abs(grad[j]) - err)
    return _report(f"fd_gradient_{spec.loss}", trials, margins,
                   f"{trials} weight draws x {k} coordinates, h={h:g}, rel_tol={rel_tol:g}")


def svrg_direction_check(spec: RiskSpec, view: Dataset, trials: int,
                         seed: int = 0) -> CheckReport:
    """Enumerate every inner index: the mean direction must equal the risk gradient."""
    n = view.n_samples
    if n > 50:
        raise ValueError(f"enumeration check needs n <= 50, got {n}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    rng = np.random.default_rng(seed)
    margins = []
    for _ in range(trials):
        w_hat = rng.uniform(-1.0, 1.0, view.dim)
        anchor = rng.uniform(-1.0, 1.0, view.dim)
        full_grad = erm.Measurement(spec, anchor, view).grad
        mean_dir = np.zeros(view.dim)
        for i in range(n):
            mean_dir += solvers.svrg_direction(spec, view, i, w_hat, anchor, full_grad)
        mean_dir /= n
        grad_hat = erm.Measurement(spec, w_hat, view).grad
        margins.append(SVRG_DIRECTION_ABS_TOL - float(np.max(np.abs(mean_dir - grad_hat))))
    return _report(f"svrg_direction_n{n}", trials, margins,
                   f"exact enumeration over {n} indices, abs_tol={SVRG_DIRECTION_ABS_TOL:g}")


def _probe_grid(dim: int, seed: int) -> np.ndarray:
    """(dim, PROBE_COUNT) probe points: origin, a few +/- unit axes, seeded uniform draws."""
    rng = np.random.default_rng(seed)
    cols = [np.zeros(dim)]
    axes = rng.choice(dim, size=min(dim, 6), replace=False)
    for pos, j in enumerate(axes):
        e = np.zeros(dim)
        e[j] = 1.0 if pos % 2 == 0 else -1.0
        cols.append(e)
    while len(cols) < PROBE_COUNT:
        cols.append(rng.uniform(-1.0, 1.0, dim))
    return np.column_stack(cols[:PROBE_COUNT])


def _shuffled_copy(base: Dataset, perm: np.ndarray, k: int | None = None) -> Dataset:
    k = base.n_samples if k is None else k
    return Dataset(base.x[perm[:k]], base.y[perm[:k]], finite=True)


def unregularized_optimum_proxy(loss: str, base: Dataset) -> float:
    """||w||^2 at the full-base loss minimizer, a stand-in for ||w*||^2.

    alpha = 1 and gamma = n make V_n = 1, so the ridge weight is PROXY_L2.
    """
    spec = RiskSpec(loss, c=PROXY_L2, alpha=1.0, gamma=float(base.n_samples))
    w = bench.reference_optimum(spec, base, tolerance=1e-8).w
    return float(w @ w)


def _seeds(seed: int) -> tuple[int, int]:
    """The probe-grid seed and the draw seed that a check's seed fixes."""
    ss = np.random.SeedSequence(seed)
    probe_seed, draw_seed = (int(s.generate_state(1)[0]) for s in ss.spawn(2))
    return probe_seed, draw_seed


def probe_losses(loss: str, base: Dataset, seed: int) -> np.ndarray:
    """Per-sample losses at the probe grid that `seed` fixes, shape (n_samples, n_probes).

    One array: the losses overwrite the margins.  `lemma1_check` and
    `proposition1_check` read this matrix; a caller that runs both with one
    loss, base and seed builds it once and passes it to each.
    """
    margins = base.x @ _probe_grid(base.dim, _seeds(seed)[0])
    return erm._loss_values(loss, margins, base.y[:, None], out=margins)


def _nested_draws(loss: str, base: Dataset, m: int, n: int, draws: int, seed: int,
                  losses: np.ndarray | None):
    """Seeded random nested subsets S_m < S_n of the base set, one per draw.

    Yields (perm, l_full, l_m, l_nm): the permutation whose first m and
    first n entries index S_m and S_n, and the mean loss over the base set,
    over S_m and over S_n minus S_m, at every point of the probe grid.  The
    seed fixes both the grid and the draws; `losses` is `probe_losses` at
    that seed where the caller holds it, else it is built here.
    """
    if losses is None:
        losses = probe_losses(loss, base, seed)
    l_full = losses.mean(axis=0)
    rng = np.random.default_rng(_seeds(seed)[1])
    for _ in range(draws):
        perm = rng.permutation(base.n_samples)
        yield perm, l_full, losses[perm[:m]].mean(axis=0), losses[perm[m:n]].mean(axis=0)


def lemma1_check(spec: RiskSpec, base: Dataset, m: int, n: int, draws: int,
                 seed: int = 0, losses: np.ndarray | None = None) -> CheckReport:
    """Mean |L_n - L_m| at each probe vs ((n-m)/n)(V_{n-m} + V_m), estimated accuracies.

    `losses` is `probe_losses(spec.loss, base, seed)` where the caller holds it.
    """
    if not 1 <= m < n <= base.n_samples:
        raise ValueError(f"need 1 <= m < n <= base size, got m={m}, n={n}, "
                         f"base={base.n_samples}")
    if draws < 100:
        raise ValueError(f"need draws >= 100 for a usable estimate, got {draws}")
    sum_diff = np.zeros(PROBE_COUNT)
    sup_m_total = 0.0
    sup_nm_total = 0.0
    for _, l_full, l_m, l_nm in _nested_draws(spec.loss, base, m, n, draws, seed, losses):
        l_n = (m * l_m + (n - m) * l_nm) / n
        sum_diff += np.abs(l_n - l_m)
        sup_m_total += float(np.max(np.abs(l_full - l_m)))
        sup_nm_total += float(np.max(np.abs(l_full - l_nm)))
    v_m_hat = sup_m_total / draws
    v_nm_hat = sup_nm_total / draws
    bound = ((n - m) / n) * (v_nm_hat + v_m_hat) * (1.0 + LEMMA1_SLACK)
    margins = bound - sum_diff / draws
    return _report(f"lemma1_m{m}_n{n}", PROBE_COUNT, margins,
                   f"{draws} draws; V_hat({m})={v_m_hat:.4g}, V_hat({n - m})={v_nm_hat:.4g}, "
                   f"slack {LEMMA1_SLACK:.0%}")


def lemma2_check(spec: RiskSpec, base: Dataset, n: int, draws: int,
                 seed: int = 0) -> CheckReport:
    """Mean squared norm of the regularized optimum vs 4/c + spec.wstar_sq (the proxy).

    The proxy `verify` passes in is solved on the whole base, these subsets
    included, so it is not held out.  n <= base/4 keeps each subset a small
    part of the base that stands in for the population.
    """
    if not 1 <= n <= base.n_samples // 4:
        raise ValueError(f"need 1 <= n <= base size / 4, got n={n} with base size {base.n_samples}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    norms = []
    for _ in range(draws):
        perm = rng.permutation(base.n_samples)
        subset = _shuffled_copy(base, perm, n)
        w = bench.reference_optimum(spec, subset, tolerance=1e-8).w
        norms.append(float(w @ w))
    mean_norm = float(np.mean(norms))
    raw_bound = 4.0 / spec.c + spec.wstar_sq
    exceed = sum(1 for v in norms if v > raw_bound)
    return _report(f"lemma2_n{n}", draws, [raw_bound * (1.0 + LEMMA2_SLACK) - mean_norm],
                   f"mean ||w_n*||^2 = {mean_norm:.4g} vs 4/c + ||w*||^2 = {raw_bound:.4g}; "
                   f"{exceed}/{draws} draws above the unslacked bound")


def _threshold_solve(spec: RiskSpec, view: Dataset, threshold: float) -> erm.Measurement:
    """Stage solve from zero under the gradient-norm rule: AGD, tight-constant steps.

    Returns the solve's exit measurement, whose margins are the view's rows times w.
    """
    tight_spec = replace(spec, M=erm.smoothness_constant(spec.loss, view))
    return solvers.solve(solvers.init_state("agd", view.dim), tight_spec, view,
                         threshold=threshold).exit


def proposition1_check(spec: RiskSpec, base: Dataset, m: int, draws: int,
                       seed: int = 0, losses: np.ndarray | None = None) -> CheckReport:
    """Warm-start suboptimality after doubling vs its closed-form bound, in the mean.

    The bound reads ||w*||^2 as spec.wstar_sq, which `verify` sets to the
    proxy.  `losses` is `probe_losses(spec.loss, base, seed)` where the
    caller holds it.  The measurement at the warm start on S_n is both the
    reference solve's start and the risk its gap is taken from; its margins
    are the S_m solve's exit margins and one product over rows m..n, so
    each row is multiplied by w_m once.
    """
    n = 2 * m
    if not 1 <= m <= base.n_samples // 2:
        raise ValueError(f"need 1 <= m and 2m <= base size, got m={m}, base={base.n_samples}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    lhs_values = []
    # V_hat(m) and V_hat(n - m) share one accumulator, because n - m = m here, so both
    # read about twice their value; ROADMAP item 3 gives each its own estimate.
    sup_m = 0.0
    sup_n = 0.0
    for perm, l_full, l_m, l_nm in _nested_draws(spec.loss, base, m, n, draws, seed, losses):
        nested = _shuffled_copy(base, perm, n)
        exit_m = _threshold_solve(spec, nested.prefix(m), schedule.stop_threshold(spec, m))
        at_m = erm.extend(spec, exit_m, nested, row_block(nested.x, m, n))
        ref_n = bench.reference_optimum(spec, nested, tolerance=1e-9, start=at_m)
        lhs_values.append(at_m.risk - ref_n.risk)
        sup_m += float(np.max(np.abs(l_full - l_m)))
        sup_m += float(np.max(np.abs(l_full - l_nm)))
        sup_n += float(np.max(np.abs(l_full - (m * l_m + (n - m) * l_nm) / n)))
    v_m_hat = sup_m / draws
    delta_m = schedule.statistical_accuracy(spec, m)  # certified by the threshold rule
    bound = schedule.warm_start_bound(spec, m, n, delta_m, v_m_hat, v_m_hat, sup_n / draws)
    mean_lhs = float(np.mean(lhs_values))
    exceed = sum(1 for v in lhs_values if v > bound)
    return _report(f"proposition1_m{m}", draws, [bound * (1.0 + PROP1_SLACK) - mean_lhs],
                   f"mean warm-start gap {mean_lhs:.4g} vs bound {bound:.4g} "
                   f"(slack {PROP1_SLACK:.0%}); {exceed}/{draws} draws above the raw bound")


def theorem_sn_sufficiency_check(method: str, spec: RiskSpec, base: Dataset, m0: int,
                                 draws: int, seed: int = 0) -> CheckReport:
    """Run the fixed-iteration schedule; per-stage mean suboptimality must be within accuracy.

    The counts are evaluated at spec.wstar_sq, which `verify` sets to the
    proxy's ||w*||^2.  The first stage is excluded: its guarantee comes from
    the threshold rule, not from the per-stage iteration count.
    """
    if method not in ("agd", "svrg"):
        raise ValueError(f"iteration-count guarantee covers agd and svrg, got {method!r}")
    if draws < 1:
        raise ValueError("draws must be >= 1")
    rng = np.random.default_rng(seed)
    N = base.n_samples
    per_stage: dict[int, list[float]] = {}
    per_draw_violations = 0
    for _ in range(draws):
        perm = rng.permutation(N)
        shuffled = _shuffled_copy(base, perm)
        cfg = RunConfig(
            method=method,
            adaptive=True,
            m0=m0,
            budget_mode="theory",
            seed=int(rng.integers(2**62)),
            eval_every=10**9,
        )
        _, _, reports = driver.adaptive_run(cfg, spec, shuffled)
        draw_bad = False
        for rep in reports[1:]:  # skip the first stage
            ref = bench.reference_optimum(spec, rep.exit.view, tolerance=1e-9, start=rep.exit)
            gap = rep.exit.risk - ref.risk
            per_stage.setdefault(rep.n, []).append(gap)
            if gap > schedule.statistical_accuracy(spec, rep.n):
                draw_bad = True
        if draw_bad:
            per_draw_violations += 1

    margins = []
    stage_notes = []
    for stage_n in sorted(per_stage):
        mean_gap = float(np.mean(per_stage[stage_n]))
        v_n = schedule.statistical_accuracy(spec, stage_n)
        margins.append(v_n - mean_gap)
        stage_notes.append(f"n={stage_n}: mean {mean_gap:.3g} vs {v_n:.3g}")
    notes = f"{draws} draws; per-draw excursions {per_draw_violations}/{draws}; " + \
        "; ".join(stage_notes)
    if draws == 1:
        notes = "LOW POWER (single draw); " + notes
    return _report(f"theorem_sn_{method}", draws, margins, notes)
