"""Sample-size schedules, per-stage solver parameters, and iteration bounds.

Everything here is a closed-form function of the risk parameters in a
`RiskSpec`: statistical accuracy V_n = gamma / n^alpha, the ridge weight
cV_n, the gradient-norm stopping threshold sqrt(2c) * V_n, the GD/AGD/SVRG
step parameters, the per-stage iteration counts s_n that suffice to
re-enter statistical accuracy after doubling, and the end-to-end
gradient-evaluation totals they imply.  The last two, and the warm-start
bound, read ||w*||^2 from spec.wstar_sq.
"""

from __future__ import annotations

import math
import warnings
from typing import TYPE_CHECKING, NamedTuple

if TYPE_CHECKING:  # pragma: no cover
    from .erm import RiskSpec

# SVRG linear convergence needs (M + cV_n)/(n c V_n) <= this ratio so the
# contraction factor stays below 1/2.
SVRG_PRECONDITION_RATIO = 0.02

# floor(bound)+1 integerization: snap bounds this close to an integer onto it
# so exact-power arguments (e.g. log2 of 8) do not straddle the floor.
_INT_SNAP = 1e-9


class SvrgParams(NamedTuple):
    q: int
    eta: float
    rho: float


def statistical_accuracy(spec: "RiskSpec", n: int) -> float:
    """V_n = gamma / n^alpha."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    return spec.gamma / n**spec.alpha


def stop_threshold(spec: "RiskSpec", n: int) -> float:
    """Gradient-norm level certifying suboptimality <= V_n on the cV_n-strongly-convex risk."""
    return math.sqrt(2.0 * spec.c) * statistical_accuracy(spec, n)


def regularization(spec: "RiskSpec", n: int) -> float:
    """cV_n, the ridge weight of R_n and its strong-convexity modulus."""
    return spec.c * statistical_accuracy(spec, n)


def agd_params(spec: "RiskSpec", n: int) -> tuple[float, float]:
    """Step size and momentum for the accelerated stage solver.

    eta = 1/(M + cV_n), GD's step;
    beta = (sqrt(cV_n + M) - sqrt(cV_n)) / (sqrt(cV_n + M) + sqrt(cV_n)).
    """
    cv = regularization(spec, n)
    root_l, root_mu = math.sqrt(cv + spec.M), math.sqrt(cv)
    return gd_step_size(spec, n), (root_l - root_mu) / (root_l + root_mu)


def gd_step_size(spec: "RiskSpec", n: int) -> float:
    """Plain gradient-descent step 1/(M + cV_n); guarantees per-step descent."""
    return 1.0 / (spec.M + regularization(spec, n))


def gd_contraction_factor(spec: "RiskSpec", n: int) -> float:
    """Per-step suboptimality contraction of GD at step 1/(M + cV_n): 1 - cV_n/(M + cV_n)."""
    return spec.M / (spec.M + regularization(spec, n))


def svrg_params(spec: "RiskSpec", n: int) -> SvrgParams:
    """Inner-loop length, step size, and contraction factor for one SVRG epoch.

    q = n, eta = 0.1/(M + cV_n), rho = (M + cV_n)/(0.08 n cV_n) + 1/4.
    Emits a RuntimeWarning when n is too small for rho < 1/2.
    """
    cv = regularization(spec, n)
    eta = 0.1 / (spec.M + cv)
    rho = (spec.M + cv) / (0.08 * n * cv) + 0.25
    ratio = (spec.M + cv) / (n * cv)
    if ratio > SVRG_PRECONDITION_RATIO:
        warnings.warn(
            f"svrg contraction precondition violated at n={n}: "
            f"(M + cV_n)/(n c V_n) = {ratio:.4g} > {SVRG_PRECONDITION_RATIO}, "
            f"so rho = {rho:.4g} >= 1/2",
            RuntimeWarning,
            stacklevel=2,
        )
    return SvrgParams(q=n, eta=eta, rho=rho)


def _floor_plus_one(bound: float) -> int:
    nearest = round(bound)
    if abs(bound - nearest) < _INT_SNAP:
        bound = nearest
    return int(math.floor(bound)) + 1


def _doubling_log_argument(spec: "RiskSpec") -> float:
    """3*2^a + (2^a - 1)(2 + (c/2)||w*||^2): warm-start error over target after doubling."""
    two_a = 2.0**spec.alpha
    return 3.0 * two_a + (two_a - 1.0) * (2.0 + 0.5 * spec.c * spec.wstar_sq)


def _agd_log_argument(spec: "RiskSpec") -> float:
    """AGD variant carries an extra factor two: 6*2^a + (2^a - 1)(4 + c||w*||^2)."""
    return 2.0 * _doubling_log_argument(spec)


def iterations_generic(rho_n: float, spec: "RiskSpec") -> int:
    """Iterations sufficient per stage for any method contracting suboptimality by rho_n."""
    if not 0.0 < rho_n < 1.0:
        raise ValueError(f"contraction factor must lie in (0, 1), got {rho_n}")
    bound = -math.log(_doubling_log_argument(spec)) / math.log(rho_n)
    return _floor_plus_one(bound)


def iterations_agd(spec: "RiskSpec", n: int) -> int:
    """AGD iterations sufficient at stage n: sqrt((n^a M + c g)/(c g)) * ln(argument)."""
    if n < 1:
        raise ValueError(f"sample count must be >= 1, got {n}")
    kappa_root = math.sqrt((n**spec.alpha * spec.M + spec.c * spec.gamma) / (spec.c * spec.gamma))
    bound = kappa_root * math.log(_agd_log_argument(spec))
    return _floor_plus_one(bound)


def iterations_svrg(spec: "RiskSpec") -> int:
    """SVRG epochs sufficient per stage; constant in n because rho < 1/2."""
    return _floor_plus_one(math.log2(_doubling_log_argument(spec)))


def stage_iterations(method: str, spec: "RiskSpec", n: int) -> int:
    """s_n, the closed-form count of steps (SVRG: epochs) sufficient at stage n for the method."""
    if method == "agd":
        return iterations_agd(spec, n)
    if method == "svrg":
        return iterations_svrg(spec)
    return iterations_generic(gd_contraction_factor(spec, n), spec)


def check_power_of_two_ratio(N: int, m0: int) -> int:
    """log2(N/m0); raises ValueError unless N/m0 is a power of two."""
    if N % m0 != 0 or (N // m0) & (N // m0 - 1):
        raise ValueError(f"N/m0 must be a power of two, got N={N}, m0={m0}")
    return (N // m0).bit_length() - 1


def total_complexity_agd(spec: "RiskSpec", N: int, m0: int) -> float:
    """Closed-form total per-sample gradient evaluations of the adaptive AGD scheme."""
    q = check_power_of_two_ratio(N, m0)
    root_two_a = math.sqrt(2.0**spec.alpha)
    bracket = (
        1.0
        + q
        + (root_two_a / (root_two_a - 1.0))
        * math.sqrt(N**spec.alpha * spec.M / (spec.c * spec.gamma))
    )
    return N * bracket * math.log(_agd_log_argument(spec))


def total_complexity_svrg(spec: "RiskSpec", N: int) -> float:
    """Closed-form total per-sample gradient evaluations of the adaptive SVRG scheme: linear in N."""
    return 4.0 * N * math.log2(_doubling_log_argument(spec))


def warm_start_bound(spec: "RiskSpec", m: int, n: int, delta_m: float, v_m: float,
                     v_nm: float, v_n: float) -> float:
    """Proposition 1: expected suboptimality of the stage-m exit iterate on the stage-n risk.

    delta_m + (2(n-m)/n)(V_{n-m} + V_m) + 2(V_m - V_n) + (c(V_m - V_n)/2)||w*||^2,
    at the accuracy levels v_m, v_nm, v_n of m, n - m and n samples.
    """
    if m >= n:
        raise ValueError(f"need m < n, got m={m}, n={n}")
    return (
        delta_m
        + (2.0 * (n - m) / n) * (v_nm + v_m)
        + 2.0 * (v_m - v_n)
        + 0.5 * spec.c * (v_m - v_n) * spec.wstar_sq
    )


def stage_sizes(m0: int, N: int) -> list[int]:
    """m0, 2*m0, 4*m0, ..., N (last stage clamped), each size exactly once."""
    if not 1 <= m0 <= N:
        raise ValueError(f"need 1 <= m0 <= N, got m0={m0}, N={N}")
    sizes = [m0]
    while sizes[-1] < N:
        sizes.append(min(2 * sizes[-1], N))
    return sizes
