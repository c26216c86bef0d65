"""Adaptive sample-size first-order methods for regularized empirical risk minimization.

Solve a chain of ERM subproblems on geometrically growing nested subsets,
each only to its statistical accuracy, warm-starting every stage from the
previous one.  The package provides the stage solvers (GD, accelerated GD,
SVRG), the growth/stopping schedule with its closed-form iteration and
complexity bounds, a benchmarking harness that measures suboptimality in
effective passes, and an empirical verification suite for the scheme's
guarantees.
"""

from .data import Dataset, generate_synthetic, normalize, parse_sparse_text, shuffle_and_split
from .erm import RiskSpec, smoothness_constant, test_error
from .schedule import agd_params, iterations_agd, iterations_generic, iterations_svrg, \
    statistical_accuracy, stop_threshold, svrg_params, total_complexity_agd, \
    total_complexity_svrg, warm_start_bound
from .solvers import DivergenceError, SolverState, agd_step, gd_step, init_state, solve, \
    svrg_epoch
from .driver import RunConfig, StageReport, Trace, TraceEvent, adaptive_run, fixed_run
from .bench import compare_matrix, reference_optimum
from .verify import CheckReport, fd_gradient_check, lemma1_check, lemma2_check, \
    proposition1_check, svrg_direction_check, theorem_sn_sufficiency_check

__version__ = "0.1.0"
