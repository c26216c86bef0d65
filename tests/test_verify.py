from dataclasses import replace

import numpy as np
import pytest

from adasize import RiskSpec, bench, solvers, verify
from adasize.data import Dataset, generate_synthetic, normalize, parse_sparse_text
from adasize.verify import CheckReport, _report, _threshold_solve, fd_gradient_check, lemma1_check, lemma2_check, \
    proposition1_check, svrg_direction_check, theorem_sn_sufficiency_check, \
    unregularized_optimum_proxy


def _no_draws(*args, **kwargs):
    raise AssertionError("a subset was drawn")


@pytest.fixture(scope="module")
def base_2k():
    ds, _ = generate_synthetic(2048, 12, 1.0, seed=31)
    return normalize(ds)


@pytest.fixture(scope="module")
def tight_spec(base_2k):
    from adasize import smoothness_constant

    m = smoothness_constant("logistic", base_2k)
    return RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=m)


@pytest.fixture(scope="module")
def proxy_spec(tight_spec, base_2k):
    """tight_spec with ||w*||^2 set to the proxy, as `verify` passes it to the checks."""
    return replace(tight_spec, wstar_sq=unregularized_optimum_proxy("logistic", base_2k))


class TestFdCheck:
    def test_logistic_passes(self, tight_spec, base_2k):
        rep = fd_gradient_check(tight_spec, base_2k.prefix(128), trials=50, seed=1)
        assert rep.passed and rep.violations == 0
        assert rep.worst_margin >= 0

    def test_squared_near_exact(self, base_2k):
        spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=1.0, M=1.0)
        rep = fd_gradient_check(spec, base_2k.prefix(128), trials=50, seed=1, rel_tol=1e-9)
        assert rep.passed

    def test_zero_trials_rejected(self, tight_spec, base_2k):
        with pytest.raises(ValueError):
            fd_gradient_check(tight_spec, base_2k.prefix(16), trials=0)

    def test_reference_makes_no_per_row_call(self, tight_spec, base_2k, monkeypatch):
        def per_row(self, i):
            raise AssertionError("the finite-difference reference read one row")

        monkeypatch.setattr(Dataset, "sample_arrays", per_row)
        rep = fd_gradient_check(tight_spec, base_2k.prefix(128), trials=5, seed=1)
        assert rep.passed

    def test_deterministic(self, tight_spec, base_2k):
        a = fd_gradient_check(tight_spec, base_2k.prefix(64), trials=10, seed=7)
        b = fd_gradient_check(tight_spec, base_2k.prefix(64), trials=10, seed=7)
        assert a == b


class TestSvrgDirectionCheck:
    def test_single_sample(self, tight_spec, base_2k):
        rep = svrg_direction_check(tight_spec, base_2k.prefix(1), trials=20, seed=3)
        assert rep.passed

    def test_seventeen_samples(self, tight_spec, base_2k):
        rep = svrg_direction_check(tight_spec, base_2k.prefix(17), trials=25, seed=3)
        assert rep.passed and rep.worst_margin >= 0

    def test_size_cap(self, tight_spec, base_2k):
        with pytest.raises(ValueError):
            svrg_direction_check(tight_spec, base_2k.prefix(51), trials=5)


class TestLemma1:
    def test_passes_on_synthetic(self, tight_spec, base_2k):
        rep = lemma1_check(tight_spec, base_2k, m=128, n=256, draws=150, seed=5)
        assert rep.passed, rep.notes
        assert rep.trials == 32

    def test_preconditions(self, tight_spec, base_2k):
        with pytest.raises(ValueError):
            lemma1_check(tight_spec, base_2k, m=256, n=256, draws=150)
        with pytest.raises(ValueError):
            lemma1_check(tight_spec, base_2k, m=128, n=256, draws=10)
        with pytest.raises(ValueError):
            lemma1_check(tight_spec, base_2k, m=128, n=4096, draws=150)

    @pytest.mark.parametrize("m", [0, -1])
    def test_m_below_one_rejected_before_any_draw(self, tight_spec, base_2k, monkeypatch, m):
        monkeypatch.setattr(verify, "_nested_draws", _no_draws)
        with pytest.raises(ValueError, match=f"need 1 <= m < n <= base size, got m={m}"):
            lemma1_check(tight_spec, base_2k, m=m, n=256, draws=150)

    def test_zero_probe_contributes_zero_difference(self):
        # at w = 0 every logistic per-sample loss is log 2, so L_n == L_m there
        ds = parse_sparse_text("+1 1:1\n-1 2:1\n+1 1:0.5 2:0.5\n-1 1:1\n")
        margins = ds.x @ np.zeros(2)
        losses = np.logaddexp(0.0, -ds.y * margins)
        assert np.allclose(losses, np.log(2))


class TestLemma2:
    def test_passes_on_synthetic(self, proxy_spec, base_2k):
        rep = lemma2_check(proxy_spec, base_2k, n=256, draws=40, seed=9)
        assert rep.passed, rep.notes

    def test_one_dimensional_closed_form(self):
        # squared loss in 1-d: w_n* = (mean x y) / (mean x^2 + cV_n) exactly,
        # and the norm bound holds against the full-base proxy
        rng = np.random.default_rng(0)
        n_base = 512
        x = rng.uniform(0.5, 1.5, n_base)
        y = np.where(rng.random(n_base) < 0.5, 1.0, -1.0)
        lines = "".join(f"{'+1' if yi > 0 else '-1'} 1:{xi:.17g}\n" for xi, yi in zip(x, y))
        ds = parse_sparse_text(lines)
        spec = RiskSpec(loss="squared", c=1.0, alpha=0.5, gamma=1.0, M=4.0)
        wsq_proxy = unregularized_optimum_proxy("squared", ds)
        wsq_closed = (float(np.mean(x * y)) / float(np.mean(x * x))) ** 2
        assert wsq_proxy == pytest.approx(wsq_closed, rel=1e-6)
        n = 128
        cv = spec.c * spec.gamma / np.sqrt(n)
        draws = []
        for seed in range(30):
            idx = np.random.default_rng(seed).permutation(n_base)[:n]
            w_n = float(np.mean(x[idx] * y[idx])) / (float(np.mean(x[idx] ** 2)) + cv)
            draws.append(w_n**2)
        assert np.mean(draws) <= 4.0 / spec.c + wsq_closed

    def test_quarter_base_precondition(self, tight_spec, base_2k):
        with pytest.raises(ValueError, match=r"need 1 <= n <= base size / 4, got n=513 with base "
                                             r"size 2048"):
            lemma2_check(tight_spec, base_2k, n=513, draws=10)

    @pytest.mark.parametrize("n", [0, -2])
    def test_n_below_one_rejected_before_any_draw(self, tight_spec, base_2k, monkeypatch, n):
        monkeypatch.setattr(verify, "_shuffled_copy", _no_draws)
        with pytest.raises(ValueError, match=f"need 1 <= n <= base size / 4, got n={n} with "
                                             f"base size 2048"):
            lemma2_check(tight_spec, base_2k, n=n, draws=10)


class TestProposition1:
    def test_passes_on_synthetic(self, proxy_spec, base_2k):
        rep = proposition1_check(proxy_spec, base_2k, m=128, draws=40, seed=13)
        assert rep.passed, rep.notes

    def test_size_precondition(self, tight_spec, base_2k):
        with pytest.raises(ValueError):
            proposition1_check(tight_spec, base_2k, m=2000, draws=10)

    @pytest.mark.parametrize("m", [0, -3])
    def test_m_below_one_rejected_before_any_draw(self, tight_spec, base_2k, monkeypatch, m):
        monkeypatch.setattr(verify, "_nested_draws", _no_draws)
        with pytest.raises(ValueError, match=f"need 1 <= m and 2m <= base size, got m={m}"):
            proposition1_check(tight_spec, base_2k, m=m, draws=10)

    def test_stage_solve_stops_at_max_iterations(self, tight_spec, base_2k, monkeypatch):
        # the step cap is read when the stage solve runs, and its error is the driver's
        monkeypatch.setattr(solvers, "MAX_ITERATIONS", 2)
        with pytest.raises(solvers.BudgetError,
                           match=r"^stage n=64 stopped after 2 iterations at \|\|grad R_n\|\| = "
                                 r"[0-9.e+-]+, above its threshold 1e-12$"):
            _threshold_solve(tight_spec, base_2k.prefix(64), 1e-12)


class TestTheoremSufficiency:
    def test_agd_small(self, proxy_spec, base_2k):
        rep = theorem_sn_sufficiency_check("agd", proxy_spec, base_2k, m0=256,
                                           draws=4, seed=2)
        assert rep.passed, rep.notes

    def test_svrg_small(self, proxy_spec, base_2k):
        rep = theorem_sn_sufficiency_check("svrg", proxy_spec, base_2k, m0=256,
                                           draws=4, seed=2)
        assert rep.passed, rep.notes

    def test_gd_not_covered(self, tight_spec, base_2k):
        with pytest.raises(ValueError):
            theorem_sn_sufficiency_check("gd", tight_spec, base_2k, m0=256, draws=2)

    def test_single_draw_flagged(self, proxy_spec, base_2k):
        rep = theorem_sn_sufficiency_check("agd", proxy_spec, base_2k, m0=512,
                                           draws=1, seed=2)
        assert "LOW POWER" in rep.notes


def test_report_csv_line():
    rep = CheckReport(name="x", trials=10, violations=0, worst_margin=0.5)
    assert rep.passed
    failed = CheckReport(name="y", trials=10, violations=2, worst_margin=-0.5)
    assert not failed.passed
    assert bench.csv_text(verify.CHECKS_COLUMNS, [rep.csv_cells(), failed.csv_cells()]) == (
        "name,trials,violations,worst_margin,passed\nx,10,0,0.5,true\ny,10,2,-0.5,false\n")


def test_one_violation_rule():
    rep = _report("x", 3, [0.5, -0.25, 0.0], "")
    assert (rep.violations, rep.worst_margin) == (1, -0.25)
    assert _report("x", 2, [0.5, float("nan")], "").violations == 1  # NaN fails closed
    empty = _report("x", 1, [], "")
    assert (empty.violations, empty.worst_margin) == (0, float("inf"))


def test_checks_deterministic(tight_spec, base_2k):
    a = lemma1_check(tight_spec, base_2k, m=128, n=256, draws=120, seed=21)
    b = lemma1_check(tight_spec, base_2k, m=128, n=256, draws=120, seed=21)
    assert a == b
