"""Acceptance suite: one test per criterion, each printing a PASS line.

Criterion 6 needs externally supplied RCV1/MNIST sparse-text files (see
README) and is skipped unless ADASIZE_RCV1 / ADASIZE_MNIST point at them.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

import adasize as a
from adasize import bench, verify
from adasize.cli import main as cli_main
from adasize.driver import RunConfig, adaptive_run, fixed_run
from adasize.schedule import iterations_generic, iterations_svrg

# frozen oracle values (40-digit arithmetic)
AGD_TOTAL_N10000_M0625 = 1571929.4564982748
SVRG_TOTAL_N10000 = 93691.58266766616


def _suite_base(seed=0, n=8192, dim=20):
    ds, _ = a.generate_synthetic(n, dim, 1.0, seed=seed)
    train = a.normalize(ds)
    m = a.smoothness_constant("logistic", train)
    spec = a.RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=m)
    return train, spec


@pytest.fixture(scope="module")
def suite():
    return _suite_base()


def test_criterion_1_gradient_oracle(suite):
    train, spec = suite
    start = time.time()
    view = train.prefix(128)
    rep_log = verify.fd_gradient_check(spec, view, trials=200, seed=101)
    sq = a.RiskSpec(loss="squared", c=spec.c, alpha=spec.alpha, gamma=spec.gamma, M=spec.M)
    rep_sq = verify.fd_gradient_check(sq, view, trials=200, seed=101, rel_tol=1e-9)
    elapsed = time.time() - start
    assert rep_log.passed and rep_log.violations == 0, rep_log.notes
    assert rep_sq.passed and rep_sq.violations == 0, rep_sq.notes
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1: PASS - fd gradient oracle, 200+200 trials, "
          f"margins {rep_log.worst_margin:.2g}/{rep_sq.worst_margin:.2g}, {elapsed:.1f}s")


def test_criterion_2_svrg_unbiasedness(suite):
    train, spec = suite
    start = time.time()
    reports = []
    for n in (1, 5, 17, 50):
        reports.append(verify.svrg_direction_check(spec, train.prefix(n), trials=25, seed=7))
    elapsed = time.time() - start
    assert sum(r.trials for r in reports) == 100
    for r in reports:
        assert r.passed and r.violations == 0, r.notes
    assert elapsed < 5.0
    print(f"\nACCEPTANCE 2: PASS - svrg direction enumeration exact at n in (1,5,17,50), "
          f"100 trials, {elapsed:.1f}s")


def test_criterion_3_stage_certificates():
    start = time.time()
    checked = 0
    for seed in range(20):
        train, spec = _suite_base(seed=seed)
        refs = {}
        for method in ("gd", "agd", "svrg"):
            cfg = RunConfig(method=method, adaptive=True, m0=256, seed=seed)
            _, _, reports = adaptive_run(cfg, spec, train)
            for rep in reports:
                assert rep.exit_grad_norm <= rep.threshold, (seed, method, rep)
                if rep.n not in refs:
                    refs[rep.n] = bench.reference_optimum(
                        spec, train.prefix(rep.n), tolerance=1e-10)
                at = a.erm.Measurement(spec, rep.w, train.prefix(rep.n))
                gap = at.risk - refs[rep.n].risk
                v_n = a.statistical_accuracy(spec, rep.n)
                assert gap <= v_n + 1e-9, (seed, method, rep.n, gap, v_n)
                checked += 1
    elapsed = time.time() - start
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3: PASS - {checked} stage certificates over 20 seeds x 3 methods, "
          f"{elapsed:.0f}s")


def test_criterion_4_theoretical_iteration_sufficiency(suite):
    train, spec = suite
    start = time.time()
    wsq = verify.unregularized_optimum_proxy(spec.loss, train)
    counted = replace(spec, wstar_sq=wsq)
    rep_agd = verify.theorem_sn_sufficiency_check("agd", counted, train, 256, draws=50, seed=40)
    rep_svrg = verify.theorem_sn_sufficiency_check("svrg", counted, train, 256, draws=50,
                                                   seed=41)
    assert rep_agd.passed, rep_agd.notes
    assert rep_svrg.passed, rep_svrg.notes

    # the adaptive SVRG epoch count per stage must equal the closed-form
    # constant evaluated at the same squared-norm proxy
    expected = iterations_svrg(counted)
    two_a = 2.0**spec.alpha
    by_hand = math.floor(math.log2(3 * two_a + (two_a - 1) * (2 + 0.5 * spec.c * wsq))) + 1
    assert expected == by_hand
    cfg = RunConfig(method="svrg", adaptive=True, m0=256, seed=4,
                    budget_mode="theory")
    _, _, reports = adaptive_run(cfg, counted, train)
    stage_epochs = {rep.n: rep.iterations for rep in reports[1:]}
    assert all(it == expected for it in stage_epochs.values()), stage_epochs
    elapsed = time.time() - start
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 4: PASS - 50-draw mean suboptimality within accuracy per stage "
          f"(agd margin {rep_agd.worst_margin:.2g}, svrg margin {rep_svrg.worst_margin:.2g}); "
          f"svrg runs exactly {expected} epochs per stage, {elapsed:.0f}s")


def _passes_to_target(trace, ref, target, N):
    for ev in trace.events:
        if max(0.0, ev.risk_value - ref.risk) <= target:
            return ev.grad_evals / N
    return None


def test_criterion_5_speedup_over_fixed():
    N, m0 = 16384, 256
    start = time.time()
    wins = {"agd": 0, "svrg": 0}
    for seed in range(20):
        ds, _ = a.generate_synthetic(N, 100, 0.3, seed=seed,
                                     margin_scale=1.3, feature_decay=1.0)
        train, _ = a.shuffle_and_split(a.normalize(ds), N, seed=seed)
        m = a.smoothness_constant("logistic", train)
        spec = a.RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=2.0, M=m)
        ref = bench.reference_optimum(spec, train.prefix(N), tolerance=1e-9)
        target = a.statistical_accuracy(spec, N)
        for method in ("gd", "agd", "svrg"):
            ca = RunConfig(method=method, adaptive=True, m0=m0, seed=seed)
            _, trace_a, _ = adaptive_run(ca, spec, train)
            cf = RunConfig(method=method, adaptive=False, m0=m0, seed=seed,
                           pass_cap=400)
            _, trace_f = fixed_run(cf, spec, train)
            pa = _passes_to_target(trace_a, ref, target, N)
            pf = _passes_to_target(trace_f, ref, target, N)
            # adaptive never pays more than fixed to reach the target
            assert pa is not None and pf is not None and pa <= pf, (seed, method, pa, pf)
            if method != "gd" and 0.0 < pa <= pf / 2.0:
                wins[method] += 1
    elapsed = time.time() - start
    assert wins["agd"] >= 18, wins
    assert wins["svrg"] >= 18, wins
    assert elapsed < 1200.0
    print(f"\nACCEPTANCE 5: PASS - adaptive at most half the fixed passes on "
          f"{wins['agd']}/20 (agd) and {wins['svrg']}/20 (svrg) seeds, {elapsed:.0f}s")


def _paper_scale_speedup(path, label_map, alpha, N, target_kind, target_value):
    blob = open(path, "rb").read()
    ds = a.parse_sparse_text(blob, label_map=label_map)
    ds = a.normalize(ds)
    train, test = a.shuffle_and_split(ds, N, seed=0)
    spec = a.RiskSpec(loss="logistic", c=1.0, alpha=alpha, gamma=2.0, M=1.0)
    ref = bench.reference_optimum(spec, train.prefix(N), tolerance=1e-9)
    passes = {}
    for adaptive in (True, False):
        cfg = RunConfig(method="agd", adaptive=adaptive, m0=400, seed=0, pass_cap=200)
        if adaptive:
            _, trace, _ = adaptive_run(cfg, spec, train, test)
        else:
            _, trace = fixed_run(cfg, spec, train, test)
        found = None
        for ev in trace.events:
            metric = ev.test_error if target_kind == "test_error" \
                else max(0.0, ev.risk_value - ref.risk)
            if metric is not None and metric <= target_value:
                found = ev.grad_evals / N
                break
        passes[adaptive] = found
    if passes[True] in (None, 0.0) or passes[False] is None:
        return None
    return passes[False] / passes[True]


@pytest.mark.skipif("ADASIZE_RCV1" not in os.environ,
                    reason="paper-scale reproduction needs ADASIZE_RCV1=<sparse text file>")
def test_criterion_6_rcv1_reproduction():
    ratio = _paper_scale_speedup(os.environ["ADASIZE_RCV1"], None, 0.5, 10000,
                                 "test_error", 0.08)
    assert ratio is not None and 3.0 <= ratio <= 8.0, ratio
    print(f"\nACCEPTANCE 6a: PASS - rcv1 adaptive/fixed speedup to 8% test error: {ratio:.2f}x")


@pytest.mark.skipif("ADASIZE_MNIST" not in os.environ,
                    reason="paper-scale reproduction needs ADASIZE_MNIST=<sparse text file>")
def test_criterion_6_mnist_reproduction():
    ratio = _paper_scale_speedup(os.environ["ADASIZE_MNIST"], {0: -1, 8: 1}, 1.0, 6000,
                                 "suboptimality", 1e-2)
    assert ratio is not None and 5.0 <= ratio <= 20.0, ratio
    print(f"\nACCEPTANCE 6b: PASS - mnist adaptive/fixed speedup to 1e-2 suboptimality: "
          f"{ratio:.2f}x")


def test_criterion_7_bound_calculators(capsys):
    start = time.time()
    unit = a.RiskSpec(loss="logistic", c=1.0, alpha=0.5, gamma=1.0, M=1.0)
    assert iterations_generic(0.5, unit) == 3
    assert a.iterations_agd(unit, 10000) == 24
    assert a.iterations_svrg(unit) == 3
    assert a.total_complexity_svrg(unit, 10000) == pytest.approx(SVRG_TOTAL_N10000, rel=1e-6)
    assert a.total_complexity_agd(unit, 10000, 625) == pytest.approx(
        AGD_TOTAL_N10000_M0625, rel=1e-6)

    # the CLI table must print the same numbers to 6 significant digits; the unit
    # spec violates the SVRG precondition at n = 625, 1250 and 2500, and bounds says so
    with pytest.warns(RuntimeWarning, match="precondition"):
        assert cli_main(["bounds", "--N", "10000", "--m0", "625",
                         "--alpha", "0.5", "--c", "1"]) == 0
    out = capsys.readouterr().out
    last_stage = [ln for ln in out.splitlines() if ln.lstrip().startswith("10000")][0]
    assert last_stage.split()[-2:] == ["24", "3"]  # s_agd, s_svrg columns
    assert f"total_agd_grad_evals = {AGD_TOTAL_N10000_M0625:.6g}" in out
    assert f"total_svrg_grad_evals = {SVRG_TOTAL_N10000:.6g}" in out
    elapsed = time.time() - start
    assert elapsed < 1.0
    print(f"\nACCEPTANCE 7: PASS - bound calculators match independent evaluation "
          f"to 6 significant digits, {elapsed:.2f}s")


def test_criterion_8_monte_carlo_lemma_suite(suite):
    train, spec = suite
    start = time.time()
    r1 = verify.lemma1_check(spec, train, 256, 512, draws=500, seed=81)
    spec = replace(spec, wstar_sq=verify.unregularized_optimum_proxy(spec.loss, train))
    r2 = verify.lemma2_check(spec, train, 2048, draws=500, seed=82)
    r3 = verify.proposition1_check(spec, train, 256, draws=500, seed=83)
    elapsed = time.time() - start
    for r in (r1, r2, r3):
        assert r.passed, (r.name, r.notes)
    assert elapsed < 900.0
    print(f"\nACCEPTANCE 8: PASS - lemma suite at 500 draws "
          f"(margins {r1.worst_margin:.3g}, {r2.worst_margin:.3g}, {r3.worst_margin:.3g}), "
          f"{elapsed:.0f}s")
