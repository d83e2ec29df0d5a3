"""Acceptance suite: one test per shipped guarantee, one printed verdict each.

Each test exercises a full-budget configuration of the public API and ends
with a PASS/FAIL line. The lines are emitted immediately when capture is
off (-s) and are always repeated in an "acceptance criteria" section of the
terminal summary (see conftest), so a plain `pytest` run shows the nine
verdicts at a glance. Budgets are chosen so the whole file runs in minutes.
"""

import json
import math
import os
import sys

import numpy as np

from sojournlab import cli, mc
from sojournlab.asymptotics import (ExperimentSettings,
                                    double_sum_diagnostic,
                                    conditional_sojourn_cdf,
                                    queue_asymptotics, queue_prefactor,
                                    queue_window_exceed_mc, scaling_function,
                                    target_curve)
from sojournlab.berman import (berman2_parabola_oracle, brownian_sup_oracle,
                               estimate_berman_1d, estimate_berman_1d_limit,
                               estimate_bhat, parabola_constant_closed_form)
from sojournlab.gaussim import Chi, FbmW, GridSpec, Queue, SamplePath, \
    StationaryExp1D, simulate_fbm, w_field_batch
from sojournlab.sojourn import batch_levels, level_for_sojourn, \
    reduction_quadrature

SQRT_PI = math.sqrt(math.pi)


# collected by conftest's terminal-summary hook
VERDICT_LINES = []


def _verdict(num, ok, detail):
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'}: {detail}"
    VERDICT_LINES.append(line)
    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


def test_fbm_covariance_matches_closed_form():
    """Empirical covariance of simulate_fbm on a 64-point grid over [0,1]
    matches (s^a + t^a - |t-s|^a)/2 entrywise within max(3*SE, 0.01)."""
    grid = GridSpec(0.0, 1.0, 64)
    t = grid.times()
    n = 200_000
    worst = {}
    ok = True
    for alpha in (0.5, 1.0, 1.5):
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(1)))
        vals = np.empty((n, 64))
        for i in range(n):
            vals[i] = simulate_fbm(alpha, grid, rng).values
        emp = vals.T @ vals / n
        sq = (vals ** 2).T @ (vals ** 2) / n
        se = np.sqrt(np.maximum(sq - emp ** 2, 0.0) / n)
        theo = 0.5 * (t[:, None] ** alpha + t[None, :] ** alpha
                      - np.abs(t[:, None] - t[None, :]) ** alpha)
        tol = np.maximum(3.0 * se, 0.01)
        excess = np.abs(emp - theo) - tol
        worst[alpha] = float(excess.max())
        ok = ok and worst[alpha] <= 0.0
    detail = ("fBm covariance, 64x64 grid, n=2e5, alpha in {0.5,1,1.5}; "
              "worst margin to max(3*SE,0.01): "
              + ", ".join(f"a={a}: {m:+.4f}" for a, m in worst.items()))
    _verdict(1, ok, detail)
    assert ok, worst


def test_plain_estimator_agrees_with_quadrature_oracle():
    """Monte Carlo at alpha=2 meets the deterministic quadrature oracle
    within 2*SE at x in {0, 0.2, 0.5}; the oracle itself reproduces
    1 + 1/sqrt(pi) at x = 0 to five significant digits."""
    anchor = 1.0 + 1.0 / SQRT_PI
    oracle0 = berman2_parabola_oracle(0.0, 1.0, quadrature_order=1000)
    anchor_ok = abs(oracle0 - anchor) < 1e-5 * anchor
    closed_ok = parabola_constant_closed_form(0.0, 1.0) == anchor
    rows = []
    ok = anchor_ok and closed_ok
    for x in (0.0, 0.2, 0.5):
        est = estimate_berman_1d(2.0, x=x, n_grid=1025,
                                 n_samples=1_000_000, seed=1)
        ora = berman2_parabola_oracle(x, 1.0, quadrature_order=1000)
        gap = abs(est.value - ora)
        rows.append(f"x={x}: {gap / est.std_err:.2f} SE")
        ok = ok and gap < 2.0 * est.std_err
    detail = ("alpha=2 estimate vs quadrature oracle, n=1e6 ("
              + ", ".join(rows)
              + f"); oracle(0) = {oracle0:.7f} vs 1+1/sqrt(pi) = "
              f"{anchor:.7f}")
    _verdict(2, ok, detail)
    assert ok, detail


def test_limit_slope_recovers_known_constants():
    """The fitted per-length slope lands within 5% of 1 for alpha=1 and
    within 5% of 1/sqrt(pi) for alpha=2 on the S in {4,8,16} schedule."""
    rels = {}
    ok = True
    for alpha, target in ((1.0, 1.0), (2.0, 1.0 / SQRT_PI)):
        est = estimate_berman_1d_limit(alpha, n_samples=100_000, seed=0)
        rels[alpha] = abs(est.value - target) / target
        ok = ok and rels[alpha] < 0.05
    detail = ("limit slope, n=1e5 per S, S in {4,8,16}; relative errors "
              + ", ".join(f"a={a}: {r:.4f}" for a, r in rels.items())
              + " (bound 0.05)")
    _verdict(3, ok, detail)
    assert ok, rels


def test_mixed_constant_routes_agree():
    """Direct window estimates of the mixed constant equal the factorized
    product route within 2 combined SE for exponent pairs (1,1), (1,2)."""
    rows = []
    ok = True
    for alphas in ((1.0, 1.0), (1.0, 2.0)):
        direct, product = estimate_bhat(alphas, x=0.5, n1=2.0,
                                        n_samples=100_000, seed=24)
        se = math.hypot(direct.std_err, product.std_err)
        gap = abs(direct.value - product.value)
        rows.append(f"alphas={alphas}: {gap / se:.2f} cSE")
        ok = ok and gap < 2.0 * se
    detail = ("direct vs product route, x=0.5, n1=2, n=1e5 ("
              + ", ".join(rows) + "; bound 2 combined SE)")
    _verdict(4, ok, detail)
    assert ok, detail


def test_level_reduction_identities_per_path():
    """On 1000 simulated paths the rank-based level and the bisection
    quadrature agree within 1e-6 relative after exponentiation, levels are
    nonincreasing in x, and past the window length everything vanishes."""
    n_paths = 1000
    grid = GridSpec(0.0, 1.0, 257)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(33)))
    w = w_field_batch(rng, n_paths, FbmW(1.5), grid.times(), 0)
    xs = [0.0, 0.3, 0.7, 255.0 / 256.0]
    total = grid.step * 257
    worst_rel = 0.0
    mono_ok = True
    vanish_ok = True
    for i in range(n_paths):
        path = SamplePath(grid, w[i])
        prev = np.inf
        for x in xs:
            z = batch_levels(w[i:i + 1], grid.step, x)[0]
            q = reduction_quadrature(path, x, rel_tol=1e-6)
            ref = float(np.exp(z))
            if ref > 0:
                worst_rel = max(worst_rel, abs(q - ref) / ref)
            elif q != 0.0:
                vanish_ok = False
            if np.exp(z) > prev + 1e-300:
                mono_ok = False
            prev = float(np.exp(z))
        res = level_for_sojourn(path, total + 0.25)
        if res.z is not None or reduction_quadrature(path, total + 0.25) != 0.0:
            vanish_ok = False
    ok = worst_rel <= 1e-6 and mono_ok and vanish_ok
    detail = (f"rank vs quadrature on 1000 paths: worst rel {worst_rel:.2e} "
              f"(bound 1e-6); monotone in x: {mono_ok}; vanishing past "
              f"window: {vanish_ok}")
    _verdict(5, ok, detail)
    assert ok, detail


def test_conditional_curve_approaches_target():
    """For the chi families (m=1,2) and the plain stationary family the
    sup-distance between the conditional curve and its target is
    nonincreasing over u in {2.5, 3.0, 3.5}, each level holding at least
    500 conditioned replicates and an exact unit anchor at x = 0. Each
    level is importance sampled to an effective sample size of 100k, against
    one target curve drawn from the u=2.5 level's former target seed."""
    settings = ExperimentSettings(target_samples=50_000)
    x_grid = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    families = {
        "stationary": StationaryExp1D(1.0, 1.0),
        "chi m=1": Chi(1, StationaryExp1D(1.0, 1.0)),
        "chi m=2": Chi(2, StationaryExp1D(1.0, 1.0)),
    }
    # the target depends on a 1-D family only through alpha, which all
    # three share, so the three families' curves are one curve
    target = target_curve(families["stationary"], settings, x_grid,
                          seed=mc.derive_seed(250, 0x7A))
    ok = True
    parts = []
    for name, fam in families.items():
        dists = []
        for u in (2.5, 3.0, 3.5):
            res = conditional_sojourn_cdf(fam, settings, u, x_grid,
                                          n_target_conditioned=100_000,
                                          seed=int(u * 100), target=target)
            ok = ok and res.n_conditioned >= 500
            ok = ok and res.ratio_hat[0] == 1.0
            dists.append(res.sup_distance)
        ok = ok and all(b <= a for a, b in zip(dists, dists[1:]))
        parts.append(name + ": " + "->".join(f"{d:.4f}" for d in dists))
    detail = ("sup-distance over u=2.5,3.0,3.5 (100k effective each): "
              + "; ".join(parts))
    _verdict(6, ok, detail)
    assert ok, detail


def test_block_pair_ratio_decays():
    """The pairwise-over-single block exceedance ratio falls monotonically
    over block sizes n in {2,4,8} at u=3 for the unit stationary family."""
    res = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 3.0,
                                (2.0, 4.0, 8.0), seed=5,
                                settings=ExperimentSettings(domain_T=2.0),
                                n_sims=100_000)
    ok = res.ratios[0] > res.ratios[1] > res.ratios[2]
    detail = ("pairwise/single ratio at u=3: "
              + " -> ".join(f"{r:.4f}" for r in res.ratios)
              + f" over n={res.n_schedule}")
    _verdict(7, ok, detail)
    assert ok, detail


def test_queue_prediction_tracks_simulation():
    """Queue closed forms are exact in the clean case (volume scale 1/2 for
    every u; tau*=1, A=2, B=1/2, m(u)=2 sqrt(u)), and the predicted window
    exceedance moves monotonically toward the simulated one over
    u in {4, 6, 8}."""
    fam = Queue(1.0, 1.0)
    exact_ok = all(scaling_function(fam, u) == 0.5
                   for u in np.logspace(-6, 12, 37))
    qa = queue_asymptotics(1.0, 1.0, 4.0)
    exact_ok = exact_ok and (qa.tau_star, qa.A, qa.B, qa.m_u) == \
        (1.0, 2.0, 0.5, 4.0)
    exact_ok = exact_ok and queue_asymptotics(1.0, 1.0, 9.0).m_u == 6.0

    bhat = brownian_sup_oracle(2.0)
    ratios = []
    for u in (4.0, 6.0, 8.0):
        pred = queue_prefactor(1.0, 1.0, u, 2.0, 0.0, bhat)
        est, _ = queue_window_exceed_mc(u, 1.0, 2.0, n_paths=200_000, seed=5)
        ratios.append(pred / est)
    ladder_ok = ratios[0] < ratios[1] < ratios[2] < 1.0
    ok = exact_ok and ladder_ok
    detail = ("clean-case closed forms exact: "
              f"{exact_ok}; prediction/MC over u=4,6,8: "
              + " -> ".join(f"{r:.4f}" for r in ratios))
    _verdict(8, ok, detail)
    assert ok, detail


def test_manifest_replay_reproduces_every_table(tmp_path):
    """Each subcommand rerun from its recorded manifest writes a
    byte-identical table under a different worker count."""
    runs = {
        "oracle": ["oracle", "--x", "0,0.5", "--s", "1,2"],
        "estimate-constant": ["estimate-constant", "--alpha", "1.5",
                              "--x", "0.1", "--n-grid", "129",
                              "--n-samples", "4000", "--seed", "11"],
        "convergence": ["convergence", "--alpha", "2.0",
                        "--s-schedule", "2,4,8", "--n-samples", "2000",
                        "--seed", "9"],
        "double-sum": ["double-sum", "--u", "2.5", "--n-schedule", "2,4",
                       "--n-sims", "20000", "--domain-t", "2.0",
                       "--seed", "5"],
        "run-experiment": ["run-experiment", "--u", "2.0",
                           "--x-grid", "0,1,2", "--n-conditioned", "300",
                           "--sim-batch", "5000", "--max-sims", "100000",
                           "--target-samples", "3000", "--seed", "2"],
    }
    ok = True
    parts = []
    for name, argv in runs.items():
        d1 = str(tmp_path / (name + "-a"))
        d2 = str(tmp_path / (name + "-b"))
        rc1 = cli.main(argv + ["--out", d1])
        man_path = os.path.join(d1, "run_manifest.json")
        rc2 = cli.main([argv[0], "--from-manifest", man_path,
                        "--workers", "2", "--out", d2])
        same = rc1 == 0 and rc2 == 0
        if same:
            table = json.load(open(man_path))["outputs"]["table"]
            with open(os.path.join(d1, table), "rb") as fh:
                b1 = fh.read()
            with open(os.path.join(d2, table), "rb") as fh:
                b2 = fh.read()
            m1 = json.load(open(man_path))
            m2 = json.load(open(os.path.join(d2, "run_manifest.json")))
            m1.pop("wall_time_s")
            m2.pop("wall_time_s")
            same = b1 == b2 and m1 == m2
        ok = ok and same
        parts.append(f"{name}: {'ok' if same else 'MISMATCH'}")
    detail = "manifest replay with workers=2: " + ", ".join(parts)
    _verdict(9, ok, detail)
    assert ok, detail
