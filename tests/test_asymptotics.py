import math

import numpy as np
import pytest

from sojournlab import asymptotics, mc
from sojournlab.asymptotics import (ExperimentResult, ExperimentSettings,
                                    _axis_table, conditional_sojourn_cdf,
                                    double_sum_diagnostic, queue_asymptotics,
                                    queue_prefactor, queue_window_exceed_mc,
                                    scaling_function, target_curve)
from sojournlab.gaussim import (Chi, GridSpec, Lattice2D, Queue,
                                ScaledVariance2D, StationaryExp1D,
                                StationaryExp2D, chi_batch,
                                stationary2d_batch, stationary_batch)


def _one_point(a1, a2, alpha1, alpha2, b1, b2, beta1, beta2):
    return ScaledVariance2D(StationaryExp2D(a1, a2, alpha1, alpha2),
                            b1, b2, beta1, beta2)


def test_scaling_function_stationary_1d():
    # v = a^(-1/alpha) u^(-2/alpha)
    assert scaling_function(StationaryExp1D(1.0, 1.0), 100.0) == 1e-4
    assert scaling_function(StationaryExp1D(1.0, 1.0), 10.0) == 1e-2
    assert np.isclose(scaling_function(StationaryExp1D(4.0, 2.0), 5.0), 0.1)
    # the chi family rescales exactly like its base
    assert scaling_function(Chi(3, StationaryExp1D(2.0, 1.0)), 10.0) == 0.005


def test_scaling_function_stationary_2d():
    v = scaling_function(StationaryExp2D(1.0, 1.0, 1.0, 2.0), 2.0)
    assert np.isclose(v, 2.0 ** (-2.0 - 1.0))


def test_scaling_function_queue_exact_half():
    """alpha = c = 1 collapses the queue volume scale to 1/2 for every u."""
    fam = Queue(1.0, 1.0)
    for u in (1.0, 3.0, 4.0, 7.5, 100.0, 1e6):
        assert scaling_function(fam, u) == 0.5


def test_scaling_function_queue_general():
    assert np.isclose(scaling_function(Queue(4.0 / 3.0, 1.0), 9.0),
                      3.883934173658585, rtol=1e-12)
    with pytest.raises(ValueError):
        scaling_function(Queue(1.0, 1.0), 0.0)


def test_scaling_function_one_point_regimes():
    # alpha < beta on axis 1, alpha = beta on axis 2
    fam = _one_point(2.0, 3.0, 1.0, 1.0, 1.0, 1.5, 2.0, 1.0)
    assert _axis_table(fam, 1) == (1.0, 0.0)
    assert _axis_table(fam, 2) == (1.0, 0.5)
    v = scaling_function(fam, 2.0)
    assert np.isclose(v, (1.0 / 2.0) * (1.0 / 3.0) * 2.0 ** (-4.0))
    # degenerate axis: alpha > beta, the variance decay sets the scale
    fam2 = _one_point(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.5)
    assert _axis_table(fam2, 2) == (0.0, 1.0)
    v2 = scaling_function(fam2, 2.0)
    assert np.isclose(v2, 2.0 ** (-2.0) * 2.0 ** (-4.0))


def test_family_validation():
    with pytest.raises(ValueError):
        StationaryExp1D(-1.0, 1.0)
    with pytest.raises(ValueError):
        StationaryExp1D(1.0, 2.5)
    with pytest.raises(ValueError):
        Chi(0, StationaryExp1D(1.0, 1.0))
    with pytest.raises(ValueError):
        Queue(2.0, 1.0)
    with pytest.raises(ValueError):
        Queue(1.0, 0.0)
    with pytest.raises(TypeError):
        scaling_function(object(), 1.0)


def test_settings_validation():
    with pytest.raises(ValueError):
        ExperimentSettings(points_per_v=1)
    with pytest.raises(ValueError):
        ExperimentSettings(sim_batch=1000, max_sims=10)
    with pytest.raises(ValueError):
        ExperimentSettings(queue_T=-1.0)
    with pytest.raises(ValueError):  # x = 0 would be within one step of T
        ExperimentSettings(queue_T=1.0 / 8, points_per_v=8)


def test_experiment_result_rejects_broken_ratio():
    with pytest.raises(ValueError):
        ExperimentResult(StationaryExp1D(1.0, 1.0), 2.0, (0.0, 1.0),
                         ratio_hat=(0.9, 0.5), ci_lo=(0, 0), ci_hi=(1, 1),
                         n_conditioned=10, target_curve=(1.0, 0.5),
                         target_se=(0.0, 0.01), sup_distance=0.0)


def test_conditional_sojourn_cdf_shape_and_anchoring():
    settings = ExperimentSettings(target_samples=4000, sim_batch=5000,
                                  max_sims=200_000)
    res = conditional_sojourn_cdf(StationaryExp1D(1.0, 1.0), settings, 2.0,
                                  (0.0, 0.5, 1.0, 2.0),
                                  n_target_conditioned=800, seed=3)
    assert res.ratio_hat[0] == 1.0
    assert res.target_curve[0] == 1.0
    assert all(b <= a + 1e-12 for a, b in zip(res.ratio_hat,
                                              res.ratio_hat[1:]))
    assert res.n_conditioned >= 800
    assert res.sup_distance >= 0.0
    assert res.metadata["v_u"] == 0.25
    for lo, r, hi in zip(res.ci_lo, res.ratio_hat, res.ci_hi):
        assert lo <= r <= hi


def test_conditional_sojourn_cdf_low_confidence_flag():
    """The draw cap binds before the effective sample size is reached."""
    settings = ExperimentSettings(target_samples=3000, sim_batch=1000,
                                  max_sims=1000)
    res = conditional_sojourn_cdf(StationaryExp1D(1.0, 1.0), settings, 3.0,
                                  (0.0, 1.0), n_target_conditioned=50_000,
                                  seed=1)
    assert 0 < res.n_conditioned < 500
    assert "low-confidence" in res.flags


def test_conditional_sojourn_cdf_no_exceedance_is_a_failure():
    """A rejection family that keeps nothing cannot report a curve."""
    settings = ExperimentSettings(target_samples=1000, sim_batch=500,
                                  max_sims=500)
    with pytest.raises(mc.NumericFailure):
        conditional_sojourn_cdf(Queue(1.0, 1.0), settings, 40.0,
                                (0.0, 1.0), seed=0)


def test_a_pass_that_keeps_nothing_resizes_to_the_cap(monkeypatch):
    """An empty pilot pass resizes without dividing by zero, to max_sims
    and not past it, and a level that still keeps nothing fails."""
    passes = []
    chunked_mean = mc.chunked_mean

    def recording(kernel, n_samples, *args, **kwargs):
        passes.append(n_samples)
        return chunked_mean(kernel, n_samples, *args, **kwargs)

    monkeypatch.setattr(mc, "chunked_mean", recording)
    settings = ExperimentSettings(target_samples=1000, sim_batch=500,
                                  max_sims=2500)
    with pytest.raises(mc.NumericFailure):
        conditional_sojourn_cdf(Queue(1.0, 1.0), settings, 40.0,
                                (0.0, 1.0), seed=0)
    assert passes == [1024, 2500]


def test_rejection_n_conditioned_is_the_kept_count():
    """With 0/1 weights the effective sample size is exactly the number of
    replicates whose grid maximum exceeds u, recounted here from the
    run's own substreams in its row blocks."""
    settings = ExperimentSettings(target_samples=1000, sim_batch=700)
    fam, u = StationaryExp2D(1.0, 1.0, 1.0, 1.0), 2.5
    res = conditional_sojourn_cdf(fam, settings, u, (0.0, 0.5), 300, seed=8)
    (n1, n2), (d1, d2) = res.metadata["n_points"], res.metadata["delta"]
    lat = Lattice2D(GridSpec(0.0, (n1 - 1) * d1, n1),
                    GridSpec(0.0, (n2 - 1) * d2, n2))
    sub, n = mc.derive_seed(8, 0xE), res.metadata["n_sims"]
    kept = 0
    for k, start in enumerate(range(0, n, settings.sim_batch)):
        rng = mc.generator(sub, k)
        chunk_n = min(settings.sim_batch, n - start)
        for i in range(0, chunk_n, mc.ROW_BLOCK):
            f = stationary2d_batch(rng, min(mc.ROW_BLOCK, chunk_n - i), fam,
                                   lat)
            kept += int((f.max(axis=(1, 2)) > u).sum())
    assert res.n_conditioned == kept >= 300
    assert res.metadata["ess"] == kept
    assert res.metadata["p_exceed"] == pytest.approx(kept / n, rel=1e-12)


def test_rejection_draws_stay_in_row_blocks(monkeypatch):
    """At the default sim_batch no 2-D lattice or queue batch is drawn
    with more than mc.ROW_BLOCK rows, so memory does not grow with the
    chunk size."""
    rows = []

    def recording(batch):
        def draw(rng, m, *args, **kwargs):
            rows.append(m)
            return batch(rng, m, *args, **kwargs)
        return draw

    for name in ("stationary2d_batch", "queue_batch"):
        monkeypatch.setattr(asymptotics, name,
                            recording(getattr(asymptotics, name)))
    settings = ExperimentSettings(target_samples=500)
    assert settings.sim_batch > mc.ROW_BLOCK
    for fam in (StationaryExp2D(1.0, 1.0, 1.0, 1.0),
                _one_point(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 2.0),
                Queue(1.0, 1.0)):
        count = len(rows)
        res = conditional_sojourn_cdf(fam, settings, 2.5, (0.0, 0.5), 50,
                                      seed=2)
        assert sum(rows[count:]) == res.metadata["n_sims"]
    assert max(rows) == mc.ROW_BLOCK


def test_conditional_chi_tail_underflow_is_a_failure():
    settings = ExperimentSettings(target_samples=1000)
    with pytest.raises(mc.NumericFailure):
        conditional_sojourn_cdf(Chi(2, StationaryExp1D(1.0, 1.0)), settings,
                                40.0, (0.0, 1.0), seed=0)


@pytest.mark.parametrize("family, batch", [
    (StationaryExp1D(1.0, 1.0), stationary_batch),
    (Chi(2, StationaryExp1D(1.0, 1.0)), chi_batch),
])
def test_importance_sampling_matches_rejection(family, batch):
    """At u=2.5, where rejection is cheap, the importance-sampled curve
    agrees with a rejection curve on the same grid within 4 combined SE
    at every x, and its P(max > u) with the acceptance rate."""
    u, xg = 2.5, (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)
    settings = ExperimentSettings(target_samples=2000)
    res = conditional_sojourn_cdf(family, settings, u, xg,
                                  n_target_conditioned=10_000, seed=31)
    assert res.n_conditioned >= 10_000
    delta, n_pts = res.metadata["delta"], res.metadata["n_points"]
    rng = mc.generator(32)
    n_sims, vols = 0, []
    while sum(len(v) for v in vols) < 10_000:
        cnt = (batch(rng, 20_000, family, n_pts, delta) > u).sum(axis=1)
        vols.append(delta * cnt[cnt > 0])
        n_sims += 20_000
    vols = np.concatenate(vols)
    v_u = res.metadata["v_u"]
    for j, x in enumerate(xg[1:], 1):
        p = (vols > v_u * x).mean()
        se_is = (res.ci_hi[j] - res.ci_lo[j]) / (2 * mc.Z95)
        se_rej = math.sqrt(p * (1.0 - p) / vols.size)
        assert abs(res.ratio_hat[j] - p) < 4 * math.hypot(se_is, se_rej), x
    rate = vols.size / n_sims
    rate_se = math.sqrt(rate * (1.0 - rate) / n_sims)
    assert abs(res.metadata["p_exceed"] - rate) < 4 * math.hypot(
        res.metadata["p_exceed_se"], rate_se)


def test_conditional_stationary_at_a_high_level():
    """Importance sampling reaches levels that rejection never does."""
    settings = ExperimentSettings(target_samples=1000)
    res = conditional_sojourn_cdf(StationaryExp1D(1.0, 1.0), settings, 40.0,
                                  (0.0, 1.0, 2.0), n_target_conditioned=100,
                                  seed=7)
    assert res.ratio_hat[0] == 1.0
    assert res.n_conditioned >= 100
    assert all(0.0 < r < 1.0 for r in res.ratio_hat[1:])


def test_conditional_sojourn_cdf_shared_target():
    """A target curve passed in is used as is and not redrawn."""
    settings = ExperimentSettings(target_samples=2000)
    fam, xg = StationaryExp1D(1.0, 1.0), (0.0, 0.5, 1.0)
    target = target_curve(fam, settings, xg, seed=5)
    own = conditional_sojourn_cdf(fam, settings, 2.5, xg, 300, seed=6)
    shared = conditional_sojourn_cdf(fam, settings, 2.5, xg, 300, seed=6,
                                     target=target)
    assert shared.target_curve == target.values
    assert shared.ratio_hat == own.ratio_hat
    assert own.metadata["stream_ids"][:len(shared.metadata["stream_ids"])] \
        == shared.metadata["stream_ids"]
    with pytest.raises(ValueError):
        conditional_sojourn_cdf(fam, settings, 2.5, (0.0, 1.0), 300, seed=6,
                                target=target)


def test_conditional_sojourn_cdf_x_grid_validation():
    settings = ExperimentSettings()
    with pytest.raises(ValueError):
        conditional_sojourn_cdf(StationaryExp1D(1.0, 1.0), settings, 2.0,
                                (0.5, 1.0))
    with pytest.raises(ValueError):
        conditional_sojourn_cdf(StationaryExp1D(1.0, 1.0), settings, 2.0,
                                (0.0, 1.0, 1.0))


def test_conditional_queue_excludes_near_horizon():
    """On a finite horizon the rightmost x values have no limit to compare
    against; they are dropped and flagged instead of silently reported."""
    settings = ExperimentSettings(target_samples=4000, sim_batch=5000,
                                  max_sims=200_000, queue_T=2.0)
    res = conditional_sojourn_cdf(Queue(1.0, 1.0), settings, 2.0,
                                  (0.0, 0.5, 1.0, 1.5, 1.75, 2.5),
                                  n_target_conditioned=600, seed=2)
    assert "excluded-near-horizon" in res.flags
    assert res.x_grid == (0.0, 0.5, 1.0, 1.5, 1.75)
    assert res.metadata["excluded_x"] == (2.5,)
    assert len(res.ratio_hat) == 5


def test_conditional_one_point_degenerate_axis_flag():
    settings = ExperimentSettings(target_samples=3000, sim_batch=4000,
                                  max_sims=40_000, domain_T=0.5,
                                  domain_T2=0.5, target_S_2d=2.0)
    fam = _one_point(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 2.0, 0.5)
    res = conditional_sojourn_cdf(fam, settings, 1.5, (0.0, 0.5, 1.0),
                                  n_target_conditioned=300, seed=4)
    assert "degenerate-axis" in res.flags
    assert res.ratio_hat[0] == 1.0


def test_double_sum_rejects_wrong_family():
    with pytest.raises(TypeError):
        double_sum_diagnostic(Queue(1.0, 1.0), 3.0)
    with pytest.raises(TypeError):
        double_sum_diagnostic(Chi(1, StationaryExp1D(1.0, 1.0)), 3.0)


def test_double_sum_needs_two_blocks():
    with pytest.raises(ValueError) as exc:
        double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 3.0, (8.0,), seed=0,
                              n_sims=1000)
    assert "at least 2" in str(exc.value)


def test_double_sum_ratio_decreases_with_block_size():
    """Larger blocks spread exceedances apart, so the pairwise share of the
    counting mass must fall along the schedule."""
    settings = ExperimentSettings(domain_T=2.0)
    res = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 3.0,
                                (2.0, 4.0, 8.0), seed=5, settings=settings,
                                n_sims=100_000)
    assert res.n_blocks == (9, 4, 2)
    assert res.ratios[0] > res.ratios[1] > res.ratios[2]
    assert all(s > 0 for s in res.single_counts)
    assert all(se > 0 for se in res.std_errs)


def test_double_sum_one_batch_has_finite_errors():
    """n_sims == sim_batch is a single chunk; its errors are still finite."""
    settings = ExperimentSettings(domain_T=2.0, sim_batch=20_000)
    res = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 2.5, (2.0, 4.0),
                                seed=5, settings=settings, n_sims=20_000)
    assert len(res.metadata["stream_ids"]) == 1
    assert all(np.isfinite(se) and se > 0 for se in res.std_errs)


def test_double_sum_worker_invariance():
    settings = ExperimentSettings(domain_T=2.0, sim_batch=5_000)
    one = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 2.5, (2.0, 4.0),
                                seed=3, settings=settings, n_sims=15_000)
    two = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 2.5, (2.0, 4.0),
                                seed=3, settings=settings, n_sims=15_000,
                                workers=2)
    assert one == two


def test_double_sum_independent_blocks_control():
    """With independently simulated blocks the ratio must match the
    binomial value (K - 1) p, a sanity check on the counting identity."""
    settings = ExperimentSettings(domain_T=2.0)
    res = double_sum_diagnostic(StationaryExp1D(1.0, 1.0), 2.0, (2.0, 4.0),
                                seed=9, settings=settings, n_sims=60_000,
                                independent_blocks=True)
    for i in range(2):
        K = res.n_blocks[i]
        p_hat = res.single_counts[i] / (60_000 * K)
        assert abs(res.ratios[i] - (K - 1) * p_hat) < 4 * res.std_errs[i], i


def test_double_sum_2d():
    res = double_sum_diagnostic(StationaryExp2D(1.0, 1.0, 1.0, 1.0), 2.5,
                                (1.0, 2.0), seed=11, n_sims=40_000)
    assert res.n_blocks == (36, 9)
    assert res.ratios[0] > res.ratios[1]


def test_double_sum_2d_rejects_independent_blocks():
    with pytest.raises(ValueError) as exc:
        double_sum_diagnostic(StationaryExp2D(1.0, 1.0, 1.0, 1.0), 2.5,
                              (1.0, 2.0), seed=11, n_sims=100,
                              independent_blocks=True)
    assert "independent_blocks" in str(exc.value)


def test_queue_asymptotics_clean_case():
    qa = queue_asymptotics(1.0, 1.0, 4.0)
    assert qa.tau_star == 1.0
    assert qa.m_u == 4.0
    assert qa.A == 2.0
    assert qa.B == 0.5
    assert qa.q_u == 0.125
    # m(u) = 2 sqrt(u) for alpha = c = 1
    assert queue_asymptotics(1.0, 1.0, 9.0).m_u == 6.0


def test_queue_asymptotics_general_case():
    qa = queue_asymptotics(1.5, 2.0, 9.0)
    assert np.isclose(qa.tau_star, 1.5, rtol=1e-14)
    assert np.isclose(qa.m_u, 5.1115448339701794, rtol=1e-12)
    assert np.isclose(qa.A, 2.9511517858675242, rtol=1e-12)
    assert np.isclose(qa.B, 0.36889397323344053, rtol=1e-12)
    assert np.isclose(qa.q_u, 0.27042179443263903, rtol=1e-12)


def test_queue_prefactor_value():
    got = queue_prefactor(1.0, 1.0, 4.0, 2.0, 0.0, 3.849320433)
    assert np.isclose(got, 1.2223598682e-3, rtol=1e-9)
    with pytest.raises(ValueError):
        queue_prefactor(1.0, 1.0, 4.0, 2.0, 2.0, 1.0)


def test_queue_window_mc_matches_prediction_roughly():
    pred = queue_prefactor(1.0, 1.0, 4.0, 2.0, 0.0, 3.849320433)
    est, se = queue_window_exceed_mc(4.0, 1.0, 2.0, n_paths=30_000, seed=5)
    assert se < 0.1 * est
    # the closed form is an asymptotic statement; at u = 4 it sits within
    # about 10 percent of the simulation, well outside pure MC noise
    assert 0.75 * est < pred < 1.05 * est
    again = queue_window_exceed_mc(4.0, 1.0, 2.0, n_paths=30_000, seed=5)
    assert (est, se) == again
    assert queue_window_exceed_mc(4.0, 1.0, 2.0, n_paths=30_000,
                                  seed=6)[0] != est
