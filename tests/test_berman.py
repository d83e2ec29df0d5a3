import math
import tracemalloc

import numpy as np
import pytest

from sojournlab import mc
from sojournlab.berman import (ConstantEstimate, _tilted_kernel,
                               _tilted_window, _w1d_kernel, _w2d_kernel,
                               berman2_parabola_oracle, berman_curve_1d,
                               berman_curve_2d, brownian_sup_oracle,
                               estimate_berman_1d, estimate_berman_1d_limit,
                               estimate_berman_2d, estimate_bhat,
                               parabola_constant_closed_form)
from sojournlab.gaussim import DriftSpec, FbmW, fbm_batch, w_field_batch
from sojournlab.sojourn import batch_levels

SQRT_PI = math.sqrt(math.pi)


# frozen closed-form values, computed once by hand from
# 2*Phi(-x/sqrt2) + (S-x) exp(-x^2/4)/sqrt(pi) at S = 1
PARABOLA_UNIT = {
    0.0: 1.56418958355,
    0.2: 1.3343977267,
    0.5: 0.988677142176,
}

# frozen values of the drifted-Brownian-sup integral
BROWNIAN_SUP = {
    1.0: 2.72014110619,
    2.0: 3.84932043331,
    4.0: 5.94320987627,
    8.0: 9.98846254657,
    16.0: 17.9992343559,
}


def test_parabola_closed_form_frozen_values():
    for x, want in PARABOLA_UNIT.items():
        got = parabola_constant_closed_form(x, 1.0)
        assert abs(got - want) < 1e-10, x


def test_parabola_closed_form_affine_in_length():
    # at x = 0 the constant is exactly 1 + S/sqrt(pi)
    for S in (0.5, 1.0, 3.0, 16.0):
        assert np.isclose(parabola_constant_closed_form(0.0, S),
                          1.0 + S / SQRT_PI, rtol=1e-14)


def test_parabola_closed_form_vanishes():
    assert parabola_constant_closed_form(1.0, 1.0) == 0.0
    assert parabola_constant_closed_form(2.5, 1.0) == 0.0


def test_parabola_quadrature_oracle_matches_closed_form():
    """Two independent deterministic routes to the same constant."""
    for x in (0.0, 0.2, 0.5):
        a = berman2_parabola_oracle(x, 1.0)
        b = parabola_constant_closed_form(x, 1.0)
        assert abs(a - b) < 5e-4 * b, x
    # near the window edge the integrand kink slows the quadrature down
    assert abs(berman2_parabola_oracle(0.9, 1.0)
               - parabola_constant_closed_form(0.9, 1.0)) < 2e-3
    assert berman2_parabola_oracle(1.2, 1.0) == 0.0
    with pytest.raises(ValueError):
        berman2_parabola_oracle(-0.1, 1.0)


def test_brownian_sup_oracle_frozen_values():
    for S, want in BROWNIAN_SUP.items():
        assert abs(brownian_sup_oracle(S) - want) < 1e-8, S
    with pytest.raises(ValueError):
        brownian_sup_oracle(0.0)


def test_brownian_sup_oracle_drifts_to_length_plus_two():
    # E exp(sup) = S + 2 - eta(S) with eta decreasing to 0
    gaps = [S + 2.0 - brownian_sup_oracle(S) for S in (2.0, 4.0, 8.0, 16.0)]
    assert all(g > 0 for g in gaps)
    assert gaps == sorted(gaps, reverse=True)
    assert gaps[-1] < 1e-3


def test_estimate_berman_1d_alpha2_against_oracle():
    est = estimate_berman_1d(2.0, x=0.2, n_grid=513, n_samples=60_000, seed=14)
    want = PARABOLA_UNIT[0.2]
    assert abs(est.value - want) < 3 * est.std_err
    assert est.std_err < 0.02
    assert est.method == "plain"


def test_estimate_berman_1d_worker_invariance():
    a = estimate_berman_1d(1.5, x=0.1, n_grid=129, n_samples=20_000, seed=2)
    b = estimate_berman_1d(1.5, x=0.1, n_grid=129, n_samples=20_000, seed=2,
                           workers=4)
    assert a.value == b.value
    assert a.std_err == b.std_err


def test_estimate_berman_1d_vanishing_bound():
    est = estimate_berman_1d(1.0, x=1.5, interval=(0.0, 1.0), n_samples=100)
    assert est.value == 0.0
    assert "vanishing-by-bound" in est.flags


def test_estimate_berman_1d_interval_must_contain_zero():
    with pytest.raises(ValueError):
        estimate_berman_1d(1.0, interval=(0.5, 1.5))


def test_estimate_berman_1d_refine_check_flag():
    est = estimate_berman_1d(2.0, x=0.0, n_grid=257, n_samples=8_000, seed=5,
                             refine_check=True)
    assert ("grid-bias-ok" in est.flags) or ("grid-bias-suspect" in est.flags)


def test_constant_estimate_rejects_negative_value():
    with pytest.raises(ValueError):
        ConstantEstimate(value=-0.1, std_err=0.0, n_samples=1, grid_step=1.0,
                         domain=(0.0, 1.0), normalization=1.0, seed=0)


def test_constant_estimate_rejects_non_finite():
    for value, se in ((1.0, math.nan), (math.inf, 0.1), (math.nan, 0.1)):
        with pytest.raises(mc.NumericFailure):
            ConstantEstimate(value=value, std_err=se, n_samples=1,
                             grid_step=1.0, domain=(0.0, 1.0),
                             normalization=1.0, seed=0)


def test_limit_three_entry_schedule_has_no_curvature_flag():
    """Three residuals of a line fit always alternate in sign, so the
    curvature check only runs on schedules of four or more entries."""
    est = estimate_berman_1d_limit(2.0, n_samples=3000, seed=8)
    assert len(est.metadata["per_S"]) == 3
    assert "fit-curvature" not in est.flags


def test_limit_slope_alpha2():
    """The per-length limit at alpha = 2 is 1/sqrt(pi); the window average
    at x = 0 is exactly affine in S, so even short windows fit it."""
    est = estimate_berman_1d_limit(2.0, n_samples=15_000, seed=8)
    assert abs(est.value - 1.0 / SQRT_PI) < 0.04
    assert "per_S" in est.metadata
    assert len(est.metadata["per_S"]) == 3
    assert est.metadata["intercept"] > 0


@pytest.mark.parametrize("x", [1.0, 1.005])
def test_limit_plain_vanishing_entry_draws_nothing(x):
    """A schedule entry S with x >= S is 0 by bound, also when x lies in
    the last grid step past S, and draws no substream."""
    est = estimate_berman_1d_limit(1.5, x, (1.0, 2.0, 3.0), n_samples=500,
                                   seed=3, method="plain")
    assert est.metadata["per_S"][0] == (1.0, 0.0, 0.0)
    drawn = [mc.derive_seed(3, i) for i in (1, 2)]
    assert est.metadata["stream_ids"] == [f"sfc64:{s}:0" for s in drawn]


def test_pickands_alpha1_is_one():
    est = estimate_berman_1d_limit(1.0, 0.0, n_samples=15_000, seed=4)
    assert abs(est.value - 1.0) < 0.05
    assert est.value > 0


def test_curve_1d_monotone_in_x_both_methods():
    xg = np.array([0.0, 0.25, 0.5, 0.9])
    for method in ("plain", "tilted"):
        means, ses, _ = berman_curve_1d(2.0, xg, 1.0, n_samples=10_000,
                                        seed=6, method=method)
        assert np.all(np.diff(means) <= 1e-12), method
        assert np.all(ses >= 0)


def test_curve_1d_tilted_matches_closed_form():
    xg = np.array([0.0, 0.25, 0.5])
    means, ses, streams = berman_curve_1d(2.0, xg, 1.0, n_samples=60_000,
                                          seed=3, delta=1.0 / 64,
                                          method="tilted")
    assert streams == mc.stream_ids(3, 15)  # the 15 chunks drawn
    for j, x in enumerate(xg):
        want = parabola_constant_closed_form(float(x), 1.0)
        assert abs(means[j] - want) < 3 * ses[j], x


def _vanishing_2d(alpha1, drift1, alpha2=1.0, drift2=DriftSpec(), S=4.0,
                  x=1e9):
    """estimate_berman_2d at an x past the domain area: nothing is drawn,
    but the domain and the normalization are reported."""
    est = estimate_berman_2d(alpha1, alpha2, drift1, drift2, x, S,
                             n_samples=100)
    assert "vanishing-by-bound" in est.flags
    assert est.metadata["stream_ids"] == []
    return est


def test_domain_rule_sides():
    # drift-free axis: one-sided with an S divisor
    assert _vanishing_2d(1.0, DriftSpec()).domain[0] == (0.0, 4.0)
    # confining drift (alpha >= beta): two-sided, no divisor
    assert _vanishing_2d(1.0, DriftSpec(1.0, 0.5)).domain[0] == (-4.0, 4.0)
    # steep drift (alpha < beta): mass grows along the axis, divisor again
    assert _vanishing_2d(1.0, DriftSpec(1.0, 2.0)).domain[0] == (0.0, 4.0)
    # degenerate axis with any drift is confined around the origin
    assert _vanishing_2d(0.0, DriftSpec(1.0, 2.0)).domain[0] == (-4.0, 4.0)
    with pytest.raises(ValueError):
        _vanishing_2d(1.0, DriftSpec(), S=-1.0)


def test_domain_rule_normalization():
    # one one-sided axis: divisor S; the area is 3 * 6, so x = 18 vanishes
    est = _vanishing_2d(1.0, DriftSpec(), 1.0, DriftSpec(1.0, 0.5), S=3.0,
                        x=18.0)
    assert est.domain == ((0.0, 3.0), (-3.0, 3.0))
    assert est.normalization == 3.0
    assert _vanishing_2d(1.0, DriftSpec(), S=3.0).normalization == 9.0
    assert _vanishing_2d(1.0, DriftSpec(1.0, 0.5), 0.0, DriftSpec(1.0, 2.0),
                         S=3.0).normalization == 1.0


def test_estimate_berman_2d_product_structure():
    """Independent axes: the x = 0 constant factorizes, and at alpha = 2
    each factor is 1 + 1/sqrt(pi)."""
    est = estimate_berman_2d(2.0, 2.0, DriftSpec(), DriftSpec(), 0.0, 1.0,
                             n_samples=40_000, seed=9, n_grid_axis=65)
    want = (1.0 + 1.0 / SQRT_PI) ** 2
    assert abs(est.value - want) < 3 * est.std_err
    assert est.std_err < 0.05


def test_estimate_berman_2d_vanishing():
    est = estimate_berman_2d(1.0, 1.0, DriftSpec(), DriftSpec(), 2.0, 1.0,
                             n_samples=100)
    assert est.value == 0.0
    assert "vanishing-by-bound" in est.flags


def test_curve_2d_monotone():
    xg = np.array([0.0, 0.3, 0.8])
    means, ses, _ = berman_curve_2d(2.0, 2.0, xg, 1.0, 1.0 / 32,
                                    n_samples=8_000, seed=1)
    assert np.all(np.diff(means) <= 1e-12)


def test_bhat_two_routes_agree_cheap():
    direct, product = estimate_bhat((1.0, 1.0), x=0.5, n1=2.0,
                                    n_samples=30_000, seed=24)
    se = math.hypot(direct.std_err, product.std_err)
    assert abs(direct.value - product.value) < 4 * se
    assert direct.value > 0
    assert product.metadata["pickands_factors"]


def _ref_tilted_window(rng, m, alpha, n_cells, d):
    """The re-anchored window as full-size temporaries."""
    k = rng.integers(0, n_cells + 1, size=m)
    b = math.sqrt(2.0) * fbm_batch(rng, m, alpha, n_cells, d)
    b = b - b[np.arange(m), k][:, None]
    s = (np.arange(n_cells + 1)[None, :] - k[:, None]) * d
    return b - np.abs(s) ** alpha


def test_tilted_window_in_place_matches_reference():
    for m, alpha in ((1, 1.5), (3, 0.5), (64, 1.9), (5, 1.0)):
        def rng():
            return np.random.Generator(np.random.Philox(m))
        got = _tilted_window(rng(), m, alpha, 40, 0.05)
        want = _ref_tilted_window(rng(), m, alpha, 40, 0.05)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


# ---------------------------------------------------------------------------
# kernels inside the chunk driver: row blocks and the chunk workspace

def _chunk_outputs(kernel, n, seed, params, width=None):
    """Per-sample outputs of one chunk as mc._run_chunk computes them."""
    got = []

    def rec(rng, m, p):
        out = kernel(rng, m, p)
        got.append(np.array(out))
        return out

    mc._run_chunk(rec, seed, 0, n, params, width)
    return np.concatenate(got)


def _blockwise(kernel, n, seed, params):
    """The same chunk's blocks, computed outside any chunk workspace."""
    rng = mc.generator(seed, 0)
    return np.concatenate([kernel(rng, min(mc.ROW_BLOCK, n - i), params)
                           for i in range(0, n, mc.ROW_BLOCK)])


def _bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_w2d_kernel_batches_do_not_alias():
    """Both axis batches of a block have the same shape, so an output
    buffer reused across calls would make them one array: the kernel must
    match a reference that copies each batch before drawing the next."""
    t = np.linspace(-1.0, 1.0, 33)
    p = {"axes": ((t, 1.5, DriftSpec()), (t, 1.5, DriftSpec(0.5, 1.0))),
         "x": 0.2}

    def ref(rng, m, p):
        (t1, a1, d1), (t2, a2, d2) = p["axes"]
        w1 = w_field_batch(rng, m, FbmW(a1, d1), t1, 16).copy()
        w2 = w_field_batch(rng, m, FbmW(a2, d2), t2, 16).copy()
        f = w1[:, :, None] + w2[:, None, :]
        return np.exp(batch_levels(f.reshape(m, -1), (t1[1] - t1[0]) ** 2,
                                   p["x"]))

    n = mc.ROW_BLOCK + 9
    _bitwise(_chunk_outputs(_w2d_kernel, n, 5, p), _blockwise(ref, n, 5, p))


def test_kernels_in_chunk_match_fresh_arrays():
    """Workspace reuse across a chunk's blocks, the short last block
    included, gives the bits of fresh arrays on every block."""
    n = 2 * mc.ROW_BLOCK + 7
    t = np.linspace(-0.5, 1.0, 97)
    w1d = {"t": t, "alpha": 1.3, "drift": DriftSpec(0.4, 1.5), "x": 0.25}
    _bitwise(_chunk_outputs(_w1d_kernel, n, 8, w1d),
             _blockwise(_w1d_kernel, n, 8, w1d))
    grid = dict(w1d, x=(0.0, 0.25, 0.7))
    _bitwise(_chunk_outputs(_w1d_kernel, n, 8, grid, width=3),
             _blockwise(_w1d_kernel, n, 8, grid))
    tilted = {"alpha": 1.5, "x": (0.0, 0.5), "S": 8.0, "delta": 1.0 / 16}
    _bitwise(_chunk_outputs(_tilted_kernel, n, 9, tilted, width=2),
             _blockwise(_tilted_kernel, n, 9, tilted))


def test_w1d_chunk_peak_memory():
    """A 4096-path chunk at 4097 points never holds its path array
    (4096 x 4097 doubles, 134 MB): the traced peak stays under 16 MB."""
    t = np.linspace(0.0, 1.0, 4097)
    p = {"t": t, "alpha": 1.5, "drift": DriftSpec(), "x": 0.2}
    mc._run_chunk(_w1d_kernel, 1, 0, 8, p)  # caches the spectrum
    tracemalloc.start()
    try:
        mc._run_chunk(_w1d_kernel, 1, 0, 4096, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16e6
