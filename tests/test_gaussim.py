import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest

from sojournlab.gaussim import (QUEUE_LOOKAHEAD, Chi, DriftSpec, FbmW,
                                GridSpec, Lattice2D, Queue, SamplePath,
                                ScaledVariance2D, StationaryExp1D,
                                StationaryExp2D, _axis_root, _fgn_eigs,
                                _stationary_eigs, bridge_cell_max,
                                chi_batch, fbm_batch,
                                normal_tail, queue_batch, simulate_fbm,
                                sliding_max, stationary2d_batch,
                                stationary_batch, w_field_batch)


def _rng(seed):
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def test_grid_spec_basics():
    g = GridSpec(0.0, 1.0, 5)
    assert g.step == 0.25
    assert np.allclose(g.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.0, 5)
    with pytest.raises(ValueError):
        GridSpec(0.0, 1.0, 1)


def test_sample_path_validation():
    g = GridSpec(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        SamplePath(g, np.zeros(4))
    with pytest.raises(ValueError):
        SamplePath(g, np.array([0.0, np.inf, 0.0]))


def test_fbm_covariance_small_grid():
    """Empirical covariance against (s^a + t^a - |t-s|^a) / 2, down to a
    single step: the circulant embedding needs no small-grid fallback."""
    for n_steps in (1, 3, 8):
        t = np.linspace(0.0, 1.0, n_steps + 1)
        for alpha in (0.5, 1.0, 1.7):
            b = fbm_batch(_rng(101), 60_000, alpha, n_steps, 1.0 / n_steps)
            emp = b.T @ b / b.shape[0]
            theo = 0.5 * (t[:, None] ** alpha + t[None, :] ** alpha
                          - np.abs(t[:, None] - t[None, :]) ** alpha)
            assert np.max(np.abs(emp - theo)) < 0.02, (n_steps, alpha)


def test_fbm_pin_index():
    b = fbm_batch(_rng(7), 16, 1.3, 10, 0.1, pin_index=4)
    assert np.all(b[:, 4] == 0.0)


def test_fbm_alpha2_is_a_random_line():
    b = fbm_batch(_rng(3), 1000, 2.0, 6, 0.5)
    t = np.arange(7) * 0.5
    # every row is xi * t for a single standard normal xi
    xi = b[:, -1] / t[-1]
    assert np.allclose(b, xi[:, None] * t[None, :])
    assert abs(xi.var() - 1.0) < 0.1


def test_fbm_increment_variance():
    inc = np.diff(fbm_batch(_rng(11), 40_000, 0.8, 6, 0.25), axis=1)
    assert inc.shape == (40_000, 6)
    v = inc.var(axis=0)
    assert np.max(np.abs(v - 0.25 ** 0.8)) < 0.01


def test_w_field_unit_mean():
    """E exp(W_alpha(t)) = 1 for every t, drift subtracted separately."""
    t = np.linspace(0.0, 1.0, 17)
    w = w_field_batch(_rng(5), 200_000, FbmW(1.5), t, 0)
    m = np.exp(w).mean(axis=0)
    assert np.max(np.abs(m - 1.0)) < 0.03


def test_w_field_degenerate_axis_is_pure_drift():
    t = np.linspace(0.0, 2.0, 9)
    spec = FbmW(0.0, DriftSpec(0.7, 1.2))
    w = w_field_batch(_rng(1), 5, spec, t, 0)
    assert np.allclose(w, -0.7 * np.abs(t) ** 1.2)
    assert np.all(w[0] == w[3])


def test_stationary_correlation():
    spec = StationaryExp1D(0.8, 1.2)
    x = stationary_batch(_rng(21), 150_000, spec, 12, 0.25)
    assert abs(x.var(axis=0).mean() - 1.0) < 0.02
    for k in (1, 3, 7):
        emp = (x[:, 0] * x[:, k]).mean()
        theo = math.exp(-0.8 * (0.25 * k) ** 1.2)
        assert abs(emp - theo) < 0.02, k


def test_stationary2d_separable_covariance():
    lat = Lattice2D(GridSpec(0.0, 1.0, 9), GridSpec(0.0, 0.5, 5))
    spec = StationaryExp2D(1.0, 2.0, 1.0, 0.5)
    f = stationary2d_batch(_rng(3), 200_000, spec, lat)
    t1 = lat.axis1.times()
    t2 = lat.axis2.times()
    emp = (f[:, 0, 0] * f[:, 4, 2]).mean()
    theo = math.exp(-abs(t1[4]) - 2.0 * abs(t2[2]) ** 0.5)
    assert abs(emp - theo) < 0.01
    assert abs(f[:, 3, 3].var() - 1.0) < 0.02


def test_scaled_variance_sigma():
    base = StationaryExp2D(1.0, 1.0, 1.0, 1.0)
    spec = ScaledVariance2D(base, 0.5, 2.0, 1.0, 2.0)
    assert spec.sigma(0.0, 0.0) == 1.0
    assert np.isclose(spec.sigma(1.0, 0.0), math.exp(-0.5))
    assert np.isclose(spec.sigma(0.0, -1.0), math.exp(-2.0))


def test_chi_marginals():
    spec = Chi(3, StationaryExp1D(1.0, 1.0))
    x = chi_batch(_rng(17), 100_000, spec, 4, 0.25)
    # chi-square with 3 degrees of freedom at each point
    assert abs((x ** 2).mean() - 3.0) < 0.05
    assert np.all(x >= 0)
    with pytest.raises(ValueError):
        Chi(0, StationaryExp1D(1.0, 1.0))


def test_queue_marginal_tail():
    """Brownian queue skeleton: tail decays at rate exp(-2 c z).

    On a grid the level P(Q > z) sits below the continuous-time value
    exp(-2 c z) because the skeleton misses excursion peaks, but the
    geometric decay rate survives discretisation, and refining the grid
    moves the level up toward the continuous one.
    """
    spec = Queue(1.0, 1.0)  # u_ref=1.6 looks 8 tau_star ahead
    coarse = queue_batch(_rng(29), 60_000, spec, 10, 0.125, u_ref=1.6)
    q_coarse = (coarse[:, 3] > 0.5).mean()
    fine = queue_batch(_rng(31), 60_000, spec, 10, 1.0 / 64, u_ref=1.6)

    p_fine = (fine[:, 3] > 0.5).mean()
    cont = math.exp(-1.0)
    assert q_coarse < p_fine < cont
    assert cont - p_fine < 0.5 * (cont - q_coarse)

    # decay rate: the missing-peak factor cancels in the ratio
    ratio = (fine[:, 3] > 1.0).mean() / p_fine
    assert abs(ratio - math.exp(-1.0)) < 0.02

    # stationarity along the grid
    means = fine.mean(axis=0)
    assert np.max(np.abs(means - means[0])) < 0.015


def test_queue_spec_validation():
    with pytest.raises(ValueError):
        Queue(2.0, 1.0)
    with pytest.raises(ValueError):
        Queue(1.0, -1.0)
    assert Queue(1.0, 1.0).tau_star == 1.0
    assert Queue(0.5, 2.0).tau_star == 0.5 / (2.0 * 1.5)


def test_sliding_max_matches_naive():
    """Exactly, over several row blocks and a window wider than the row."""
    rng = _rng(4)
    y = rng.standard_normal((150, 37))
    for w in (1, 4, 11, 37, 40):
        got = sliding_max(y, w)
        want = np.array([[y[i, j:j + w].max() for j in range(37)]
                         for i in range(150)])
        assert np.array_equal(got, want), w


def test_simulate_fbm_deterministic():
    g = GridSpec(0.0, 1.0, 33)
    p1 = simulate_fbm(1.4, g, seed=99)
    p2 = simulate_fbm(1.4, g, seed=99)
    assert np.array_equal(p1.values, p2.values)
    assert p1.values[0] == 0.0


def test_normal_tail_values():
    from scipy.stats import norm
    assert np.isclose(normal_tail(0.0), 0.5)
    assert np.isclose(normal_tail(1.0), norm.sf(1.0))
    # far tail stays positive and accurate where naive 1 - cdf underflows
    assert np.isclose(normal_tail(8.0), norm.sf(8.0), rtol=1e-12)
    assert normal_tail(35.0) > 0


# ---------------------------------------------------------------------------
# the in-place circulant path against the unfused reference formula

def _ref_circulant(rng, m, lam, n):
    """Unfused Davies-Harte rows: draw all real parts, then all imaginary
    parts, build the complex spectrum, transform, split, slice."""
    M = len(lam)
    pairs = (m + 1) // 2
    a = rng.standard_normal((pairs, M))
    b = rng.standard_normal((pairs, M))
    z = np.fft.fft(np.sqrt(lam / M) * (a + 1j * b), axis=1)
    out = np.empty((2 * pairs, M))
    out[0::2] = z.real
    out[1::2] = z.imag
    return out[:m][:, :n]


def _ref_increments(rng, m, alpha, n_steps, delta):
    if alpha == 1.0:
        return rng.standard_normal((m, n_steps)) * math.sqrt(delta)
    return _ref_circulant(rng, m, _fgn_eigs(alpha, n_steps), n_steps) \
        * delta ** (alpha / 2.0)


def _ref_fbm(rng, m, alpha, n_steps, delta, pin_index=0):
    inc = _ref_increments(rng, m, alpha, n_steps, delta)
    b = np.concatenate([np.zeros((m, 1)), np.cumsum(inc, axis=1)], axis=1)
    if pin_index:
        b = b - b[:, pin_index][:, None]
    return b


def _bitwise(got, want):
    assert got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


def test_fbm_batch_matches_unfused_reference():
    for m, alpha, pin in itertools.product((1, 2, 3, 64), (0.5, 1.0, 1.5),
                                           (0, 13)):
        got = fbm_batch(_rng(m), m, alpha, 40, 0.05, pin_index=pin)
        _bitwise(got, _ref_fbm(_rng(m), m, alpha, 40, 0.05, pin))


def test_fgn_eigs_alpha1_is_all_ones():
    """Unit-step fGn at alpha = 1 is white noise, so its circulant spectrum
    is exactly flat and fbm_batch may draw the increments directly."""
    for n in (1, 2, 7, 40, 4096):
        assert np.array_equal(_fgn_eigs(1.0, n), np.ones(2 * n))


def _state(rng):
    return json.dumps(rng.bit_generator.state, default=np.ndarray.tolist)


def test_fbm_batch_alpha1_draws_n_normals_per_row():
    for m, n in ((1, 1), (3, 40), (64, 257)):
        got, want = _rng(m), _rng(m)
        fbm_batch(got, m, 1.0, n, 0.05, pin_index=n // 2)
        want.standard_normal((m, n))
        assert _state(got) == _state(want)


def test_bridge_cell_max_matches_inline_formulas():
    """One helper for the tilted window's cell suprema (variance 2d on
    sqrt2 B) and the queue window's cell maxima and minima (variance d)."""
    d = 0.05
    y = fbm_batch(_rng(1), 7, 1.0, 30, d)
    y -= 0.8 * (np.arange(31) * d)[None, :]
    a1, a2 = y[:, :-1], y[:, 1:]
    r = _rng(2)
    u = r.random(a1.shape)
    tilted = 0.5 * (a1 + a2 + np.sqrt((a1 - a2) ** 2 - 4.0 * d * np.log(u)))
    ub = r.random(a1.shape)
    cellmax = 0.5 * (a1 + a2 + np.sqrt((a1 - a2) ** 2 - 2.0 * d * np.log(ub)))
    um = r.random(a1.shape)
    cellmin = 0.5 * (a1 + a2 - np.sqrt((a1 - a2) ** 2 - 2.0 * d * np.log(um)))
    r = _rng(2)
    _bitwise(bridge_cell_max(r, y, 2.0 * d), tilted)
    _bitwise(bridge_cell_max(r, y, d), cellmax)
    _bitwise(-bridge_cell_max(r, -y, d), cellmin)
    assert np.all(cellmax >= np.maximum(a1, a2))
    assert np.all(cellmin <= np.minimum(a1, a2))


def test_batches_match_unfused_reference():
    for m in (1, 2, 3, 33):
        t = np.linspace(-1.0, 2.0, 31)
        spec = FbmW(1.5, DriftSpec(0.7, 1.2))
        drift = np.abs(t) ** 1.5 + spec.drift.h(t)
        b = _ref_fbm(_rng(m), m, 1.5, 30, t[1] - t[0], 10)
        want = math.sqrt(2.0) * b - drift[None, :]
        _bitwise(w_field_batch(_rng(m), m, spec, t, 10), want)

        st = StationaryExp1D(0.8, 1.2)
        lam = _stationary_eigs(0.8, 1.2, 0.25, 12)
        _bitwise(stationary_batch(_rng(m), m, st, 12, 0.25),
                 _ref_circulant(_rng(m), m, lam, 12))

        acc = np.zeros((m, 12))
        r = _rng(m)
        for _ in range(3):
            x = _ref_circulant(r, m, lam, 12)
            acc += x * x
        _bitwise(chi_batch(_rng(m), m, Chi(3, st), 12, 0.25), np.sqrt(acc))

        q = Queue(1.5, 0.5)
        w = max(int(math.ceil(QUEUE_LOOKAHEAD * q.tau_star * 2.0 / 0.1)), 1)
        y = _ref_fbm(_rng(m), m, 1.5, 9 + w, 0.1) \
            - q.c * (np.arange(10 + w) * 0.1)[None, :]
        _bitwise(queue_batch(_rng(m), m, q, 10, 0.1, u_ref=2.0),
                 (sliding_max(y, w + 1) - y)[:, :10])


def test_spectra_are_cached_read_only():
    lam = _fgn_eigs(1.5, 64)
    assert _fgn_eigs(1.5, 64) is lam
    assert not lam.flags.writeable
    with pytest.raises(ValueError):
        lam[0] = 0.0
    assert len(_fgn_eigs(1.5, 32)) != len(lam)
    st = _stationary_eigs(0.8, 1.2, 0.25, 12)
    assert _stationary_eigs(0.8, 1.2, 0.25, 12) is st
    assert not st.flags.writeable
    assert _stationary_eigs(0.8, 1.2, 0.25, 13) is not st


def test_axis_roots_are_cached_read_only():
    """stationary2d_batch runs once per row block inside a chunk, so its
    per-axis eigendecompositions must not be redone on every call."""
    axis = GridSpec(0.0, 2.0, 17)
    root = _axis_root(1.0, 1.5, axis)
    assert _axis_root(1.0, 1.5, GridSpec(0.0, 2.0, 17)) is root
    assert not root.flags.writeable
    t = axis.times()
    cov = np.exp(-np.abs(t[:, None] - t[None, :]) ** 1.5)
    assert np.allclose(root @ root.T, cov, atol=1e-10)


def test_fbm_batch_peak_memory():
    """One spectrum and one output: the traced peak stays near 3x the
    returned bytes (the unfused path peaked at 8x)."""
    _fgn_eigs(1.5, 4096)
    tracemalloc.start()
    try:
        b = fbm_batch(_rng(0), 1024, 1.5, 4096, 1.0 / 4096)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * b.nbytes


def test_queue_batch_peak_memory():
    """Sliding maxima add only row-block temporaries: the queue sampler
    peaks near its circulant synthesis, not at 8x its path array."""
    spec = Queue(1.5, 1.0)
    w = int(math.ceil(QUEUE_LOOKAHEAD * spec.tau_star * 1.5 / 0.02))
    path_bytes = 2000 * (200 + w) * 8
    _fgn_eigs(1.5, 199 + w)
    tracemalloc.start()
    try:
        q = queue_batch(_rng(0), 2000, spec, 200, 0.02, u_ref=1.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert q.shape == (2000, 200)
    assert peak <= 3.5 * path_bytes
