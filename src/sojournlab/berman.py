"""Monte Carlo estimators and deterministic oracles for sojourn constants.

The basic object is the interval constant

    B_alpha(x, [0,S]) = E exp(z_x),   z_x the level at which the sojourn of
    W_alpha(t) = sqrt(2) B_alpha(t) - |t|^alpha above z drops to x,

its long-run density limit B_alpha(x) = lim B_alpha(x,[0,S])/S (Pickands
constant H_alpha at x = 0), two-dimensional drifted variants on growing
domains, and the mixed sup/sojourn constants that factor into a product of
Pickands constants and a one-dimensional interval constant.

Two deterministic oracles anchor the tests: at alpha = 2 the path is a
random parabola and everything reduces to one-dimensional quadrature over a
single Gaussian; at alpha = 1 the x = 0 constant follows from the closed
form of the drifted-Brownian running maximum.

Estimators come in two flavors. Plain averaging of exp(z_x) is used on fixed
intervals. For the per-length limits, plain averaging needs S so large that
the slope drowns in noise, so the limit estimator defaults to a
shift-randomized form: tilting by exp(W(t)) with a uniformly placed anchor t
turns the same defining integral into a bounded-ratio average over two-sided
windows, unbiased for the defining integral at every S (see _tilted_kernel).
"""

from dataclasses import dataclass, field as dc_field
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import ndtr, roots_hermite

from . import mc
from .gaussim import (DriftSpec, FbmW, bridge_cell_max, fbm_batch,
                      w_field_batch)
from .sojourn import batch_levels_in_place

SQRT2 = math.sqrt(2.0)
SQRT_PI = math.sqrt(math.pi)
DEFAULT_LIMIT_SCHEDULE = (4.0, 8.0, 16.0)


# ---------------------------------------------------------------------------
# result container

@dataclass(frozen=True)
class ConstantEstimate:
    """A single estimated constant with enough context to reproduce it.

    metadata["stream_ids"] lists the substreams the estimate drew, those of
    each chunked_mean call in call order; it is empty when nothing was drawn.
    """
    value: float
    std_err: float
    n_samples: int
    grid_step: float
    domain: tuple
    normalization: float
    seed: int
    method: str = ""
    flags: tuple = ()
    metadata: dict = dc_field(default_factory=dict)

    def __post_init__(self):
        if not (math.isfinite(self.value) and math.isfinite(self.std_err)):
            raise mc.NumericFailure(f"non-finite estimate {self.value!r} "
                                    f"with std_err {self.std_err!r}")
        if self.value < 0:
            raise ValueError("constant estimates are nonnegative by construction")
        if self.std_err < 0:
            raise ValueError("std_err must be >= 0")
        if self.normalization <= 0:
            raise ValueError("normalization must be > 0")


# ---------------------------------------------------------------------------
# deterministic oracles (alpha = 2 parabola, alpha = 1 drifted Brownian sup)

def parabola_constant_closed_form(x, S):
    """B_2(x, [0,S]) in closed form: 2 Psi(x/sqrt2) + (S-x) e^{-x^2/4}/sqrt(pi).

    Derivation sketch: at alpha = 2 the path is W(t) = sqrt2 xi t - t^2 for a
    single standard normal xi; the level with sojourn exactly x is piecewise
    explicit in xi (interior plateau xi^2/2 - x^2/4 when the super-level
    interval fits inside [0,S], boundary-clipped linear pieces otherwise) and
    the xi-integral of its exponential telescopes to the stated form.
    """
    if x >= S:
        return 0.0
    return 2.0 * ndtr(-x / SQRT2) + (S - x) * math.exp(-x * x / 4.0) / SQRT_PI


def _parabola_sup(xi, lo, hi):
    """sup of sqrt2*xi*t - t^2 over [lo, hi], elementwise."""
    tv = np.asarray(xi, dtype=float) / SQRT2
    at_lo = SQRT2 * xi * lo - lo * lo
    at_hi = SQRT2 * xi * hi - hi * hi
    return np.where(tv < lo, at_lo, np.where(tv > hi, at_hi, xi * xi / 2.0))


def _parabola_level(xi, lo, hi, x):
    """Continuum level z with |{t in [lo,hi]: sqrt2*xi*t - t^2 > z}| = x.

    Vectorized bisection on the super-level interval length; returns -inf
    where x is at least the window length (exp maps that to an exact 0).
    """
    xi = np.asarray(xi, dtype=float)
    lo = np.broadcast_to(np.asarray(lo, dtype=float), xi.shape)
    hi = np.broadcast_to(np.asarray(hi, dtype=float), xi.shape)
    sup = _parabola_sup(xi, lo, hi)
    if x == 0.0:
        return sup
    tv = xi / SQRT2
    at_lo = SQRT2 * xi * lo - lo * lo
    at_hi = SQRT2 * xi * hi - hi * hi
    zlo = np.minimum(at_lo, at_hi) - 1.0
    zhi = sup.copy()
    for _ in range(80):
        zm = 0.5 * (zlo + zhi)
        r = np.sqrt(np.maximum(tv * tv - zm, 0.0))
        soj = np.clip(np.minimum(hi, tv + r) - np.maximum(lo, tv - r), 0.0, None)
        above = soj > x
        zlo = np.where(above, zm, zlo)
        zhi = np.where(above, zhi, zm)
    return np.where(x < hi - lo, zhi, -np.inf)


def berman2_parabola_oracle(x, S, quadrature_order=200):
    """Deterministic B_2(x, [0,S]) by Gauss-Hermite quadrature over xi.

    Independent of the Monte Carlo code path: the per-xi level is found by
    bisection on the closed-form super-level interval length. Accuracy is
    limited by the integrand's kinks in xi; order 200 lands within about
    2e-4 relative of the closed form (tested), far below any MC tolerance
    used against it.
    """
    if x < 0:
        raise mc.ConfigError("x must be >= 0")
    if quadrature_order < 10:
        raise mc.ConfigError("quadrature_order too small to mean anything")
    if x >= S:
        return 0.0
    y, w = roots_hermite(int(quadrature_order))
    xi = SQRT2 * y
    z = _parabola_level(xi, 0.0, S, x)
    return float((w / SQRT_PI) @ np.exp(z))


def brownian_sup_oracle(S):
    """E exp(sup over [0,S] of (sqrt2 B_1(t) - t)), i.e. B_1(0, [0,S]).

    sqrt2 B_1 is a Brownian motion run at rate 2; the running maximum of a
    drifted Brownian motion has a closed-form law, and E e^M follows by one
    numerically integrated tail integral.
    """
    if S <= 0:
        raise mc.ConfigError("S must be > 0")
    c = math.sqrt(2.0 * S)

    def tail(m):
        return ndtr(-(m + S) / c) + math.exp(-m) * ndtr(-(m - S) / c)

    val, err = quad(lambda m: math.exp(m) * tail(m), 0.0, S + 14.0 * c, limit=400)
    if err > 1e-8 * (1.0 + val):
        raise mc.NumericFailure(f"sup-law quadrature error {err:.2e} too large at S={S}")
    return 1.0 + val


# ---------------------------------------------------------------------------
# sampling kernels (module level so worker processes can unpickle them)
#
# p["x"] is one sojourn size or a tuple of them: batch_levels_in_place
# reduces each path to one value, or to one column per x from the same
# paths, reordering the kernel's own path array instead of copying it.

def _w1d_kernel(rng, m, p):
    """exp(z_x) for W_alpha paths with drift on a fixed 1D grid."""
    t = p["t"]
    w = w_field_batch(rng, m, FbmW(p["alpha"], p["drift"]), t,
                      int(np.argmin(np.abs(t))))
    return np.exp(batch_levels_in_place(w, t[1] - t[0], p["x"]))


def _w2d_kernel(rng, m, p):
    """exp(z_x) for separable 2D drifted fields on a lattice."""
    (t1, a1, d1), (t2, a2, d2) = p["axes"]
    w1 = w_field_batch(rng, m, FbmW(a1, d1), t1, int(np.argmin(np.abs(t1))))
    w2 = w_field_batch(rng, m, FbmW(a2, d2), t2, int(np.argmin(np.abs(t2))))
    area = (t1[1] - t1[0]) * (t2[1] - t2[0])
    f = w1[:, :, None] + w2[:, None, :]
    return np.exp(batch_levels_in_place(f.reshape(m, -1), area, p["x"]))


def _parabola_window(rng, m, length):
    """alpha = 2 window [lo, hi] = [-t0, length - t0] around a uniform
    continuous anchor t0: (xi, lo, hi, mass), mass the integral of
    exp(sqrt2*xi*t - t^2) over the window."""
    t0 = rng.random(m) * length
    xi = rng.standard_normal(m)
    lo, hi = -t0, length - t0
    tv = xi / SQRT2
    mass = np.exp(xi * xi / 2.0) * SQRT_PI * (ndtr((hi - tv) * SQRT2)
                                              - ndtr((lo - tv) * SQRT2))
    return xi, lo, hi, mass


def _tilted_window(rng, m, alpha, n_cells, d):
    """W_alpha on n_cells + 1 nodes of step d, re-anchored at a uniformly
    drawn node: sqrt2 (B(s) - B(s_k)) - |s - s_k|^alpha."""
    k = rng.integers(0, n_cells + 1, size=m)
    b = fbm_batch(rng, m, alpha, n_cells, d)
    b *= SQRT2
    b -= b[np.arange(m), k][:, None]
    s = (np.arange(n_cells + 1)[None, :] - k[:, None]) * d
    np.abs(s, out=s)
    s **= alpha
    b -= s
    return b


def _axis_sup_factor(rng, m, alpha, length, delta_skel):
    """Shift-randomized sup of W_alpha over [0, length]: (sup, ratio) pairs.

    E[exp(sup) * g] for independent g equals E[exp(sup') * ratio * g] where
    sup' is the supremum of the two-sided re-anchored window and ratio the
    Cameron-Martin correction. The plain exp(sup) weight has second moment
    growing like exp(length) or worse, which makes naive averaging useless
    at the lengths any limit schedule needs; the tilted pair is bounded by
    (length + step)/step and keeps every moment small.

    The window sup is exact in distribution for alpha = 1 (Brownian bridge
    cell maxima; the two-sided drift is piecewise linear with a kink only at
    the anchor, which is a cell boundary) and alpha = 2 (vertex formula with
    a continuous anchor). Other alpha use the skeleton maximum and the pair
    is unbiased for the skeleton-level constant.
    """
    if alpha == 2.0:
        xi, lo, hi, mass = _parabola_window(rng, m, length)
        return _parabola_sup(xi, lo, hi), length / mass
    n_cells = max(int(round(length / delta_skel)), 1)
    d = length / n_cells
    v = _tilted_window(rng, m, alpha, n_cells, d)
    ev = np.exp(v)
    if alpha == 1.0:
        den = d * 0.5 * (ev[:, :-1] + ev[:, 1:]).sum(axis=1)
        sup = bridge_cell_max(rng, v, 2.0 * d).max(axis=1)
    else:
        den = d * ev.sum(axis=1)
        sup = v.max(axis=1)
    return sup, (length + d) / den


def _bhat_direct_kernel(rng, m, p):
    """Reduced t1-sojourn of W_alpha1(t1) plus the remaining axis suprema.

    Each sample reduces the literal summed path; the sup of every extra axis
    is drawn through _axis_sup_factor, so the per-sample value is the
    product of exp(z_x) with the axis tilt ratios (exactly unbiased for the
    same expectation, with bounded instead of exponential tails).
    """
    n1_steps = int(round(p["n1"] / p["delta1"]))
    t = np.linspace(0.0, p["n1"], n1_steps + 1)
    step = t[1] - t[0]
    w1 = w_field_batch(rng, m, FbmW(p["alpha1"]), t, 0)
    add = np.zeros(m)
    ratio = np.ones(m)
    for alpha_i in p["alphas_rest"]:
        sup_i, r_i = _axis_sup_factor(rng, m, alpha_i, p["n_rest"], p["delta_rest"])
        add += sup_i
        ratio *= r_i
    w1 += add[:, None]
    return ratio * np.exp(batch_levels_in_place(w1, step, p["x"]))


def _tilted_kernel(rng, m, p):
    """Shift-randomized estimator of B_alpha(x, [0,S]).

    Identity: tilt the defining expectation by exp(W(t)) (unit mean) and
    average the anchor t over the interval; each sample is a bounded ratio
      value = exp(z_x of the re-anchored two-sided window) * scale,
      scale = (S + delta) / (integral of exp over the window),
    so the estimator has light tails (numerator level never exceeds the
    window sup, and exp(sup) <= integral/delta + boundary terms).

    A single x has two exact flavors: x = 0 takes the window sup from
    _axis_sup_factor (exact Brownian-bridge cell suprema at alpha = 1), and
    alpha = 2 is fully closed form with a continuous anchor. Everything else,
    and every column of an x grid, anchors on the grid and reduces grid
    values, which is exactly unbiased for the grid-level constant; the
    columns then compare grid-level constants at one common step, and the
    bounded tilt ratio keeps the variance flat in S, which is what makes
    long-interval target curves affordable.
    """
    alpha, x, S, delta = p["alpha"], p["x"], p["S"], p["delta"]
    if np.ndim(x) == 0 and x == 0.0:
        sup, ratio = _axis_sup_factor(rng, m, alpha, S, delta)
        return ratio * np.exp(sup)
    if np.ndim(x) == 0 and alpha == 2.0:
        xi, lo, hi, mass = _parabola_window(rng, m, S)
        return S * np.exp(_parabola_level(xi, lo, hi, x)) / mass
    v = _tilted_window(rng, m, alpha, int(round(S / delta)), delta)
    scale = (S + delta) / (delta * np.exp(v).sum(axis=1))
    num = np.exp(batch_levels_in_place(v, delta, x))
    return num * (scale if num.ndim == 1 else scale[:, None])


# ---------------------------------------------------------------------------
# public estimators

def estimate_berman_1d(alpha, drift=DriftSpec(), x=0.0, interval=(0.0, 1.0),
                       n_grid=4097, n_samples=100_000, seed=0, *, workers=1,
                       refine_check=False, chunk_size=mc.DEFAULT_CHUNK):
    """Plain MC estimate of the interval constant E exp(z_x) for W_alpha.

    The interval must contain 0 as a grid point (the simulated path is
    pinned there). x at least the interval length short-circuits to an exact
    zero. With refine_check=True a second pass at half the grid step is run
    on an independent stream and the run is flagged grid-bias-suspect when
    the two disagree by more than twice their combined SE.
    """
    lo, hi = float(interval[0]), float(interval[1])
    length = hi - lo
    if length <= 0:
        raise mc.ConfigError("interval must have positive length")
    if x < 0:
        raise mc.ConfigError("x must be >= 0")
    if not lo <= 0.0 <= hi:
        raise mc.ConfigError("interval must contain 0 (path pinned at the origin)")
    if n_grid < 2:
        raise mc.ConfigError("n_grid must be >= 2")
    step = length / (n_grid - 1)
    if x >= length:
        return ConstantEstimate(0.0, 0.0, 0, step, (lo, hi), 1.0, seed,
                                method="plain", flags=("vanishing-by-bound",),
                                metadata={"stream_ids": []})
    if n_samples < 100:
        raise mc.ConfigError("n_samples < 100 gives no meaningful standard error")
    t = np.linspace(lo, hi, n_grid)
    if abs(t[np.argmin(np.abs(t))]) > 1e-9 * max(abs(lo), abs(hi)):
        raise mc.ConfigError("grid does not hit 0 exactly; adjust n_grid")
    params = {"alpha": float(alpha), "drift": drift, "t": t, "x": float(x)}
    mean, se, n_chunks = mc.chunked_mean(_w1d_kernel, n_samples, seed, params,
                                         chunk_size=chunk_size,
                                         workers=workers)
    flags = ()
    metadata = {"stream_ids": mc.stream_ids(seed, n_chunks)}
    if refine_check:
        fine = dict(params, t=np.linspace(lo, hi, 2 * (n_grid - 1) + 1))
        fine_seed = mc.derive_seed(seed, 0xF1E)
        mean2, se2, n_chunks = mc.chunked_mean(_w1d_kernel, n_samples,
                                               fine_seed, fine,
                                               chunk_size=chunk_size,
                                               workers=workers)
        gap = abs(mean2 - mean)
        tol = 2.0 * math.hypot(se, se2)
        flags = ("grid-bias-ok",) if gap < tol else ("grid-bias-suspect",)
        metadata["refined"] = (mean2, se2)
        metadata["stream_ids"] += mc.stream_ids(fine_seed, n_chunks)
    return ConstantEstimate(mean, se, n_samples, step, (lo, hi), 1.0, seed,
                            method="plain", flags=flags, metadata=metadata)


def estimate_berman_1d_limit(alpha, x=0.0, S_schedule=DEFAULT_LIMIT_SCHEDULE,
                             n_samples=100_000, seed=0, *, delta=1.0 / 64,
                             method="tilted", workers=1,
                             chunk_size=mc.DEFAULT_CHUNK):
    """Long-run constant B_alpha(x): slope of S -> B_alpha(x, [0,S]).

    Runs one estimate per schedule entry on independent substreams and
    returns the weighted least-squares slope. The affine intercept absorbs
    the O(1) boundary term, which is why the slope converges at moderate S
    where the naive ratio B(x,[0,S])/S is still far off. method="tilted"
    (default) uses the shift-randomized estimator; method="plain" averages
    exp(z_x) directly, which needs far larger budgets for the same accuracy.
    """
    sched = [float(S) for S in S_schedule]
    if len(sched) < 3 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise mc.ConfigError("S_schedule must be increasing with at least 3 entries")
    if sched[0] <= 0:
        raise mc.ConfigError("S_schedule entries must be > 0")
    vals, ses, streams = [], [], []
    for i, S in enumerate(sched):
        sub = mc.derive_seed(seed, i)
        kernel, params = _kernel_1d(method, alpha, float(x), S, delta)
        if method == "plain":
            # on _kernel_1d's grid; estimate_berman_1d refuses what the plain
            # average cannot run and gives x >= S an exact 0 without drawing
            est = estimate_berman_1d(alpha, DriftSpec(), x, (0.0, S),
                                     len(params["t"]), n_samples, sub,
                                     workers=workers, chunk_size=chunk_size)
            v, se = est.value, est.std_err
            streams += est.metadata["stream_ids"]
        else:
            v, se, n_chunks = mc.chunked_mean(kernel, n_samples, sub, params,
                                              chunk_size=chunk_size,
                                              workers=workers)
            streams += mc.stream_ids(sub, n_chunks)
        vals.append(v)
        ses.append(se)
    fit = mc.fit_line(sched, vals, ses)
    if fit.slope < 0:
        raise mc.NumericFailure(
            f"fitted slope {fit.slope:.6g} +- {fit.slope_se:.2g} is negative; "
            "raise n_samples or lengthen the S schedule")
    flags = []
    r = fit.residuals
    # a line through 3 points always leaves residual signs (+,-,+) or
    # (-,+,-), so the curvature check needs a 4th entry to mean anything
    if len(r) >= 4 and np.sign(r[0]) == np.sign(r[-1]) != np.sign(r[1]):
        flags.append("fit-curvature")  # schedule likely too short for the limit
    return ConstantEstimate(fit.slope, fit.slope_se, n_samples * len(sched),
                            delta, (0.0, sched[-1]), 1.0, seed,
                            method=f"limit-{method}", flags=tuple(flags),
                            metadata={"per_S": tuple(zip(sched, vals, ses)),
                                      "intercept": fit.intercept,
                                      "intercept_se": fit.intercept_se,
                                      "stream_ids": streams})


def berman_curve_1d(alpha, x_grid, S, n_samples=100_000, seed=0, *,
                    delta=1.0 / 64, method="plain", workers=1,
                    chunk_size=mc.DEFAULT_CHUNK):
    """Shared-sample estimates of B_alpha(x, [0,S]) over a whole x grid.

    Every column comes from the same paths, so the estimated curve is
    exactly nonincreasing in x. method="plain" averages exp(z_x) directly
    and is the right choice for short intervals; method="tilted" uses the
    shift-randomized kernel whose variance does not grow with S, which long
    target curves need. Returns (values, std_errs, stream_ids): two arrays
    and the substreams drawn.
    """
    xg = tuple(float(x) for x in x_grid)
    if any(x < 0 for x in xg):
        raise mc.ConfigError("x grid must be nonnegative")
    kernel, params = _kernel_1d(method, alpha, xg, S, delta)
    means, ses, n_chunks = mc.chunked_mean(kernel, n_samples, seed, params,
                                           width=len(xg),
                                           chunk_size=chunk_size,
                                           workers=workers)
    return means, ses, mc.stream_ids(seed, n_chunks)


def _kernel_1d(method, alpha, x, S, delta):
    """(kernel, params) for B_alpha(x, [0,S]) at step delta: plain averaging
    on the grid of [0, S], or the shift-randomized kernel."""
    if delta <= 0:
        raise mc.ConfigError("delta must be > 0")
    n_cells = int(round(S / delta))
    if n_cells < 1:
        raise mc.ConfigError(f"S / delta = {S / delta:g} rounds to 0 grid "
                             "cells; lower delta")
    if method == "plain":
        t = np.linspace(0.0, float(S), n_cells + 1)
        return _w1d_kernel, {"alpha": float(alpha), "drift": DriftSpec(),
                             "t": t, "x": x}
    if method == "tilted":
        return _tilted_kernel, {"alpha": float(alpha), "S": float(S),
                                "delta": float(delta), "x": x}
    raise mc.ConfigError("method must be 'plain' or 'tilted'")


def estimate_berman_2d(alpha1, alpha2, drift1, drift2, x, S,
                       n_samples=100_000, seed=0, *, n_grid_axis=129,
                       workers=1, chunk_size=1024):
    """2D drifted constant on the growing domain of size S, normalized by
    S per one-sided axis.

    The field is W_alpha1(t1) + W_alpha2(t2) minus the per-axis drifts;
    degenerate axes (alpha_i = 0) contribute their drift only. Each axis
    spans its side of _w2d_domain, and the estimate is E exp(z_x)
    over that domain divided by the normalization.
    """
    if S <= 0:
        raise mc.ConfigError("S must be > 0")
    if x < 0:
        raise mc.ConfigError("x must be >= 0")
    domain = _w2d_domain(S, alpha1, alpha2, drift1, drift2)
    params = _w2d_params(alpha1, alpha2, drift1, drift2, domain, n_grid_axis,
                         float(x))
    (lo1, hi1), (lo2, hi2) = domain
    (t1, _, _), (t2, _, _) = params["axes"]
    area_step = ((hi1 - lo1) / (len(t1) - 1)) * ((hi2 - lo2) / (len(t2) - 1))
    norm = S ** sum(lo == 0.0 for lo, _ in domain)
    if x >= (hi1 - lo1) * (hi2 - lo2):
        return ConstantEstimate(0.0, 0.0, 0, area_step, domain, norm, seed,
                                method="plain-2d",
                                flags=("vanishing-by-bound",),
                                metadata={"stream_ids": []})
    if n_samples < 100:
        raise mc.ConfigError("n_samples < 100 gives no meaningful standard error")
    mean, se, n_chunks = mc.chunked_mean(_w2d_kernel, n_samples, seed, params,
                                         chunk_size=chunk_size,
                                         workers=workers)
    return ConstantEstimate(mean / norm, se / norm, n_samples, area_step,
                            domain, norm, seed, method="plain-2d",
                            metadata={"stream_ids":
                                      mc.stream_ids(seed, n_chunks)})


def berman_curve_2d(alpha1, alpha2, x_grid, S, pitch, n_samples=100_000,
                    seed=0, *, drift1=DriftSpec(), drift2=DriftSpec(),
                    workers=1, chunk_size=1024):
    """Shared-sample 2D constant estimates over an x grid (unnormalized),
    on the domain of estimate_berman_2d with no axis coarser than pitch.
    Returns (values, std_errs, stream_ids) like berman_curve_1d."""
    xg = tuple(float(x) for x in x_grid)
    domain = _w2d_domain(S, alpha1, alpha2, drift1, drift2)
    longest = max(hi - lo for lo, hi in domain)
    params = _w2d_params(alpha1, alpha2, drift1, drift2, domain,
                         int(round(longest / pitch)) + 1, xg)
    means, ses, n_chunks = mc.chunked_mean(_w2d_kernel, n_samples, seed,
                                           params, width=len(xg),
                                           chunk_size=chunk_size,
                                           workers=workers)
    return means, ses, mc.stream_ids(seed, n_chunks)


def _w2d_domain(S, alpha1, alpha2, drift1, drift2):
    """Per axis [-S, S] when the drift confines the mass (alpha >= beta, or
    a degenerate axis alpha = 0 carrying any drift); [0, S], which costs an
    S divisor, when the axis is drift-free or its drift is steeper than its
    fluctuations (alpha < beta: the constant grows linearly per unit
    length)."""
    return tuple((-S, S) if drift.b > 0 and (alpha >= drift.beta or alpha == 0)
                 else (0.0, S)
                 for alpha, drift in ((alpha1, drift1), (alpha2, drift2)))


def _w2d_params(alpha1, alpha2, drift1, drift2, domain, n_grid_axis, x):
    """_w2d_kernel params: per axis its grid, exponent and drift."""
    if n_grid_axis < 2:
        raise mc.ConfigError("n_grid_axis must be >= 2")
    axes = []
    for (lo, hi), alpha, drift in zip(domain, (alpha1, alpha2),
                                      (drift1, drift2)):
        n = int(n_grid_axis)
        if lo < 0 and n % 2 == 0:
            n += 1  # a two-sided axis needs 0 as a grid point
        axes.append((np.linspace(lo, hi, n), float(alpha), drift))
    return {"axes": tuple(axes), "x": x}


def estimate_bhat(alphas, x, n1, n_rest_schedule=DEFAULT_LIMIT_SCHEDULE,
                  n_samples=100_000, seed=0, *, delta1=1.0 / 64,
                  delta_rest=1.0 / 8, workers=1, chunk_size=mc.DEFAULT_CHUNK):
    """Mixed sup/sojourn constant, estimated two independent ways.

    Direct route: simulate t1 -> W_alpha1(t1) + sum of sups of the remaining
    axes over [0, n_r], reduce the t1 sojourn, divide by n_r^(m-1), and
    extrapolate in 1/n_r (weighted LS intercept) over the schedule.
    Product route: product of Pickands constants for the remaining axes
    times the plain 1D estimate on [0, n1]. The two must agree; that
    identity is an acceptance criterion, not an implementation shortcut,
    so neither route borrows numbers from the other.

    Returns (direct, product) ConstantEstimates. With a single alpha the
    identity is definitional and the same plain estimate is returned twice.
    """
    alphas = tuple(float(a) for a in alphas)
    if not alphas:
        raise mc.ConfigError("need at least one alpha")
    if any(not 0.0 < a <= 2.0 for a in alphas):
        raise mc.ConfigError("alphas must lie in (0, 2]")
    if not 0.0 <= x < n1:
        raise mc.ConfigError("requires 0 <= x < n1 (constant vanishes otherwise)")
    if delta1 <= 0 or delta_rest <= 0:
        raise mc.ConfigError("delta1 and delta_rest must be > 0")
    n_grid1 = int(round(n1 / delta1)) + 1
    if n_grid1 < 2:
        raise mc.ConfigError(f"n1 / delta1 = {n1 / delta1:g} rounds to 0 grid "
                         "steps; lower delta1")

    if len(alphas) == 1:
        est = estimate_berman_1d(alphas[0], DriftSpec(), x, (0.0, n1), n_grid1,
                                 n_samples, seed, workers=workers,
                                 chunk_size=chunk_size)
        return est, est

    sched = [float(n) for n in n_rest_schedule]
    if len(sched) < 3 or any(b <= a for a, b in zip(sched, sched[1:])):
        raise mc.ConfigError("n_rest_schedule must be increasing with >= 3 entries")
    if sched[0] <= 0:
        raise mc.ConfigError("n_rest_schedule entries must be > 0")
    rest = alphas[1:]
    power = len(rest)
    ys, yses, raw, streams = [], [], [], []
    for i, nr in enumerate(sched):
        params = {"alpha1": alphas[0], "x": float(x), "n1": float(n1),
                  "delta1": delta1, "alphas_rest": rest, "n_rest": nr,
                  "delta_rest": delta_rest}
        sub = mc.derive_seed(seed, i)
        v, se, n_chunks = mc.chunked_mean(_bhat_direct_kernel, n_samples, sub,
                                          params, chunk_size=chunk_size,
                                          workers=workers)
        raw.append((nr, v, se))
        streams += mc.stream_ids(sub, n_chunks)
        ys.append(v / nr ** power)
        yses.append(se / nr ** power)
    fit = mc.fit_line([1.0 / nr for nr in sched], ys, yses)
    if fit.intercept < 0:
        raise mc.NumericFailure(
            f"extrapolated intercept {fit.intercept:.6g} +- "
            f"{fit.intercept_se:.2g} is negative; raise n_samples or "
            "lengthen the n_rest schedule")
    direct = ConstantEstimate(fit.intercept, fit.intercept_se,
                              n_samples * len(sched), delta1,
                              (0.0, float(n1)), 1.0, seed,
                              method="bhat-direct",
                              metadata={"per_n": tuple(raw),
                                        "slope_vs_inv_n": fit.slope,
                                        "stream_ids": streams})

    hs = []
    for i, a in enumerate(rest):
        hs.append(estimate_berman_1d_limit(a, 0.0, DEFAULT_LIMIT_SCHEDULE,
                                           n_samples,
                                           mc.derive_seed(seed, 100 + i),
                                           workers=workers,
                                           chunk_size=chunk_size))
    b1 = estimate_berman_1d(alphas[0], DriftSpec(), x, (0.0, n1), n_grid1,
                            n_samples, mc.derive_seed(seed, 200),
                            workers=workers, chunk_size=chunk_size)
    value = b1.value
    parts = []
    for h in hs:
        value *= h.value
        parts.append((h.value, h.std_err))
    factor_streams = [sid for est in hs + [b1]
                      for sid in est.metadata["stream_ids"]]
    rel = (b1.std_err / b1.value) ** 2 if b1.value > 0 else 0.0
    for hv, hse in parts:
        rel += (hse / hv) ** 2 if hv > 0 else 0.0
    product = ConstantEstimate(value, value * math.sqrt(rel),
                               n_samples * (len(rest) * 3 + 1), delta1,
                               (0.0, float(n1)), 1.0, seed,
                               method="bhat-product",
                               metadata={"pickands_factors": tuple(parts),
                                         "interval_constant": (b1.value, b1.std_err),
                                         "stream_ids": factor_streams})
    return direct, product
