"""Conditional sojourn experiments, the double-sum diagnostic, and queue
prefactor evaluation.

The estimands here are high-level trends: how close the conditional law of a
rescaled sojourn volume gets to its limiting curve as the level grows, how
fast pairwise block exceedances die off relative to single-block ones, and
how well the closed-form queue prediction tracks a crude simulation. Every
experiment is deterministic given (settings, seed) and never shares RNG
streams with the constant estimates it is compared against.

An experiment's family is the gaussim spec it simulates: StationaryExp1D,
Chi (which rescales like its base), StationaryExp2D, ScaledVariance2D (one
variance peak, at the origin) or Queue. The functions here dispatch on the
spec's type; the spec's own validation is the family's.
"""

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.special import gammaincc, gammainccinv, log_ndtr, ndtri_exp

from . import mc
from .berman import berman_curve_1d, berman_curve_2d
from .gaussim import (Chi, DriftSpec, GridSpec, Lattice2D, Queue,
                      ScaledVariance2D, StationaryExp1D, StationaryExp2D,
                      bridge_cell_max, fbm_batch, normal_tail, queue_batch,
                      stationary2d_batch, stationary_batch)

MIN_CONFIDENT_CONDITIONED = 500
PILOT_DRAWS = 1024  # first pass of the importance sampler, 16 row blocks
ESS_MARGIN = 1.1    # draws sized for this multiple of the target ESS


def _axis_scales(spec, u):
    """Local scale a^(-1/alpha) u^(-2/alpha) of each axis at level u.

    A Chi spec rescales like its base. On a ScaledVariance2D axis whose
    variance decays faster than its correlation (beta < alpha) the decay
    sets the scale, u^(-2/beta): the exponent 1/alpha* of a is zero there.
    """
    if isinstance(spec, Chi):
        spec = spec.base
    if isinstance(spec, StationaryExp1D):
        axes = [(spec.a, spec.alpha, math.inf)]
    elif isinstance(spec, StationaryExp2D):
        axes = [(spec.a1, spec.alpha1, math.inf),
                (spec.a2, spec.alpha2, math.inf)]
    elif isinstance(spec, ScaledVariance2D):
        axes = [(spec.base.a1, spec.base.alpha1, spec.beta1),
                (spec.base.a2, spec.base.alpha2, spec.beta2)]
    else:
        raise TypeError(f"unknown experiment family {type(spec).__name__}")
    try:
        scales = [a ** (-1.0 / alpha) * u ** (-2.0 / alpha) if alpha <= beta
                  else u ** (-2.0 / beta) for a, alpha, beta in axes]
    except OverflowError:
        scales = [math.inf]
    if not all(0.0 < s < math.inf for s in scales):
        raise mc.ConfigError(f"level u={u:g} gives a local scale outside "
                             "the floating-point range")
    return scales


def _axis_table(spec, i):
    """(hat_alpha, drift_coef) of axis i of a ScaledVariance2D spec.

    The correlation parameters (a_i, alpha_i) and the variance parameters
    (b_i, beta_i) compete per axis: with alpha < beta the axis keeps its
    fluctuations, with alpha = beta it keeps them with a drift, and with
    alpha > beta it degenerates to a pure drift in the local limit.
    """
    a, alpha, b, beta = {
        1: (spec.base.a1, spec.base.alpha1, spec.b1, spec.beta1),
        2: (spec.base.a2, spec.base.alpha2, spec.b2, spec.beta2)}[i]
    if alpha < beta:
        return alpha, 0.0
    if alpha == beta:
        return alpha, b / a
    return 0.0, b


def scaling_function(family, u):
    """Volume scale v(u) of the conditional sojourn limit for the family's
    gaussim spec."""
    if u <= 0:
        raise mc.ConfigError("u must be > 0")
    if isinstance(family, Queue):
        # (sqrt(2) tau^alpha / (1 + c tau))^(2/alpha), with the sqrt pulled
        # out so clean cases (alpha = c = 1 gives exactly 1/2) stay exact
        tau = family.tau_star
        base = tau ** family.alpha / (1.0 + family.c * tau)
        return (2.0 ** (1.0 / family.alpha) * base ** (2.0 / family.alpha)
                * u ** (2.0 * (family.alpha - 1.0) / family.alpha))
    return math.prod(_axis_scales(family, u))


@dataclass(frozen=True)
class ExperimentSettings:
    """Desk-scale knobs for the conditional sojourn experiments.

    The simulation grid always uses points_per_v nodes per unit of the local
    scale, so the lattice geometry is identical across levels u after
    rescaling; target curves are built at the same rescaled pitch so the two
    sides of the comparison discretize the sojourn functional identically.
    sim_batch is the sampler's chunk size and max_sims its cap on draws.
    """
    domain_T: float = 1.0
    domain_T2: float = 1.0
    points_per_v: int = 8
    sim_batch: int = 20_000
    max_sims: int = 8_000_000
    target_S: float = 256.0
    target_S_2d: float = 8.0
    target_samples: int = 100_000
    queue_T: float | None = None
    queue_M: float = 16.0

    def __post_init__(self):
        if self.domain_T <= 0 or self.domain_T2 <= 0:
            raise mc.ConfigError("domain sides must be > 0")
        if self.points_per_v < 2:
            raise mc.ConfigError("points_per_v must be >= 2")
        if self.sim_batch < 1 or self.max_sims < self.sim_batch:
            raise mc.ConfigError("need 1 <= sim_batch <= max_sims")
        if self.target_S <= 0 or self.target_S_2d <= 0:
            raise mc.ConfigError("target domains must be > 0")
        if self.queue_T is not None and \
                self.queue_T - 1.0 / self.points_per_v - 1e-12 <= 0:
            # conditional_sojourn_cdf drops every x within one grid step of
            # the window end, which would drop x = 0 too
            raise mc.ConfigError("queue_T must exceed one grid step "
                             "1/points_per_v when given")
        if self.queue_M <= 0:
            raise mc.ConfigError("queue_M must be > 0")


@dataclass(frozen=True)
class ExperimentResult:
    family: object  # the gaussim spec simulated
    u: float
    x_grid: tuple
    ratio_hat: tuple
    ci_lo: tuple
    ci_hi: tuple
    n_conditioned: int
    target_curve: tuple
    target_se: tuple
    sup_distance: float
    flags: tuple = ()
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        r = np.asarray(self.ratio_hat)
        if r.size and (r[0] != 1.0 or np.any(r < 0) or np.any(r > 1)
                       or np.any(np.diff(r) > 0)):
            raise ValueError("ratio_hat must start at 1, lie in [0,1], and be "
                             "nonincreasing (shared-sample construction)")
        t = np.asarray(self.target_curve)
        if t.size and (t[0] != 1.0 or np.any(np.diff(t) > 1e-12)):
            raise ValueError("target curve must start at 1 and be nonincreasing")


def _check_x_grid(x_grid):
    xg = [float(x) for x in x_grid]
    if not xg or xg[0] != 0.0:
        raise mc.ConfigError("x_grid must start at 0 (the ratio there anchors to 1)")
    if any(b <= a for a, b in zip(xg, xg[1:])):
        raise mc.ConfigError("x_grid must be strictly increasing")
    return xg


def _kept_x(family, settings, xg):
    """(kept, excluded) x values: near the right edge of a finite queue
    window the conditional limit is not defined, so x within one grid step
    of the window end is refused."""
    if not (isinstance(family, Queue) and settings.queue_T is not None):
        return xg, []
    edge = settings.queue_T - 1.0 / settings.points_per_v
    return ([x for x in xg if x < edge - 1e-12],
            [x for x in xg if x >= edge - 1e-12])


@dataclass(frozen=True)
class TargetCurve:
    """Constant-ratio limit curve over the kept x grid, with its standard
    errors and the substreams its estimate drew."""
    x_grid: tuple
    values: tuple
    std_errs: tuple
    stream_ids: list


def target_curve(family, settings, x_grid, seed=0, *, workers=1):
    """The constant-ratio limit curve that conditional_sojourn_cdf compares
    against, at the experiment's rescaled pitch.

    It depends on the family and settings but not on the level u, so one
    curve serves every level of a run (pass it as `target`).
    """
    xg, _ = _kept_x(family, settings, _check_x_grid(x_grid))
    pitch = 1.0 / settings.points_per_v
    if isinstance(family, (StationaryExp1D, Chi, Queue)):
        # a fixed queue window is short enough for plain averaging; long-run
        # targets need the tilted kernel, whose variance is flat in S
        fixed = isinstance(family, Queue) and settings.queue_T is not None
        alpha = family.base.alpha if isinstance(family, Chi) else family.alpha
        vals, ses, streams = berman_curve_1d(
            alpha, xg, settings.queue_T if fixed else settings.target_S,
            n_samples=settings.target_samples, seed=seed, delta=pitch,
            method="plain" if fixed else "tilted", workers=workers,
            chunk_size=mc.DEFAULT_CHUNK if fixed else 1024)
    elif isinstance(family, StationaryExp2D):
        vals, ses, streams = berman_curve_2d(
            family.alpha1, family.alpha2, xg, settings.target_S_2d, pitch,
            n_samples=settings.target_samples, seed=seed, workers=workers)
    elif isinstance(family, ScaledVariance2D):
        hats, drifts = [], []
        for i, beta in ((1, family.beta1), (2, family.beta2)):
            hat_alpha, coef = _axis_table(family, i)
            hats.append(hat_alpha)
            drifts.append(DriftSpec(coef, beta) if coef > 0 else DriftSpec())
        vals, ses, streams = berman_curve_2d(
            hats[0], hats[1], xg, settings.target_S_2d, pitch,
            n_samples=settings.target_samples, seed=seed, drift1=drifts[0],
            drift2=drifts[1], workers=workers)
    else:
        raise TypeError(f"unknown experiment family {type(family).__name__}")
    target = vals / vals[0]
    rel0 = ses[0] / vals[0]
    target_se = target * np.sqrt((ses / np.maximum(vals, 1e-300)) ** 2
                                 + rel0 ** 2)
    target_se[0] = 0.0
    return TargetCurve(tuple(xg), tuple(target.tolist()),
                       tuple(target_se.tolist()), streams)


def conditional_sojourn_cdf(family, settings, u, x_grid,
                            n_target_conditioned=1000, seed=0, *, workers=1,
                            target=None):
    """Empirical conditional law of the rescaled sojourn volume at level u.

    Simulates the family's process on a lattice with points_per_v nodes per
    local scale and reports P(Vol > v(u) x | sup > u) per x against the
    matching constant-ratio target curve built at the same rescaled pitch.
    Every x column comes from the same replicates, so the empirical curve
    is exactly nonincreasing with ratio 1 at x = 0.

    n_target_conditioned is a Kish effective sample size, reached unless
    settings.max_sims draws come first, and n_conditioned reports it
    (`_sampled_curve`); for a sampler with 0/1 weights it is the number of
    replicates kept. The interval is the ratio +- Z95 delta-method SEs,
    clipped to [0, 1]. A level that keeps nothing is a NumericFailure.

    target is a TargetCurve for this family, settings and x grid; when None
    the curve is drawn from derive_seed(seed, 0x7A). metadata["stream_ids"]
    names the streams this call drew: the sampler's, then the target
    curve's when it built one.
    """
    xg = _check_x_grid(x_grid)
    if u <= 0:
        raise mc.ConfigError("u must be > 0")
    if n_target_conditioned < 1:
        raise mc.ConfigError("n_target_conditioned must be >= 1")
    t0 = time.perf_counter()
    v_u = scaling_function(family, u)
    xg_kept, excluded = _kept_x(family, settings, xg)
    if target is not None and target.x_grid != tuple(xg_kept):
        raise mc.ConfigError(f"the target curve covers x = {target.x_grid}, "
                             f"not {tuple(xg_kept)}")

    kernel, params, grid_meta = _sampler(family, settings, u, v_u, xg_kept)
    ratio, ci_lo, ci_hi, n_cond, meta = _sampled_curve(
        kernel, params, settings, n_target_conditioned, seed, workers)
    meta.update(grid_meta)

    flags = []
    if n_cond < MIN_CONFIDENT_CONDITIONED:
        flags.append("low-confidence")
    if excluded:
        flags.append("excluded-near-horizon")
    if isinstance(family, ScaledVariance2D) and (
            _axis_table(family, 1)[0] == 0.0
            or _axis_table(family, 2)[0] == 0.0):
        flags.append("degenerate-axis")

    if target is None:
        target = target_curve(family, settings, xg_kept,
                              mc.derive_seed(seed, 0x7A), workers=workers)
        meta["stream_ids"] = meta["stream_ids"] + target.stream_ids
    sup_distance = float(np.max(np.abs(ratio - np.asarray(target.values))))

    meta.update({"seed": seed, "v_u": v_u,
                 "runtime_s": time.perf_counter() - t0,
                 "pitch": 1.0 / settings.points_per_v,
                 "excluded_x": tuple(excluded)})
    return ExperimentResult(family, float(u), tuple(xg_kept),
                            tuple(ratio.tolist()), tuple(ci_lo.tolist()),
                            tuple(ci_hi.tolist()), int(n_cond),
                            target.values, target.std_errs, sup_distance,
                            tuple(flags), meta)


def _sampler(family, settings, u, v_u, xg):
    """(kernel, params, grid metadata) of the family's sampler at level u.

    StationaryExp1D and Chi draw the mixture of tilts (_anchored_kernel).
    StationaryExp2D, ScaledVariance2D (a lattice centred on its variance
    peak) and Queue draw the unconditioned field (_exceedance_kernel).
    Every grid has points_per_v nodes per local scale; params["cell"] is
    the volume of one node and params["mass"] turns E[w] into P(max > u).
    """
    ppv = settings.points_per_v
    params = {"spec": family, "u": u, "thresholds": v_u * np.asarray(xg)}
    if isinstance(family, (StationaryExp1D, Chi)):
        delta = v_u / ppv
        n_pts = int(math.ceil(settings.domain_T / delta)) + 1
        base = family.base if isinstance(family, Chi) else family
        lags = np.abs(np.arange(1 - n_pts, n_pts)) * delta
        if isinstance(family, Chi):
            tail = float(gammaincc(family.m / 2.0, u * u / 2.0))
            if not tail > 0.0:
                raise mc.NumericFailure(f"the chi_{family.m} tail above "
                                        f"u={u:g} underflows; lower u")
        else:
            tail = normal_tail(u)
        params.update(n_points=n_pts, delta=delta, cell=delta,
                      corr=np.exp(-base.a * lags ** base.alpha), tail=tail,
                      log_tail=float(log_ndtr(-u)), mass=n_pts * tail)
        return _anchored_kernel, params, {
            "domain_volume": (n_pts - 1) * delta, "delta": delta,
            "n_points": n_pts}

    params["mass"] = 1.0
    if isinstance(family, Queue):
        delta = v_u / ppv
        horizon = settings.queue_T if settings.queue_T is not None \
            else family.c * settings.queue_M
        n_pts = int(round(horizon * ppv)) + 1
        params.update(n_points=n_pts, delta=delta, cell=delta)
        return _exceedance_kernel, params, {
            "domain_volume": (n_pts - 1) * delta, "delta": delta,
            "n_points": n_pts, "horizon_T_u": (n_pts - 1) * delta}

    d1, d2 = (e / ppv for e in _axis_scales(family, u))
    if isinstance(family, StationaryExp2D):
        n1 = int(math.ceil(settings.domain_T / d1)) + 1
        n2 = int(math.ceil(settings.domain_T2 / d2)) + 1
        lat = Lattice2D(GridSpec(0.0, (n1 - 1) * d1, n1),
                        GridSpec(0.0, (n2 - 1) * d2, n2))
    else:
        h1 = int(math.ceil(settings.domain_T / d1))
        h2 = int(math.ceil(settings.domain_T2 / d2))
        lat = Lattice2D(GridSpec(-h1 * d1, h1 * d1, 2 * h1 + 1),
                        GridSpec(-h2 * d2, h2 * d2, 2 * h2 + 1))
        params["sigma"] = family.sigma(lat.axis1.times()[:, None],
                                       lat.axis2.times()[None, :])
    n1, n2 = lat.axis1.n_points, lat.axis2.n_points
    params.update(lattice=lat, cell=d1 * d2)
    return _exceedance_kernel, params, {
        "domain_volume": (n1 - 1) * d1 * (n2 - 1) * d2, "delta": (d1, d2),
        "n_points": (n1, n2)}


def _sampled_curve(kernel, params, settings, n_target, seed, workers):
    """Conditional curve from draws whose kernel columns are
    w 1{Vol > v(u) x_j} for each x_j (the x = 0 column is w itself), then
    each of them plus w, with weights such that E[w 1{A}] / E[w] =
    P(A | max > u) for any event A and params["mass"] E[w] = P(max > u).
    The ratio's delta-method standard error comes by polarisation, and the
    interval is ratio +- Z95 SE, clipped to [0, 1].

    The draws run through mc.chunked_mean in chunks of settings.sim_batch.
    A pilot pass of PILOT_DRAWS sizes the run so the Kish effective sample
    size (sum w)^2 / sum w^2 reaches n_target; a run that falls short is
    resized from its own effective share, until settings.max_sims draws.
    With the 0/1 weights of _exceedance_kernel the effective sample size is
    the kept count, taken exactly. Every pass is a pure function of (seed,
    draws, sim_batch), so the result does not depend on workers.
    """
    k = len(params["thresholds"])
    sub = mc.derive_seed(seed, 0xE)
    n = min(PILOT_DRAWS, settings.max_sims)
    while True:
        mean, se, n_chunks = mc.chunked_mean(
            kernel, n, sub, params, width=2 * k,
            chunk_size=settings.sim_batch, workers=workers)
        if kernel is _exceedance_kernel:  # exact, so a hit is never missed
            ess = round(n * mean[0])
        else:
            ess = n * mean[0] ** 2 / ((n - 1) * se[0] ** 2 + mean[0] ** 2)
        if ess >= n_target or n == settings.max_sims:
            break
        # a pass that kept nothing grows as if it had kept one
        grow = int(n * n_target / max(ess, 1) * ESS_MARGIN)
        n = min(settings.max_sims, -(-grow // mc.ROW_BLOCK) * mc.ROW_BLOCK)
    if mean[0] == 0.0:
        raise mc.NumericFailure(
            f"no replicates with sup > {params['u']} in {n} simulations; "
            "lower u or raise max_sims")

    ratio, ratio_se = mc.ratio_se(mean[:k], mean[0], se[:k], se[0], se[k:])
    ci_lo = np.clip(ratio - mc.Z95 * ratio_se, 0.0, 1.0)
    ci_hi = np.clip(ratio + mc.Z95 * ratio_se, 0.0, 1.0)
    meta = {"n_sims": n, "ess": float(ess),
            "p_exceed": params["mass"] * float(mean[0]),
            "p_exceed_se": params["mass"] * float(se[0]),
            "stream_ids": mc.stream_ids(sub, n_chunks)}
    return ratio, ci_lo, ci_hi, int(ess), meta


def _anchored_kernel(rng, m, p):
    """m mixture-of-tilts draws (Adler, Blanchet & Liu 2012; Shi, Siegmund
    & Yakir 2007) of a StationaryExp1D or Chi path, with the columns of
    _sampled_curve.

    Each draw picks an anchor node tau uniformly, draws the field at tau
    from its tail above u and the rest of the path conditionally on it, and
    carries the weight w = 1 / N_u, with N_u the number of nodes above u;
    then E[w] n_points P(field(tau) > u) = P(max > u). A path conditioned
    on its value c at tau is Y - Y(tau) r(. - tau) + c r(. - tau), with Y
    unconditioned and r the correlation; the anchor node keeps exactly c.
    A chi anchor draws its norm from the chi_m tail above u and its
    direction uniformly, and conditions each component.
    """
    spec, u, n = p["spec"], p["u"], p["n_points"]
    tau = rng.integers(n, size=m)
    r = p["corr"][(n - 1 - tau)[:, None] + np.arange(n)]
    v = 1.0 - rng.random(m)  # in (0, 1]
    if isinstance(spec, Chi):
        norm2 = 2.0 * gammainccinv(spec.m / 2.0, p["tail"] * v)
        if not np.all(np.isfinite(norm2)):
            raise mc.NumericFailure(
                f"the chi_{spec.m} tail above u={u:g} underflows; lower u")
        g = rng.standard_normal((m, spec.m))
        anchor = g * (np.sqrt(norm2) / np.sqrt((g * g).sum(axis=1)))[:, None]
        field = np.zeros((m, n))
        for i in range(spec.m):
            x = _conditioned(rng, m, spec.base, p, r, tau, anchor[:, i])
            x *= x
            field += x
        np.sqrt(field, out=field)
    else:
        anchor = -ndtri_exp(p["log_tail"] + np.log(v))
        field = _conditioned(rng, m, spec, p, r, tau, anchor)
    # the anchor exceeds u by construction; the floor covers an anchor drawn
    # at u itself and a chi norm rounded down to it
    n_u = np.maximum((field > u).sum(axis=1), 1)
    return _columns(1.0 / n_u, p["cell"] * n_u, p["thresholds"])


def _conditioned(rng, m, spec, p, r, tau, anchor):
    """m StationaryExp1D paths, row i conditioned on the value anchor[i] at
    node tau[i]; r holds each row's correlation with its anchor node."""
    y = stationary_batch(rng, m, spec, p["n_points"], p["delta"])
    y -= y[np.arange(m), tau][:, None] * r
    y += anchor[:, None] * r
    return y


def _exceedance_kernel(rng, m, p):
    """m unconditioned draws of a StationaryExp2D, ScaledVariance2D or
    Queue field, with the columns of _sampled_curve for the weight
    w = 1{N_u > 0}, N_u the number of nodes above u: rejection sampling,
    with E[w] = P(max > u)."""
    spec, u = p["spec"], p["u"]
    if isinstance(spec, Queue):
        f = queue_batch(rng, m, spec, p["n_points"], p["delta"], u_ref=u)
    elif isinstance(spec, ScaledVariance2D):
        f = stationary2d_batch(rng, m, spec.base, p["lattice"])
        f *= p["sigma"]
    else:
        f = stationary2d_batch(rng, m, spec, p["lattice"])
    n_u = (f > u).sum(axis=tuple(range(1, f.ndim)))
    return _columns((n_u > 0).astype(float), p["cell"] * n_u,
                    p["thresholds"])


def _columns(w, vol, thresholds):
    """Per draw, w 1{vol > v(u) x_j} for each threshold v(u) x_j, then each
    of them plus w."""
    cols = w[:, None] * (vol[:, None] > thresholds)
    return np.concatenate([cols, cols + w[:, None]], axis=1)


# ---------------------------------------------------------------------------
# double-sum diagnostic

@dataclass(frozen=True)
class DoubleSumResult:
    family: object  # the gaussim spec simulated
    u: float
    n_schedule: tuple
    ratios: tuple
    std_errs: tuple
    joint_counts: tuple
    single_counts: tuple
    n_blocks: tuple
    metadata: dict = field(default_factory=dict)


def double_sum_diagnostic(family, u, n_schedule=(2.0, 4.0, 8.0), seed=0, *,
                          settings=None, n_sims=1_000_000,
                          independent_blocks=False, workers=1):
    """Pairwise-over-single block exceedance ratio for a schedule of block sizes.

    Partitions the domain into blocks of side n per local scale unit and
    estimates sum_{i != j} P(sup_i > u, sup_j > u) / sum_k P(sup_k > u) by
    counting, per replicate, how many blocks exceed. Shared replicates across
    the schedule make the reported trend much more stable than independent
    runs would be. With independent_blocks=True every block is simulated from
    a fresh process (a control whose ratio must match the independence
    bound); the control exists for the 1D family only. Replicates run in
    chunks of settings.sim_batch through mc.chunked_mean. family is a
    StationaryExp1D or StationaryExp2D spec.
    """
    settings = settings or ExperimentSettings()
    if not isinstance(family, (StationaryExp1D, StationaryExp2D)):
        raise TypeError("double-sum diagnostic expects a stationary 1D or 2D "
                        "family")
    if independent_blocks and isinstance(family, StationaryExp2D):
        raise mc.ConfigError("independent_blocks is available for the stationary "
                         "1D family only")
    sched = [float(n) for n in n_schedule]
    if not sched or any(n <= 0 for n in sched):
        raise mc.ConfigError("n_schedule must be positive")
    if u <= 0:
        raise mc.ConfigError("u must be > 0")
    ppv = settings.points_per_v

    deltas = [e / ppv for e in _axis_scales(family, u)]
    cells = [int(math.ceil(T / d))
             for T, d in zip((settings.domain_T, settings.domain_T2), deltas)]
    widths, n_blocks = [], []
    for n in sched:
        w = int(round(n * ppv))
        if w < 1:
            raise mc.ConfigError(f"block size n={n:g} rounds to 0 cells at "
                                 f"{ppv} points per unit; raise n")
        k = math.prod(c // w for c in cells)
        if k < 2:
            raise mc.ConfigError(
                f"block size n={n:g} gives {k} block(s) on a domain of "
                f"{'x'.join(map(str, cells))} cells; the diagnostic needs at "
                "least 2")
        widths.append(w)
        n_blocks.append(k)

    if isinstance(family, StationaryExp2D):
        grid = Lattice2D(*(GridSpec(0.0, c * d, c + 1)
                           for c, d in zip(cells, deltas)))
    else:
        grid = deltas[0]
    params = {"spec": family, "grid": grid, "cells": tuple(cells), "u": u,
              "widths": tuple(widths), "n_blocks": tuple(n_blocks),
              "independent_blocks": independent_blocks}
    sub = mc.derive_seed(seed, 0xD5)
    mean, se, n_chunks = mc.chunked_mean(
        _double_sum_kernel, n_sims, sub, params, width=3 * len(sched),
        chunk_size=settings.sim_batch, workers=workers)
    joint, single, _ = np.split(mean, 3)
    se_j, se_s, se_js = np.split(se, 3)
    if np.any(single == 0):
        raise mc.NumericFailure(
            f"no block exceedances at u={u}; lower u or raise n_sims")
    ratios, ses = mc.ratio_se(joint, single, se_j, se_s, se_js)
    meta = {"seed": seed, "n_sims": n_sims,
            "delta": deltas[0] if len(deltas) == 1 else tuple(deltas),
            "block_widths_cells": tuple(widths),
            "independent_blocks": independent_blocks,
            "stream_ids": mc.stream_ids(sub, n_chunks)}
    return DoubleSumResult(family, float(u), tuple(sched),
                           tuple(ratios.tolist()), tuple(ses.tolist()),
                           tuple(round(v * n_sims) for v in joint),
                           tuple(round(v * n_sims) for v in single),
                           tuple(n_blocks), meta)


def _double_sum_kernel(rng, m, p):
    """Per replicate and schedule entry i, the count s of blocks of width
    widths[i] whose maximum exceeds u, as columns J_i = s(s-1), S_i = s and
    J_i + S_i (the last carries the J-S covariance). p["grid"] is the 2D
    lattice, or the node step of the 1D path."""
    spec, grid, cells, u = p["spec"], p["grid"], p["cells"], p["u"]
    counts = []
    if p["independent_blocks"]:
        for w, k in zip(p["widths"], p["n_blocks"]):
            # a fresh path of w cells for each of the k blocks
            counts.append(sum(stationary_batch(rng, m, spec, w + 1, grid)
                              .max(axis=1) > u for _ in range(k)))
    else:
        if isinstance(grid, Lattice2D):
            f = stationary2d_batch(rng, m, spec, grid)
        else:
            f = stationary_batch(rng, m, spec, cells[0] + 1, grid)
        axes = tuple(range(1, f.ndim))
        for w in p["widths"]:
            counts.append(sum(f[(slice(None),) + blk].max(axis=axes) > u
                              for blk in _blocks(cells, w)))
    s = np.stack(counts, axis=1).astype(float)
    j = s * (s - 1.0)
    return np.concatenate([j, s, j + s], axis=1)


def _blocks(cells, w):
    """Index tuples of the blocks of side w cells (w + 1 nodes, adjacent
    blocks sharing their edge nodes) that fit in a grid of `cells` cells."""
    for idx in itertools.product(*(range(c // w) for c in cells)):
        yield tuple(slice(b * w, (b + 1) * w + 1) for b in idx)


# ---------------------------------------------------------------------------
# queue prefactor

@dataclass(frozen=True)
class QueueAsymptotics:
    tau_star: float
    m_u: float
    A: float
    B: float
    q_u: float


def queue_asymptotics(alpha, c, u):
    """Closed-form ingredients of the queue exceedance approximation.

    tau_star is the optimizing horizon of the variance problem, m(u) the
    effective Gaussian boundary level, A and B the local drift/curvature
    coefficients of the standardized boundary at tau_star, and q(u) = v(u)/u
    the sojourn scale per unit level.
    """
    spec = Queue(alpha, c)
    if u <= 0:
        raise mc.ConfigError("u must be > 0")
    tau = spec.tau_star
    m_u = (1.0 + c * tau) / tau ** (alpha / 2.0) * u ** (1.0 - alpha / 2.0)
    A = tau ** (-alpha / 2.0) * 2.0 / (2.0 - alpha)
    B = tau ** (-alpha / 2.0 - 1.0) * alpha / 2.0
    q_u = scaling_function(spec, u) / u
    return QueueAsymptotics(tau, m_u, A, B, q_u)


def queue_prefactor(alpha, c, u, n, x, bhat):
    """Predicted P(sojourn of Q above u over [0, v(u) n] exceeds v(u) x).

    Combines a mixed sup/sojourn constant estimate bhat = Bhat_{alpha,alpha}
    (x, n) with the Gaussian Laplace approximation around the optimizing
    horizon: bhat * sqrt(2 A pi / B) * u / (m(u) v(u)) * Psi(m(u)). The
    Gaussian tail is evaluated at the effective boundary level m(u); the
    sqrt(pi) factor comes with the curvature integral of the Laplace step.
    """
    if n <= x:
        raise mc.ConfigError("requires n > x (the window must exceed the sojourn)")
    qa = queue_asymptotics(alpha, c, u)
    value = bhat.value if hasattr(bhat, "value") else float(bhat)
    v_u = qa.q_u * u
    return (value * math.sqrt(2.0 * qa.A * math.pi / qa.B)
            * u / (qa.m_u * v_u) * normal_tail(qa.m_u))


def queue_window_exceed_mc(u, c, n, n_paths=200_000, seed=0, *,
                           delta=1.0 / 256, chunk_size=20_000):
    """Crude MC of P(sup over [0, v(u) n] of Q > u) for the Brownian queue.

    Exact in distribution up to the grid skeleton: within-cell maxima and
    minima are drawn from Brownian bridge laws, and the post-window
    contribution sup_{s >= w}(Y(s) - Y(w)) is exponential with rate 2c,
    independent of the window path, so each path yields a conditional
    exceedance probability rather than a raw indicator.
    """
    spec = Queue(1.0, c)
    if u <= 0 or n <= 0:
        raise mc.ConfigError("u and n must be > 0")
    w = scaling_function(spec, u) * n
    N = max(int(round(w / delta)), 1)
    params = {"u": u, "c": c, "N": N, "d": w / N}
    mean, se, _ = mc.chunked_mean(_queue_window_kernel, n_paths,
                                  mc.derive_seed(seed, 0x9E), params,
                                  chunk_size=chunk_size)
    return mean, se


def _queue_window_kernel(rng, m, p):
    """Conditional window-exceedance probability of m Brownian queue paths."""
    u, c, N, d = p["u"], p["c"], p["N"], p["d"]
    y = fbm_batch(rng, m, 1.0, N, d)
    y -= c * (np.arange(N + 1) * d)[None, :]
    cellmax = bridge_cell_max(rng, y, d)
    cellmin = -bridge_cell_max(rng, -y, d)
    r = np.flip(np.maximum.accumulate(np.flip(cellmax, axis=1), axis=1),
                axis=1)
    d1 = (r - y[:, :-1]).max(axis=1)
    d2 = (r - cellmin).max(axis=1)
    dsup = np.maximum(np.maximum(d1, d2), 0.0)
    mw = np.minimum(cellmin.min(axis=1), 0.0)
    return np.where(dsup > u, 1.0,
                    np.exp(-2.0 * c * np.maximum(u - (y[:, -1] - mw), 0.0)))
