"""Exact-in-distribution simulation of the Gaussian paths and fields used here.

Fractional Brownian motion is sampled by circulant embedding of its
stationary increments (Davies-Harte), except at alpha = 1 (iid increments,
drawn directly) and alpha = 2 (a random line); stationary unit-variance
processes by circulant embedding of the covariance sequence with automatic
torus padding; separable 2D fields by per-axis factorization. Everything is
a pure function of (spec, grid, seed), so identical inputs give bitwise
identical output.

The circulant batches are built in place: a call fills one complex
spectrum of (m + 1) // 2 rows, writes the requested columns of its real and
imaginary parts straight into one output array, and finishes (cumulative
sum, pin, scale, drift) in that array. The returned array is fresh and owned
by the caller, who may modify it. The circulant spectra themselves are
cached per grid and read-only.

The transient complex spectrum and the buffer its normals pass through never
leave a call. While a Monte Carlo chunk runs (`mc.chunked_mean`), they come
from the chunk's workspace and are reused by every row block of the chunk;
the workspace is released when the chunk's kernel calls end, and calls
outside a chunk allocate them afresh. Returned arrays never come from the
workspace, so two batches held at once never alias.
"""

from dataclasses import dataclass, field
import functools
import math

import numpy as np
from scipy.ndimage import maximum_filter1d
from scipy.special import ndtr

from .mc import ConfigError, NumericFailure, _scratch, generator

EIG_CLIP_REL = 1e-9          # clip threshold relative to the largest eigenvalue
_PAD_FACTORS = (1, 2, 4, 8)  # embedding torus enlargements tried in order
NORMAL_BLOCK_BYTES = 4 << 20  # reused buffer the spectrum normals pass through
QUEUE_LOOKAHEAD = 5.0        # queue_batch lookahead, in units of tau_star * u


# ---------------------------------------------------------------------------
# grids and containers

@dataclass(frozen=True)
class GridSpec:
    """Uniform grid on [start, end] with n_points points."""
    start: float
    end: float
    n_points: int

    def __post_init__(self):
        if not self.end > self.start:
            raise ConfigError("GridSpec requires end > start")
        if self.n_points < 2:
            raise ConfigError("GridSpec requires n_points >= 2")

    @property
    def step(self):
        return (self.end - self.start) / (self.n_points - 1)

    def times(self):
        return np.linspace(self.start, self.end, self.n_points)


@dataclass(frozen=True)
class Lattice2D:
    axis1: GridSpec
    axis2: GridSpec


@dataclass(frozen=True)
class SamplePath:
    grid: GridSpec
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.shape != (self.grid.n_points,):
            raise ValueError("values length must match grid")
        if not np.all(np.isfinite(v)):
            raise ValueError("values must be finite")
        object.__setattr__(self, "values", v)


@dataclass(frozen=True)
class DriftSpec:
    """Power drift h(t) = b * |t|**beta; b = 0 encodes no drift."""
    b: float = 0.0
    beta: float = 1.0

    def __post_init__(self):
        if self.b < 0:
            raise ConfigError("drift coefficient b must be >= 0")
        if self.beta <= 0:
            raise ConfigError("drift exponent beta must be > 0")

    def h(self, t):
        if self.b == 0.0:
            return np.zeros_like(np.asarray(t, dtype=float))
        return self.b * np.abs(t) ** self.beta


# ---------------------------------------------------------------------------
# process specifications

@dataclass(frozen=True)
class FbmW:
    """W_alpha(t) = sqrt(2) B_alpha(t) - |t|^alpha - drift.h(t).

    alpha = 0 is the degenerate axis convention: the fluctuation part is
    identically zero and only -drift.h(t) remains.
    """
    alpha: float
    drift: DriftSpec = field(default_factory=DriftSpec)

    def __post_init__(self):
        if not (0.0 <= self.alpha <= 2.0):
            raise ConfigError("alpha must lie in [0, 2]")


@dataclass(frozen=True)
class StationaryExp1D:
    """Centered, unit variance, correlation r(t) = exp(-a |t|^alpha)."""
    a: float
    alpha: float

    def __post_init__(self):
        if self.a <= 0:
            raise ConfigError("a must be > 0")
        if not (0.0 < self.alpha <= 2.0):
            raise ConfigError("alpha must lie in (0, 2]")


@dataclass(frozen=True)
class StationaryExp2D:
    a1: float
    a2: float
    alpha1: float
    alpha2: float

    def __post_init__(self):
        for a, al in ((self.a1, self.alpha1), (self.a2, self.alpha2)):
            if a <= 0:
                raise ConfigError("a_i must be > 0")
            if not (0.0 < al <= 2.0):
                raise ConfigError("alpha_i must lie in (0, 2]")


@dataclass(frozen=True)
class ScaledVariance2D:
    """X(t) = sigma(t) Y(t), sigma(t) = exp(-b1|t1|^beta1 - b2|t2|^beta2):
    one variance peak, at the origin."""
    base: StationaryExp2D
    b1: float
    b2: float
    beta1: float
    beta2: float

    def __post_init__(self):
        if self.b1 <= 0 or self.b2 <= 0:
            raise ConfigError("b_i must be > 0")
        if self.beta1 <= 0 or self.beta2 <= 0:
            raise ConfigError("beta_i must be > 0")

    def sigma(self, t1, t2):
        return np.exp(-self.b1 * np.abs(t1) ** self.beta1
                      - self.b2 * np.abs(t2) ** self.beta2)


@dataclass(frozen=True)
class Chi:
    """chi(t) = sqrt(sum of m squared iid copies of the base process)."""
    m: int
    base: StationaryExp1D

    def __post_init__(self):
        if self.m < 1:
            raise ConfigError("degree m must be >= 1")


@dataclass(frozen=True)
class Queue:
    """Reflected fBm with drift: Q(t) = sup_{s>=t}(B(s) - B(t) - c(s-t)).

    The optimal exceedance lookahead at level u is about tau_star * u, and
    queue_batch looks QUEUE_LOOKAHEAD times as far beyond the requested
    grid. Truncation bias is one sided (Q is underestimated).
    """
    alpha: float
    c: float

    def __post_init__(self):
        if not (0.0 < self.alpha < 2.0):
            raise ConfigError("Queue requires alpha in (0, 2)")
        if self.c <= 0:
            raise ConfigError("service rate c must be > 0")

    @property
    def tau_star(self):
        return self.alpha / (self.c * (2.0 - self.alpha))


# ---------------------------------------------------------------------------
# circulant machinery

def _circulant_normals(rng, m, lam, n, scale, out=None):
    """(m, n) stationary Gaussian rows with circulant covariance eigenvalues
    lam, times scale, written into out when given.

    The normals are drawn as all real parts, then all imaginary parts, row
    by row, through one small buffer and scaled by sqrt(lam / M) straight
    into a single complex spectrum, which is transformed in place; real
    parts give the even rows, imaginary parts the odd ones.
    """
    M = len(lam)
    pairs = (m + 1) // 2
    if out is None:
        out = np.empty((m, n))
    root = np.sqrt(lam / M)
    spec = _scratch("spectrum", (pairs, M), complex)
    block = _scratch("normals",
                     (max(1, min(pairs, NORMAL_BLOCK_BYTES // (8 * M))), M))
    for part in (spec.real, spec.imag):
        for i in range(0, pairs, len(block)):
            g = block[:pairs - i]
            rng.standard_normal(out=g)
            np.multiply(g, root, out=part[i:i + len(g)])
    np.fft.fft(spec, axis=1, out=spec)
    np.multiply(spec.real[:, :n], scale, out=out[0::2])
    np.multiply(spec.imag[:m // 2, :n], scale, out=out[1::2])
    return out


def _guard_eigs(lam, context):
    mx = float(lam.max())
    mn = float(lam.min())
    if mx <= 0:
        raise NumericFailure(f"{context}: embedding spectrum not positive")
    if mn < -EIG_CLIP_REL * mx:
        return None
    return np.maximum(lam, 0.0)


@functools.lru_cache(maxsize=32)
def _fgn_eigs(alpha, n_steps):
    """Circulant eigenvalues for unit-step fractional Gaussian noise
    (cached, read-only)."""
    k = np.arange(n_steps + 1, dtype=float)
    g = 0.5 * (np.abs(k - 1) ** alpha - 2 * k ** alpha + (k + 1) ** alpha)
    circ = np.concatenate([g, g[-2:0:-1]])
    lam = np.fft.fft(circ).real
    ok = _guard_eigs(lam, f"fGn(alpha={alpha})")
    if ok is None:
        raise NumericFailure(
            f"fGn(alpha={alpha}, n={n_steps}): embedding eigenvalue "
            f"{lam.min():.3e} below -{EIG_CLIP_REL:g} * max")
    ok.flags.writeable = False
    return ok


def fbm_batch(rng, m, alpha, n_steps, delta, pin_index=0):
    """(m, n_steps+1) fBm paths on a uniform grid, pinned to 0 at pin_index.

    With pin_index = k the rows are distributed as two-sided fBm evaluated on
    the grid (j - k) * delta, j = 0..n_steps. Stationary increments make this
    a plain re-anchoring of the same increment sequence. The increments,
    circulant fGn or, at alpha = 1, one (m, n_steps) block of iid normals,
    are summed in place in the returned array; alpha = 2 is xi * t.
    """
    if alpha == 2.0:
        xi = rng.standard_normal(m)
        t = (np.arange(n_steps + 1) - pin_index) * delta
        return xi[:, None] * t[None, :]
    b = np.empty((m, n_steps + 1))
    b[:, 0] = 0.0
    if alpha == 1.0:
        inc = rng.standard_normal((m, n_steps))
        inc *= math.sqrt(delta)
    else:
        inc = _circulant_normals(rng, m, _fgn_eigs(alpha, n_steps), n_steps,
                                 delta ** (alpha / 2.0), out=b[:, 1:])
    np.cumsum(inc, axis=1, out=b[:, 1:])
    if pin_index:
        b -= b[:, pin_index].copy()[:, None]
    return b


def bridge_cell_max(rng, path, var):
    """Exact (m, n) cell maxima of (m, n + 1) Brownian nodes with variance
    var per cell and any constant drift: one uniform per cell inverts the
    Brownian-bridge law. The minima are -bridge_cell_max(rng, -path, var)."""
    a1, a2 = path[:, :-1], path[:, 1:]
    u = rng.random(a1.shape)
    return 0.5 * (a1 + a2 + np.sqrt((a1 - a2) ** 2 - 2.0 * var * np.log(u)))


def simulate_fbm(alpha, grid, seed):
    """One exact fBm path on a grid starting at 0.

    Cov(B(s), B(t)) = (s^alpha + t^alpha - |t-s|^alpha) / 2 at grid points.
    """
    if not (0.0 < alpha <= 2.0):
        raise ConfigError("alpha must lie in (0, 2]")
    if abs(grid.start) > 1e-12:
        raise ConfigError("fBm grids must start at 0 (path pinned at the origin)")
    rng = seed if isinstance(seed, np.random.Generator) else generator(seed)
    values = fbm_batch(rng, 1, alpha, grid.n_points - 1, grid.step)[0]
    return SamplePath(grid, values)


@functools.lru_cache(maxsize=32)
def _stationary_eigs(a, alpha, delta, n_points):
    """Eigenvalues for r(k delta) = exp(-a (k delta)^alpha), padded until
    valid (cached, read-only)."""
    worst = None
    for pad in _PAD_FACTORS:
        P = pad * max(n_points - 1, 1)
        r = np.exp(-a * (np.arange(P + 1) * delta) ** alpha)
        circ = np.concatenate([r, r[-2:0:-1]])
        lam = np.fft.fft(circ).real
        worst = min(worst, lam.min()) if worst is not None else lam.min()
        ok = _guard_eigs(lam, "stationary embedding")
        if ok is not None:
            ok.flags.writeable = False
            return ok
    raise NumericFailure(
        f"stationary covariance exp(-{a}|t|^{alpha}) not embeddable at step "
        f"{delta:g} (most negative eigenvalue {worst:.3e} after padding x{_PAD_FACTORS[-1]})")


def stationary_batch(rng, m, spec, n_points, delta):
    """(m, n_points) stationary unit-variance paths for a StationaryExp1D spec."""
    lam = _stationary_eigs(spec.a, spec.alpha, delta, n_points)
    return _circulant_normals(rng, m, lam, n_points, 1.0)


@functools.lru_cache(maxsize=32)
def _axis_root(a, alpha, axis):
    """Square root of the 1D exponential covariance on a GridSpec axis
    (cached, read-only)."""
    times = axis.times()
    d = np.abs(times[:, None] - times[None, :])
    cov = np.exp(-a * d ** alpha)
    w, v = np.linalg.eigh(cov)
    w = np.maximum(w, 0.0)
    root = v * np.sqrt(w)[None, :]
    root.flags.writeable = False
    return root


def stationary2d_batch(rng, m, spec, lattice):
    """(m, n1, n2) fields with separable covariance, via per-axis factorization."""
    r1 = _axis_root(spec.a1, spec.alpha1, lattice.axis1)
    r2 = _axis_root(spec.a2, spec.alpha2, lattice.axis2)
    g = rng.standard_normal((m, r1.shape[0], r2.shape[0]))
    return (r1 @ g) @ r2.T


def queue_batch(rng, m, spec, n_points, delta, u_ref):
    """(m, n_points) stationary queue paths Q(t_i) on a grid of step delta.

    Q(t_i) = max over grid s in [t_i, t_i + H] of (B(s) - B(t_i) - c (s - t_i))
    with lookahead H = QUEUE_LOOKAHEAD * tau_star * max(u_ref, 1); u_ref
    should be the largest level of interest.
    """
    H = QUEUE_LOOKAHEAD * spec.tau_star * max(u_ref, 1.0)
    w = max(int(math.ceil(H / delta)), 1)
    total_steps = (n_points - 1) + w
    y = fbm_batch(rng, m, spec.alpha, total_steps, delta)
    y -= spec.c * (np.arange(total_steps + 1) * delta)[None, :]
    q = sliding_max(y, w + 1)[:, :n_points]
    q -= y[:, :n_points]
    return q


def sliding_max(y, width):
    """Row-wise max over windows [i, i + width - 1], cut at the row end, as
    a fresh array (scipy's maximum_filter1d, shifted to look ahead)."""
    if width < 1:
        raise ConfigError(f"sliding_max needs width >= 1, got {width}")
    return maximum_filter1d(y, width, axis=1, origin=-(width // 2),
                            mode="constant", cval=-np.inf)


def chi_batch(rng, m, spec, n_points, delta):
    lam = _stationary_eigs(spec.base.a, spec.base.alpha, delta, n_points)
    acc = np.zeros((m, n_points))
    x = np.empty((m, n_points))
    for _ in range(spec.m):
        _circulant_normals(rng, m, lam, n_points, 1.0, out=x)
        x *= x
        acc += x
    return np.sqrt(acc, out=acc)


def w_field_batch(rng, m, spec, times, pin_index):
    """(m, len(times)) rows of W_alpha(t) - h(t) for an FbmW spec.

    times must be a uniform grid containing 0 at pin_index.
    """
    t = np.asarray(times, dtype=float)
    drift_term = np.abs(t) ** spec.alpha + spec.drift.h(t) if spec.alpha > 0 \
        else spec.drift.h(t)
    if spec.alpha == 0.0:
        return np.tile(-drift_term, (m, 1))
    delta = t[1] - t[0]
    w = fbm_batch(rng, m, spec.alpha, len(t) - 1, delta, pin_index=pin_index)
    w *= math.sqrt(2.0)
    w -= drift_term[None, :]
    return w


def normal_tail(u):
    """Psi(u) = P(N(0,1) > u), accurate far into the tail."""
    return ndtr(-np.asarray(u, dtype=float)) if np.ndim(u) else float(ndtr(-u))
