"""Sojourn-time functionals of discretized paths and fields.

The discrete sojourn measure of a path sampled at n points with step d is
mes{X > z} = d * #{i : X(t_i) > z}. All level reductions below are exact
consequences of that definition, with strict inequality throughout.
"""

from dataclasses import dataclass

import numpy as np

from .gaussim import SamplePath
from .mc import ConfigError


@dataclass(frozen=True)
class LevelResult:
    """Level z with mes{X > z} <= x < mes{X >= z}; z is None when no finite
    level works (x below the resolution of an all-used-up sample)."""
    z: float | None
    rank: int
    count: int


def _step_of(obj):
    if isinstance(obj, SamplePath):
        return obj.grid.step, obj.values
    raise TypeError("expected a SamplePath")


def level_rank(x, step):
    """Smallest m with m * step > x, i.e. floor(x / step) + 1.

    The additive guard absorbs float noise when x is an exact multiple of
    step: the rank must not jump early on x/step = k - 1e-16.
    """
    if x < 0:
        raise ConfigError("sojourn bound x must be >= 0")
    return int(np.floor(x / step + 1e-9)) + 1


def level_for_sojourn(obj, x):
    """Largest level z with sojourn time above z still exceeding x.

    Contract: mes{X > z} > x exactly when z < result.z. When x is at least
    the whole domain length, no level qualifies and z is None (the natural
    convention for downstream exp(z) reductions is exp(-inf) = 0).
    """
    step, values = _step_of(obj)
    m = level_rank(x, step)
    n = len(values)
    if m > n:
        return LevelResult(None, m, n)
    return LevelResult(float(np.sort(values)[n - m]), m, n)


def batch_levels(values, step, x):
    """Row-wise level_for_sojourn over a (paths, points) value array.

    A scalar x gives a (paths,) array through one partition per row; a
    sequence of x gives a (paths, len(x)) array, one column per x, through
    one sort per row. Entries are -inf where no finite level exists, which
    downstream exp() maps to an exact 0 contribution. values is left as it
    is; batch_levels_in_place reorders an array the caller owns instead of
    copying it.
    """
    return batch_levels_in_place(np.array(values, dtype=float), step, x)


def batch_levels_in_place(values, step, x):
    """batch_levels that partitions or sorts each row of values in place."""
    n = values.shape[1]
    if np.ndim(x) == 0:
        m = level_rank(x, step)
        if m > n:
            return np.full(values.shape[0], -np.inf)
        values.partition(n - m, axis=1)
        return values[:, n - m].copy()  # not a view that pins all of values
    values.sort(axis=1)
    out = np.full((values.shape[0], len(x)), -np.inf)
    for j, xj in enumerate(x):
        m = level_rank(xj, step)
        if m <= n:
            out[:, j] = values[:, n - m]
    return out


def reduction_quadrature(obj, x, rel_tol=1e-6):
    """exp of the sojourn level, found without order statistics.

    Bisects on z, querying only the counting measure mes{X > z}, until the
    bracket around the drop point of the indicator {mes > x} is tight enough
    that exp(z) is resolved to rel_tol. Serves as an independent check of the
    rank-based reduction: the two must agree to rel_tol on every sample.
    """
    step, values = _step_of(obj)
    total = step * len(values)
    if total <= x + 1e-9 * step:
        return 0.0
    lo = float(values.min()) - 1.0
    hi = float(values.max())
    # invariant: mes{ > lo } > x >= mes{ > hi }
    while hi - lo > 0.25 * rel_tol:
        mid = 0.5 * (lo + hi)
        if step * int(np.count_nonzero(values > mid)) > x:
            lo = mid
        else:
            hi = mid
    return float(np.exp(hi))
