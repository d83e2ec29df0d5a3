import numpy as np
import pytest

from sojournlab.gaussim import GridSpec, SamplePath
from sojournlab.sojourn import (batch_levels, batch_levels_in_place,
                                level_for_sojourn, level_rank,
                                reduction_quadrature)


def _path(values, step=0.25):
    g = GridSpec(0.0, step * (len(values) - 1), len(values))
    return SamplePath(g, np.asarray(values, dtype=float))


def test_level_rank_basic():
    assert level_rank(0.0, 0.25) == 1
    assert level_rank(0.1, 0.25) == 1
    assert level_rank(0.25, 0.25) == 2
    assert level_rank(0.26, 0.25) == 2
    assert level_rank(0.5, 0.25) == 3
    with pytest.raises(ValueError):
        level_rank(-0.1, 0.25)


def test_level_rank_float_boundary():
    # 0.3 / 0.1 is 2.9999999999999996 in floats; the rank must still be 4
    assert level_rank(0.3, 0.1) == 4
    assert level_rank(3 * 0.1, 0.1) == 4


def test_level_for_sojourn_matches_direct_count():
    """z_x is the smallest level whose sojourn time does not exceed x."""
    rng = np.random.default_rng(12)
    vals = rng.standard_normal(40)
    p = _path(vals, step=0.1)
    for x in (0.0, 0.09, 0.35, 1.7, 3.9):
        res = level_for_sojourn(p, x)
        assert res.z is not None
        assert p.grid.step * np.count_nonzero(p.values > res.z) <= x + 1e-12
        # just below z the sojourn time exceeds x
        assert p.grid.step * np.count_nonzero(p.values > res.z - 1e-9) > x


def test_level_for_sojourn_out_of_range():
    p = _path([1.0, 2.0, 3.0])
    res = level_for_sojourn(p, 0.75)
    assert res.z is None
    assert res.rank > 3


def test_batch_levels_matches_scalar_route():
    rng = np.random.default_rng(5)
    vals = rng.standard_normal((30, 16))
    step = 0.125
    xs = (0.0, 0.2, 1.0, 1.99)
    for x in xs:
        z = batch_levels(vals, step, x)
        for i in range(30):
            want = level_for_sojourn(_path(vals[i], step=step), x).z
            assert np.isclose(z[i], want), (i, x)
    # an x grid gives one column per x, bitwise equal to the scalar call,
    # and -inf columns past the grid
    grid = xs + (2.0, 5.0)
    cols = batch_levels(vals, step, grid)
    assert cols.shape == (30, len(grid))
    for j, x in enumerate(grid):
        assert np.array_equal(cols[:, j], batch_levels(vals, step, x)), x
    assert np.all(np.isneginf(cols[:, -2:]))


def test_batch_levels_in_place_reorders_only_its_input():
    """The in-place route gives the copying route's bits, leaves values
    reordered row by row, and returns an array of its own."""
    vals = np.random.default_rng(6).standard_normal((12, 40))
    for x in (0.3, (0.0, 0.3, 2.0)):
        own = vals.copy()
        z = batch_levels_in_place(own, 0.1, x)
        assert np.array_equal(z, batch_levels(vals, 0.1, x))
        assert np.array_equal(np.sort(own, axis=1), np.sort(vals, axis=1))
        assert z.base is None
    assert batch_levels(vals, 0.1, 0.3).base is None


def test_batch_levels_minus_inf_when_rank_exceeds_grid():
    vals = np.arange(8.0).reshape(2, 4)
    z = batch_levels(vals, 0.5, 2.0)
    assert np.all(np.isneginf(z))


def test_reduction_quadrature_agrees_with_rank():
    rng = np.random.default_rng(77)
    vals = rng.standard_normal(64)
    p = SamplePath(GridSpec(0.0, 1.0, 64), vals)
    for x in (0.0, 0.13, 0.5, 0.98):
        direct = batch_levels(vals[None, :], p.grid.step, x)[0]
        quad = reduction_quadrature(p, x, rel_tol=1e-8)
        assert abs(quad - np.exp(direct)) <= 1e-7 * max(quad, 1e-300)


def test_reduction_quadrature_vanishes_past_total_time():
    p = SamplePath(GridSpec(0.0, 1.0, 9), np.ones(9))
    assert reduction_quadrature(p, 1.2) == 0.0
    assert reduction_quadrature(p, 9.0 / 8.0) == 0.0

