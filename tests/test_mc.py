import concurrent.futures
import itertools
import pathlib
import re

import numpy as np
import pytest

from sojournlab import mc


def _kernel(rng, m, params):
    return np.exp(rng.standard_normal(m) * params["s"])


def _vec_kernel(rng, m, params):
    x = rng.standard_normal(m)
    return np.stack([x, x ** 2, np.exp(x)], axis=1)


def test_chunked_mean_reproducible():
    a = mc.chunked_mean(_kernel, 50_000, seed=42, params={"s": 1.0})
    b = mc.chunked_mean(_kernel, 50_000, seed=42, params={"s": 1.0})
    assert a == b


def test_chunked_mean_worker_invariance():
    """The estimate must not depend on how work is spread over workers."""
    one = mc.chunked_mean(_kernel, 80_000, seed=7, params={"s": 0.5})
    four = mc.chunked_mean(_kernel, 80_000, seed=7, params={"s": 0.5},
                           workers=4)
    assert one == four


def test_chunked_mean_converges():
    mean, se, n_chunks = mc.chunked_mean(_kernel, 400_000, seed=3,
                                         params={"s": 1.0})
    assert abs(mean - np.exp(0.5)) < 4 * se
    assert se < 0.01
    assert n_chunks == int(np.ceil(400_000 / mc.DEFAULT_CHUNK))


def test_chunked_mean_kernel_shape_check():
    def short(rng, m, params):
        return np.ones(m - 1)

    with pytest.raises(ValueError):
        mc.chunked_mean(short, 10_000, seed=0)
    with pytest.raises(ValueError):
        mc.chunked_mean(_vec_kernel, 10_000, seed=0, width=2)


def test_chunked_mean_width_worker_invariance():
    a = mc.chunked_mean(_vec_kernel, 60_000, seed=11, width=3)
    b = mc.chunked_mean(_vec_kernel, 60_000, seed=11, width=3, workers=3)
    assert np.array_equal(a[0], b[0])
    assert np.array_equal(a[1], b[1])
    assert a[2] == b[2]


def test_chunked_mean_width_values():
    means, ses, n_chunks = mc.chunked_mean(_vec_kernel, 300_000, seed=9,
                                           width=3)
    assert means.shape == ses.shape == (3,)
    assert n_chunks >= 30
    assert abs(means[0]) < 4 * ses[0]
    assert abs(means[1] - 1.0) < 4 * ses[1]
    assert abs(means[2] - np.exp(0.5)) < 4 * ses[2]


def test_chunked_mean_width_column_matches_scalar_kernel():
    """A width-1 column and the scalar kernel on the same draws agree."""
    def col(rng, m, params):
        return _kernel(rng, m, params)[:, None]

    vec = mc.chunked_mean(col, 20_000, seed=4, params={"s": 0.5}, width=1)
    one = mc.chunked_mean(_kernel, 20_000, seed=4, params={"s": 0.5})
    assert np.isclose(vec[0][0], one[0], rtol=1e-12, atol=0.0)
    assert np.isclose(vec[1][0], one[1], rtol=1e-12, atol=0.0)
    assert vec[2] == one[2]


def test_derive_seed_is_stable_and_spread():
    a = mc.derive_seed(123, 0)
    assert a == mc.derive_seed(123, 0)
    tags = {mc.derive_seed(123, t) for t in range(64)}
    assert len(tags) == 64
    assert mc.derive_seed(123, 0) != mc.derive_seed(124, 0)


def test_substream_independence():
    x0 = mc.generator(5, 0).standard_normal(4)
    x1 = mc.generator(5, 1).standard_normal(4)
    assert not np.allclose(x0, x1)
    again = mc.generator(5, 0).standard_normal(4)
    assert np.array_equal(x0, again)


def test_stream_ids_shape():
    ids = mc.stream_ids(17, 5)
    assert len(ids) == 5
    assert len(set(ids)) == 5
    assert ids == mc.stream_ids(17, 5)


def test_fit_line_recovers_exact_line():
    xs = np.array([1.0, 2.0, 4.0, 8.0])
    ys = 3.0 - 0.5 * xs
    fit = mc.fit_line(xs, ys, np.full(4, 0.1))
    assert np.isclose(fit.slope, -0.5)
    assert np.isclose(fit.intercept, 3.0)
    assert np.allclose(fit.residuals, 0.0, atol=1e-12)
    assert fit.slope_se > 0


def test_fit_line_weights_tight_points_harder():
    xs = np.array([0.0, 1.0, 2.0])
    ys = np.array([0.0, 1.0, 10.0])
    loose_last = mc.fit_line(xs, ys, np.array([0.01, 0.01, 100.0]))
    # the noisy third point barely moves the fit through the first two
    assert abs(loose_last.slope - 1.0) < 0.01
    assert abs(loose_last.intercept) < 0.01


def test_chunked_mean_one_chunk_se():
    """One chunk still gives a finite standard error: the per-sample SD of
    the same draws over sqrt(n)."""
    n = 3000
    mean, se, n_chunks = mc.chunked_mean(_kernel, n, seed=6,
                                         params={"s": 1.0})
    draws = _kernel(mc.generator(6, 0), n, {"s": 1.0})
    assert n_chunks == 1
    assert np.isclose(mean, draws.mean(), rtol=1e-12, atol=0.0)
    assert np.isclose(se, draws.std(ddof=1) / np.sqrt(n), rtol=1e-9,
                      atol=0.0)
    with pytest.raises(ValueError):
        mc.chunked_mean(_kernel, 1, seed=6, params={"s": 1.0})


def test_chunked_mean_one_chunk_runs_without_a_pool(monkeypatch):
    """A single chunk runs in-process whatever workers is, with the same
    bits as workers=1."""
    def no_pool(*args, **kwargs):
        raise AssertionError("a one-chunk call started a process pool")

    one = mc.chunked_mean(_vec_kernel, 3000, seed=5, width=3, chunk_size=4096)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
    two = mc.chunked_mean(_vec_kernel, 3000, seed=5, width=3, chunk_size=4096,
                          workers=2)
    assert one[2] == two[2] == 1
    assert one[0].tobytes() == two[0].tobytes()
    assert one[1].tobytes() == two[1].tobytes()


def test_chunked_mean_pool_is_capped_at_the_chunk_count(monkeypatch):
    """The pool never asks for more processes than there are chunks. The
    recording executor runs each chunk in-process and starts none."""
    asked = []

    class Recording:
        def __init__(self, max_workers):
            asked.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            fut = concurrent.futures.Future()
            fut.set_result(fn(*args))
            return fut

    one = mc.chunked_mean(_vec_kernel, 3000, seed=5, width=3, chunk_size=1000)
    monkeypatch.setattr(mc, "ProcessPoolExecutor", Recording)
    many = mc.chunked_mean(_vec_kernel, 3000, seed=5, width=3,
                           chunk_size=1000, workers=64)
    few = mc.chunked_mean(_vec_kernel, 3000, seed=5, width=3,
                          chunk_size=1000, workers=2)
    assert asked == [3, 2]
    for out in (many, few):
        assert out[2] == one[2] == 3
        assert out[0].tobytes() == one[0].tobytes()
        assert out[1].tobytes() == one[1].tobytes()


def test_ratio_se_matches_the_delta_method():
    """The polarisation rule gives the delta-method SE of a ratio of two
    column means of one sample."""
    rng = np.random.default_rng(0)
    den = rng.random(10_000) + 0.5
    num = den * (rng.random(10_000) < 0.3)
    n = num.size
    cols = [num, den, num + den]
    se = [c.std(ddof=1) / np.sqrt(n) for c in cols]
    ratio, ratio_se = mc.ratio_se(num.mean(), den.mean(), *se)
    resid = num - ratio * den
    assert ratio == num.mean() / den.mean()
    assert np.isclose(ratio_se, resid.std(ddof=1) / np.sqrt(n) / den.mean(),
                      rtol=1e-6)


def _self_ratio_kernel(rng, m, p):
    w = rng.random(m) + 0.5
    return np.stack([w, w + w], axis=1)


def test_ratio_se_of_a_column_with_itself_is_zero():
    """The x = 0 column of a conditioned curve is its denominator column:
    its ratio is exactly 1 and its SE exactly 0, not a rounding residue
    (the cov-first polarisation left about 1e-10 in 16 of these 36)."""
    for seed, (n, chunk) in itertools.product(
            range(12), ((1000, 1000), (5000, 1024), (777, 64))):
        mean, se, _ = mc.chunked_mean(_self_ratio_kernel, n, seed, width=2,
                                      chunk_size=chunk)
        assert se[1] == 2.0 * se[0] > 0
        ratio, ratio_se = mc.ratio_se(mean[0], mean[0], se[0], se[0], se[1])
        assert (ratio, ratio_se) == (1.0, 0.0)


def test_ratio_se_matches_the_polarisation_formula():
    rng = np.random.default_rng(1)
    for _ in range(200):
        n = int(rng.integers(10, 2000))
        den = rng.random(n) + rng.random()
        num = den * (rng.random(n) < rng.random()) + 0.1 * rng.random(n)
        se = [c.std(ddof=1) / np.sqrt(n) for c in (num, den, num + den)]
        ratio, got = mc.ratio_se(num.mean(), den.mean(), *se)
        cov = (se[2] ** 2 - se[0] ** 2 - se[1] ** 2) / 2.0
        want = np.sqrt(se[0] ** 2 - 2.0 * ratio * cov
                       + ratio ** 2 * se[1] ** 2) / den.mean()
        assert abs(got - want) <= 1e-12 * want


def test_fit_line_rejects_non_finite_se():
    with pytest.raises(mc.NumericFailure):
        mc.fit_line([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [0.1, np.nan, 0.1])


# ---------------------------------------------------------------------------
# row blocks, the bit generator and the stream ids

def _walk_kernel(rng, m, params):
    """Per-sample columns that depend on how many rows each call draws."""
    return np.cumsum(rng.standard_normal((m, 3)), axis=1) \
        + rng.random(1)[0]


def test_chunk_is_row_blocks_of_one_substream():
    """A chunk's output is the kernel's outputs on successive ROW_BLOCK-row
    slices of the chunk's substream, a short remainder block last."""
    n = 2 * mc.ROW_BLOCK + 17
    calls = []

    def rec(rng, m, params):
        calls.append(m)
        return _walk_kernel(rng, m, params)

    rng = mc.generator(21, 3)
    want = np.concatenate([_walk_kernel(rng, m, None)
                           for m in (mc.ROW_BLOCK, mc.ROW_BLOCK, 17)])
    sums, sqs = mc._run_chunk(rec, 21, 3, n, None, width=3)
    assert calls == [mc.ROW_BLOCK, mc.ROW_BLOCK, 17]
    assert mc._workspace.get() is None  # released with the chunk
    assert np.array_equal(sums, want.sum(axis=0))
    assert np.array_equal(sqs, np.square(want).sum(axis=0))

    rng = mc.generator(21, 3)
    want = np.concatenate([_kernel(rng, m, {"s": 1.0})
                           for m in (mc.ROW_BLOCK, mc.ROW_BLOCK, 17)])
    sums, sqs = mc._run_chunk(_kernel, 21, 3, n, {"s": 1.0})
    assert sums == want.sum() and sqs == np.square(want).sum()


def test_stream_ids_name_sfc64():
    assert all(s.startswith("sfc64:") for s in mc.stream_ids(17, 3))
    assert mc.stream_ids(17, 2) == [mc.stream_id(17, 0), "sfc64:17:1"]
    assert mc.stream_id(17) == "sfc64:17"  # generator(17), no spawn key
    assert isinstance(mc.generator(5, 0).bit_generator, np.random.SFC64)
    assert np.array_equal(mc.generator(5).random(3),
                          mc.generator(5).random(3))


def test_only_mc_builds_a_bit_generator():
    """Every draw goes through mc.generator: no other module of the package
    constructs a bit generator or a Generator of its own."""
    pattern = re.compile(
        r"\b(Philox|SFC64|PCG64\w*|MT19937|RandomState|default_rng|"
        r"BitGenerator|SeedSequence|Generator)\s*\(")
    src = pathlib.Path(mc.__file__).parent
    found = [f"{path.name}:{i}: {line.strip()}"
             for path in sorted(src.glob("*.py")) if path.name != "mc.py"
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if pattern.search(line)]
    assert found == []
