"""Chunked deterministic Monte Carlo plumbing.

Every estimator in this package draws randomness through `generator`, the
package's one bit generator: SFC64 seeded through a `SeedSequence`, keyed by
(seed, chunk index) for a chunk's substream. Work is split into fixed-size
chunks and chunk results are reduced in index order, so a run is bitwise
reproducible for a given (seed, chunk_size) no matter how many workers
execute the chunks.

Inside a chunk the sample kernel runs on successive blocks of ROW_BLOCK
rows, all drawn in order from the chunk's one substream, and the block
outputs are written into the chunk's output. The block size is therefore
part of the stream definition: it is a fixed constant, never derived from
the machine. Blocking keeps a chunk's full path array from ever existing;
the never-returned temporaries of the path synthesis (`_scratch`) are kept
for the whole chunk and released when its kernel calls end.

Samples are iid, so the standard error of a mean is the per-sample
standard deviation (ddof=1, pooled over all chunks) over sqrt(n): it is
valid for a single chunk and has n - 1 degrees of freedom whatever the
chunk size.

Two exceptions mark a run that cannot finish: `ConfigError` for a setting
the caller chose that cannot run (every argument check in the package raises
it), and `NumericFailure` for a valid setting whose numbers gave out. Any
other exception is a fault of the package itself.
"""

from collections import namedtuple
from concurrent.futures import ProcessPoolExecutor
import contextvars
import math

import numpy as np


DEFAULT_CHUNK = 4096
Z95 = 1.959963984540054  # two-sided 95 % normal quantile
ROW_BLOCK = 64  # rows per kernel call inside a chunk; part of the stream

# the running chunk's reusable temporaries by name, or None outside a chunk
_workspace = contextvars.ContextVar("chunk_workspace", default=None)


class ConfigError(ValueError):
    """Raised when a setting the caller chose cannot run."""


class NumericFailure(RuntimeError):
    """Raised when a computation cannot proceed for numerical reasons."""


def generator(seed, *spawn_key):
    """SFC64 generator for (seed, spawn_key): the package's one bit generator."""
    ss = np.random.SeedSequence(entropy=int(seed),
                                spawn_key=tuple(int(k) for k in spawn_key))
    return np.random.Generator(np.random.SFC64(ss))


def stream_id(seed, *spawn_key):
    """Name of the stream that generator(seed, *spawn_key) draws."""
    return "sfc64:" + ":".join(str(int(v)) for v in (seed, *spawn_key))


def stream_ids(seed, n_chunks):
    return [stream_id(seed, k) for k in range(n_chunks)]


def derive_seed(seed, tag):
    """Deterministic child seed for an independent sub-run of a composite
    estimator (schedule points, product factors, refinement passes)."""
    ss = np.random.SeedSequence(entropy=int(seed), spawn_key=(0x5EED, int(tag)))
    return int(ss.generate_state(1, np.uint64)[0] >> 1)


def _scratch(name, shape, dtype=float):
    """Uninitialised array for a temporary that never leaves its caller.

    While a chunk runs, every call with the same name gets a view of one
    buffer, grown to the largest size asked for, so the chunk's blocks do
    not allocate it afresh; outside a chunk the array is new.
    """
    workspace = _workspace.get()
    if workspace is None:
        return np.empty(shape, dtype)
    size = math.prod(shape)
    buf = workspace.get(name)
    if buf is None or buf.size < size or buf.dtype != dtype:
        buf = workspace[name] = np.empty(size, dtype)
    return buf[:size].reshape(shape)


def _run_chunk(kernel, seed, chunk_index, chunk_n, params, width=None):
    rng = generator(seed, chunk_index)
    tail = () if width is None else (int(width),)
    out = np.empty((chunk_n,) + tail)
    token = _workspace.set({})
    try:
        for i in range(0, chunk_n, ROW_BLOCK):
            rows = min(ROW_BLOCK, chunk_n - i)
            block = np.asarray(kernel(rng, rows, params), dtype=float)
            if block.shape != (rows,) + tail:
                raise ValueError(f"kernel returned shape {block.shape}, "
                                 f"expected {(rows,) + tail}")
            out[i:i + rows] = block
    finally:
        _workspace.reset(token)
    return out.sum(axis=0), np.square(out).sum(axis=0)


def chunked_mean(kernel, n_samples, seed, params=None, width=None,
                 chunk_size=DEFAULT_CHUNK, workers=1):
    """Mean and per-sample standard error of a sample kernel.

    kernel(rng, m, params) must return m per-sample values, or an (m, width)
    array when width is given; it is called with m <= ROW_BLOCK on
    successive row blocks of each chunk. Every column comes from the same
    samples, so column estimates share the per-path randomness (exact
    pathwise monotonicity across columns is preserved when the kernel
    guarantees it). Returns (mean, se, n_chunks), with mean and se arrays of
    length width when width is given. The chunks run in a pool of
    min(workers, n_chunks) processes; a single chunk runs in-process
    whatever workers is.
    """
    n_samples = int(n_samples)
    if n_samples < 2:
        raise ConfigError("n_samples must be >= 2 for a standard error")
    if chunk_size < 1:
        raise ConfigError("chunk_size must be >= 1")
    sizes = [chunk_size] * (n_samples // chunk_size)
    rem = n_samples % chunk_size
    if rem:
        sizes.append(rem)
    n_chunks = len(sizes)

    shape = (n_chunks,) if width is None else (n_chunks, int(width))
    sums = np.empty(shape)
    sqs = np.empty(shape)
    if workers and workers > 1 and n_chunks > 1:
        with ProcessPoolExecutor(max_workers=min(int(workers),
                                                 n_chunks)) as pool:
            futs = [pool.submit(_run_chunk, kernel, seed, k, sizes[k], params, width)
                    for k in range(n_chunks)]
            for k, fut in enumerate(futs):
                sums[k], sqs[k] = fut.result()
    else:
        for k in range(n_chunks):
            sums[k], sqs[k] = _run_chunk(kernel, seed, k, sizes[k], params, width)

    mean = sums.sum(axis=0) / n_samples
    var = (sqs.sum(axis=0) - n_samples * mean ** 2) / (n_samples - 1)
    se = np.sqrt(np.maximum(var, 0.0) / n_samples)
    if width is None:
        return float(mean), float(se), n_chunks
    return mean, se, n_chunks


def ratio_se(num, den, se_num, se_den, se_sum):
    """Ratio num / den of two column means of one sample, and its
    delta-method standard error. se_sum is the standard error of the
    num + den column, which gives the covariance by polarisation; expanded
    this way, a num column equal to den (R = 1) gets exactly 0."""
    ratio = num / den
    var = ((1.0 + ratio) * se_num ** 2 - ratio * se_sum ** 2
           + (ratio + ratio ** 2) * se_den ** 2)
    return ratio, np.sqrt(np.maximum(var, 0.0)) / den


LineFit = namedtuple("LineFit", "slope intercept slope_se intercept_se residuals")


def fit_line(xs, ys, ses):
    """Weighted least squares fit y = slope*x + intercept.

    Weights 1/se^2 with the given ses taken as true standard errors (the
    parameter covariance is (A'WA)^-1, not rescaled by residuals). A
    non-finite se is a NumericFailure; a zero se gives unit weights.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    ses = np.asarray(ses, dtype=float)
    if not np.all(np.isfinite(ses)):
        raise NumericFailure(f"line fit needs finite standard errors, got {ses}")
    if np.any(ses <= 0):
        ses = np.ones_like(ys)
    w = 1.0 / ses ** 2
    A = np.vstack([xs, np.ones_like(xs)]).T
    Aw = A * np.sqrt(w)[:, None]
    yw = ys * np.sqrt(w)
    coef, *_ = np.linalg.lstsq(Aw, yw, rcond=None)
    cov = np.linalg.inv(Aw.T @ Aw)
    resid = ys - A @ coef
    return LineFit(float(coef[0]), float(coef[1]),
                   float(math.sqrt(cov[0, 0])), float(math.sqrt(cov[1, 1])), resid)
