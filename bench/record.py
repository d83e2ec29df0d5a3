"""Record the benchmark's references, machine and baseline figures.

    python3 bench/record.py

Writes bench/reference.json. Run once, at the commit that defines the
benchmark; the correctness checks compare every later run against it.

- constant-fbm: the workload's CLI call at 40 default chunks, on a seed the
  benchmark never derives.
- experiment-stationary: the workload's CLI call, one level at a time, at
  20000 conditioned replicates per level; the traced counts give the
  rejection loop's acceptance rate at each level.
- baseline: the ROADMAP Baseline figures that can be measured from outside
  the package: `fbm_batch` at 4096 x 4097, `simulate_fbm` on 64 points,
  peak RSS of one default chunk of constant-fbm, and the u=3.5 acceptance.
- machine: CPU, caches and versions, plus the computed size of constant-fbm's
  largest array against four times the last-level cache.
"""

import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from sojournlab import cli, gaussim  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402

REF_SEED = 424242  # decimal seed; the benchmark's seeds are 63-bit hashes
CONSTANT_REF_SAMPLES = 40 * 4096
EXPERIMENT_REF_CONDITIONED = 20000


def _cache_sizes():
    sizes = {}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    for idx in sorted(base.glob("index*")):
        level = (idx / "level").read_text().strip()
        kind = (idx / "type").read_text().strip()
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = (idx / "size").read_text().strip()
    return sizes


def machine():
    model = next((line.split(":", 1)[1].strip()
                  for line in open("/proc/cpuinfo")
                  if line.startswith("model name")), platform.processor())
    caches = _cache_sizes()
    llc_bytes = int(caches["L3"].rstrip("K")) * 1024
    spectrum = 4096 * 8192 * 16   # one chunk: complex128 (4096, 8192) spectrum
    return {
        "nproc": len(os.sched_getaffinity(0)), "cpu_model": model,
        "caches": caches, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": scipy.__version__,
        "constant_fbm_largest_array": {
            "what": "complex128 circulant spectrum of one default chunk, "
                    "4096 x 8192 (computed, not measured)",
            "bytes": spectrum, "mib": spectrum / 2 ** 20,
            "four_times_llc_mib": 4 * llc_bytes / 2 ** 20}}


def _call(argv, out):
    rc = cli.main(argv + ["--out", out])
    if rc != 0:
        raise SystemExit(f"reference run failed with exit code {rc}: {argv}")


def constant_reference(out):
    _call(wl.CONSTANT_ARGS + ["--n-samples", str(CONSTANT_REF_SAMPLES),
                              "--seed", str(REF_SEED)], out)
    row = wl.read_table(os.path.join(out, "constants.csv"))[0]
    value, se = float(row["value"]), float(row["std_err"])
    return {"value": value, "std_err": se, "n_samples": CONSTANT_REF_SAMPLES,
            "sample_sd": se * CONSTANT_REF_SAMPLES ** 0.5, "seed": REF_SEED}


def experiment_reference(out):
    i = wl.EXPERIMENT_ARGS.index("--u")
    args = wl.EXPERIMENT_ARGS[:i] + wl.EXPERIMENT_ARGS[i + 2:]  # one u a call
    rows, accept = {}, {}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for i, u in enumerate(("2.5", "3.0", "3.5")):
            before = dict(tracer.counters)
            _call(args + ["--u", u, "--n-conditioned",
                          str(EXPERIMENT_REF_CONDITIONED), "--target-samples",
                          str(wl.EXPERIMENT_TARGET_SAMPLES),
                          "--seed", str(REF_SEED + i)], out)
            c = tracer.counters
            n_sims = c["asymptotics.n_sims"] - before["asymptotics.n_sims"]
            kept = c["asymptotics.retained"] - before["asymptotics.retained"]
            accept[u] = {"n_sims": n_sims, "retained": kept,
                         "accept_ratio": kept / n_sims}
            rows[u] = [{"x": float(r["x"]),
                        "ratio_hat": float(r["ratio_hat"]),
                        "se": wl._ci_se(r)}
                       for r in wl.read_table(os.path.join(out,
                                                           "experiment.csv"))]
    finally:
        tracer.uninstall()
    return {"rows": rows, "n_conditioned": EXPERIMENT_REF_CONDITIONED,
            "seeds": [REF_SEED + i for i in range(3)]}, accept


def one_chunk_rss_mb(out):
    """Peak RSS of a fresh process running constant-fbm at one chunk."""
    code = ("import sys; sys.path.insert(0, 'src'); "
            "from sojournlab import cli; "
            f"sys.exit(cli.main({wl.CONSTANT_ARGS!r} + ['--n-samples', "
            f"'4096', '--seed', '{REF_SEED}', '--out', {out!r}]))")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * 1024 / 1e6


def baseline(accept, out):
    rng = np.random.Generator(np.random.Philox(REF_SEED))
    times = []
    for _ in range(4):   # the first call is a warm-up
        t0 = time.perf_counter()
        gaussim.fbm_batch(rng, 4096, 1.5, 4096, 1.0 / 4096)
        times.append(time.perf_counter() - t0)
    grid = gaussim.GridSpec(0.0, 1.0, 64)
    per_call = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(2000):
            gaussim.simulate_fbm(1.5, grid, rng)
        per_call.append((time.perf_counter() - t0) / 2000)
    return {
        "fbm_batch_4096x4097_s": {"measured": statistics.median(times[1:]),
                                  "roadmap": 2.1},
        "simulate_fbm_64_us": {"measured": statistics.median(per_call) * 1e6,
                               "roadmap": 110},
        "one_chunk_peak_rss_mb": {"measured": one_chunk_rss_mb(out),
                                  "roadmap": 1100},
        "u3.5_acceptance": {"measured": accept["3.5"],
                            "roadmap": {"n_sims": 7_840_000,
                                        "retained": 20_000,
                                        "accept_ratio": 0.0026}}}


def main():
    out = ROOT / ".bench_out" / "record"
    out.mkdir(parents=True, exist_ok=True)
    out = str(out)
    ref = {"machine": machine()}
    ref["constant-fbm"] = constant_reference(out)
    ref["experiment-stationary"], accept = experiment_reference(out)
    ref["baseline"] = baseline(accept, out)
    shutil.rmtree(out)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    print(json.dumps(ref["baseline"], indent=1))


if __name__ == "__main__":
    main()
