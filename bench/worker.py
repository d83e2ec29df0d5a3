"""One benchmark process, started by run.py.

Imports sojournlab from the checkout's `src/`, builds the workload's inputs,
prints READY, then runs fixed-work units until the next one would end after
`--seconds` and prints its figures as one JSON line. With `--trace 1` one
warm-up unit runs first, then untraced and traced units alternate, so the
per-layer figures come with the tracing overhead they carry.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import sojournlab  # noqa: E402

if not Path(sojournlab.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"sojournlab imported from {sojournlab.__file__}, not {ROOT}/src")

import tracing  # noqa: E402
import workloads  # noqa: E402


def run_for(wl, seconds):
    """Units until the next would pass `seconds`."""
    units = []
    start = time.perf_counter()
    while True:
        units.append(wl.unit(len(units)))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(u.seconds for u in units) > seconds:
            return units


def run_pairs(wl, seconds, first, tracer):
    """Alternate untraced and traced units until the next pair would pass
    `seconds`; returns (untraced, traced)."""
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain.append(wl.unit(first + 2 * len(traced)))
        tracer.install()
        try:
            traced.append(wl.unit(first + 2 * len(traced) + 1, tracer))
        finally:
            tracer.uninstall()
        elapsed = time.perf_counter() - start
        if elapsed * (len(traced) + 1) / len(traced) > seconds:
            return plain, traced


def _mean(values):
    values = [v for v in values if v is not None]
    return statistics.fmean(values) if values else 0.0


def end_to_end(units):
    return {"run_s": statistics.median(u.seconds for u in units),
            "paths_per_s": sum(u.paths for u in units)
            / sum(u.seconds for u in units)}


def per_layer(plain, traced, tracer):
    n = len(traced)
    self_s, calls = tracer.layer_totals()
    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.self_s"] = self_s.get(layer, 0.0) / n
        out[f"{layer}.calls"] = calls.get(layer, 0) / n
    out["bench.self_s"] = self_s.get("bench", 0.0) / n
    for name, total in tracer.counters.items():
        out[name] = total / n
    c = tracer.counters
    out["asymptotics.accept_ratio"] = (
        c["asymptotics.retained"] / c["asymptotics.n_sims"]
        if c["asymptotics.n_sims"] else 0.0)
    out["traced_run_s"] = _mean(u.seconds for u in traced)
    out["trace_overhead_s"] = out["traced_run_s"] - _mean(
        u.seconds for u in plain)
    out["var_x_s"] = _mean(u.var_x_s for u in plain)
    out["ci_var_x_s"] = _mean(u.ci_var_x_s for u in plain)
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    out_dir = ROOT / ".bench_out" / f"{args.workload}-{os.getpid()}"
    out_dir.parent.mkdir(exist_ok=True)
    wl = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    if args.trace:
        warm = wl.unit(0)
        tracer = tracing.Tracer()
        plain, traced = run_pairs(wl, args.seconds - warm.seconds, 1, tracer)
        units = [warm] + plain + traced
        tracer.dump(ROOT / ".bench_out" /
                    f"trace-{args.workload}-seed{args.seed}.jsonl.gz")
        metrics = per_layer(plain, traced, tracer)
    else:
        units = run_for(wl, args.seconds)
        metrics = end_to_end(units)

    shutil.rmtree(out_dir, ignore_errors=True)
    failed = sum(bool(u.problems) for u in units)
    for p in [p for u in units for p in u.problems][:10]:
        print(f"check failed: {p}", file=sys.stderr)
    hwm_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    print(json.dumps({"attempted": len(units), "failed": failed,
                      "metrics": metrics, "hwm_mb": hwm_mb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
