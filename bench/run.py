"""sojournlab benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is constant-fbm, experiment-stationary, or `all` to run each in turn.
Run from anywhere inside a checkout; the benchmark imports sojournlab from
the checkout's `src/` and writes only under `.bench_out/`.

One run:
  1. starts SETUP_PROBES fresh processes that import sojournlab, build the
     workload's inputs and exit; `setup_s` is the median time from process
     start to ready, over those and the measuring process;
  2. starts the measuring process (bench/worker.py), which runs fixed-work
     units for S seconds and checks every output, while this process
     samples the peak memory of its whole process tree, pool workers
     included;
  3. prints each metric with its unit on stderr and, as the last line on
     stdout, one JSON object with `correct`, `attempted`, `failed` and
     `metrics`: the end-to-end metrics with --trace 0, the per-layer
     metrics (from a traced run) with --trace 1.

It exits 1 without a result if a process fails or the checkout holds no
sojournlab sources. See bench/README.md for what each metric means.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("constant-fbm", "experiment-stationary")
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
RUN_GRACE_S = 120      # time beyond --seconds before the run is killed
RSS_POLL_S = 0.1

END_TO_END_UNITS = {
    "setup_s": "s", "run_s": "s", "paths_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_share": "share"}


def per_layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name == "gaussim.bytes_out":
        return "B"
    if name == "asymptotics.accept_ratio":
        return "share"
    return "count"


class BenchError(Exception):
    pass


# ---------------------------------------------------------------------------
# process tree memory

def _descendants(pid):
    children = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out, todo = [], [pid]
    while todo:
        p = todo.pop()
        out.append(p)
        todo.extend(children.get(p, ()))
    return out


def _hwm_mb(pid):
    """Peak resident set (VmHWM) of one live process, in MB."""
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024 / 1e6
    except OSError:
        pass
    return 0.0


class TreePeak(threading.Thread):
    """Largest sum of VmHWM over the live process tree of `pid`."""

    def __init__(self, pid):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak = 0.0
        self.done = threading.Event()

    def run(self):
        while not self.done.wait(RSS_POLL_S):
            total = sum(_hwm_mb(p) for p in _descendants(self.pid))
            self.peak = max(self.peak, total)


# ---------------------------------------------------------------------------
# processes

def _start(argv):
    return subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)


def _stop(proc):
    """Kill the process group if still running and wait for the process."""
    if proc.poll() is None:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    proc.wait()
    proc.stdout.close()


def _wait_ready(proc, start):
    line = proc.stdout.readline()
    if line.strip() != "READY":
        raise BenchError(f"worker did not get ready (exit {proc.poll()})")
    return time.perf_counter() - start


def run_workload(name, seed, seconds, trace):
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", name,
              "--seed", str(seed)]
    setup = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = _start(worker + ["--seconds", "0", "--setup-only"])
        timer = threading.Timer(PROBE_TIMEOUT_S, _stop, (proc,))
        timer.start()
        try:
            setup.append(_wait_ready(proc, start))
            if proc.wait() != 0:
                raise BenchError(f"setup probe exited {proc.returncode}")
        finally:
            timer.cancel()
            _stop(proc)

    start = time.perf_counter()
    proc = _start(worker + ["--seconds", str(seconds), "--trace", str(trace)])
    timer = threading.Timer(seconds + RUN_GRACE_S, _stop, (proc,))
    timer.start()
    peak = TreePeak(proc.pid)
    peak.start()
    try:
        setup.append(_wait_ready(proc, start))
        lines = proc.stdout.read().splitlines()
        if proc.wait() != 0 or not lines:
            raise BenchError(f"worker exited {proc.returncode}")
    finally:
        timer.cancel()
        peak.done.set()
        peak.join()
        _stop(proc)
    raw = json.loads(lines[-1])

    if trace:
        metrics = {k: (v, per_layer_unit(k)) for k, v in raw["metrics"].items()}
    else:
        values = dict(raw["metrics"])
        values["setup_s"] = statistics.median(setup)
        values["peak_rss_mb"] = max(peak.peak, raw["hwm_mb"])
        values["ok_share"] = 1.0 - raw["failed"] / raw["attempted"]
        metrics = {k: (values[k], u) for k, u in END_TO_END_UNITS.items()}
    return {"correct": raw["failed"] == 0, "attempted": raw["attempted"],
            "failed": raw["failed"],
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in metrics.items()}}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "sojournlab" / "__init__.py").is_file():
        print(f"no sojournlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 1
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        try:
            results[name] = run_workload(name, args.seed, args.seconds,
                                         args.trace)
        except BenchError as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        res = results[name]
        print(f"{name}: correct={res['correct']} attempted={res['attempted']}"
              f" failed={res['failed']}", file=sys.stderr)
        for k, m in res["metrics"].items():
            print(f"  {k} = {m['value']:.6g} {m['unit']}", file=sys.stderr)

    if len(names) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": m for n, r in results.items()
                        for k, m in r["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
