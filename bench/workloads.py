"""The benchmark's workloads and their correctness checks.

Each workload is set up from the benchmark's seed alone and then runs
fixed-work units: one in-process `cli.main` call each. `unit(i, tracer)`
runs unit i, times it and checks its outputs. A unit fails by raising, by a
nonzero exit code or by failing its workload's check.

Sample budgets are fixed so that a 30-second run holds several units. They
are not chosen around any known defect.
"""

import contextlib
import csv
import hashlib
import json
import math
import os
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from sojournlab import cli

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

CONSTANT_ARGS = ["estimate-constant", "--family", "plain-1d", "--alpha", "1.5",
                 "--x", "0.2", "--interval", "0,1", "--n-grid", "4097",
                 "--workers", "1"]
CONSTANT_SAMPLES = 3 * 4096          # three default chunks per call
EXPERIMENT_ARGS = ["run-experiment", "--family", "stationary-1d",
                   "--u", "2.5,3.0,3.5", "--workers", "2"]
EXPERIMENT_CONDITIONED = 800         # per level; the CLI default is 1000
EXPERIMENT_TARGET_SAMPLES = 4096     # the CLI default is 100000
EXPERIMENT_X = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0)   # the CLI default grid

Z_REFERENCE = 4.0    # combined-SE distance allowed from a recorded reference


def derive_seed(seed, *tags):
    """63-bit seed for one input of the run, a pure function of its tags."""
    text = ":".join(str(t) for t in (seed,) + tags)
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big") >> 1


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def read_table(path):
    """Rows of a sojournlab CSV table (schema comment line skipped)."""
    with open(path, newline="") as fh:
        fh.readline()
        return list(csv.DictReader(fh))


@dataclass
class Unit:
    seconds: float
    paths: int
    problems: list = field(default_factory=list)
    var_x_s: float | None = None
    ci_var_x_s: float | None = None


def _root(tracer):
    return tracer.span("bench.unit", "bench") if tracer else \
        contextlib.nullcontext()


# ---------------------------------------------------------------------------
# checks: each returns a list of problems, empty when the output is correct

def check_constant(rows, ref, n_samples):
    """One estimate-constant table against the recorded reference.

    The value must lie within Z_REFERENCE combined SE of the reference. The
    call's SE is floored at the reference's per-sample SD over sqrt(n):
    batch means over a few chunks can underestimate it by far.
    """
    if len(rows) != 1:
        return [f"expected 1 row, got {len(rows)}"]
    value, se = float(rows[0]["value"]), float(rows[0]["std_err"])
    if not (math.isfinite(value) and math.isfinite(se)):
        return [f"non-finite value or std_err: {value!r}, {se!r}"]
    if se <= 0:
        return [f"std_err {se!r} is not positive"]
    se_call = max(se, ref["sample_sd"] / math.sqrt(n_samples))
    tol = Z_REFERENCE * math.hypot(se_call, ref["std_err"])
    if abs(value - ref["value"]) > tol:
        return [f"value {value:.6g} is {abs(value - ref['value']):.3g} from "
                f"reference {ref['value']:.6g} (tolerance {tol:.3g})"]
    return []


def _ci_se(row):
    return (float(row["ci_hi"]) - float(row["ci_lo"])) / 3.92


def check_experiment(rows, flags, ref):
    """One run-experiment table: invariants, no low-confidence level, and
    every ratio within Z_REFERENCE combined SE of the recorded reference,
    with each SE read from its 95 % interval."""
    problems = [f"flag: {f}" for f in flags if "low-confidence" in f]
    by_u = {}
    for row in rows:
        by_u.setdefault(float(row["u"]), []).append(row)
    for u, ref_rows in ref["rows"].items():
        got = by_u.get(float(u), [])
        xs = tuple(float(r["x"]) for r in got)
        if xs != EXPERIMENT_X:
            problems.append(f"u={u}: x grid {xs}")
            continue
        ratio = [float(r["ratio_hat"]) for r in got]
        if any(not math.isfinite(float(v)) for r in got for k, v in r.items()
               if k != "u"):
            problems.append(f"u={u}: non-finite entry")
        if ratio[0] != 1.0:
            problems.append(f"u={u}: ratio at x=0 is {ratio[0]}")
        if any(not 0.0 <= r <= 1.0 for r in ratio):
            problems.append(f"u={u}: ratio outside [0, 1]")
        if any(b > a for a, b in zip(ratio, ratio[1:])):
            problems.append(f"u={u}: ratio increases in x")
        for r, row, rr in zip(ratio, got, ref_rows):
            if not float(row["ci_lo"]) <= r <= float(row["ci_hi"]):
                problems.append(f"u={u} x={row['x']}: ratio outside its CI")
            tol = Z_REFERENCE * math.hypot(_ci_se(row), rr["se"])
            if abs(r - rr["ratio_hat"]) > tol:
                problems.append(f"u={u} x={row['x']}: ratio {r:.4g} vs "
                                f"reference {rr['ratio_hat']:.4g} "
                                f"(tolerance {tol:.3g})")
    return problems


# ---------------------------------------------------------------------------
# workloads

class _CliWorkload:
    name = ""
    args = []
    paths = 0

    def __init__(self, seed, out_dir):
        self.seed = seed
        self.out = str(out_dir)
        self.ref = load_reference()[self.name]

    def unit(self, i, tracer=None):
        argv = self.args + ["--seed", str(derive_seed(self.seed, i)),
                            "--out", self.out]
        start = time.perf_counter()
        unit = Unit(0.0, self.paths)
        try:
            with _root(tracer):
                rc = cli.main(argv)
            unit.seconds = time.perf_counter() - start
            unit.problems = [f"exit code {rc}"] if rc != 0 else \
                self.check(unit)
        except Exception:
            unit.seconds = unit.seconds or time.perf_counter() - start
            unit.problems = [traceback.format_exc(limit=3)]
        return unit


class ConstantFbm(_CliWorkload):
    name = "constant-fbm"
    args = CONSTANT_ARGS + ["--n-samples", str(CONSTANT_SAMPLES)]
    paths = CONSTANT_SAMPLES

    def check(self, unit):
        rows = read_table(os.path.join(self.out, "constants.csv"))
        if len(rows) == 1 and math.isfinite(float(rows[0]["std_err"])):
            unit.var_x_s = float(rows[0]["std_err"]) ** 2 * unit.seconds
        return check_constant(rows, self.ref, CONSTANT_SAMPLES)


class ExperimentStationary(_CliWorkload):
    name = "experiment-stationary"
    args = EXPERIMENT_ARGS + [
        "--n-conditioned", str(EXPERIMENT_CONDITIONED),
        "--target-samples", str(EXPERIMENT_TARGET_SAMPLES)]
    paths = EXPERIMENT_CONDITIONED * 3   # conditioned replicates requested

    def check(self, unit):
        rows = read_table(os.path.join(self.out, "experiment.csv"))
        with open(os.path.join(self.out, "run_manifest.json")) as fh:
            flags = json.load(fh)["flags"]
        se2 = [_ci_se(r) ** 2 for r in rows if float(r["x"]) > 0]
        if se2:
            unit.ci_var_x_s = sum(se2) / len(se2) * unit.seconds
        return check_experiment(rows, flags, self.ref)


WORKLOADS = {w.name: w for w in (ConstantFbm, ExperimentStationary)}
