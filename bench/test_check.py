"""Tests of the benchmark's own checks and metric lists.

    python3 -m pytest bench/test_check.py
"""

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from sojournlab import cli  # noqa: E402

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402

REF = wl.load_reference()


def test_flags_non_finite_std_err(tmp_path):
    """One chunk gives batch means a single batch, so the table's std_err
    is NaN; the constant-fbm check must flag it."""
    rc = cli.main(wl.CONSTANT_ARGS + ["--n-samples", "4000", "--seed", "11",
                                      "--out", str(tmp_path)])
    assert rc == 0
    rows = wl.read_table(tmp_path / "constants.csv")
    problems = wl.check_constant(rows, REF["constant-fbm"], 4000)
    assert math.isnan(float(rows[0]["std_err"]))
    assert problems and "non-finite" in problems[0]


def test_constant_check_flags_a_value_far_from_reference():
    ref = REF["constant-fbm"]
    se = ref["sample_sd"] / math.sqrt(wl.CONSTANT_SAMPLES)
    good = [{"value": str(ref["value"] + se), "std_err": str(se)}]
    bad = [{"value": str(ref["value"] + 10 * se), "std_err": str(se)}]
    assert wl.check_constant(good, ref, wl.CONSTANT_SAMPLES) == []
    assert wl.check_constant(bad, ref, wl.CONSTANT_SAMPLES)


def _experiment_rows(ref):
    rows = []
    for u, ref_rows in ref["rows"].items():
        for r in ref_rows:
            half = 1.96 * max(r["se"], 1e-3)
            rows.append({"u": u, "x": str(r["x"]),
                         "ratio_hat": str(r["ratio_hat"]),
                         "ci_lo": str(max(0.0, r["ratio_hat"] - half)),
                         "ci_hi": str(min(1.0, r["ratio_hat"] + half)),
                         "target": "0.5", "target_se": "0.001"})
    return rows


def test_experiment_check_flags_broken_invariants():
    ref = REF["experiment-stationary"]
    rows = _experiment_rows(ref)
    assert wl.check_experiment(rows, [], ref) == []
    assert wl.check_experiment(rows, ["u=3.5: low-confidence (n=10)"], ref)
    increasing = [dict(r) for r in rows]
    increasing[-1]["ratio_hat"] = increasing[-1]["ci_hi"] = "0.9"
    assert any("increases" in p for p in
               wl.check_experiment(increasing, [], ref))
    nan = [dict(r) for r in rows]
    nan[3]["target_se"] = "nan"
    assert any("non-finite" in p for p in wl.check_experiment(nan, [], ref))


def test_metric_names_match_benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    unit = wl.Unit(1.0, 1)
    names = worker.per_layer([unit], [unit], tracing.Tracer())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        n: run.per_layer_unit(n) for n in names}
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
