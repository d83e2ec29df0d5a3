"""Print a SHA-256 digest of every CLI table in a fixed set of runs.

Runs the README's CLI examples, the manifest-replay configurations of
acceptance criterion 9, the argv of both benchmark workloads, a few runs
that reach the remaining path synthesis routes, estimator branches and
experiment families, and worker-count pairs whose digests must agree,
each at a fixed seed, through `sojournlab.cli.main`
into a temporary directory. For each run it prints one line,
`<sha256 of the table>  <argv>`. Two checkouts
that print the same lines write the same tables byte for byte, so a change
that should only restructure code is checked by diffing the output:

    python3 tools/table_digests.py > after.txt
    (in the other checkout) python3 tools/table_digests.py > before.txt
    diff before.txt after.txt

A run that exits nonzero prints `exit <code>` instead of a digest, and a
table with a nan or inf cell gets `nonfinite ` in front of its line. A
worker-count run whose digest differs from its partner's (the chi run from
the README, or the other queue run) adds a `workers mismatch  <argv>` line
at the end. Any of these makes the script exit 1.

Standard library only; the package is imported from the `src` directory
next to this file. The whole set takes a few minutes on two cores.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                os.pardir, "src"))

from sojournlab import cli  # noqa: E402

README_EXAMPLES = [
    "oracle --family parabola-sojourn --x 0,0.2,0.5 --s 1",
    "estimate-constant --family plain-1d --alpha 2 --x 0.2 --n-samples 100000 "
    "--seed 7",
    "estimate-constant --family bhat --alphas 1,2 --x 0.5 --n1 2 --seed 24",
    "run-experiment --family chi --chi-m 2 --u 2.5,3.0,3.5 --seed 3",
    "double-sum --u 3 --n-schedule 2,4,8 --domain-t 2 --seed 5",
    "convergence --alpha 2 --s-schedule 4,8,16 --seed 0",
]

# tests/test_acceptance.py::test_manifest_replay_reproduces_every_table
CRITERION_9 = [
    "oracle --x 0,0.5 --s 1,2",
    "estimate-constant --alpha 1.5 --x 0.1 --n-grid 129 --n-samples 4000 "
    "--seed 11",
    "convergence --alpha 2.0 --s-schedule 2,4,8 --n-samples 2000 --seed 9",
    "double-sum --u 2.5 --n-schedule 2,4 --n-sims 20000 --domain-t 2.0 "
    "--seed 5",
    "run-experiment --u 2.0 --x-grid 0,1,2 --n-conditioned 300 "
    "--sim-batch 5000 --max-sims 100000 --target-samples 3000 --seed 2",
]

# bench/workloads.py, one unit each at a fixed seed
BENCHMARK = [
    "estimate-constant --family plain-1d --alpha 1.5 --x 0.2 --interval 0,1 "
    "--n-grid 4097 --workers 1 --n-samples 12288 --seed 1",
    "run-experiment --family stationary-1d --u 2.5,3.0,3.5 --workers 2 "
    "--n-conditioned 800 --target-samples 4096 --seed 1",
]

# path synthesis routes the runs above miss: an interior pin, the tilted
# window, a 2D lattice, the queue paths, the exact Brownian-bridge window
# sup at alpha = 1 and the alpha = 1 fBm of a plain interval run
SYNTHESIS = [
    "estimate-constant --family plain-1d --alpha 1.5 --x 0.3 --interval=-1,1 "
    "--n-grid 257 --n-samples 4000 --seed 4",
    "estimate-constant --family limit-1d --alpha 1.5 --x 0.2 --s-schedule "
    "2,4,8 --n-samples 2000 --seed 6",
    "estimate-constant --family plain-2d --alpha 1.5 --alpha2 0.5 --x 0.2 "
    "--n-grid-axis 65 --n-samples 2000 --seed 8",
    "run-experiment --family queue --alpha 1.5 --u 1.5 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 2000 --max-sims 200000 "
    "--target-samples 2000 --seed 10",
    "estimate-constant --family pickands --alpha 1 --s-schedule 2,4,8 "
    "--n-samples 2000 --seed 26",
    "estimate-constant --family plain-1d --alpha 1 --x 0.2 --n-grid 257 "
    "--n-samples 4000 --seed 27",
]

# estimator branches the runs above miss: 2D axis sides (confining, steep
# and degenerate drifts, an even point count on a two-sided axis), a
# single-alpha bhat, a refinement pass, plain limit kernels (one with x in
# the last grid step past its first S) and the 2D experiment target curves
BRANCHES = [
    "estimate-constant --family plain-2d --alpha 1.5 --alpha2 1 --drift-b 1 "
    "--drift-beta 1 --drift2-b 0.5 --drift2-beta 2 --n-grid-axis 65 "
    "--n-samples 2000 --seed 12",
    "estimate-constant --family plain-2d --alpha 0 --drift-b 1 --drift-beta 2 "
    "--n-grid-axis 64 --n-samples 2000 --seed 13",
    "estimate-constant --family bhat --alphas 1.5 --x 0.2 --n1 2 "
    "--n-samples 4000 --seed 4",
    "estimate-constant --alpha 1.5 --x 0.1 --n-grid 129 --n-samples 4000 "
    "--refine-check --seed 11",
    "estimate-constant --family limit-1d --method plain --alpha 1.5 --x 0.2 "
    "--s-schedule 1,2,3 --n-samples 20000 --seed 14",
    "estimate-constant --family limit-1d --method plain --alpha 1.5 --x 1.005 "
    "--s-schedule 1,2,3 --n-samples 2000 --seed 19",
    "convergence --method plain --alpha 1.5 --s-schedule 1,2,3 "
    "--n-samples 20000 --seed 15",
    "run-experiment --family stationary-2d --u 2.5 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 2000 --max-sims 100000 "
    "--target-samples 2000 --seed 16",
    "run-experiment --family one-point-2d --u 2.5 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 2000 --max-sims 100000 "
    "--target-samples 2000 --seed 17",
    "run-experiment --family one-point-2d --alpha 1 --beta1 1 --alpha2 2 "
    "--beta2 1 --u 2.5 --x-grid 0,0.5,1 --n-conditioned 300 "
    "--sim-batch 2000 --max-sims 100000 --target-samples 2000 --seed 18",
]

# experiment family routes the runs above miss: the 2-D double sum, the
# independent-block control, the fixed-window queue target curve and a queue
# level below 1, where the lookahead keeps its u >= 1 floor
FAMILIES = [
    "double-sum --family stationary-2d --u 2.5 --n-schedule 2,4 --n-sims 4000 "
    "--sim-batch 2000 --domain-t 2 --domain-t2 2 --seed 20",
    "double-sum --u 2.5 --n-schedule 2,4 --n-sims 4000 --domain-t 2 "
    "--independent-blocks --seed 21",
    "run-experiment --family queue --u 2.0 --x-grid 0,0.5,1,2.5 --queue-t 2 "
    "--n-conditioned 300 --sim-batch 5000 --max-sims 100000 "
    "--target-samples 3000 --seed 22",
    "run-experiment --family queue --u 0.8 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 2000 --max-sims 100000 "
    "--target-samples 2000 --seed 23",
]

# the chi README run again at --workers 2, and a multi-chunk queue run at
# --workers 1 and 2: the worker count never moves a byte, so the chi digest
# must equal that of the README line and the two queue digests each other
WORKERS = [
    "run-experiment --family chi --chi-m 2 --u 2.5,3.0,3.5 --seed 3 "
    "--workers 2",
    "run-experiment --family queue --u 1.5,2.0 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 512 --target-samples 2000 --seed 25 "
    "--workers 1",
    "run-experiment --family queue --u 1.5,2.0 --x-grid 0,0.5,1 "
    "--n-conditioned 300 --sim-batch 512 --target-samples 2000 --seed 25 "
    "--workers 2",
]

RUNS = (README_EXAMPLES + CRITERION_9 + BENCHMARK + SYNTHESIS + BRANCHES
        + FAMILIES + WORKERS)

# runs that differ only in --workers and so must print the same digest
SAME_TABLE = [(README_EXAMPLES[3], WORKERS[0]), (WORKERS[1], WORKERS[2])]


def table_digest(argv, out):
    """(exit code, sha256 hex of the table, whether a cell is nan or inf) of
    one CLI run; the digest is None when the run fails."""
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv + ["--out", out])
    if rc != 0:
        return rc, None, False
    with open(os.path.join(out, cli.MANIFEST_NAME)) as fh:
        table = os.path.join(out, json.load(fh)["outputs"]["table"])
    with open(table, "rb") as fh:
        data = fh.read()
    cells = [c for row in csv.reader(io.StringIO(data.decode())) for c in row]
    return rc, hashlib.sha256(data).hexdigest(), not all(map(_finite, cells))


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return True  # text: the schema line, headers, routes, flags


def main():
    failed = 0
    digests = {}
    with tempfile.TemporaryDirectory() as tmp:
        for i, line in enumerate(RUNS):
            rc, digest, nonfinite = table_digest(line.split(),
                                                 os.path.join(tmp, str(i)))
            if digest is None:
                digest = f"exit {rc}"
            elif nonfinite:
                digest = "nonfinite " + digest
            failed += rc != 0 or nonfinite
            digests[line] = digest
            print(f"{digest}  {line}", flush=True)
    for a, b in SAME_TABLE:
        if digests[a] != digests[b]:
            failed += 1
            print(f"workers mismatch  {b}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
