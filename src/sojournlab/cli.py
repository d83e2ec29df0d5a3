"""Command line front end.

Every run resolves its options from four layers (defaults, then a JSON
config file, then SOJOURNLAB_* environment variables, then explicit flags),
writes one CSV table plus a run manifest into the output directory, and
exits 0 on success, 2 on a configuration error (`mc.ConfigError`: a setting
that cannot run, such as a non-finite number), 3 on a numeric failure
(`mc.NumericFailure`). Any other exception is an internal error: it
propagates with its traceback, and the console script exits 1.
A recorded manifest can be replayed with --from-manifest; everything the
rerun writes is byte-identical except the manifest's wall_time_s field,
and the worker count never changes any output byte.
"""

import argparse
import csv
import json
import math
import os
import secrets
import sys
import time

from . import __version__, mc
from .mc import ConfigError
from .asymptotics import (ExperimentSettings, conditional_sojourn_cdf,
                          double_sum_diagnostic, scaling_function,
                          target_curve)
from .berman import (brownian_sup_oracle, estimate_berman_1d,
                     estimate_berman_1d_limit, estimate_berman_2d,
                     estimate_bhat, parabola_constant_closed_form)
from .gaussim import (Chi, DriftSpec, Queue, ScaledVariance2D,
                      StationaryExp1D, StationaryExp2D)

ENV_PREFIX = "SOJOURNLAB_"
MANIFEST_SCHEMA = "sojournlab-manifest-v1"
MANIFEST_NAME = "run_manifest.json"
BOOL_SPELLINGS = {"1": True, "true": True, "yes": True, "on": True,
                  "0": False, "false": False, "no": False, "off": False}
SETTINGS = ExperimentSettings()  # the defaults of the _setting options


class Opt:
    """One resolvable option: CLI flag, config key, and env variable."""

    def __init__(self, dest, typ, default, help, choices=None):
        self.dest = dest
        self.typ = typ
        self.default = default
        self.help = help
        self.choices = choices

    def add_to(self, parser):
        name = "--" + self.dest.replace("_", "-")
        if self.typ is bool:
            parser.add_argument(name, dest=self.dest, action="store_true",
                                default=argparse.SUPPRESS, help=self.help)
        else:
            parser.add_argument(name, dest=self.dest, type=self.typ,
                                choices=self.choices,
                                default=argparse.SUPPRESS, help=self.help)

    def coerce(self, raw, source):
        """raw as this option's value; a ConfigError names the source of a
        value that does not convert, is not finite or is not a choice."""
        if self.typ is bool:
            val = raw if isinstance(raw, bool) else BOOL_SPELLINGS.get(
                str(raw).strip().lower())
            if val is None:
                raise ConfigError(f"bad value {raw!r} for {source}")
            return val
        if raw is None and self.default is None:
            return None
        try:
            # an int option takes no bool and no fractional or non-finite float
            if self.typ is int and (isinstance(raw, bool) or isinstance(
                    raw, float) and not raw.is_integer()):
                raise ValueError
            val = self.typ(raw)
        except (TypeError, ValueError):
            val = None
        if val is None or self.typ is float and not math.isfinite(val) \
                or self.choices and val not in self.choices:
            raise ConfigError(f"bad value {raw!r} for {source}")
        return val


def _setting(field, typ, help):
    """The option for ExperimentSettings.<field>, named in lower case."""
    return Opt(field.lower(), typ, getattr(SETTINGS, field), help)


SEMANTIC_GLOBALS = [
    Opt("seed", int, None, "base RNG seed; drawn once and recorded if omitted"),
]

SUBCOMMAND_OPTS = {
    "estimate-constant": [
        Opt("family", str, "plain-1d", "estimator family",
            choices=["plain-1d", "limit-1d", "pickands", "plain-2d", "bhat"]),
        Opt("alpha", float, 1.0, "roughness exponent of axis 1"),
        Opt("alpha2", float, 1.0, "roughness exponent of axis 2 (2D families)"),
        Opt("alphas", str, "1,1", "comma list of exponents (bhat family)"),
        Opt("x", float, 0.0, "sojourn size"),
        Opt("interval", str, "0,1", "grid interval lo,hi (plain-1d)"),
        Opt("n_grid", int, 4097, "grid points on the interval (plain-1d)"),
        Opt("drift_b", float, 0.0, "drift coefficient of axis 1"),
        Opt("drift_beta", float, 1.0, "drift exponent of axis 1"),
        Opt("drift2_b", float, 0.0, "drift coefficient of axis 2"),
        Opt("drift2_beta", float, 1.0, "drift exponent of axis 2"),
        Opt("rule_s", float, 8.0, "2D domain size S: each axis spans [0, S] "
            "or [-S, S] by its drift"),
        Opt("n_grid_axis", int, 129, "grid points per 2D axis"),
        Opt("s_schedule", str, "4,8,16", "comma list of S values (limit fits)"),
        Opt("delta", float, 1.0 / 64, "grid step for limit estimators"),
        Opt("method", str, "tilted", "limit estimator kernel",
            choices=["tilted", "plain"]),
        Opt("n1", float, 2.0, "first-axis window length (bhat)"),
        Opt("delta1", float, 1.0 / 64, "first-axis grid step (bhat)"),
        Opt("delta_rest", float, 1.0 / 8, "remaining-axis skeleton step (bhat)"),
        Opt("n_samples", int, 100_000, "Monte Carlo sample count"),
        Opt("chunk_size", int, mc.DEFAULT_CHUNK, "samples per RNG chunk"),
        Opt("refine_check", bool, False, "rerun at half step and compare"),
    ],
    "run-experiment": [
        Opt("family", str, "stationary-1d", "process family",
            choices=["stationary-1d", "stationary-2d", "one-point-2d",
                     "chi", "queue"]),
        Opt("u", str, "2.5,3.0,3.5", "comma list of threshold levels"),
        Opt("x_grid", str, "0,0.5,1,1.5,2,3,4", "comma list of sojourn sizes"),
        Opt("a", float, 1.0, "axis-1 correlation scale"),
        Opt("a2", float, 1.0, "axis-2 correlation scale"),
        Opt("alpha", float, 1.0, "axis-1 correlation exponent"),
        Opt("alpha2", float, 1.0, "axis-2 correlation exponent"),
        Opt("b1", float, 1.0, "axis-1 variance-decay coefficient (one-point)"),
        Opt("b2", float, 1.0, "axis-2 variance-decay coefficient (one-point)"),
        Opt("beta1", float, 2.0, "axis-1 variance-decay exponent (one-point)"),
        Opt("beta2", float, 2.0, "axis-2 variance-decay exponent (one-point)"),
        Opt("chi_m", int, 1, "chi degree"),
        Opt("c", float, 1.0, "queue service rate"),
        Opt("n_conditioned", int, 1000, "effective conditioned sample size "
            "per level (sum w)^2 / sum w^2; the kept count where w is 0/1"),
        _setting("domain_T", float, "observation window, axis 1"),
        _setting("domain_T2", float, "observation window, axis 2"),
        _setting("points_per_v", int, "grid nodes per local-scale unit"),
        _setting("sim_batch", int, "simulated replicates per chunk"),
        _setting("max_sims", int, "cap on simulated replicates per level"),
        _setting("target_S", float, "domain for 1D long-run target curves"),
        _setting("target_S_2d", float, "domain for 2D target curves"),
        _setting("target_samples", int, "samples for target curves"),
        _setting("queue_T", float, "fixed queue window in v(u) units; omit "
                 "for the long-window regime"),
        _setting("queue_M", float, "long-window length multiplier (queue)"),
    ],
    "double-sum": [
        Opt("family", str, "stationary-1d", "process family",
            choices=["stationary-1d", "stationary-2d"]),
        Opt("u", float, 3.0, "threshold level"),
        Opt("n_schedule", str, "2,4,8", "comma list of block sizes"),
        Opt("n_sims", int, 1_000_000, "simulated replicates"),
        Opt("independent_blocks", bool, False,
            "simulate each block independently (independence control)"),
        Opt("a", float, 1.0, "axis-1 correlation scale"),
        Opt("a2", float, 1.0, "axis-2 correlation scale"),
        Opt("alpha", float, 1.0, "axis-1 correlation exponent"),
        Opt("alpha2", float, 1.0, "axis-2 correlation exponent"),
        _setting("domain_T", float, "observation window, axis 1"),
        _setting("domain_T2", float, "observation window, axis 2"),
        _setting("points_per_v", int, "grid nodes per local-scale unit"),
        _setting("sim_batch", int, "simulated replicates per chunk"),
    ],
    "oracle": [
        Opt("family", str, "parabola-sojourn", "closed-form family",
            choices=["parabola-sojourn", "brownian-sup"]),
        Opt("alpha", float, 2.0, "roughness exponent the caller expects"),
        Opt("x", str, "0", "comma list of sojourn sizes (parabola-sojourn)"),
        Opt("s", str, "1", "comma list of interval lengths"),
    ],
    "convergence": [
        Opt("alpha", float, 1.0, "roughness exponent"),
        Opt("x", float, 0.0, "sojourn size"),
        Opt("s_schedule", str, "4,8,16", "comma list of S values"),
        Opt("delta", float, 1.0 / 64, "grid step"),
        Opt("method", str, "tilted", "per-S estimator kernel",
            choices=["tilted", "plain"]),
        Opt("n_samples", int, 100_000, "Monte Carlo samples per S"),
    ],
}

CSV_NAMES = {
    "estimate-constant": "constants.csv",
    "run-experiment": "experiment.csv",
    "double-sum": "double_sum.csv",
    "oracle": "oracle.csv",
    "convergence": "convergence.csv",
}


def _floats(text):
    try:
        vals = [float(p) for p in str(text).split(",") if p.strip() != ""]
    except ValueError:
        raise ConfigError(f"expected a comma-separated number list, got {text!r}")
    if not vals:
        raise ConfigError(f"empty number list {text!r}")
    if not all(map(math.isfinite, vals)):
        raise ConfigError(f"non-finite number in {text!r}")
    return vals


def _fmt(v):
    if isinstance(v, str):
        return v
    if v is None:
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.12g}"


def _write_csv(path, schema, header, rows):
    with open(path, "w", newline="") as fh:
        fh.write(f"# {schema}\n")
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])


def _drift(b, beta):
    return DriftSpec(b, beta) if b else DriftSpec()


# ---------------------------------------------------------------------------
# per-subcommand runners: each returns (header, rows, flags, stream_ids)

def _run_estimate_constant(cfg, workers):
    fam = cfg["family"]
    seed, n, x = cfg["seed"], cfg["n_samples"], cfg["x"]
    run = {"workers": workers, "chunk_size": cfg["chunk_size"]}
    if fam == "plain-1d":
        interval = _floats(cfg["interval"])
        if len(interval) != 2:
            raise ConfigError("--interval needs exactly lo,hi")
        est = estimate_berman_1d(cfg["alpha"],
                                 _drift(cfg["drift_b"], cfg["drift_beta"]),
                                 x, tuple(interval), n_grid=cfg["n_grid"],
                                 n_samples=n, seed=seed,
                                 refine_check=cfg["refine_check"], **run)
        routes = [("plain", est, interval[1] - interval[0])]
    elif fam in ("limit-1d", "pickands"):
        sched = _floats(cfg["s_schedule"])
        x = 0.0 if fam == "pickands" else x
        est = estimate_berman_1d_limit(cfg["alpha"], x, tuple(sched), n, seed,
                                       delta=cfg["delta"], method=cfg["method"],
                                       **run)
        routes = [("limit", est, sched[-1])]
    elif fam == "plain-2d":
        est = estimate_berman_2d(cfg["alpha"], cfg["alpha2"],
                                 _drift(cfg["drift_b"], cfg["drift_beta"]),
                                 _drift(cfg["drift2_b"], cfg["drift2_beta"]),
                                 x, cfg["rule_s"], n_samples=n, seed=seed,
                                 n_grid_axis=cfg["n_grid_axis"], **run)
        routes = [("plain-2d", est, cfg["rule_s"])]
    else:  # bhat
        direct, product = estimate_bhat(_floats(cfg["alphas"]), x, cfg["n1"],
                                        tuple(_floats(cfg["s_schedule"])), n,
                                        seed, delta1=cfg["delta1"],
                                        delta_rest=cfg["delta_rest"], **run)
        routes = [("direct", direct, cfg["n1"]),
                  ("product", product, cfg["n1"])]
    header = ("route", "x", "value", "std_err", "S", "delta", "flags")
    rows = [(route, x, est.value, est.std_err, S, est.grid_step,
             ";".join(est.flags)) for route, est, S in routes]
    flags = [fl for _, est, _ in routes for fl in est.flags]
    streams = {route: est.metadata["stream_ids"] for route, est, _ in routes}
    return header, rows, flags, streams


def _experiment_family(cfg):
    """The gaussim spec that the experiment family simulates."""
    fam = cfg["family"]
    if fam in ("stationary-1d", "chi"):
        base = StationaryExp1D(cfg["a"], cfg["alpha"])
        return base if fam == "stationary-1d" else Chi(cfg["chi_m"], base)
    if fam in ("stationary-2d", "one-point-2d"):
        base = StationaryExp2D(cfg["a"], cfg["a2"], cfg["alpha"],
                               cfg["alpha2"])
        return base if fam == "stationary-2d" else ScaledVariance2D(
            base, cfg["b1"], cfg["b2"], cfg["beta1"], cfg["beta2"])
    return Queue(cfg["alpha"], cfg["c"])


def _experiment_settings(cfg):
    """ExperimentSettings from cfg's _setting options; the rest default."""
    return ExperimentSettings(**{f: cfg[f.lower()] for f in vars(SETTINGS)
                                 if f.lower() in cfg})


def _run_experiment(cfg, workers):
    family = _experiment_family(cfg)
    settings = _experiment_settings(cfg)
    levels = _floats(cfg["u"])
    xg = _floats(cfg["x_grid"])
    for u in levels:  # refuse a bad level before the target curve is drawn
        scaling_function(family, u)
    seeds = [mc.derive_seed(cfg["seed"], 1000 + i) for i in range(len(levels))]
    # the target does not depend on u: one curve, from the first level's seed
    target = target_curve(family, settings, xg, mc.derive_seed(seeds[0], 0x7A),
                          workers=workers)
    header = ("u", "x", "ratio_hat", "ci_lo", "ci_hi", "target", "target_se")
    rows, flags, streams = [], [], {"target": target.stream_ids}
    for u, seed_u in zip(levels, seeds):
        res = conditional_sojourn_cdf(family, settings, u, xg,
                                      n_target_conditioned=cfg["n_conditioned"],
                                      seed=seed_u, workers=workers,
                                      target=target)
        streams[f"u={u:g}"] = res.metadata["stream_ids"]
        for j, x in enumerate(res.x_grid):
            rows.append((u, x, res.ratio_hat[j], res.ci_lo[j], res.ci_hi[j],
                         res.target_curve[j], res.target_se[j]))
        for fl in res.flags:
            note = f"u={u:g}: {fl}"
            if fl == "low-confidence":
                note += f" (n_conditioned={res.n_conditioned})"
            if fl == "excluded-near-horizon":
                dropped = ",".join(f"{x:g}"
                                   for x in res.metadata["excluded_x"])
                note += (f" (x rows {dropped} are within one grid step of "
                         "the window end and have no stable limit)")
            flags.append(note)
    return header, rows, flags, streams


def _run_double_sum(cfg, workers):
    family = _experiment_family(cfg)
    settings = _experiment_settings(cfg)
    sched = _floats(cfg["n_schedule"])
    res = double_sum_diagnostic(family, cfg["u"], tuple(sched), cfg["seed"],
                                settings=settings, n_sims=cfg["n_sims"],
                                independent_blocks=cfg["independent_blocks"],
                                workers=workers)
    header = ("n", "ratio", "std_err", "joint", "single", "blocks")
    rows = [(res.n_schedule[i], res.ratios[i], res.std_errs[i],
             res.joint_counts[i], res.single_counts[i], res.n_blocks[i])
            for i in range(len(res.n_schedule))]
    return header, rows, [], {"main": res.metadata["stream_ids"]}


def _run_oracle(cfg, workers):
    fam = cfg["family"]
    header = ("x", "S", "value")
    if fam == "parabola-sojourn":
        if cfg["alpha"] != 2.0:
            raise ConfigError(
                "no closed-form oracle; use --family brownian-sup checks")
        rows = [(x, S, parabola_constant_closed_form(x, S))
                for S in _floats(cfg["s"]) for x in _floats(cfg["x"])]
        return header, rows, [], {}
    if any(x != 0.0 for x in _floats(cfg["x"])):  # brownian-sup
        raise ConfigError("the brownian-sup oracle covers x = 0 only")
    rows = [(0.0, S, brownian_sup_oracle(S)) for S in _floats(cfg["s"])]
    return header, rows, [], {}


def _run_convergence(cfg, workers):
    est = estimate_berman_1d_limit(cfg["alpha"], cfg["x"],
                                   tuple(_floats(cfg["s_schedule"])),
                                   cfg["n_samples"], cfg["seed"],
                                   delta=cfg["delta"], method=cfg["method"],
                                   workers=workers)
    fit = (est.value, est.std_err, est.metadata["intercept"],
           est.metadata["intercept_se"])
    header = ("S", "value", "std_err", "slope", "slope_se", "intercept",
              "intercept_se")
    rows = [(S, v, se) + fit for S, v, se in est.metadata["per_S"]]
    return header, rows, list(est.flags), {"limit": est.metadata["stream_ids"]}


RUNNERS = {
    "estimate-constant": _run_estimate_constant,
    "run-experiment": _run_experiment,
    "double-sum": _run_double_sum,
    "oracle": _run_oracle,
    "convergence": _run_convergence,
}


# ---------------------------------------------------------------------------
# option resolution

def build_parser():
    parser = argparse.ArgumentParser(
        prog="sojournlab",
        description="Sojourn-time constants and high-level experiments for "
                    "Gaussian-related fields.")
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name, opts in SUBCOMMAND_OPTS.items():
        sp = subs.add_parser(name, help=f"run the {name} table")
        sp.add_argument("--config", default=None,
                        help="JSON file with option defaults")
        sp.add_argument("--from-manifest", default=None,
                        help="replay the configuration of a recorded manifest")
        sp.add_argument("--workers", type=int, default=1,
                        help="worker processes (>= 1) for the Monte Carlo "
                             "chunks of estimate-constant, convergence, "
                             "double-sum and run-experiment; no effect on "
                             "oracle. The 2-D lattice routes run fastest at "
                             "1 unless BLAS is limited to one thread")
        sp.add_argument("--out", default="sojournlab-out",
                        help="output directory")
        for opt in SEMANTIC_GLOBALS + opts:
            opt.add_to(sp)
    return parser


def resolve_config(sub, ns):
    """Layered option resolution: defaults, config file, env, flags."""
    opts = {o.dest: o for o in SUBCOMMAND_OPTS[sub] + SEMANTIC_GLOBALS}
    cfg = {d: o.default for d, o in opts.items()}

    if ns.config and ns.from_manifest:
        raise ConfigError("--config and --from-manifest are mutually exclusive")
    file_layer = {}
    if ns.from_manifest:
        try:
            with open(ns.from_manifest) as fh:
                manifest = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read manifest: {e}")
        recorded = manifest.get("subcommand") \
            if isinstance(manifest, dict) else None
        if recorded != sub:
            raise ConfigError(
                f"manifest records subcommand {recorded!r}, not {sub!r}")
        file_layer = manifest.get("config", {})
    elif ns.config:
        try:
            with open(ns.config) as fh:
                file_layer = json.load(fh)
        except (OSError, json.JSONDecodeError) as e:
            raise ConfigError(f"cannot read config: {e}")
    if not isinstance(file_layer, dict):
        raise ConfigError("the configuration must be a JSON object")
    for key, val in file_layer.items():
        if key not in opts:
            raise ConfigError(f"unknown config key {key!r} for {sub}")
        cfg[key] = opts[key].coerce(val, f"config key {key!r}")

    for dest, opt in opts.items():
        raw = os.environ.get(ENV_PREFIX + dest.upper())
        if raw is not None:
            cfg[dest] = opt.coerce(raw, ENV_PREFIX + dest.upper())
        if hasattr(ns, dest):
            cfg[dest] = opt.coerce(getattr(ns, dest),
                                   "--" + dest.replace("_", "-"))

    if cfg["seed"] is None:
        cfg["seed"] = secrets.randbits(63)
    elif cfg["seed"] < 0:
        raise ConfigError(f"the seed must be >= 0, got {cfg['seed']}")
    return cfg


def main(argv=None):
    parser = build_parser()
    ns = parser.parse_args(argv)
    sub = ns.subcommand
    try:
        if ns.workers < 1:
            raise ConfigError(f"--workers must be >= 1, got {ns.workers}")
        cfg = resolve_config(sub, ns)
        t0 = time.perf_counter()
        header, rows, flags, streams = RUNNERS[sub](cfg, ns.workers)
        elapsed = time.perf_counter() - t0
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except mc.NumericFailure as e:
        print(f"numeric failure: {e}", file=sys.stderr)
        return 3

    os.makedirs(ns.out, exist_ok=True)
    csv_name = CSV_NAMES[sub]
    schema = f"sojournlab-{csv_name[:-4].replace('_', '-')}-v1"
    _write_csv(os.path.join(ns.out, csv_name), schema, header, rows)
    manifest = {
        "schema": MANIFEST_SCHEMA,
        "version": __version__,
        "subcommand": sub,
        "config": cfg,
        "outputs": {"table": csv_name},
        "stream_ids": streams,
        "flags": flags,
        "wall_time_s": round(elapsed, 3),
    }
    with open(os.path.join(ns.out, MANIFEST_NAME), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    for fl in flags:
        print(f"note: {fl}", file=sys.stderr)
    print(os.path.join(ns.out, csv_name))
    return 0


if __name__ == "__main__":
    sys.exit(main())
