import csv
import json
import os

import pytest

from sojournlab import cli, mc


def _run(argv):
    return cli.main(argv)


def _read_csv(path):
    with open(path) as fh:
        schema = fh.readline().strip()
        rows = list(csv.DictReader(fh))
    return schema, rows


def _read_manifest(out):
    with open(os.path.join(out, "run_manifest.json")) as fh:
        return json.load(fh)


def test_oracle_parabola_values(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = _run(["oracle", "--x", "0,0.2,0.5", "--s", "1", "--out", out])
    assert rc == 0
    schema, rows = _read_csv(os.path.join(out, "oracle.csv"))
    assert schema == "# sojournlab-oracle-v1"
    vals = {float(r["x"]): float(r["value"]) for r in rows}
    assert abs(vals[0.0] - 1.56418958355) < 1e-9
    assert abs(vals[0.2] - 1.3343977267) < 1e-9
    assert abs(vals[0.5] - 0.988677142176) < 1e-9
    assert capsys.readouterr().out.strip().endswith("oracle.csv")


def test_oracle_brownian_sup_values(tmp_path):
    out = str(tmp_path / "o")
    rc = _run(["oracle", "--family", "brownian-sup", "--s", "1,4,16",
               "--out", out])
    assert rc == 0
    _, rows = _read_csv(os.path.join(out, "oracle.csv"))
    vals = {float(r["S"]): float(r["value"]) for r in rows}
    assert abs(vals[1.0] - 2.72014110619) < 1e-7
    assert abs(vals[4.0] - 5.94320987627) < 1e-7
    assert abs(vals[16.0] - 17.9992343559) < 1e-7


def test_oracle_rejects_unsupported_requests(tmp_path, capsys):
    out = str(tmp_path / "o")
    rc = _run(["oracle", "--alpha", "1.5", "--out", out])
    assert rc == 2
    assert "no closed-form oracle" in capsys.readouterr().err
    rc = _run(["oracle", "--family", "brownian-sup", "--x", "0,0.5",
               "--out", out])
    assert rc == 2
    assert "x = 0 only" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "oracle.csv"))


def test_estimate_constant_plain_writes_table_and_manifest(tmp_path):
    out = str(tmp_path / "c")
    rc = _run(["estimate-constant", "--alpha", "2.0", "--x", "0.2",
               "--n-grid", "65", "--n-samples", "2000", "--seed", "7",
               "--out", out])
    assert rc == 0
    schema, rows = _read_csv(os.path.join(out, "constants.csv"))
    assert schema == "# sojournlab-constants-v1"
    assert len(rows) == 1
    assert rows[0]["route"] == "plain"
    assert float(rows[0]["value"]) > 0
    man = _read_manifest(out)
    assert man["schema"] == "sojournlab-manifest-v1"
    assert man["subcommand"] == "estimate-constant"
    assert man["config"]["seed"] == 7
    assert man["config"]["n_samples"] == 2000
    # execution-shape knobs are not part of the recorded semantics
    assert "workers" not in man["config"]
    assert "out" not in man["config"]
    assert man["outputs"]["table"] == "constants.csv"
    assert man["stream_ids"]["plain"]


@pytest.mark.parametrize("argv", [
    ["estimate-constant", "--family", "bhat", "--alphas", "1.5", "--x", "0.2",
     "--n1", "2", "--n-samples", "2000", "--seed", "4"],
    ["estimate-constant", "--alpha", "1.5", "--x", "0.1", "--n-grid", "129",
     "--n-samples", "3000", "--chunk-size", "1024", "--refine-check",
     "--seed", "11"],
    ["run-experiment", "--u", "2.0", "--x-grid", "0,1,2",
     "--n-conditioned", "300", "--sim-batch", "5000", "--max-sims", "100000",
     "--target-samples", "3000", "--seed", "2"],
])
def test_manifest_stream_ids_are_the_drawn_substreams(tmp_path, monkeypatch,
                                                       argv):
    """The manifest's stream_ids are the substreams the run drew, in draw
    order: one bhat route drawn once serves both rows, a refinement pass
    adds its own substreams, and an experiment lists its one target curve's
    substreams under `target`, then each level's sampler substreams (a
    pilot pass redraws a prefix of them)."""
    drawn = []
    build = mc.generator

    def recording(seed, *spawn_key):
        key = (int(seed), tuple(int(k) for k in spawn_key))
        if key not in drawn:
            drawn.append(key)
        return build(seed, *spawn_key)

    monkeypatch.setattr(mc, "generator", recording)
    out = str(tmp_path / "s")
    assert _run(argv + ["--out", out]) == 0
    streams = _read_manifest(out)["stream_ids"]
    assert drawn
    listed = []
    for ids in streams.values():
        if ids not in listed:
            listed.append(ids)
    parsed = [(int(seed), tuple(map(int, key)))
              for ids in listed for seed, *key in (sid.split(":")[1:]
                                                   for sid in ids)]
    assert parsed == drawn


@pytest.mark.parametrize("argv", [
    ["--chunk-size", "0"],
    ["--n-grid", "1"],
    ["--family", "limit-1d", "--delta", "0"],
    ["--family", "plain-2d", "--n-grid-axis", "1"],
    ["--family", "bhat", "--delta1", "0"],
    ["--family", "bhat", "--alphas", "1,1", "--n1", "0.01", "--delta1", "0.5"],
    ["--family", "pickands", "--s-schedule", "0,1,2"],
    ["--family", "pickands", "--s-schedule=-1,1,2"],
    ["--family", "bhat", "--alphas", "1,1", "--s-schedule", "0,1,2"],
    ["--x", "inf"],
    ["--family", "plain-2d", "--rule-s", "nan"],
    ["--family", "limit-1d", "--delta", "100", "--s-schedule", "1,2,3",
     "--x", "0.5"],
])
def test_estimate_constant_config_errors_exit_2(tmp_path, capsys, argv):
    out = str(tmp_path / "bad")
    rc = _run(["estimate-constant"] + argv + ["--n-samples", "200",
                                              "--seed", "1", "--out", out])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(os.path.join(out, "constants.csv"))


@pytest.mark.parametrize("argv", [
    ["convergence", "--s-schedule", "0,1,2", "--n-samples", "200"],
    ["run-experiment", "--family", "queue", "--queue-t", "0.1"],
    ["oracle", "--family", "parabola-sojourn", "--x", "nan", "--s", "1"],
    ["oracle", "--family", "parabola-sojourn", "--x", "0", "--s", "inf"],
    ["run-experiment", "--u", "nan"],
    ["run-experiment", "--x-grid", "0,nan"],
    ["double-sum", "--u", "3", "--n-schedule", "0.01", "--n-sims", "200"],
    ["run-experiment", "--u", "2.5", "--x-grid", "0,1", "--target-s", "0.01",
     "--n-conditioned", "50", "--target-samples", "200"],
    ["run-experiment", "--u", "1e-300", "--x-grid", "0,1", "--n-conditioned",
     "50", "--sim-batch", "2000", "--max-sims", "20000", "--target-samples",
     "200"],
])
def test_config_errors_exit_2(tmp_path, capsys, argv):
    """Schedules, windows and blocks that cannot hold a sample, and numbers
    that are not finite, are configuration errors, not numeric failures,
    crashes or nan cells."""
    out = str(tmp_path / "bad")
    assert _run(argv + ["--seed", "1", "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not os.path.exists(out)


def test_manifest_replay_is_byte_identical(tmp_path):
    out1 = str(tmp_path / "r1")
    rc = _run(["estimate-constant", "--alpha", "1.5", "--x", "0.1",
               "--n-grid", "129", "--n-samples", "4000", "--seed", "11",
               "--out", out1])
    assert rc == 0
    out2 = str(tmp_path / "r2")
    rc = _run(["estimate-constant", "--from-manifest",
               os.path.join(out1, "run_manifest.json"), "--workers", "3",
               "--out", out2])
    assert rc == 0
    with open(os.path.join(out1, "constants.csv"), "rb") as fh:
        b1 = fh.read()
    with open(os.path.join(out2, "constants.csv"), "rb") as fh:
        b2 = fh.read()
    assert b1 == b2
    m1 = _read_manifest(out1)
    m2 = _read_manifest(out2)
    m1.pop("wall_time_s")
    m2.pop("wall_time_s")
    assert m1 == m2


def test_manifest_subcommand_mismatch(tmp_path, capsys):
    out = str(tmp_path / "m")
    assert _run(["oracle", "--out", out]) == 0
    rc = _run(["estimate-constant", "--from-manifest",
               os.path.join(out, "run_manifest.json"),
               "--out", str(tmp_path / "m2")])
    assert rc == 2
    assert "records subcommand" in capsys.readouterr().err


@pytest.mark.parametrize("manifest", [
    [1], {"subcommand": "oracle", "config": [1]},
    {"subcommand": "oracle", "config": {"s": "0,inf"}},
])
def test_malformed_manifest_exit_2(tmp_path, capsys, manifest):
    path = tmp_path / "run_manifest.json"
    path.write_text(json.dumps(manifest))
    rc = _run(["oracle", "--from-manifest", str(path),
               "--out", str(tmp_path / "m")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_config_env_flag_precedence(tmp_path, monkeypatch):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n_samples": 5000, "seed": 3,
                                    "n_grid": 65}))
    out = str(tmp_path / "p1")
    monkeypatch.setenv("SOJOURNLAB_N_SAMPLES", "3000")
    rc = _run(["estimate-constant", "--config", str(cfg_file), "--out", out])
    assert rc == 0
    man = _read_manifest(out)
    # env overrides the config file; the file still supplies the rest
    assert man["config"]["n_samples"] == 3000
    assert man["config"]["seed"] == 3
    assert man["config"]["n_grid"] == 65

    out2 = str(tmp_path / "p2")
    rc = _run(["estimate-constant", "--config", str(cfg_file),
               "--n-samples", "1234", "--out", out2])
    assert rc == 0
    assert _read_manifest(out2)["config"]["n_samples"] == 1234


def test_unknown_config_key(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({"n_smaples": 100}))
    rc = _run(["estimate-constant", "--config", str(cfg_file),
               "--out", str(tmp_path / "u")])
    assert rc == 2
    assert "unknown config key" in capsys.readouterr().err


@pytest.mark.parametrize("layer", [
    {"n_samples": None}, {"n_samples": "abc"}, {"n_samples": [1]},
    {"x": float("nan")}, {"seed": -1}, {"method": "fast"},
    {"n_grid": 64.9}, {"n_grid": True}, {"refine_check": "maybe"},
    {"refine_check": 2},
])
def test_bad_config_values_exit_2(tmp_path, capsys, layer):
    """A config file value goes through the same checks as an environment
    value or a flag, and the error names its key."""
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps(layer))
    rc = _run(["estimate-constant", "--config", str(cfg_file),
               "--out", str(tmp_path / "v")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert next(iter(layer)) in err


def test_config_and_manifest_are_exclusive(tmp_path, capsys):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text("{}")
    rc = _run(["estimate-constant", "--config", str(cfg_file),
               "--from-manifest", str(cfg_file),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "mutually exclusive" in capsys.readouterr().err


def test_seed_is_drawn_and_recorded_when_omitted(tmp_path):
    out = str(tmp_path / "s")
    rc = _run(["oracle", "--out", out])
    assert rc == 0
    seed = _read_manifest(out)["config"]["seed"]
    assert isinstance(seed, int)
    assert seed >= 0


def test_run_experiment_numeric_failure_exit_code(tmp_path, capsys):
    """A rejection family that keeps nothing at its level exits 3."""
    rc = _run(["run-experiment", "--family", "queue", "--u", "40",
               "--x-grid", "0,1", "--max-sims", "500", "--sim-batch", "500",
               "--target-samples", "2000", "--seed", "1",
               "--out", str(tmp_path / "nf")])
    assert rc == 3
    assert "numeric failure" in capsys.readouterr().err


def test_run_experiment_high_level_table(tmp_path):
    """stationary-1d at u=40, far past any rejection budget, still writes
    a valid table."""
    out = str(tmp_path / "hi")
    rc = _run(["run-experiment", "--u", "40", "--x-grid", "0,1,2",
               "--n-conditioned", "100", "--target-samples", "1000",
               "--seed", "1", "--out", out])
    assert rc == 0
    _, rows = _read_csv(os.path.join(out, "experiment.csv"))
    ratios = [float(r["ratio_hat"]) for r in rows]
    assert ratios[0] == 1.0
    assert ratios == sorted(ratios, reverse=True)
    assert all(float(r["ci_lo"]) <= float(r["ratio_hat"]) <= float(r["ci_hi"])
               for r in rows)


def _worker_tables(tmp_path, argv, level):
    """The experiment tables of argv at --workers 1 and 2; the level's
    sampler must draw more than one chunk, so the pool is used."""
    tables = []
    for workers in ("1", "2"):
        out = str(tmp_path / workers)
        assert _run(argv + ["--workers", workers, "--out", out]) == 0
        assert len(_read_manifest(out)["stream_ids"][level]) > 1
        with open(os.path.join(out, "experiment.csv"), "rb") as fh:
            tables.append(fh.read())
    return tables


def test_run_experiment_table_is_worker_invariant(tmp_path):
    """The importance sampler's chunks and the target curve run in a pool
    at --workers 2 and write the same bytes as one process."""
    argv = ["run-experiment", "--family", "chi", "--chi-m", "2",
            "--u", "2.5,3.0", "--x-grid", "0,1,2", "--n-conditioned", "600",
            "--sim-batch", "512", "--target-samples", "3000", "--seed", "4"]
    tables = _worker_tables(tmp_path, argv, "u=2.5")
    assert tables[0] == tables[1]


def test_run_experiment_queue_table_is_worker_invariant(tmp_path):
    """A rejection family's chunks run in the same pool, with the same
    bytes at --workers 1 and 2."""
    argv = ["run-experiment", "--family", "queue", "--u", "1.5,2.0",
            "--x-grid", "0,0.5,1", "--n-conditioned", "300",
            "--sim-batch", "512", "--target-samples", "2000", "--seed", "25"]
    tables = _worker_tables(tmp_path, argv, "u=1.5")
    assert tables[0] == tables[1]


@pytest.mark.parametrize("workers", ["0", "-3"])
def test_nonpositive_workers_exit_2(tmp_path, capsys, workers):
    out = str(tmp_path / "w")
    assert _run(["oracle", "--workers", workers, "--out", out]) == 2
    assert "--workers must be >= 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_run_experiment_queue_horizon_note(tmp_path, capsys):
    out = str(tmp_path / "q")
    rc = _run(["run-experiment", "--family", "queue", "--u", "2.0",
               "--x-grid", "0,0.5,1,2.5", "--queue-t", "2.0",
               "--n-conditioned", "300", "--sim-batch", "5000",
               "--max-sims", "100000", "--target-samples", "3000",
               "--seed", "2", "--out", out])
    assert rc == 0
    err = capsys.readouterr().err
    assert "excluded-near-horizon" in err
    schema, rows = _read_csv(os.path.join(out, "experiment.csv"))
    assert schema == "# sojournlab-experiment-v1"
    xs = {float(r["x"]) for r in rows}
    assert 2.5 not in xs
    assert {0.0, 0.5, 1.0} <= xs
    # the anchor row is exact
    anchor = [r for r in rows if float(r["x"]) == 0.0][0]
    assert float(anchor["ratio_hat"]) == 1.0
    assert float(anchor["target"]) == 1.0


def test_run_experiment_rows_per_level(tmp_path):
    out = str(tmp_path / "e")
    rc = _run(["run-experiment", "--u", "2.0,2.5", "--x-grid", "0,1,2",
               "--n-conditioned", "400", "--sim-batch", "5000",
               "--max-sims", "200000", "--target-samples", "3000",
               "--seed", "5", "--out", out])
    assert rc == 0
    _, rows = _read_csv(os.path.join(out, "experiment.csv"))
    assert len(rows) == 6
    per_u = {}
    for r in rows:
        per_u.setdefault(float(r["u"]), []).append(float(r["ratio_hat"]))
    for u, ratios in per_u.items():
        assert ratios[0] == 1.0
        assert ratios == sorted(ratios, reverse=True)


def test_double_sum_table(tmp_path):
    out = str(tmp_path / "d")
    rc = _run(["double-sum", "--u", "2.5", "--n-schedule", "2,4",
               "--n-sims", "20000", "--domain-t", "2.0", "--seed", "5",
               "--out", out])
    assert rc == 0
    schema, rows = _read_csv(os.path.join(out, "double_sum.csv"))
    assert schema == "# sojournlab-double-sum-v1"
    assert [float(r["n"]) for r in rows] == [2.0, 4.0]
    assert float(rows[0]["ratio"]) > float(rows[1]["ratio"])
    assert int(float(rows[0]["blocks"])) > int(float(rows[1]["blocks"]))


def test_double_sum_2d_independent_blocks_exit_2(tmp_path, capsys):
    """The independence control exists for the 1D family only; asking for it
    on the 2D family is refused instead of silently running shared blocks."""
    out = str(tmp_path / "d2")
    rc = _run(["double-sum", "--family", "stationary-2d",
               "--independent-blocks", "--u", "2.5", "--n-schedule", "1,2",
               "--n-sims", "200", "--seed", "5", "--out", out])
    assert rc == 2
    assert "independent_blocks" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out, "double_sum.csv"))


def test_convergence_table(tmp_path):
    out = str(tmp_path / "cv")
    rc = _run(["convergence", "--alpha", "2.0", "--s-schedule", "2,4,8",
               "--n-samples", "3000", "--seed", "9", "--out", out])
    assert rc == 0
    schema, rows = _read_csv(os.path.join(out, "convergence.csv"))
    assert schema == "# sojournlab-convergence-v1"
    assert [float(r["S"]) for r in rows] == [2.0, 4.0, 8.0]
    # one shared fit is repeated on every row
    assert len({r["slope"] for r in rows}) == 1
    assert float(rows[0]["slope"]) > 0


def test_bad_env_value(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SOJOURNLAB_N_SAMPLES", "plenty")
    rc = _run(["estimate-constant", "--out", str(tmp_path / "b")])
    assert rc == 2
    assert "SOJOURNLAB_N_SAMPLES" in capsys.readouterr().err


def test_negative_limit_slope_is_a_numeric_failure(tmp_path, monkeypatch,
                                                   capsys):
    """A negative fitted slope is Monte Carlo noise in a valid
    configuration: exit 3, not a configuration error."""
    fit_line = mc.fit_line

    def negative(xs, ys, ses):
        return fit_line(xs, ys, ses)._replace(slope=-0.01)

    monkeypatch.setattr(mc, "fit_line", negative)
    rc = _run(["estimate-constant", "--family", "limit-1d", "--alpha", "1.5",
               "--x", "0.2", "--n-samples", "500", "--seed", "3",
               "--out", str(tmp_path / "neg")])
    assert rc == 3
    assert "negative" in capsys.readouterr().err


def test_negative_bhat_intercept_is_a_numeric_failure(tmp_path, monkeypatch,
                                                      capsys):
    """A negative extrapolated intercept on bhat's direct route is Monte
    Carlo noise in a valid configuration: exit 3, not a configuration
    error."""
    fit_line = mc.fit_line

    def negative(xs, ys, ses):
        return fit_line(xs, ys, ses)._replace(intercept=-0.01)

    monkeypatch.setattr(mc, "fit_line", negative)
    rc = _run(["estimate-constant", "--family", "bhat", "--alphas", "1,1.5",
               "--x", "0.5", "--n1", "2", "--n-samples", "200",
               "--s-schedule", "0.05,0.1,0.15", "--seed", "1",
               "--out", str(tmp_path / "neg")])
    assert rc == 3
    assert "intercept" in capsys.readouterr().err


def test_internal_value_error_propagates(tmp_path, monkeypatch):
    """A ValueError from inside the package is a fault, not a setting: it
    propagates with its traceback instead of reading as exit 2."""
    def broken(*args, **kwargs):
        raise ValueError("internal fault")

    monkeypatch.setattr(cli, "estimate_berman_1d", broken)
    out = str(tmp_path / "bug")
    with pytest.raises(ValueError, match="internal fault"):
        _run(["estimate-constant", "--n-samples", "200", "--seed", "1",
              "--out", out])
    assert not os.path.exists(out)
