"""CLI harness: exit codes, artifacts, reproducibility, the ablation matrix."""

import csv
import json
import os
import threading
from pathlib import Path

import numpy as np
import pytest

from goalmix.cli import main, make_trainer, resolve_env_config, run_eval
from goalmix.config import TrainConfig
from goalmix.nn import save_checkpoint

FAST = ["--env", "skirmish-2v2", "--steps", "90"]


def run_cli(args):
    return main([str(a) for a in args])


def save_fresh_checkpoint(path, cfg, config=None):
    """An untrained policy's checkpoint, its meta config ``config`` (default cfg's)."""
    trainer = make_trainer(cfg)
    save_checkpoint(path, trainer.params, meta={
        "config": cfg.to_dict() if config is None else config,
        "env_config": resolve_env_config(cfg).to_dict()})
    return path


@pytest.fixture
def fast_cfg_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({
        "max_env_steps": 90, "eval_interval": 2, "eval_episodes": 2,
        "batch_size": 8, "eps_anneal_steps": 500,
    }))
    return path


def test_train_smoke_writes_artifacts(tmp_path, fast_cfg_file):
    out = tmp_path / "run"
    code = run_cli(["train", "--config", fast_cfg_file, "--out", out, "--seed", 1])
    assert code == 0
    metrics = (out / "metrics.csv").read_text().strip().split("\n")
    assert len(metrics) > 1
    for row in metrics[1:]:
        assert all(np.isfinite(float(v)) for v in row.split(","))
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["seed"] == 1
    assert manifest["env_config"]["name"] == "skirmish-2v2"
    assert (out / "checkpoint.npz").exists()
    assert json.loads((out / "result.json").read_text())["env_steps"] >= 90


def test_same_seed_twice_identical_metrics(tmp_path, fast_cfg_file):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["train", "--config", fast_cfg_file, "--out", out1, "--seed", 7]) == 0
    assert run_cli(["train", "--config", fast_cfg_file, "--out", out2, "--seed", 7]) == 0
    assert (out1 / "metrics.csv").read_text() == (out2 / "metrics.csv").read_text()
    assert (out1 / "manifest.json").read_text() == (out2 / "manifest.json").read_text()


def test_subgoal_modes_recorded_and_dumps_differ(tmp_path, fast_cfg_file):
    outs = {}
    for mode in ("value", "random"):
        out = tmp_path / mode
        code = run_cli(["train", "--config", fast_cfg_file, "--out", out,
                        "--seed", 3, "--subgoal-mode", mode, "--subgoal-log"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["subgoal_mode"] == mode
        rows = [json.loads(l) for l in (out / "subgoals.jsonl").read_text().splitlines()]
        outs[mode] = [r["t_star"] for r in rows]
    assert outs["value"] != outs["random"]


def test_invalid_alpha_is_config_error_exit_1(tmp_path):
    assert run_cli(["train", "--out", tmp_path / "x", "--alpha", 1.5, *FAST]) == 1


def test_unknown_flag_is_config_error_exit_1(tmp_path):
    assert run_cli(["train", "--does-not-exist", "5"]) == 1


@pytest.mark.parametrize("flags", [["--disable-li"], ["--subgoal-mode", "local_only"],
                                   ["--subgoal-mode", "total_only"], ["--correction", "none"]])
def test_retired_flag_or_value_exit_1(tmp_path, flags):
    assert run_cli(["train", "--out", tmp_path / "x", *flags, *FAST]) == 1
    assert not (tmp_path / "x").exists()


def test_unknown_config_key_exit_1(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"alhpa": 0.5}))
    assert run_cli(["train", "--config", bad, "--out", tmp_path / "x"]) == 1


@pytest.mark.parametrize("bad", [{"hidden_dim": 0}, {"seed": -1}, {"batch_size": 2.5},
                                 {"rms_eps": 0}, {"eval_interval": 0}])
def test_invalid_config_value_exit_1(tmp_path, bad, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run_cli(["train", "--config", path, "--out", tmp_path / "x"]) == 1
    assert f"configuration error: {next(iter(bad))}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


def test_missing_checkpoint_is_runtime_failure_exit_2(tmp_path):
    assert run_cli(["eval", "--checkpoint", tmp_path / "absent.npz"]) == 2


def test_eval_checkpoint_roundtrip(tmp_path, fast_cfg_file, capsys):
    out = tmp_path / "run"
    assert run_cli(["train", "--config", fast_cfg_file, "--out", out, "--seed", 2]) == 0
    assert run_cli(["eval", "--checkpoint", out / "checkpoint.npz",
                    "--episodes", 3, "--seed", 5]) == 0
    printed = capsys.readouterr().out
    assert "win rate" in printed
    win = run_eval(out / "checkpoint.npz", episodes=3, seed=5)
    assert 0.0 <= win <= 1.0


def test_eval_env_the_checkpoint_does_not_fit_exit_1(tmp_path, fast_cfg_file, capsys):
    out = tmp_path / "run"
    assert run_cli(["train", "--config", fast_cfg_file, "--out", out, "--seed", 2]) == 0
    capsys.readouterr()
    code = run_cli(["eval", "--checkpoint", out / "checkpoint.npz", "--episodes", 1,
                    "--env", "skirmish-3v3"])
    assert code == 1
    err = capsys.readouterr().err
    assert "configuration error: checkpoint does not fit env 'skirmish-3v3'" in err
    assert "agent.0.in.w" in err  # the first parameter whose shape differs


def test_eval_checkpoint_with_retired_config_keys(tmp_path, capsys):
    """Checkpoints written before the retired switches were removed still
    evaluate, exactly as the same parameters under today's meta config."""
    cfg = TrainConfig(seed=2, hidden_dim=16).validate()
    old = {**cfg.to_dict(), "disable_li": True, "correction": "none",
           "subgoal_mode": "local_only"}
    paths = [save_fresh_checkpoint(tmp_path / "old.npz", cfg, old),
             save_fresh_checkpoint(tmp_path / "new.npz", cfg)]
    printed = []
    for path in paths:
        assert run_cli(["eval", "--checkpoint", path, "--episodes", 8, "--seed", 2]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[0] == printed[1]
    wins = [run_eval(path, episodes=8, seed=2) for path in paths]
    assert wins[0] == wins[1] > 0


BAD_ENVS = {
    "unknown-preset": "bogus",
    "unknown-key": {"widht": 7},
    "zero-limit": {"episode_limit": 0},
    "negative-enemies": {"n_enemies": -1},
    "fractional-height": {"height": 2.5},
    "short-spawn": {"ally_spawn": [0, 0]},
    "inverted-spawn": {"enemy_spawn": [6, 0, 5, 6]},
    "fractional-spawn": {"ally_spawn": [0, 0, 1.5, 6]},
    "crowded-spawn": {"n_allies": 30, "ally_spawn": [0, 0, 0, 0]},
    "off-grid-spawn": {"enemy_spawn": [7, 0, 9, 6]},
    # 2 free cells for 2 allies + 2 enemies in the same rectangle
    "overlapping-spawns": {"ally_spawn": [0, 0, 1, 0], "enemy_spawn": [0, 0, 1, 0]},
    "cliff-filled-spawn": {"ally_spawn": [0, 0, 0, 1], "cliff_cells": [[0, 0]]},
    "negative-sight": {"sight_range": -1},
    "fractional-attack": {"attack_range": 1.5},
    "zero-health": {"enemy_health": 0},
    "text-damage": {"ally_damage": "2"},
    "cliff-outside-grid": {"cliff_cells": [[9, 9]]},
}


@pytest.mark.parametrize("spec", list(BAD_ENVS.values()), ids=list(BAD_ENVS))
@pytest.mark.parametrize("command", ["train", "eval", "ablate"])
def test_bad_env_is_config_error_exit_1(tmp_path, fast_cfg_file, command, spec, capsys):
    env = spec
    if isinstance(spec, dict):
        env = tmp_path / "env.json"
        env.write_text(json.dumps(spec))
    out = tmp_path / "out"
    if command == "eval":
        ckpt = save_fresh_checkpoint(tmp_path / "ckpt.npz", TrainConfig())
        args = ["--checkpoint", ckpt, "--episodes", 1]
    else:
        args = ["--config", fast_cfg_file, "--out", out]
        if command == "ablate":
            args += ["--seeds", "0", "--variants", "full,qmix"]
    assert run_cli([command, *args, "--env", env]) == 1
    assert "configuration error: env" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("episodes", [0, -3])
def test_eval_nonpositive_episodes_is_config_error_exit_1(tmp_path, episodes, capsys):
    code = run_cli(["eval", "--checkpoint", tmp_path / "absent.npz", "--episodes", episodes])
    assert code == 1
    assert "episodes must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("jobs", [0, -1])
def test_ablation_nonpositive_jobs_is_config_error_exit_1(tmp_path, fast_cfg_file, jobs):
    out = tmp_path / "abl"
    assert run_cli(["ablate", "--config", fast_cfg_file, "--seeds", "0",
                    "--variants", "full", "--jobs", jobs, "--out", out]) == 1
    assert not out.exists()


def test_output_root_env_var(tmp_path, fast_cfg_file, monkeypatch):
    monkeypatch.setenv("GOALMIX_OUT_ROOT", str(tmp_path / "root"))
    monkeypatch.chdir(tmp_path)
    assert run_cli(["train", "--config", fast_cfg_file, "--seed", 4]) == 0
    runs = list((tmp_path / "root").iterdir())
    assert len(runs) == 1 and (runs[0] / "metrics.csv").exists()


def test_ablation_matrix_rows_and_aggregates(tmp_path, fast_cfg_file):
    out = tmp_path / "abl"
    code = run_cli(["ablate", "--config", fast_cfg_file, "--seeds", "0,1",
                    "--variants", "full,qmix", "--out", out])
    assert code == 0
    with open(out / "summary.csv") as fh:
        rows = list(csv.DictReader(fh))
    seed_rows = [r for r in rows if r["seed"] != "all"]
    agg_rows = [r for r in rows if r["seed"] == "all"]
    assert len(seed_rows) == 4 and len(agg_rows) == 2
    assert all(r["status"] == "ok" for r in seed_rows)
    for name in ("full", "qmix"):
        wins = [float(r["final_win_rate"]) for r in seed_rows if r["variant"] == name]
        agg = [r for r in agg_rows if r["variant"] == name][0]
        assert float(agg["final_win_rate"]) == pytest.approx(np.mean(wins), abs=1e-12)
    qmix_manifest = json.loads((out / "qmix-seed0" / "manifest.json").read_text())
    for key in ("lam", "lam_i", "lam_e", "lam_d"):
        assert qmix_manifest["config"][key] == 0.0


def _die_on_seed_1(args):
    """An ablation worker killed mid-run on seed 1 (module-level, so a
    spawned worker process can unpickle it)."""
    variant, seed, _, _ = args
    if seed == 1:
        os._exit(1)
    return variant, seed, 0.5, "ok"


def test_ablation_dead_worker_is_an_error_row(tmp_path, monkeypatch):
    import goalmix.cli as cli_mod

    monkeypatch.setattr(cli_mod, "_run_variant", _die_on_seed_1)
    base = TrainConfig(max_env_steps=90, batch_size=8).validate()
    done = []
    runner = threading.Thread(target=lambda: done.append(cli_mod.run_ablation_matrix(
        base, [0, 1], ["full"], tmp_path / "abl", jobs=2)), daemon=True)
    runner.start()
    runner.join(timeout=120)
    assert not runner.is_alive(), "ablate --jobs 2 hung on a dead worker"
    path, results = done[0]
    status = {seed: st for _, seed, _, st in results}
    assert status[1].startswith("error: worker died")
    assert status[0] == "ok" or status[0].startswith("error: worker died")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["seed"], r["status"]) for r in rows[:2]] == [("0", status[0]), ("1", status[1])]
    assert np.isnan(float(rows[1]["final_win_rate"]))


def test_env_flag_accepts_env_config_file(tmp_path, fast_cfg_file):
    from goalmix.env import preset

    env_cfg = preset("skirmish-2v2")
    env_cfg.episode_limit = 12
    env_path = tmp_path / "custom_env.json"
    env_cfg.save(env_path)
    out = tmp_path / "run"
    assert run_cli(["train", "--config", fast_cfg_file, "--out", out,
                    "--env", env_path, "--episode-log"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["env"] == str(env_path)
    assert manifest["env_config"]["episode_limit"] == 12
    ep_lines = (out / "episodes.jsonl").read_text().strip().split("\n")
    assert all(json.loads(l)["t"] < 12 for l in ep_lines)


def test_ablation_unknown_variant_exit_1(tmp_path, fast_cfg_file):
    assert run_cli(["ablate", "--config", fast_cfg_file, "--seeds", "0",
                    "--variants", "bogus", "--out", tmp_path / "abl"]) == 1


def test_ablation_records_crashes_and_continues(tmp_path, monkeypatch):
    import goalmix.cli as cli_mod
    from goalmix.config import TrainConfig

    real_run = cli_mod.run_train

    def flaky_run(cfg, out_dir):
        if cfg.subgoal_mode == "random":
            raise RuntimeError("synthetic crash")
        return real_run(cfg, out_dir)

    monkeypatch.setattr(cli_mod, "run_train", flaky_run)
    base = TrainConfig(max_env_steps=90, eval_interval=5, eval_episodes=2,
                       batch_size=8).validate()
    path, results = cli_mod.run_ablation_matrix(
        base, [0], ["full", "random_subgoal"], tmp_path / "abl", jobs=1)
    by_variant = {v: status for v, _, _, status in results}
    assert by_variant["full"] == "ok"
    assert by_variant["random_subgoal"].startswith("error")
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    crash_row = [r for r in rows if r["variant"] == "random_subgoal" and r["seed"] == "0"][0]
    assert crash_row["status"].startswith("error")
    assert np.isnan(float(crash_row["final_win_rate"]))


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
