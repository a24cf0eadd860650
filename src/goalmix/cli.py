"""Command-line entry points: train / eval / ablate.

Exit codes: 0 success, 1 configuration error, 2 runtime failure.
The output root defaults to ./runs and can be overridden with the
GOALMIX_OUT_ROOT environment variable or --out.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .config import (CORRECTION_MODES, REWARD_MODES, SUBGOAL_MODES, ConfigError, TrainConfig,
                     parse_config)
from .env import EnvConfig, SkirmishEnv, preset
from .nn import load_checkpoint, malformed_checkpoint, save_checkpoint
from .training import Trainer, TrainingDiverged

ABLATION_VARIANTS = {
    "full": {},
    "random_subgoal": {"subgoal_mode": "random"},
    "total_only": {"alpha": 0.0},   # score by total Q only
    "local_only": {"alpha": 1.0},   # score by local Q only
    "no_li": {"lam_i": 0.0},
    "no_correction": {"lam_e": 0.0},
    "over_correction": {"correction": "over"},
    "no_repr": {"lam_d": 0.0},     # identity representation, no L_D
    "qmix": {"lam": 0.0, "lam_i": 0.0, "lam_e": 0.0, "lam_d": 0.0},
}

# the fields that shape the nets and the env: no other changes greedy evaluation
EVAL_KEYS = ("hidden_dim", "mixer_embed_dim", "repr_hidden_dim", "share_params",
             "env", "reward_mode")


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def resolve_env_config(cfg: TrainConfig) -> EnvConfig:
    """Environment from a preset name or an env spec file, with the
    training config's reward mode applied. An unknown preset, an unknown
    key or any spec :meth:`EnvConfig.validate` rejects is a configuration
    error, found before any work."""
    try:
        env_cfg = EnvConfig.load(cfg.env) if os.path.exists(cfg.env) else preset(cfg.env)
        env_cfg.validate()
    except (ValueError, TypeError) as err:
        raise ConfigError(f"env {cfg.env!r}: {err}") from err
    env_cfg.reward_mode = cfg.reward_mode
    return env_cfg


def make_trainer(cfg: TrainConfig) -> Trainer:
    env_cfg = resolve_env_config(cfg)
    return Trainer(cfg, lambda: SkirmishEnv(env_cfg), rng=np.random.default_rng(cfg.seed))


def write_manifest(out_dir: Path, cfg: TrainConfig, env_cfg: EnvConfig, seeds):
    manifest = {
        "version": __version__,
        "config": cfg.to_dict(),
        "env_config": env_cfg.to_dict(),
        "seeds": list(seeds),
        "outputs": {
            "metrics": "metrics.csv",
            "checkpoint": "checkpoint.npz",
            "subgoal_log": "subgoals.jsonl" if cfg.subgoal_log else None,
            "episode_log": "episodes.jsonl" if cfg.episode_log else None,
        },
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return manifest


def run_train(cfg: TrainConfig, out_dir) -> float:
    """One full training run; writes manifest, metrics, checkpoint."""
    env_cfg = resolve_env_config(cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    write_manifest(out_dir, cfg, env_cfg, [cfg.seed])
    trainer = make_trainer(cfg)
    win_rate = trainer.run(
        metrics_path=out_dir / "metrics.csv",
        subgoal_log_path=(out_dir / "subgoals.jsonl") if cfg.subgoal_log else None,
    )
    save_checkpoint(
        out_dir / "checkpoint.npz",
        trainer.params,
        meta={"config": cfg.to_dict(), "env_config": env_cfg.to_dict(),
              "final_win_rate": win_rate},
    )
    if cfg.episode_log:
        with open(out_dir / "episodes.jsonl", "w") as fh:
            trainer.buffer.dump(fh)
    with open(out_dir / "result.json", "w") as fh:
        json.dump({"final_win_rate": win_rate, "env_steps": trainer.env_steps,
                   "episodes": trainer.episodes_collected}, fh, indent=2)
        fh.write("\n")
    return win_rate


def run_eval(checkpoint_path, episodes, seed=0, env_name=None) -> float:
    if episodes < 1:
        raise ConfigError(f"episodes must be at least 1, got {episodes}")
    ps, meta = load_checkpoint(checkpoint_path)
    try:
        cfg = TrainConfig(**{k: meta["config"][k] for k in EVAL_KEYS})
        env_cfg = EnvConfig.from_dict(meta["env_config"]).validate() if env_name is None else None
    except KeyError as err:
        raise malformed_checkpoint(checkpoint_path, f"its meta has no {err}") from None
    except (TypeError, ValueError) as err:
        raise malformed_checkpoint(checkpoint_path, f"its meta: {err}") from None
    # repr slots exactly where the checkpoint holds them: lam_d = 0 builds none
    cfg = cfg.replace(lam_d=cfg.lam_d if ps.repr else 0.0)
    if env_name is not None:
        cfg = cfg.replace(env=env_name)
        env_cfg = resolve_env_config(cfg)
    trainer = Trainer(cfg, lambda: SkirmishEnv(env_cfg), rng=np.random.default_rng(seed))
    need = {name: arr.shape for name, arr in trainer.params.named_all()}
    have = {name: arr.shape for name, arr in ps.named_all()}
    bad = next((name for name in [*need, *have] if need.get(name) != have.get(name)), None)
    if bad is not None:
        raise ConfigError(f"checkpoint does not fit env {cfg.env!r}: parameter {bad} has shape "
                          f"{have.get(bad)} in the checkpoint, the env needs {need.get(bad)}")
    trainer.params = ps
    return trainer.evaluate(episodes)


def _run_variant(args):
    variant, seed, cfg_dict, out_dir = args
    cfg = TrainConfig(**cfg_dict).validate()
    try:
        win = run_train(cfg, out_dir)
        return variant, seed, win, "ok"
    except Exception as err:  # recorded; the matrix continues
        return variant, seed, float("nan"), f"error: {err}"


def run_ablation_matrix(base_cfg: TrainConfig, seeds, variants=None, out_dir="ablation",
                        jobs=1):
    """Run variant x seed training runs and write a summary CSV.

    Every run gets its own ``<variant>-seed<seed>`` directory, so there must
    be at least one seed and no seed or variant may repeat; a bad argument
    is a configuration error raised before any directory is made."""
    if jobs < 1:
        raise ConfigError(f"jobs must be at least 1, got {jobs}")
    names = list(variants) if variants else list(ABLATION_VARIANTS)
    for name in names:
        if name not in ABLATION_VARIANTS:
            raise ConfigError(
                f"unknown ablation variant {name!r}; valid: {sorted(ABLATION_VARIANTS)}"
            )
    resolve_env_config(base_cfg)  # no variant changes the env
    out_dir = Path(out_dir)
    seeds = list(seeds)
    if not seeds:
        raise ConfigError("seeds must name at least one seed")
    tasks = []
    for name in names:
        for seed in seeds:
            cfg = base_cfg.replace(seed=seed, **ABLATION_VARIANTS[name])
            tasks.append((name, seed, cfg.to_dict(), str(out_dir / f"{name}-seed{seed}")))
    for what, items in (("seeds", seeds), ("variants", names)):
        repeated = sorted({x for x in items if items.count(x) > 1})
        if repeated:
            raise ConfigError(f"{what} must be distinct, got {repeated} more than once")
    out_dir.mkdir(parents=True, exist_ok=True)
    if jobs > 1:
        import multiprocessing as mp
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        # a worker that dies (killed, out of memory) breaks the pool: the
        # runs it took down become error rows instead of a hang
        with ProcessPoolExecutor(jobs, mp_context=mp.get_context("spawn")) as pool:
            futures = [pool.submit(_run_variant, t) for t in tasks]
        results = []
        for (name, seed, *_), future in zip(tasks, futures):
            try:
                results.append(future.result())
            except BrokenProcessPool as err:
                results.append((name, seed, float("nan"), f"error: worker died: {err}"))
    else:
        results = [_run_variant(t) for t in tasks]

    summary_path = out_dir / "summary.csv"
    with open(summary_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["variant", "seed", "final_win_rate", "std", "status"])
        for variant, seed, win, status in results:
            writer.writerow([variant, seed, repr(win), "", status])
        for name in names:
            wins = [w for v, _, w, st in results if v == name and st == "ok"]
            mean = float(np.mean(wins)) if wins else float("nan")
            std = float(np.std(wins)) if wins else float("nan")
            writer.writerow([name, "all", repr(mean), repr(std), f"{len(wins)} runs"])
    return summary_path, results


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _add_override_flags(p):
    p.add_argument("--seed", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--lambda", type=float, dest="lam")
    p.add_argument("--lambda-i", type=float, dest="lam_i")
    p.add_argument("--lambda-e", type=float, dest="lam_e")
    p.add_argument("--lambda-d", type=float, dest="lam_d")
    p.add_argument("--subgoal-mode", choices=SUBGOAL_MODES)
    p.add_argument("--correction", choices=CORRECTION_MODES)
    p.add_argument("--reward-mode", choices=REWARD_MODES, dest="reward_mode")
    p.add_argument("--env")
    p.add_argument("--steps", type=int, dest="max_env_steps")
    p.add_argument("--subgoal-log", action="store_const", const=True, dest="subgoal_log")
    p.add_argument("--episode-log", action="store_const", const=True, dest="episode_log")


def _config_flags(args):
    """The parsed flags that set TrainConfig fields (None where unset)."""
    return {k: v for k, v in vars(args).items() if k in TrainConfig.__dataclass_fields__}


def build_parser():
    parser = _Parser(prog="goalmix", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training job")
    p_train.add_argument("--config", help="JSON config file")
    _add_override_flags(p_train)
    p_train.add_argument("--out", help="output directory")

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint greedily")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--episodes", type=int, default=32)
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--env", help="override the checkpoint's environment")

    p_abl = sub.add_parser("ablate", help="run the ablation matrix")
    p_abl.add_argument("--config", help="JSON base config file")
    p_abl.add_argument("--seeds", required=True, help="comma-separated seed list")
    p_abl.add_argument("--variants", help="comma-separated subset of variants")
    p_abl.add_argument("--steps", type=int, dest="max_env_steps")
    p_abl.add_argument("--env")
    p_abl.add_argument("--reward-mode", choices=REWARD_MODES, dest="reward_mode")
    p_abl.add_argument("--jobs", type=int, default=1)
    p_abl.add_argument("--out", help="output directory")
    return parser


def parse_seeds(text):
    """The seed list of ``ablate --seeds``: comma-separated integers."""
    try:
        return [int(s) for s in text.split(",") if s.strip()]
    except ValueError:
        raise ConfigError(f"--seeds must be comma-separated integers, got {text!r}") from None


def _out_root():
    return Path(os.environ.get("GOALMIX_OUT_ROOT", "runs"))


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "train":
            cfg = parse_config(args.config, _config_flags(args))
            name = f"train-{Path(cfg.env).stem}-{cfg.subgoal_mode}-seed{cfg.seed}"
            out_dir = Path(args.out) if args.out else _out_root() / name
            win = run_train(cfg, out_dir)
            print(f"final eval win rate: {win:.4f}  (outputs in {out_dir})")
            return 0
        if args.command == "eval":
            win = run_eval(args.checkpoint, args.episodes, args.seed, args.env)
            print(f"win rate over {args.episodes} episodes: {win:.4f}")
            return 0
        if args.command == "ablate":
            cfg = parse_config(args.config, _config_flags(args))
            seeds = parse_seeds(args.seeds)
            variants = args.variants.split(",") if args.variants else None
            out_dir = Path(args.out) if args.out else _out_root() / "ablation"
            path, results = run_ablation_matrix(cfg, seeds, variants, out_dir,
                                                jobs=args.jobs)
            print(f"summary written to {path}")
            for variant, seed, win, status in results:
                print(f"  {variant:>16} seed={seed} win={win:.4f} [{status}]")
            return 0
        raise ConfigError(f"unknown command {args.command!r}")
    except ConfigError as err:
        print(f"configuration error: {err}", file=sys.stderr)
        return 1
    except TrainingDiverged as err:
        print(f"training diverged: {err}", file=sys.stderr)
        if err.report is not None:
            print(f"diagnostic block report: {err.report}", file=sys.stderr)
        return 2
    except Exception as err:  # noqa: BLE001 - CLI boundary
        print(f"runtime failure: {type(err).__name__}: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
