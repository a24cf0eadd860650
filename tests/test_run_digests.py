"""Pinned SHA-256 digests of every file a short training run writes.

``run_train`` owns the run directory: the manifest, the metrics, the
subgoal and episode logs, the checkpoint and the result. Each digest below
was recorded from the code before that ownership moved out of the trainer,
so a digest that moves means some run file changed in some byte.

The checkpoint is hashed by its ``header`` and ``params`` members, not by
its zip bytes, since ``np.savez`` stamps each member with the wall clock.
"""

import hashlib
import json

import numpy as np
import pytest

from goalmix.cli import run_train
from goalmix.config import TrainConfig

RUN = dict(max_env_steps=300, batch_size=8, target_interval=3, eval_interval=2,
           eval_episodes=2, eps_anneal_steps=500, seed=3)

RUN_CONFIGS = {
    "logs": dict(subgoal_log=True, episode_log=True, **RUN),
    "plain": dict(**RUN),
}

RUN_DIGESTS = {
    "logs": {
        "checkpoint.npz":
            "1610efa504ba3c4f755ff4631dc865a8ec3ecfe071fb18cec7dce1be4e34a64b",
        "episodes.jsonl":
            "a1994fb46f155881885975de37f70318d3ab3351c37736ee542796d18b48d869",
        "manifest.json":
            "a50a28a890df2a70cb51a4ea58b7c55b70d9bb62489f6b07048a846ee5ce1bff",
        "metrics.csv":
            "3aa76c43889cdd468ab780bec61e5728dcc2f8d28e50bb903fff50a4a480dd0c",
        "result.json":
            "caf15a8c2bf1c80dcda9063d96b96ffbdcf04f5d5154822a2d530a7081a08bc7",
        "subgoals.jsonl":
            "1b2ad19887507c5d6ba7f21bd0a9e75d362051dfd5af16a0adefc886e030eca9",
    },
    "plain": {
        "checkpoint.npz":
            "5ede81cbb65d49657c1b06a4ec79878137d1042a3f7a0c9e81732bb02cbf9f1b",
        "manifest.json":
            "68469675118805330eed35a236f581f496f5516fe81a5d3b5157f5866f37f6e0",
        "metrics.csv":
            "3aa76c43889cdd468ab780bec61e5728dcc2f8d28e50bb903fff50a4a480dd0c",
        "result.json":
            "caf15a8c2bf1c80dcda9063d96b96ffbdcf04f5d5154822a2d530a7081a08bc7",
    },
}


def file_digest(path):
    h = hashlib.sha256()
    if path.suffix == ".npz":
        with np.load(path) as z:
            for member in ("header", "params"):
                a = z[member]
                h.update(f"{member}{a.dtype.str}{a.shape}".encode())
                h.update(a.tobytes())
    else:
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(RUN_CONFIGS))
def test_run_files_are_pinned(tmp_path, name):
    cfg = TrainConfig(**RUN_CONFIGS[name]).validate()
    run_train(cfg, tmp_path)
    digests = {p.name: file_digest(p) for p in sorted(tmp_path.iterdir())}
    assert digests == RUN_DIGESTS[name]
    # the run passes at least one target sync
    result = json.loads((tmp_path / "result.json").read_text())
    assert result["episodes"] > cfg.target_interval
