"""Which statement lines of ``src/goalmix`` the production entry points never run.

Imports ``goalmix`` from this tree's ``src`` under a ``sys.settrace`` line
tracer that follows only frames of files in ``src/goalmix``, then runs:

- for each of fourteen trainer configurations, all seed 0: one collected
  episode, a few train blocks (targets synced every 2 collected episodes,
  so blocks cross target generations and reuse cached bootstraps) and two
  greedy evaluations. The configurations are the default skirmish-2v2,
  ``share_params``, skirmish-3v3, cliff-2v2 with dense rewards, the
  tabular coordination chain at H = 32 (the train-chain benchmark config)
  and the nine ablation variants;
- the CLI: ``goalmix train`` with the subgoal and episode logs, ``goalmix
  eval`` of its checkpoint, and ``goalmix ablate`` over two variants.

Everything the runs write goes to a temporary directory that is removed
afterwards. For each module the tool prints how many of its statement
lines (those with bytecode) never ran, then each such line with its text.
Lines that only tests reach are listed too: a listed line has no caller in
production, which makes it a candidate for deletion, not proof of one.

    python tools/traffic.py

It has no gate: it always exits 0.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

BLOCKS = 4
EVALS = 2
SEED = 0
SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "goalmix"


def statement_lines(path):
    """Line numbers of ``path`` that carry bytecode, in every code object."""
    lines, todo = set(), [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        todo.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def trainers():
    """(name, trainer factory) of each configuration, from the imported goalmix."""
    import numpy as np
    from goalmix.cli import ABLATION_VARIANTS, make_trainer
    from goalmix.config import TrainConfig
    from goalmix.oracles import TabularEnv, coordination_chain
    from goalmix.training import Trainer

    def skirmish(**kw):
        return lambda: make_trainer(TrainConfig(seed=SEED, target_interval=2, **kw).validate())

    def chain():
        cfg = TrainConfig(seed=SEED, hidden_dim=32, eps_anneal_steps=6000,
                          target_interval=2).validate()
        game = coordination_chain()
        return Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                       rng=np.random.default_rng(SEED))

    yield "default", skirmish()
    yield "share_params", skirmish(share_params=True)
    yield "skirmish-3v3", skirmish(env="skirmish-3v3")
    yield "cliff-2v2 dense", skirmish(env="cliff-2v2", reward_mode="dense")
    yield "chain", chain
    for name, setting in ABLATION_VARIANTS.items():
        yield f"ablation:{name}", skirmish(**setting)


def run_entry_points(tmp):
    from goalmix.cli import main

    for name, build in trainers():
        trainer = build()
        trainer.collect_episode()
        for _ in range(BLOCKS):
            trainer.train_block()
        trainer.evaluate(EVALS)
        print(f"ran {name}", file=sys.stderr)
    config = tmp / "config.json"
    config.write_text(json.dumps({"max_env_steps": 120, "eval_interval": 3,
                                  "eval_episodes": EVALS, "target_interval": 2}))
    with contextlib.redirect_stdout(io.StringIO()):
        codes = [
            main(["train", "--config", str(config), "--subgoal-log", "--episode-log",
                  "--out", str(tmp / "train")]),
            main(["eval", "--checkpoint", str(tmp / "train" / "checkpoint.npz"),
                  "--episodes", str(EVALS)]),
            main(["ablate", "--config", str(config), "--seeds", "0",
                  "--variants", "full,qmix", "--steps", "60", "--out", str(tmp / "ablate")]),
        ]
    print(f"ran the CLI: train, eval, ablate (exit codes {codes})", file=sys.stderr)


def main():
    hits = {}

    def local(frame, event, arg):
        if event == "line":
            hits[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def follow(frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(str(PACKAGE)):
            return None
        hits.setdefault(path, set())
        return local

    sys.path.insert(0, str(SRC))
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(follow)
        try:
            run_entry_points(Path(tmp))
        finally:
            sys.settrace(None)
    for path in sorted(PACKAGE.glob("*.py")):
        lines = statement_lines(path)
        missed = sorted(lines - hits.get(str(path), set()))
        text = path.read_text().splitlines()
        print(f"{path.relative_to(SRC.parent)}: {len(missed)} of {len(lines)} "
              f"statement lines never ran")
        for line in missed:
            print(f"  {line:5d}  {text[line - 1].strip()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
