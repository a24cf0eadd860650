"""Bitwise training parity between this tree and another checkout.

Runs the same seeded training in each tree's ``src`` (one subprocess per
tree, so each imports its own ``goalmix``) and compares, after every block,
the ``BlockReport`` field by field and every ``named_all()`` array (online
and target) by SHA-256 of its bytes, and every episode the replay buffer
holds, in buffer order, by a SHA-256 of its public fields (arrays,
length, uid and a cached bootstrap of the current target generation), so
the storage and the bootstrap cache are checked directly and not only
through the losses they feed, however each tree lays them out. After the
last block it compares 16 greedy ``evaluate(1)`` calls by the win, the
episode's length (``eval_env.t``) and its final game state (the units'
positions and health), so rollout changes are checked too. Fourteen
configurations, all seed 0: default skirmish-2v2, skirmish-3v3 (the eval benchmark's env),
cliff-2v2, the tabular coordination chain at H = 32 (the train-chain
benchmark config), ``share_params`` and the nine ablation variants.
Every run syncs its targets every 5 collected episodes, so the 25 blocks
cross several target generations.

    python tools/parity.py OTHER_TREE

Prints one line per configuration and exits 0 when every block, every
evaluation and every stored episode of every configuration matches, 1
otherwise.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

BLOCKS = 25
EVALS = 16
SEED = 0
SYNC = dict(target_interval=5)


def configs():
    """(name, trainer factory) of each configuration, from the imported goalmix."""
    import numpy as np
    from goalmix.cli import ABLATION_VARIANTS, make_trainer
    from goalmix.config import TrainConfig
    from goalmix.oracles import TabularEnv, coordination_chain
    from goalmix.training import Trainer

    def skirmish(**kw):
        return lambda: make_trainer(TrainConfig(seed=SEED, **SYNC, **kw).validate())

    def chain():
        cfg = TrainConfig(seed=SEED, hidden_dim=32, eps_anneal_steps=6000, **SYNC).validate()
        game = coordination_chain()
        return Trainer(cfg, lambda: TabularEnv(game, episode_limit=10),
                       rng=np.random.default_rng(SEED))

    yield "default", skirmish()
    yield "skirmish-3v3", skirmish(env="skirmish-3v3")
    yield "cliff-2v2", skirmish(env="cliff-2v2")
    yield "chain", chain
    yield "share_params", skirmish(share_params=True)
    for name, setting in ABLATION_VARIANTS.items():
        yield f"ablation:{name}", skirmish(**setting)


def episode_end(env):
    """[length, final game state] of the env's last episode: the units'
    positions and health on a skirmish, the state index on the chain."""
    if hasattr(env, "pos"):
        return [env.t, env.pos, env.health.tolist()]
    return [env.t, env.s]


def cached_bootstrap(trainer, ep):
    """The episode's cached bootstrap of the current target generation, or
    None (a stale entry is dead data, which a tree may drop): the entry in
    ``trainer.bootstraps`` while ``bootstrap_target`` is the packed target
    vector, or, in a tree whose episodes carry the cache, ``ep.bootstrap``
    while ``ep.token`` is the packing's ``generation``."""
    flat = trainer.params.packed()
    if hasattr(trainer, "bootstraps"):
        return trainer.bootstraps.get(ep) if trainer.bootstrap_target is flat.target else None
    return ep.bootstrap if ep.token is flat.generation else None


def episode_digest(ep, bootstrap):
    """SHA-256 of a stored episode, read only through its public fields, so
    that trees which store episodes differently still compare: each
    field's dtype, shape and bytes, its length and uid, and its
    :func:`cached_bootstrap` ``bootstrap`` unless that is None."""
    h = hashlib.sha256()
    bootstrap = () if bootstrap is None else (bootstrap,)
    for a in (ep.obs, ep.actions, ep.avail, ep.states, ep.rewards, ep.dones, ep.valid,
              *bootstrap):
        h.update(f"{a.dtype}{a.shape}".encode())
        h.update(a.tobytes())
    h.update(repr((ep.length, ep.uid, len(bootstrap))).encode())
    return h.hexdigest()


def dump():
    """Print one JSON line per block and configuration: the report fields
    (floats as exact reprs), the digest of every named array, the
    :func:`episode_digest` of each stored episode and how many of them
    hold a cached bootstrap; then one line per configuration with the win
    and :func:`episode_end` of each evaluation."""
    import goalmix

    print(json.dumps({"goalmix": goalmix.__file__}), flush=True)
    for name, build in configs():
        trainer = build()
        trainer.collect_episode()
        for block in range(BLOCKS):
            report = {k: repr(v) for k, v in dataclasses.asdict(trainer.train_block()).items()}
            arrays = {k: hashlib.sha256(v.tobytes()).hexdigest()
                      for k, v in trainer.params.named_all()}
            cached = [cached_bootstrap(trainer, ep) for ep in trainer.buffer.episodes()]
            buffer = [episode_digest(ep, b) for ep, b in zip(trainer.buffer.episodes(), cached)]
            print(json.dumps({"config": name, "block": block, "report": report,
                              "arrays": arrays, "buffer": buffer,
                              "cached": sum(b is not None for b in cached)}), flush=True)
        evals = []
        for _ in range(EVALS):
            won = trainer.evaluate(1)
            evals.append([won, *episode_end(trainer.eval_env)])
        print(json.dumps({"config": name, "evals": evals}), flush=True)


def run(tree):
    env = dict(os.environ, PYTHONPATH=str(Path(tree, "src").resolve()))
    out = subprocess.run([sys.executable, __file__, "--dump"], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    source = json.loads(out[0])["goalmix"]
    rows, ends = {}, {}
    for line in out[1:]:
        row = json.loads(line)
        if "evals" in row:
            ends[row["config"]] = row
        else:
            rows.setdefault(row["config"], []).append(row)
    return source, rows, ends


def differences(a, b):
    """Names of the report fields and arrays that differ between two rows,
    in report and ``named_all()`` order, then "buffer" if a stored episode
    differs."""
    return [f"report.{k}" for k in a["report"] if a["report"][k] != b["report"].get(k)] + [
        k for k in dict.fromkeys([*a["arrays"], *b["arrays"]])
        if a["arrays"].get(k) != b["arrays"].get(k)] + (
        ["buffer"] if a["buffer"] != b.get("buffer") else [])


def main(argv):
    if argv == ["--dump"]:
        dump()
        return 0
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    here = Path(__file__).resolve().parent.parent
    (src_a, ours, our_ends), (src_b, theirs, their_ends) = run(here), run(argv[0])
    print(f"this tree:  {src_a}\nother tree: {src_b}")
    ok = ours.keys() == theirs.keys()
    for name, rows in ours.items():
        other = theirs.get(name, [])
        first = next(((r["block"], differences(r, o)) for r, o in zip(rows, other)
                      if differences(r, o)), None)
        end, other_end = our_ends[name], their_ends.get(name, {})
        evals, other_evals = end["evals"], other_end.get("evals", [])
        if first is not None:
            ok = False
            block, names = first
            print(f"{name:28s} differs from block {block}: {', '.join(names[:6])}"
                  f"{' ...' if len(names) > 6 else ''}")
        elif evals != other_evals:
            ok = False
            k = next((k for k, (a, b) in enumerate(zip(evals, other_evals)) if a != b),
                     len(other_evals))
            theirs_k = other_evals[k] if k < len(other_evals) else "nothing"
            print(f"{name:28s} bitwise over {len(rows)} blocks; evaluation {k} differs "
                  f"([win, length, final state]): {evals[k]} vs {theirs_k}")
        else:
            print(f"{name:28s} bitwise over {len(rows)} blocks ({len(rows[-1]['arrays'])} "
                  f"arrays and up to {len(rows[-1]['buffer'])} stored episodes each, "
                  f"{sum(r['cached'] for r in rows)} cached bootstraps), "
                  f"{len(evals)} evaluations equal")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
