"""Pinned SHA-256 digests of seeded rollouts.

The digests were recorded from the environment and rollout code as they
were before the single-geometry-pass env step and the batched action
selection. Every observation, state, mask, reward, action and RNG draw
must stay bitwise the same, so a digest that moves means a behaviour
change, not a float-rounding nuisance: float64 arrays are hashed by
their bytes (so 0.0 and -0.0 differ).
"""

import hashlib
import json

import numpy as np
import pytest

from goalmix.env import ATTACK, MOVE_DELTAS, N_ACTIONS, SkirmishEnv, preset
from tests.conftest import make_trainer

PRESETS = ("skirmish-2v2", "skirmish-3v3", "cliff-2v2")
MODES = ("sparse", "dense")


class Digest:
    """Hashes arrays (dtype, shape and bytes) and JSON-able values in order."""

    def __init__(self):
        self._h = hashlib.sha256()

    def array(self, a):
        a = np.ascontiguousarray(a)
        self._h.update(f"{a.dtype.str}{a.shape}".encode())
        self._h.update(a.tobytes())

    def value(self, v):
        self._h.update(json.dumps(v, sort_keys=True).encode())

    def hexdigest(self):
        return self._h.hexdigest()


def chase_action(env, i, avail, policy):
    """Attack when a target is in range (most of the time); else often take
    the first unmasked move toward the nearest live enemy (through the gap
    when a cliff row lies between them); else draw any action in range,
    masked or not, so blocked moves and target-less attacks occur too."""
    if avail[i, ATTACK] and policy.random() < 0.7:
        return ATTACK
    if policy.random() < 0.3:
        x, y = env.pos[i]
        foes = [env.pos[v] for v in range(env.n_agents, env.n_units) if env.alive[v]]
        gx, gy = min(foes, key=lambda p: abs(p[0] - x) + abs(p[1] - y))
        if env.cfg.cliff_cells:
            wall_y = env.cfg.cliff_cells[0][1]
            if y != wall_y and (y < wall_y) != (gy < wall_y):
                gx, gy = next((cx, wall_y) for cx in range(env.cfg.width)
                              if (cx, wall_y) not in env.cfg.cliff_cells)
        for act, (dx, dy) in MOVE_DELTAS.items():
            if avail[i, act] and abs(x + dx - gx) + abs(y + dy - gy) < abs(x - gx) + abs(y - gy):
                return act
    return int(policy.integers(N_ACTIONS))


def env_trajectory_digest(name, mode, episodes=20):
    """Seeded episodes of :func:`chase_action`; returns the digest and the
    number of episodes won."""
    cfg = preset(name)
    cfg.reward_mode = mode
    env = SkirmishEnv(cfg)
    d = Digest()
    policy = np.random.default_rng(99)
    wins = 0
    for seed in range(episodes):
        obs, state = env.reset(np.random.default_rng(seed))
        d.array(obs)
        d.array(state)
        while True:
            avail = env.avail_actions()
            d.array(avail)
            r = env.step([chase_action(env, i, avail, policy) for i in range(env.n_agents)])
            d.array(r.obs)
            d.array(r.state)
            d.value([r.reward, r.done, r.won, r.info])
            if r.done:
                wins += r.won
                break
    return d.hexdigest(), wins


ENV_DIGESTS = {
    ("skirmish-2v2", "sparse"):
        "28b137673f3375b4a411480c105a8f32737951affd27bd5e20932e2de15a8938",
    ("skirmish-2v2", "dense"):
        "5b290d9c03d5d8460db712b8254da9536bb44ebd251b1a5eb9391e42ef3cb877",
    ("skirmish-3v3", "sparse"):
        "bd9fcbb16a570b2db9d26e6ab65c7ea1b3ed71f3c32b2c796719c31bfe953ba7",
    ("skirmish-3v3", "dense"):
        "e0ae3be15ebbadac3926f5bfebf612f7a57187a031e4d4a391fa04b8f502879f",
    ("cliff-2v2", "sparse"):
        "5e2b7baae6f925a144f6c12d8237424dac62f2d423a90e968d052cc7881da73d",
    ("cliff-2v2", "dense"):
        "565d633c44a2be65750c9f6072ead735cd5c30a3e1c3da2ed6fe759db5a4c37f",
}


@pytest.mark.parametrize("name", PRESETS)
@pytest.mark.parametrize("mode", MODES)
def test_env_trajectories_are_pinned(name, mode):
    digest, wins = env_trajectory_digest(name, mode)
    assert 0 < wins < 20  # games are won, and others are lost or run out of time
    assert digest == ENV_DIGESTS[name, mode]


def episode_digest(d, ep):
    for key in ("obs", "actions", "avail", "states", "rewards", "dones", "valid"):
        d.array(getattr(ep, key))
    d.value([ep.length, ep.uid])


def collect_digest(env_name, seed=3, episodes=8):
    """A seeded trainer's epsilon-greedy collections at epsilon = 0.5, so
    both the explore draws and the greedy picks occur, then its RNG state."""
    trainer = make_trainer(seed=seed, env_name=env_name, eps_start=0.5, eps_end=0.5)
    d = Digest()
    for _ in range(episodes):
        episode_digest(d, trainer.collect_episode())
    d.value(trainer.rng.bit_generator.state["state"])
    d.value(trainer.env_steps)
    return d.hexdigest()


COLLECT_DIGESTS = {
    "skirmish-2v2": "816fc14b40089e4b55001c93c3ba25d576a5bfcd28dba2f54165d659d575f1fe",
    "skirmish-3v3": "efafe6e605face0d1d380bca9de76dfcc60c8a0a9298fd1fa90ee2965a5ee33f",
}


@pytest.mark.parametrize("env_name", sorted(COLLECT_DIGESTS))
def test_collect_episode_sequence_is_pinned(env_name):
    assert collect_digest(env_name) == COLLECT_DIGESTS[env_name]


def evaluate_digest(env_name, seed=5, calls=6):
    """Seeded greedy evaluations: every action the policy sent to the env,
    every step result, each call's win fraction and the trainer RNG after."""
    trainer = make_trainer(seed=seed, env_name=env_name)
    d = Digest()
    env_step = trainer.eval_env.step

    def recording_step(actions):
        d.value([int(a) for a in actions])
        r = env_step(actions)
        d.array(r.obs)
        d.array(r.state)
        d.value([r.reward, r.done, r.won])
        return r

    trainer.eval_env.step = recording_step
    for _ in range(calls):
        d.value([trainer.evaluate(1), trainer.eval_env.t])
    d.value(trainer.evaluate(3))
    d.value(trainer.rng.bit_generator.state["state"])
    return d.hexdigest()


EVALUATE_DIGESTS = {
    "skirmish-2v2": "83bb7e74c1ad633ffd2dddf55370fc0855d62fcd30df73807217cc05e4a8e471",
    "skirmish-3v3": "7653506cc40a008fb19b012ffefa3bf50a04035835434237864d4556496538bd",
}


@pytest.mark.parametrize("env_name", sorted(EVALUATE_DIGESTS))
def test_evaluate_results_are_pinned(env_name):
    assert evaluate_digest(env_name) == EVALUATE_DIGESTS[env_name]
