"""Shared fixtures and factories for synthetic episodes and small nets."""

import numpy as np
import pytest

from goalmix.agents import RecurrentQNet
from goalmix.config import TrainConfig
from goalmix.env import SkirmishEnv, preset
from goalmix.mixer import MonotonicMixer
from goalmix.nn import ParamSet, stack_slots, sync_targets
from goalmix.replay import Episode
from goalmix.rewards import ReprNet
from goalmix.training import Trainer, stack_episodes


def make_episode(rng, n_agents=2, t_max=6, length=None, obs_dim=5, n_actions=4,
                 state_dim=4, reward_scale=1.0):
    """A random, structurally valid padded episode."""
    if length is None:
        length = int(rng.integers(1, t_max + 1))
    obs = np.zeros((n_agents, t_max, obs_dim))
    obs[:, :length] = rng.normal(size=(n_agents, length, obs_dim))
    actions = np.zeros((n_agents, t_max), dtype=np.int64)
    actions[:, :length] = rng.integers(n_actions, size=(n_agents, length))
    avail = np.zeros((n_agents, t_max, n_actions), dtype=bool)
    avail[:, :, 0] = True
    avail[:, :length] = True
    states = np.zeros((t_max, state_dim))
    states[:length] = rng.normal(size=(length, state_dim))
    rewards = np.zeros(t_max)
    rewards[:length] = reward_scale * rng.normal(size=length)
    dones = np.zeros(t_max, dtype=bool)
    dones[length - 1] = True
    valid = np.zeros(t_max, dtype=bool)
    valid[:length] = True
    ep = Episode(obs=obs, actions=actions, avail=avail, states=states,
                 rewards=rewards, dones=dones, valid=valid, length=length,
                 uid=int(rng.integers(10_000)))
    ep.validate()
    return ep


def make_nets(obs_dim=5, n_actions=4, state_dim=4, n_agents=2, hidden=8, embed=4,
              repr_hidden=6):
    qnet = RecurrentQNet(obs_dim, n_actions, hidden)
    mixer = MonotonicMixer(n_agents, state_dim, embed)
    repr_net = ReprNet(obs_dim, n_actions, repr_hidden)
    return qnet, mixer, repr_net


def make_paramset(rng, qnet, mixer, repr_net=None, n_agents=2):
    ps = ParamSet(
        agent=stack_slots([qnet.init_params(rng) for _ in range(n_agents)]),
        mixer=mixer.init_params(rng),
        repr=stack_slots([] if repr_net is None
                         else [repr_net.init_params(rng) for _ in range(n_agents)]),
    )
    sync_targets(ps)
    return ps


def make_q_params(rng, qnet, mixer, n_agents=2):
    """Fresh slot-stacked utility-net parameters (a slot per agent) and mixer parameters."""
    return stack_slots([qnet.init_params(rng) for _ in range(n_agents)]), mixer.init_params(rng)


def slot_net(params, i):
    """Slot i of slot-stacked parameters: one net's parameter dict (views)."""
    return {k: v[i] for k, v in params.items()}


class StubEnv:
    """Dimensions only: lets a Trainer run prepare_block and block_losses
    on synthetic batches from make_episode."""

    def __init__(self, n_agents=2, obs_dim=5, n_actions=4, state_dim=4, episode_limit=6):
        self.n_agents = n_agents
        self.obs_dim = obs_dim
        self.n_actions = n_actions
        self.state_dim = state_dim
        self.episode_limit = episode_limit


def make_stub_trainer(seed=0, n_agents=2, obs_dim=5, n_actions=4, state_dim=4,
                      hidden=8, embed=4, repr_hidden=6, **cfg_kw):
    """A Trainer sized like make_nets/make_episode, for synthetic batches."""
    cfg = TrainConfig(seed=seed, hidden_dim=hidden, mixer_embed_dim=embed,
                      repr_hidden_dim=repr_hidden, **cfg_kw).validate()
    env = StubEnv(n_agents, obs_dim, n_actions, state_dim)
    return Trainer(cfg, lambda: env, rng=np.random.default_rng(seed))


def zero_trainer(**cfg_kw):
    """A stub trainer whose agent, mixer and repr parameters are all zero."""
    tr = make_stub_trainer(**cfg_kw)
    tr.params.agent = zero_params(tr.params.agent)
    tr.params.mixer = zero_params(tr.params.mixer)
    tr.params.repr = zero_params(tr.params.repr)
    sync_targets(tr.params)
    return tr


def make_trainer(seed=0, env_name="skirmish-2v2", **cfg_kw):
    """A Trainer on a skirmish preset."""
    cfg_kw.setdefault("eval_episodes", 4)
    cfg = TrainConfig(seed=seed, **cfg_kw).validate()
    env_cfg = preset(env_name)
    env_cfg.reward_mode = cfg.reward_mode
    return Trainer(cfg, lambda: SkirmishEnv(env_cfg), rng=np.random.default_rng(seed))


def make_batch(rng, m, **episode_kw):
    """M random episodes of equal padding and their stacked batch."""
    episodes = [make_episode(rng, **episode_kw) for _ in range(m)]
    return episodes, stack_episodes(episodes)


def zero_params(params):
    """Same keys and shapes, all zeros."""
    return {k: np.zeros_like(v) for k, v in params.items()}


def assert_grads_close(analytic, fd, rtol=1e-4, scale_floor=1e-6, zero_tol=1e-8):
    """Relative error <= rtol wherever the gradient has scale; coordinates
    where both sides are below the scale floor (true zeros drowned in
    central-difference noise) must agree absolutely to zero_tol."""
    for name in fd:
        a, f = np.asarray(analytic[name]), np.asarray(fd[name])
        scale = np.maximum(np.abs(a), np.abs(f))
        big = scale > scale_floor
        if big.any():
            rel = np.abs(a - f)[big] / scale[big]
            assert rel.max() < rtol, f"{name}: max rel err {rel.max():.3e}"
        small = ~big
        if small.any():
            diff = np.abs(a - f)[small]
            assert diff.max() < zero_tol, f"{name}: near-zero coords differ {diff.max():.3e}"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
