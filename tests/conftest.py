"""Shared fixtures and factories for synthetic episodes and small nets."""

import io
import json

import numpy as np
import pytest

from goalmix.agents import RecurrentQNet
from goalmix.config import TrainConfig
from goalmix.env import SkirmishEnv, preset
from goalmix.mixer import MonotonicMixer
from goalmix.nn import ParamSet, save_checkpoint, stack_slots, sync_targets
from goalmix.oracles import TabularEnv, coordination_chain
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


def chain_trainer(seed=1, episode_limit=10, **cfg_kw):
    """The coordination chain at H = 32; at seed 0, the train-chain benchmark's trainer."""
    cfg = TrainConfig(seed=seed, hidden_dim=32, eps_anneal_steps=6000, **cfg_kw).validate()
    return Trainer(cfg, lambda: TabularEnv(coordination_chain(), episode_limit=episode_limit),
                   rng=np.random.default_rng(seed))


def prepare(trainer, batch):
    """Trainer.prepare_block on a batch, from one forward of the online arrays."""
    return trainer.prepare_block(batch, trainer.forward(trainer.params, batch))


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


def header_bytes(header):
    """A checkpoint header member: the JSON text as uint8."""
    return np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)


def _malform(case, arrays, header):
    """The members of a checkpoint broken in one way, from a good one's."""
    if case == "no header":
        del arrays["header"]
    elif case == "header not JSON":
        arrays["header"] = np.frombuffer(b"{not json", dtype=np.uint8)
    elif case == "header without version":
        del header["version"]
        arrays["header"] = header_bytes(header)
    elif case == "header without meta":
        del header["meta"]
        arrays["header"] = header_bytes(header)
    elif case == "no params":
        del arrays["params"]
    elif case == "no layout":
        del header["layout"]
        arrays["header"] = header_bytes(header)
    elif case == "params not 1-D":
        arrays["params"] = arrays["params"].reshape(-1, 1)
    elif case == "params not float64":
        arrays["params"] = arrays["params"].astype(np.float32)
    elif case == "params too short":
        arrays["params"] = arrays["params"][:-1]
    elif case == "unknown group":
        header["layout"][0][0] = "critic"
        arrays["header"] = header_bytes(header)
    elif case == "repeated key":
        header["layout"][1][1] = header["layout"][0][1]
        arrays["header"] = header_bytes(header)
    elif case == "n_agents 7, n_reprs 9":
        header.update(n_agents=7, n_reprs=9)
        arrays["header"] = header_bytes(header)
    elif case == "n_reprs 9":
        header["n_reprs"] = 9
        arrays["header"] = header_bytes(header)
    return arrays


# each way write_malformed_checkpoint breaks a file, and a pattern of the error
# load_checkpoint raises for it
MALFORMED_CHECKPOINTS = {
    "no header": "no 'header' entry",
    "header not JSON": "not JSON",
    "header without version": "no 'version'",
    "header without meta": "no 'meta'",
    "no params": "no 'params' entry",
    "no layout": "layout is not a list of \\[group, key, shape\\]",
    "params not 1-D": "params is float64 of shape",
    "params not float64": "params is float32",
    "params too short": "the layout needs float64",
    "unknown group": "unknown group 'critic'",
    "repeated key": "agent.in.w occurs twice",
    "n_agents 7, n_reprs 9": "the header says n_agents 7, but agent.in.w has shape \\(2, ",
    "n_reprs 9": "the header says n_reprs 9, but repr\\.[a-z.]+ has shape \\(2, ",
    "text file": "not an .npz archive \\(ValueError\\(",
    "empty file": "not an .npz archive \\(EOFError\\(",
    "truncated archive": "not an .npz archive \\(BadZipFile\\(",
    "npy array": "not an .npz archive \\(an .npy array of shape \\(3,\\)\\)",
    "damaged member": "the 'params' entry is damaged \\(BadZipFile\\(.Bad CRC-32",
}


def _npy_bytes(arr):
    buf = io.BytesIO()
    np.save(buf, arr)
    return buf.getvalue()


def _flip_middle_byte(raw):
    middle = len(raw) // 2
    return raw[:middle] + bytes([raw[middle] ^ 0xFF]) + raw[middle + 1:]


# the cases of MALFORMED_CHECKPOINTS made from the good checkpoint's bytes: the
# files that are no .npz archive, and one whose params member fails its CRC
# (the middle of the file lies in the params vector)
BYTE_EDITS = {
    "text file": lambda raw: b"not a checkpoint\n",
    "empty file": lambda raw: b"",
    "truncated archive": lambda raw: raw[:len(raw) // 2],
    "npy array": lambda raw: _npy_bytes(np.ones(3)),
    "damaged member": _flip_middle_byte,
}


def write_malformed_checkpoint(path, case, ps):
    """Save ``ps`` to ``path``, then rewrite the file broken as ``case`` says."""
    save_checkpoint(path, ps)
    if case in BYTE_EDITS:
        path.write_bytes(BYTE_EDITS[case](path.read_bytes()))
        return
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    with open(path, "wb") as fh:
        np.savez(fh, **_malform(case, arrays, header))
