"""FIFO episodic replay buffer: eviction, sampling, validation, storage."""

import gc
import tracemalloc

import numpy as np
import pytest

from goalmix import training
from goalmix.oracles import slow_stack_episodes
from goalmix.replay import FIELDS, Episode, MalformedEpisodeError, ReplayBuffer
from goalmix.training import stack_episodes
from tests.conftest import chain_trainer, make_episode, make_trainer


def rebuilt(ep, **changes):
    """A new Episode from ``ep``'s arrays, with ``changes`` in place of some."""
    arrays = {name: getattr(ep, name) for name in FIELDS}
    return Episode(**{**arrays, **changes}, length=ep.length, uid=ep.uid)


def small_episode(rng, uid=None):
    ep = make_episode(rng, n_agents=1, t_max=2, length=2, obs_dim=1,
                      n_actions=2, state_dim=1)
    if uid is not None:
        ep.uid = uid
    return ep


def test_push_to_empty_gives_count_one(rng):
    buf = ReplayBuffer(10)
    buf.push(small_episode(rng))
    assert len(buf) == 1


def test_stored_episode_is_bitwise_identical(rng):
    buf = ReplayBuffer(4)
    ep = make_episode(rng)
    obs_copy = ep.obs.copy()
    buf.push(ep)
    got = buf.sample(1, np.random.default_rng(0))[0]
    np.testing.assert_array_equal(got.obs, obs_copy)
    assert got is ep


def test_fifo_eviction_is_exact(rng):
    buf = ReplayBuffer(5)
    for uid in range(8):
        buf.push(small_episode(rng, uid=uid))
    assert [e.uid for e in buf.episodes()] == [3, 4, 5, 6, 7]


def test_capacity_5000_drops_first_episode(rng):
    buf = ReplayBuffer(5000)
    for uid in range(5001):
        buf.push(small_episode(rng, uid=uid))
    assert len(buf) == 5000
    uids = {e.uid for e in buf.episodes()}
    assert 0 not in uids and 5000 in uids


def test_sample_all_three_when_m_equals_count(rng):
    buf = ReplayBuffer(10)
    for uid in range(3):
        buf.push(small_episode(rng, uid=uid))
    got = buf.sample(3, np.random.default_rng(1))
    assert sorted(e.uid for e in got) == [0, 1, 2]


def test_single_episode_sampled_with_replacement(rng):
    buf = ReplayBuffer(10)
    buf.push(small_episode(rng, uid=7))
    got = buf.sample(32, np.random.default_rng(2))
    assert len(got) == 32
    assert all(e.uid == 7 for e in got)


def test_sampling_deterministic_for_fixed_seed(rng):
    buf = ReplayBuffer(50)
    for uid in range(20):
        buf.push(small_episode(rng, uid=uid))
    a = [e.uid for e in buf.sample(5, np.random.default_rng(9))]
    b = [e.uid for e in buf.sample(5, np.random.default_rng(9))]
    assert a == b


def test_empty_buffer_raises(rng):
    with pytest.raises(RuntimeError, match="empty"):
        ReplayBuffer(4).sample(1, np.random.default_rng(0))


def test_sampling_is_uniform(rng):
    buf = ReplayBuffer(10)
    for uid in range(10):
        buf.push(small_episode(rng, uid=uid))
    draws = 100_000
    sampler = np.random.default_rng(123)
    counts = np.zeros(10)
    for _ in range(draws):
        counts[buf.sample(1, sampler)[0].uid] += 1
    p = 0.1
    sigma = np.sqrt(p * (1 - p) / draws)
    assert np.all(np.abs(counts / draws - p) < 3 * sigma)


def test_malformed_episodes_rejected_with_diagnostics(rng):
    buf = ReplayBuffer(4)

    ep = small_episode(rng)
    ep.length = 0
    with pytest.raises(MalformedEpisodeError, match="length"):
        buf.push(ep)

    ep = small_episode(rng)
    ep = rebuilt(ep, dones=np.zeros_like(ep.dones))
    with pytest.raises(MalformedEpisodeError, match="done"):
        buf.push(ep)

    ep = small_episode(rng)
    obs = ep.obs
    obs[0, 0, 0] = np.nan
    ep = rebuilt(ep, obs=obs)
    with pytest.raises(MalformedEpisodeError, match="non-finite"):
        buf.push(ep)

    ep = make_episode(rng, t_max=4, length=2)
    actions = ep.actions
    actions[0, 3] = 1  # padded step must be no-op
    ep = rebuilt(ep, actions=actions)
    with pytest.raises(MalformedEpisodeError, match="no-op"):
        buf.push(ep)

    assert len(buf) == 0


def collected_episode(env_name="skirmish-2v2"):
    trainer = make_trainer(seed=0, env_name=env_name)
    return trainer.collect_episode()


def with_action(ep, value):
    actions = ep.actions.copy()
    actions[0, 0] = value
    return rebuilt(ep, actions=actions)


# a collected skirmish-2v2 episode broken in one way, and a pattern of the
# error push raises for it
MALFORMED_PUSHES = {
    "action -1 at a valid step": (lambda ep: with_action(ep, -1), r"actions outside range\(6\)"),
    "action 9 of 6": (lambda ep: with_action(ep, 9), r"actions outside range\(6\)"),
    "float actions": (lambda ep: rebuilt(ep, actions=ep.actions.astype(np.float64)),
                      "actions dtype float64 is not an integer type"),
    "float avail": (lambda ep: rebuilt(ep, avail=ep.avail.astype(np.float64)),
                    "avail dtype float64 is not bool"),
    "dones of length 0": (lambda ep: rebuilt(ep, dones=np.zeros(0, dtype=bool)),
                          r"dones shape \(0,\)"),
    "3v3 after 2v2": (lambda ep: collected_episode("skirmish-3v3"),
                      r"obs shape \(3, 40, \d+\) differs from the buffer's \(2, 30, \d+\)"),
}


@pytest.mark.parametrize("case", MALFORMED_PUSHES)
def test_push_rejects_episodes_the_learner_cannot_use(case):
    good = collected_episode()
    buf = ReplayBuffer(4)
    buf.push(good)
    breaks, pattern = MALFORMED_PUSHES[case]
    with pytest.raises(MalformedEpisodeError, match=pattern):
        buf.push(breaks(good))
    assert buf.episodes() == [good]


def assert_exact(ep, obs, states):
    """``ep`` reads back ``obs`` and ``states`` bit for bit, as float64."""
    for got, want in ((ep.obs, obs), (ep.states, states)):
        assert got.dtype == np.float64 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("env_name", ["skirmish-2v2", "skirmish-3v3", "cliff-2v2"])
def test_collected_episode_reads_back_bitwise(env_name, monkeypatch):
    built = []

    def recording_episode(**fields):
        built.append({name: fields[name].copy() for name in ("obs", "states")})
        return Episode(**fields)

    monkeypatch.setattr(training, "Episode", recording_episode)
    ep = collected_episode(env_name)
    assert_exact(ep, built[0]["obs"], built[0]["states"])
    assert ep.layout.fields["obs"][1] == ep.state_codes.dtype == np.uint8


def test_continuous_episode_reads_back_bitwise(rng):
    ep = make_episode(rng, t_max=30, length=30, obs_dim=25, state_dim=17)
    obs = rng.normal(size=ep.obs.shape)
    states = rng.normal(size=ep.states.shape)
    ep = rebuilt(ep, obs=obs, states=states)
    assert_exact(ep, obs, states)
    assert ep.layout.fields["obs"][1] == np.uint16
    assert len(ep.values) == obs.size + states.size


def test_signed_zeros_stay_apart(rng):
    ep = make_episode(rng, t_max=3, length=3, obs_dim=2, state_dim=2)
    obs, states = np.zeros(ep.obs.shape), np.zeros(ep.states.shape)
    obs[0, 0, 0] = states[1, 1] = -0.0
    ep = rebuilt(ep, obs=obs, states=states)
    assert_exact(ep, obs, states)
    assert np.signbit(ep.obs[0, 0, 0]) and not np.signbit(ep.obs[0, 0, 1])
    assert len(ep.values) == 2


def test_more_than_256_values_take_uint16_codes(rng):
    ep = make_episode(rng, t_max=6, length=6, obs_dim=25, state_dim=4)
    obs = np.arange(ep.obs.size, dtype=np.float64).reshape(ep.obs.shape) / 7
    ep = rebuilt(ep, obs=obs)
    assert obs.size > 256
    assert_exact(ep, obs, ep.states)
    assert ep.layout.fields["obs"][1] == ep.state_codes.dtype == np.uint16


def test_decoded_arrays_are_fresh(rng):
    ep = make_episode(rng)
    obs = ep.obs
    obs[:] = np.nan
    assert np.isfinite(ep.obs).all()


def test_writes_into_the_callers_arrays_do_not_reach_the_buffer():
    good = collected_episode()
    arrays = {name: getattr(good, name).copy() for name in FIELDS}
    ep = Episode(**arrays, length=good.length, uid=good.uid)
    buf = ReplayBuffer(4)
    buf.push(ep)
    want = {name: getattr(ep, name).tobytes() for name in FIELDS}
    arrays["actions"][0, 0] = 99
    arrays["avail"][:] = False
    arrays["dones"][:] = False
    for name in ("obs", "states", "rewards"):
        arrays[name][:] = np.nan
    assert {name: getattr(ep, name).tobytes() for name in FIELDS} == want
    ep.validate()


def test_reads_cannot_write_into_a_stored_episode():
    """Every field reads back as a new array or a read-only view, and so
    does the cached bootstrap."""
    trainer = make_trainer(seed=0)
    ep = trainer.collect_episode()
    trainer.batch_bootstrap(stack_episodes([ep]))
    reads = {name: lambda name=name: getattr(ep, name) for name in FIELDS}
    reads["bootstrap"] = lambda: trainer.bootstraps[ep]
    want = {name: read().tobytes() for name, read in reads.items()}
    for name, read in reads.items():
        field = read()
        try:
            field[...] = 99
        except ValueError:
            assert name in ("avail", "rewards", "dones", "valid", "bootstrap")
    assert not trainer.bootstraps[ep].flags.writeable
    assert {name: read().tobytes() for name, read in reads.items()} == want
    ep.validate()


def mixed_code_widths(rng):
    """Episodes of 2 agents, T = 6, D = 25, S = 4: two with continuous obs
    (uint16 codes) between three with rounded ones (uint8 codes)."""
    episodes = [make_episode(rng, t_max=6, obs_dim=25) for _ in range(5)]
    for k, ep in enumerate(episodes):
        obs = rng.normal(size=ep.obs.shape) if k % 2 else np.round(ep.obs)
        episodes[k] = rebuilt(ep, obs=obs, states=np.round(ep.states))
    assert [ep.state_codes.dtype for ep in episodes] == [np.uint8, np.uint16] * 2 + [np.uint8]
    return episodes


def signed_zeros(rng):
    episodes = [make_episode(rng, t_max=3, length=3, obs_dim=2, state_dim=2) for _ in range(3)]
    out = []
    for k, ep in enumerate(episodes):
        obs, states = np.zeros(ep.obs.shape), np.zeros(ep.states.shape)
        obs[k % 2, k, 0] = states[k, 1] = -0.0
        out.append(rebuilt(ep, obs=obs, states=states))
    return out


def buffer_sample(trainer, episodes, m):
    for _ in range(episodes):
        trainer.collect_episode()
    return trainer.buffer.sample(m, np.random.default_rng(3))


STACKED_BATCHES = {
    "skirmish-2v2, 32 episodes": lambda rng: buffer_sample(make_trainer(seed=0), 40, 32),
    "train-chain": lambda rng: buffer_sample(chain_trainer(seed=0), 40, 32),
    "M = 1": lambda rng: buffer_sample(make_trainer(seed=5), 40, 1),
    "with replacement": lambda rng: buffer_sample(make_trainer(seed=1), 3, 32),
    "uint8 and uint16 codes": mixed_code_widths,
    "signed zeros": signed_zeros,
}


@pytest.mark.parametrize("case", STACKED_BATCHES)
def test_stacked_batch_equals_the_per_episode_stack(case, rng):
    episodes = STACKED_BATCHES[case](rng)
    got, want = stack_episodes(episodes), slow_stack_episodes(episodes)
    assert got.keys() == want.keys() and got["episodes"] is episodes
    for name in FIELDS:
        g, w = got[name], want[name]
        assert (g.dtype, g.shape, g.flags.c_contiguous) == (w.dtype, w.shape, True), name
        assert g.tobytes() == w.tobytes(), name
    if case == "with replacement":
        assert len({id(ep) for ep in episodes}) < len(episodes)
    if case == "signed zeros":
        assert np.signbit(got["obs"]).sum() == np.signbit(got["states"]).sum() == 3


def bytes_per_stored_episode(trainer):
    """The bytes freed when a buffer of 100 collected episodes with their
    cached bootstraps is dropped, per episode. The trainer's cache holds
    the episodes too, so it is dropped with the buffer; the freed bytes
    must at least cover each episode's record and bootstrap data."""
    tracemalloc.start()
    try:
        for _ in range(100):
            trainer.collect_episode()
        trainer.batch_bootstrap(stack_episodes(trainer.buffer.episodes()))
        assert len(trainer.bootstraps) == 100
        data = sum(len(ep.record) + b.nbytes for ep, b in trainer.bootstraps.items())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
        trainer.buffer = ReplayBuffer(trainer.cfg.buffer_capacity)
        trainer.bootstraps.clear()
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
        assert freed >= data, f"{freed} bytes freed, the episodes' data alone is {data}"
        return freed / 100
    finally:
        tracemalloc.stop()


def test_stored_skirmish_episodes_take_at_most_4400_bytes_each():
    """19.3 KB as float64 arrays, 5.8 KB with per-array exact codes."""
    per_episode = bytes_per_stored_episode(make_trainer(seed=0))
    assert per_episode <= 4_400, f"{per_episode:.0f} bytes per stored skirmish episode"


def test_stored_chain_episodes_take_at_most_870_bytes_each():
    """The criterion-6 chain config: 2.3 KB with per-array exact codes."""
    per_episode = bytes_per_stored_episode(chain_trainer(seed=0))
    assert per_episode <= 870, f"{per_episode:.0f} bytes per stored chain episode"
