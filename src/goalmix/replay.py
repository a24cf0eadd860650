"""Episodic FIFO replay buffer.

Episodes are stored padded to the environment's episode limit with a
validity mask; losses and the subgoal machinery honour the mask.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from .env import NOOP


class MalformedEpisodeError(ValueError):
    pass


class Episode:
    """One complete episode, padded to a fixed length T.

    obs      (n_agents, T, obs_dim) float64, observation before acting
    actions  (n_agents, T) integer, in range(n_actions)
    avail    (n_agents, T, n_actions) bool, action masks at decision time
    states   (T, state_dim) float64, global state before acting
    rewards  (T,) float64, extrinsic
    dones    (T,) bool
    valid    (T,) bool, True for steps that actually happened

    ``obs`` and ``states`` are stored as exact codes: ``values`` is the
    episode's table of distinct float64 bit patterns (so -0.0 and +0.0 are
    two entries), and ``obs_codes`` and ``state_codes`` index it with the
    narrowest unsigned dtype that addresses it (uint8 for up to 256 values).
    Each read of ``obs`` or ``states`` decodes a new array,
    ``values.take(codes)``, bit for bit the one the episode was built from;
    writing into it leaves the episode unchanged, and a reader that goes
    step by step should read it once.

    ``bootstrap`` is the trainer's cache slot for this episode's target
    bootstrap: ``(token, tq_next (n_agents, T), tot_next (T,))``, valid only
    while ``token`` is the ``generation`` of the trainer's packed parameters
    (see ``Trainer.batch_bootstrap``). It lives and dies with the episode, so a
    FIFO eviction drops it. The arrays are read-only once the episode is in
    a buffer.
    """

    __slots__ = ("values", "obs_codes", "state_codes", "actions", "avail", "rewards",
                 "dones", "valid", "length", "uid", "bootstrap")

    def __init__(self, obs, actions, avail, states, rewards, dones, valid, length, uid=-1):
        obs = np.asarray(obs, dtype=np.float64)
        states = np.asarray(states, dtype=np.float64)
        bits = np.concatenate([obs.ravel(), states.ravel()]).view(np.uint64)
        table, codes = np.unique(bits, return_inverse=True)
        codes = codes.astype(np.min_scalar_type(max(len(table) - 1, 0)))
        self.values = table.view(np.float64)
        self.obs_codes = codes[:obs.size].reshape(obs.shape)
        self.state_codes = codes[obs.size:].reshape(states.shape)
        self.actions = actions
        self.avail = avail
        self.rewards = rewards
        self.dones = dones
        self.valid = valid
        self.length = length
        self.uid = uid
        self.bootstrap = None

    @property
    def obs(self):
        return self.values.take(self.obs_codes)

    @property
    def states(self):
        return self.values.take(self.state_codes)

    @property
    def n_agents(self):
        return self.obs_codes.shape[0]

    @property
    def max_length(self):
        return self.obs_codes.shape[1]

    def shapes(self):
        """The shape of each array field, by name."""
        return {"obs": self.obs_codes.shape, "actions": self.actions.shape,
                "avail": self.avail.shape, "states": self.state_codes.shape,
                "rewards": self.rewards.shape, "dones": self.dones.shape,
                "valid": self.valid.shape}

    def validate(self):
        """Raise :class:`MalformedEpisodeError` with the first check that fails."""
        for ok, msg in self._checks():
            if not ok:
                raise MalformedEpisodeError(msg)

    def _checks(self):
        """(passed, message) of each check in turn; a check runs only once
        those before it have passed, so later ones may index by the shapes
        and the length."""
        t = self.max_length
        n = self.n_agents
        yield self.actions.shape == (n, t), f"actions shape {self.actions.shape} != {(n, t)}"
        yield self.avail.shape[:2] == (n, t), f"avail shape {self.avail.shape}"
        yield self.state_codes.shape[0] == t, f"states length {self.state_codes.shape[0]} != {t}"
        yield self.rewards.shape == (t,), f"rewards shape {self.rewards.shape}"
        yield self.dones.shape == (t,), f"dones shape {self.dones.shape}"
        yield self.valid.shape == (t,), f"valid shape {self.valid.shape}"
        yield self.avail.dtype == bool, f"avail dtype {self.avail.dtype} is not bool"
        yield (np.issubdtype(self.actions.dtype, np.integer),
               f"actions dtype {self.actions.dtype} is not an integer type")
        n_actions = self.avail.shape[-1]
        yield (bool(((self.actions >= 0) & (self.actions < n_actions)).all()),
               f"actions outside range({n_actions})")
        yield 0 < self.length <= t, f"length {self.length} outside (0, {t}]"
        yield (bool(self.valid[: self.length].all()) and not bool(self.valid[self.length :].any()),
               "valid mask must be True exactly on [0, length)")
        yield bool(self.dones[self.length - 1]), "episode must end with done=True"
        yield (np.isfinite(self.values).all() and np.isfinite(self.rewards).all(),
               "non-finite entries")
        yield (self.actions[:, self.length :] == NOOP).all(), "padded actions must be no-op"


class ReplayBuffer:
    """FIFO buffer of whole episodes with uniform sampling."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._store = deque(maxlen=capacity)

    def __len__(self):
        return len(self._store)

    def push(self, episode: Episode):
        """Validate ``episode`` and append it, evicting the oldest when full.
        Every episode must have the array shapes of those already held, so
        that any sample stacks into one batch."""
        episode.validate()
        if self._store:
            held = self._store[-1].shapes()
            for name, shape in episode.shapes().items():
                if shape != held[name]:
                    raise MalformedEpisodeError(
                        f"{name} shape {shape} differs from the buffer's {held[name]}")
        self._store.append(episode)

    def sample(self, m: int, rng) -> list:
        """Uniform sample of m episodes: without replacement when the buffer
        holds at least m, with replacement otherwise."""
        count = len(self._store)
        if count == 0:
            raise RuntimeError("replay buffer is empty; collect episodes first")
        if count >= m:
            idx = rng.choice(count, size=m, replace=False)
        else:
            idx = rng.integers(count, size=m)
        return [self._store[int(i)] for i in idx]

    def episodes(self):
        return list(self._store)

    def dump(self, fh):
        """Write the whole buffer in the episode-log format (see env)."""
        from .env import write_episode_log

        for ep in self._store:
            write_episode_log(fh, ep)
