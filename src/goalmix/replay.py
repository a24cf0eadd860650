"""Episodic FIFO replay buffer.

Episodes are stored padded to the environment's episode limit with a
validity mask; losses and the subgoal machinery honour the mask.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .env import NOOP


class MalformedEpisodeError(ValueError):
    pass


@dataclass
class Episode:
    """One complete episode, padded to a fixed length T.

    obs      (n_agents, T, obs_dim) float64, observation before acting
    actions  (n_agents, T) int64
    avail    (n_agents, T, n_actions) bool, action masks at decision time
    states   (T, state_dim) float64, global state before acting
    rewards  (T,) float64, extrinsic
    dones    (T,) bool
    valid    (T,) bool, True for steps that actually happened

    ``bootstrap`` is the trainer's cache slot for this episode's target
    bootstrap: ``(token, tq_next (n_agents, T), tot_next (T,))``, valid only
    while ``token`` is the ``generation`` of the trainer's packed parameters
    (see ``Trainer.batch_bootstrap``). It lives and dies with the episode, so a
    FIFO eviction drops it. The arrays above are read-only once the episode
    is in a buffer.
    """

    obs: np.ndarray
    actions: np.ndarray
    avail: np.ndarray
    states: np.ndarray
    rewards: np.ndarray
    dones: np.ndarray
    valid: np.ndarray
    length: int
    uid: int = -1
    bootstrap: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def n_agents(self):
        return self.obs.shape[0]

    @property
    def max_length(self):
        return self.obs.shape[1]

    def validate(self):
        t = self.max_length
        n = self.n_agents
        checks = [
            (self.actions.shape == (n, t), f"actions shape {self.actions.shape} != {(n, t)}"),
            (self.avail.shape[:2] == (n, t), f"avail shape {self.avail.shape}"),
            (self.states.shape[0] == t, f"states length {self.states.shape[0]} != {t}"),
            (self.rewards.shape == (t,), f"rewards shape {self.rewards.shape}"),
            (self.dones.shape == (t,), f"dones shape {self.dones.shape}"),
            (self.valid.shape == (t,), f"valid shape {self.valid.shape}"),
            (0 < self.length <= t, f"length {self.length} outside (0, {t}]"),
            (bool(self.valid[: self.length].all()) and not bool(self.valid[self.length :].any()),
             "valid mask must be True exactly on [0, length)"),
            (bool(self.dones[self.length - 1]), "episode must end with done=True"),
            (np.isfinite(self.obs).all() and np.isfinite(self.states).all()
             and np.isfinite(self.rewards).all(), "non-finite entries"),
            ((self.actions[:, self.length :] == NOOP).all(), "padded actions must be no-op"),
        ]
        for ok, msg in checks:
            if not ok:
                raise MalformedEpisodeError(msg)


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
        episode.validate()
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
