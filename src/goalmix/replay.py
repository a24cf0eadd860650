"""Episodic FIFO replay buffer.

Episodes are stored padded to the environment's episode limit with a
validity mask; losses and the subgoal machinery honour the mask. Each
stored episode is one byte record (see :class:`Episode`), and a sampled
batch is decoded from the records at once (:func:`stack_records`).
"""

from __future__ import annotations

import functools
import math
from collections import deque

import numpy as np

from .env import NOOP


class MalformedEpisodeError(ValueError):
    pass


# The parts of a record, in order: the raw fields in the dtype they were
# given (actions in the narrowest integer dtype that holds them), then
# the obs and state codes, each aligned to its item size; the value table
# follows at the first multiple of 8.
_RAW = ("rewards", "actions", "avail", "dones", "valid")
_CODED = ("obs", "states")
FIELDS = ("obs", "actions", "avail", "states", "rewards", "dones", "valid")
# batch arrays with the episode axis second, (n_agents, M, ...); the
# others take it first
_AGENT_MAJOR = ("obs", "actions", "avail")


class _Layout:
    """Where each field of a record lies: ``fields[name]`` is (byte slice,
    stored dtype, read dtype, shape), and the value table starts at byte
    ``fixed``. One layout is shared by every episode of the same shapes and
    dtypes."""

    __slots__ = ("fields", "fixed")

    def __init__(self, specs):
        self.fields = {}
        stop = 0
        for name, stored, read, shape in specs:
            start = -(-stop // stored.itemsize) * stored.itemsize
            stop = start + stored.itemsize * math.prod(shape)
            self.fields[name] = (slice(start, stop), stored, read, shape)
        self.fixed = -(-stop // 8) * 8


@functools.cache
def _layout(specs):
    """The one :class:`_Layout` of ``specs``, (name, stored dtype, read
    dtype, shape) of each field in record order."""
    return _Layout(specs)


def _narrowest(a):
    """The dtype to store integer array ``a`` in: the narrowest that holds
    every value exactly, or its own dtype when it is not integer."""
    if a.size == 0 or not np.issubdtype(a.dtype, np.integer):
        return a.dtype
    return np.result_type(np.min_scalar_type(a.min()), np.min_scalar_type(a.max()))


class Episode:
    """One complete episode, padded to a fixed length T.

    obs      (n_agents, T, obs_dim) float64, observation before acting
    actions  (n_agents, T) integer, in range(n_actions)
    avail    (n_agents, T, n_actions) bool, action masks at decision time
    states   (T, state_dim) float64, global state before acting
    rewards  (T,) float64, extrinsic
    dones    (T,) bool
    valid    (T,) bool, True for steps that actually happened

    The constructor copies every field into one immutable byte string,
    ``record``, laid out as ``layout`` says. ``obs`` and ``states`` are held
    as exact codes: ``values`` is the episode's table of distinct float64
    bit patterns (so -0.0 and +0.0 are two entries), and the obs and state
    codes (``state_codes``) index it with the narrowest unsigned dtype that
    addresses it (uint8 for up to 256 values). The actions are held in the
    narrowest integer dtype that fits them, the other fields as given.
    Every field reads back bit for bit, in the dtype it was given: ``obs``,
    ``states`` and ``actions`` as new arrays (``obs`` is a gather from
    ``values``, so a reader that goes step by step should read it once),
    the others as read-only views of the record. No write into an array
    passed in or read out reaches the stored episode. An episode is data
    only: the trainer keeps its target bootstrap (``Trainer.bootstraps``).
    """

    __slots__ = ("record", "layout", "length", "uid")

    def __init__(self, obs, actions, avail, states, rewards, dones, valid, length, uid=-1):
        obs = np.asarray(obs, dtype=np.float64)
        states = np.asarray(states, dtype=np.float64)
        bits = np.concatenate([obs.ravel(), states.ravel()]).view(np.uint64)
        table, codes = np.unique(bits, return_inverse=True)
        code = np.min_scalar_type(max(len(table) - 1, 0))
        fields = dict(zip(_RAW, map(np.asarray, (rewards, actions, avail, dones, valid))))
        specs = [(name, _narrowest(a), a.dtype, a.shape) for name, a in fields.items()]
        specs += [("obs", code, obs.dtype, obs.shape), ("states", code, states.dtype, states.shape)]
        fields.update(obs=codes[:obs.size], states=codes[obs.size:])
        self.layout = _layout(tuple(specs))
        record = np.zeros(self.layout.fixed + table.nbytes, np.uint8)
        for name, (span, stored, _, _) in self.layout.fields.items():
            record[span].view(stored)[:] = fields[name].ravel()
        record[self.layout.fixed:].view(np.uint64)[:] = table
        self.record = record.tobytes()
        self.length = length
        self.uid = uid

    def _view(self, name):
        """Field ``name`` as stored: a read-only view of the record."""
        span, stored, _, shape = self.layout.fields[name]
        return np.frombuffer(self.record, stored, math.prod(shape), span.start).reshape(shape)

    @property
    def values(self):
        return np.frombuffer(self.record, np.float64, offset=self.layout.fixed)

    @property
    def state_codes(self):
        return self._view("states")

    @property
    def obs(self):
        return self.values.take(self._view("obs"))

    @property
    def states(self):
        return self.values.take(self._view("states"))

    @property
    def actions(self):
        actions = self._view("actions")
        return actions.astype(self.layout.fields["actions"][2], copy=False)

    @property
    def avail(self):
        return self._view("avail")

    @property
    def rewards(self):
        return self._view("rewards")

    @property
    def dones(self):
        return self._view("dones")

    @property
    def valid(self):
        return self._view("valid")

    @property
    def n_agents(self):
        return self.layout.fields["obs"][3][0]

    @property
    def max_length(self):
        return self.layout.fields["obs"][3][1]

    def shapes(self):
        """The shape of each array field, by name."""
        return {name: self.layout.fields[name][3] for name in FIELDS}

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
        actions, avail, state_codes = self.actions, self.avail, self.state_codes
        rewards, dones, valid = self.rewards, self.dones, self.valid
        yield actions.shape == (n, t), f"actions shape {actions.shape} != {(n, t)}"
        yield avail.shape[:2] == (n, t), f"avail shape {avail.shape}"
        yield state_codes.shape[0] == t, f"states length {state_codes.shape[0]} != {t}"
        yield rewards.shape == (t,), f"rewards shape {rewards.shape}"
        yield dones.shape == (t,), f"dones shape {dones.shape}"
        yield valid.shape == (t,), f"valid shape {valid.shape}"
        yield avail.dtype == bool, f"avail dtype {avail.dtype} is not bool"
        yield (np.issubdtype(actions.dtype, np.integer),
               f"actions dtype {actions.dtype} is not an integer type")
        n_actions = avail.shape[-1]
        yield (bool(((actions >= 0) & (actions < n_actions)).all()),
               f"actions outside range({n_actions})")
        yield 0 < self.length <= t, f"length {self.length} outside (0, {t}]"
        yield (bool(valid[: self.length].all()) and not bool(valid[self.length :].any()),
               "valid mask must be True exactly on [0, length)")
        yield bool(dones[self.length - 1]), "episode must end with done=True"
        yield (np.isfinite(self.values).all() and np.isfinite(rewards).all(),
               "non-finite entries")
        yield (actions[:, self.length :] == NOOP).all(), "padded actions must be no-op"


def stack_records(episodes):
    """The fields of M equally shaped episodes as new C-contiguous batch
    arrays, keyed by :data:`FIELDS`: ``obs``, ``actions`` and ``avail`` with
    the episode axis second, (n_agents, M, ...), the others with it first,
    and ``dones`` and ``valid`` as float64 0/1. Bit for bit
    ``np.stack`` of each field's reads (:func:`goalmix.oracles.slow_stack_episodes`).

    The records of each layout are stacked once, and each field of them is
    decoded with one gather: the coded fields from the value tables laid
    end to end, with one offset per row."""
    groups = {}
    for m, ep in enumerate(episodes):
        groups.setdefault(ep.layout, []).append(m)
    if len(groups) == 1:
        out = _stack_group(episodes[0].layout, [ep.record for ep in episodes])
    else:  # episodes of several layouts (code widths or dtypes): one stack each
        parts = [(rows, _stack_group(layout, [episodes[m].record for m in rows]))
                 for layout, rows in groups.items()]
        out = {}
        for name in FIELDS:
            axis = 1 if name in _AGENT_MAJOR else 0
            shape = list(parts[0][1][name].shape)
            shape[axis] = len(episodes)
            out[name] = np.empty(shape, np.result_type(*(part[name] for _, part in parts)))
            for rows, part in parts:
                out[name][(slice(None),) * axis + (rows,)] = part[name]
    return {name: out[name] for name in FIELDS}


def _stack_group(layout, records):
    """:func:`stack_records` of the ``records`` of episodes that share ``layout``."""
    m, fixed = len(records), layout.fixed
    heads = np.frombuffer(b"".join([memoryview(r)[:fixed] for r in records]),
                          np.uint8).reshape(m, fixed)
    tables = np.frombuffer(b"".join([memoryview(r)[fixed:] for r in records]), np.float64)
    sizes = (np.array([len(r) for r in records]) - fixed) // 8
    starts = np.cumsum(sizes) - sizes
    out = {}
    for name, (span, stored, read, shape) in layout.fields.items():
        rows = heads[:, span].view(stored).reshape(m, *shape)
        axis = 1 if name in _AGENT_MAJOR else 0
        rows = rows.swapaxes(0, axis)
        if name in _CODED:
            # each row's codes shifted to where its table starts, as a
            # C-contiguous index, so the gather is too
            shift = starts.reshape(m, *(1,) * (rows.ndim - 1 - axis))
            out[name] = tables.take(np.add(rows, shift, out=np.empty(rows.shape, np.intp)))
        elif name in ("dones", "valid"):
            out[name] = rows.astype(np.float64, order="C")
        else:
            out[name] = rows.astype(read, order="C")
    return out


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
