"""Parameterised function blocks, the optimiser and parameter containers.

Parameters for one network are a plain ``dict[str, np.ndarray]`` in a
fixed insertion order. Per-agent networks are slot-stacked: every array
carries a leading slot axis, one slot per agent or a single slot that
numpy broadcasting shares across agents. Forward passes are written once
and run either on raw arrays (fast, gradient-free) or on
:class:`~goalmix.autodiff.Tensor` wrapped parameters (graph mode).
:class:`ParamSet` bundles every learnable array of a training run
together with the target copies; once packed (:meth:`ParamSet.packed`)
its arrays are views of one float64 vector per role, so the optimiser
step, the gradient clip, the finite checks and the target sync are
whole-vector operations.
"""

from __future__ import annotations

import json
import math
import os
import zipfile
from dataclasses import dataclass, field

import numpy as np

from . import autodiff
from .autodiff import Tensor, stack

Params = dict  # name -> np.ndarray (or Tensor in graph mode)

CHECKPOINT_VERSION = 2


class ConfigurationError(ValueError):
    """Raised for shape/arity mismatches when wiring blocks, and for
    checkpoints that are malformed or of an unknown version."""


class NonFiniteGradientError(RuntimeError):
    """Raised when an update would consume NaN/Inf gradient entries."""


# ---------------------------------------------------------------------------
# initialisation and affine blocks
# ---------------------------------------------------------------------------


def uniform_init(rng, fan_in, shape):
    """Weights uniform in [-1/sqrt(fan_in), +1/sqrt(fan_in)]."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def linear_params(rng, n_in, n_out, prefix):
    return {
        f"{prefix}.w": uniform_init(rng, n_in, (n_in, n_out)),
        f"{prefix}.b": np.zeros(n_out),
    }


def affine(params, prefix, x, relu=False):
    """x @ w + b, and max(x @ w + b, 0) with ``relu``: one
    :func:`~goalmix.autodiff.affine`. Slot-stacked weights (S, n_in, n_out)
    take x (N, rows, n_in) with N = S, or any N when S = 1; a single net's
    weights take x (..., n_in)."""
    w, b = params[f"{prefix}.w"], params[f"{prefix}.b"]
    if x.shape[-1] != w.shape[-2]:
        raise ConfigurationError(
            f"block '{prefix}' expects input dim {w.shape[-2]}, got {x.shape[-1]}"
        )
    return autodiff.affine(x, w, b, relu)


# ---------------------------------------------------------------------------
# graph-mode helpers
# ---------------------------------------------------------------------------


def as_tensors(params):
    """Wrap every array of a parameter dict for graph-mode evaluation."""
    return {k: Tensor(v) for k, v in params.items()}


def grads_from_tensors(tensor_params):
    """Read accumulated gradients back out, zeros where a parameter was unused."""
    out = {}
    for name, t in tensor_params.items():
        out[name] = t.grad if t.grad is not None else np.zeros_like(t.data)
    return out


def weighted_sq_error(pred, target, weights):
    """sum(weights * (pred - target)^2): the form of the TD and representation losses."""
    delta = pred - target
    return (delta * delta * weights).sum()


def gradient(loss, tensor_params):
    """Reverse-mode gradient of a scalar loss w.r.t. wrapped parameters: a
    dict of Tensors, or a :class:`ParamSet` of them (gradients come back in
    the same container)."""
    if not isinstance(loss, Tensor):
        raise ConfigurationError("loss did not depend on any parameter Tensor")
    if loss.data.size != 1:
        raise ConfigurationError(f"loss must be scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NonFiniteGradientError(f"loss is non-finite: {float(loss.data)}")
    loss.backward()
    if isinstance(tensor_params, ParamSet):
        return tensor_params.map(grads_from_tensors)
    return grads_from_tensors(tensor_params)


# ---------------------------------------------------------------------------
# the full parameter set of a run
# ---------------------------------------------------------------------------

# the groups of a ParamSet; SLOTTED groups are slot-stacked per-agent nets
GROUPS = ("agent", "mixer", "repr", "target_agent", "target_mixer")
ONLINE = GROUPS[:3]
SLOTTED = ("agent", "repr", "target_agent")


def _copy_params(p):
    return {k: v.copy() for k, v in p.items()}


def flatten(groups):
    """The arrays of ``groups`` (parameter dicts) end to end in one 1-D
    float64 vector, group by group in dict order: the checkpoint layout."""
    return np.concatenate([np.empty(0), *(a.ravel() for g in groups for a in g.values())])


def _views(vector, groups):
    """Dicts with the keys and shapes of ``groups``, each array a reshaped
    view of ``vector``, which holds them end to end."""
    out, offset = [], 0
    for group in groups:
        views = {}
        for key, arr in group.items():
            views[key] = vector[offset:offset + arr.size].reshape(arr.shape)
            offset += arr.size
        out.append(views)
    return out


class FlatParams:
    """The storage of a packed :class:`ParamSet`: ``online``, the groups
    agent, mixer and repr end to end in checkpoint-layout order, and
    ``target``, the groups target_agent and target_mixer. ``views`` lists
    ``(name, start, stop)`` of every :meth:`ParamSet.named_online` view in
    ``online``, in that order; the optimiser and the clip take it.
    ``generation`` marks the target nets' generation, under which
    ``Trainer.batch_bootstrap`` caches: a new object at every packing and
    every :func:`sync_targets`. Writing into target arrays in place keeps it."""

    def __init__(self, ps):
        online = [getattr(ps, g) for g in ONLINE]
        self.online = flatten(online)
        self.target = flatten([ps.target_agent, ps.target_mixer])
        ps.agent, ps.mixer, ps.repr = _views(self.online, online)
        ps.target_agent, ps.target_mixer = _views(self.target, [ps.target_agent,
                                                                ps.target_mixer])
        self.n_synced = sum(a.size for g in online[:2] for a in g.values())
        self.arrays = _group_arrays(ps)
        # the span of each named view, read off the same views of 0, 1, 2, ...
        index = ParamSet(*_views(np.arange(self.online.size), online))
        self.views = tuple((name, int(v.flat[0]), int(v.flat[0]) + v.size)
                           for name, v in index.named_online())
        self.generation = object()

    def holds(self, ps):
        """Whether every group array of ``ps`` is still this storage's view
        (the identity test of :meth:`ParamSet.packed`)."""
        arrays = _group_arrays(ps)
        return len(arrays) == len(self.arrays) and all(
            a is b for a, b in zip(arrays, self.arrays))

    def all_finite(self):
        return bool(np.isfinite(self.online).all() and np.isfinite(self.target).all())


def _group_arrays(ps):
    return tuple(a for g in GROUPS for a in getattr(ps, g).values())


def stack_slots(nets):
    """One slot-stacked parameter dict from per-slot dicts with the same keys
    (Tensors stack into a graph node); no nets give an empty dict."""
    return {k: stack([p[k] for p in nets]) for k in nets[0]} if nets else {}


def n_slots(params):
    """Length of the slot axis of a slot-stacked parameter dict (0 if empty)."""
    return len(next(iter(params.values()))) if params else 0


@dataclass
class ParamSet:
    """All learnable arrays: the utility nets (``agent``), the mixer, the
    representation nets (``repr``, empty when λ_d = 0), plus target copies
    of the utility nets and the mixer.

    ``agent``, ``repr`` and ``target_agent`` are slot-stacked: each array
    has shape (S, ...), with S the number of agents, or 1 when all agents
    share one net. ``named_online``/``named_all`` yield one view per slot,
    named ``agent.<i>.<name>``; the optimiser's error messages and
    ``goalmix eval``'s shape check use these.
    """

    agent: Params = field(default_factory=dict)
    mixer: Params = field(default_factory=dict)
    repr: Params = field(default_factory=dict)
    target_agent: Params = field(default_factory=dict)
    target_mixer: Params = field(default_factory=dict)
    _flat: FlatParams | None = field(default=None, init=False, repr=False, compare=False)

    def _named(self, groups):
        for group in groups:
            params = getattr(self, group)
            if group in SLOTTED:
                for i in range(n_slots(params)):
                    yield from ((f"{group}.{i}.{k}", v[i]) for k, v in params.items())
            else:
                yield from ((f"{group}.{k}", v) for k, v in params.items())

    def named_online(self):
        """Deterministic (name, array) iteration over trainable params."""
        return self._named(ONLINE)

    def named_all(self):
        return self._named(GROUPS)

    @classmethod
    def from_named(cls, named):
        """Inverse of :meth:`named_all`: the per-slot (name, array) pairs
        stacked by slot; groups that do not occur stay empty."""
        groups = {g: {} for g in GROUPS}
        for name, arr in named:
            group, key = name.split(".", 1)
            if group in SLOTTED:
                i, key = key.split(".", 1)
                groups[group].setdefault(key, {})[int(i)] = arr
            else:
                groups[group][key] = arr
        for group in SLOTTED:
            groups[group] = {k: stack([v[i] for i in range(len(v))])
                             for k, v in groups[group].items()}
        return cls(**groups)

    def map(self, fn):
        """A ParamSet of ``fn`` applied to each group's dict."""
        return ParamSet(*(fn(getattr(self, g)) for g in GROUPS))

    def packed(self):
        """The :class:`FlatParams` whose vectors hold every array of this set.
        Packs afresh, copying the arrays into new vectors and replacing each
        group with views of them, when a group array is not a view of the
        last packing (never packed, or a group or array was reassigned)."""
        if self._flat is None or not self._flat.holds(self):
            self._flat = FlatParams(self)
        return self._flat


def sync_targets(ps: ParamSet) -> ParamSet:
    """Copy the online utility/mixer arrays onto the target copies
    (idempotent), starting a new target generation. The target groups get
    new arrays; the old ones are left as they were. Once ``ps`` is packed
    (``Trainer.train_block`` packs it) this is one copy of the front of the
    online vector, the new target arrays are views of that copy, and
    ``FlatParams.generation`` is replaced. A set never packed is copied
    array by array and stays unpacked (its next packing is a new
    generation), so a trainer that only evaluates never pays for packing."""
    if ps._flat is None:
        ps.target_agent, ps.target_mixer = _copy_params(ps.agent), _copy_params(ps.mixer)
        return ps
    flat = ps.packed()
    flat.target = flat.online[:flat.n_synced].copy()
    ps.target_agent, ps.target_mixer = _views(flat.target, [ps.agent, ps.mixer])
    flat.arrays = _group_arrays(ps)
    flat.generation = object()
    return ps


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------


class RMSProp:
    """RMSProp over one flat parameter vector, with a persistent accumulator.

    s <- decay*s + (1-decay)*g^2 ; p <- p - lr*g/(sqrt(s)+eps)
    """

    def __init__(self, lr=5e-4, decay=0.99, eps=1e-5):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self.sq = None     # the accumulator, laid out as ``views`` says
        self.views = None

    def step(self, params, grads, views):
        """Update the 1-D vector ``params`` in place from ``grads`` (same
        shape). ``views`` lists ``(name, start, stop)`` of the named arrays
        ``params`` holds (:attr:`FlatParams.views`); the accumulator starts
        at zero, and again whenever ``views`` changes. A NaN or Inf gradient
        entry raises, naming the first array that holds one, and leaves
        ``params`` untouched."""
        if grads.shape != params.shape:
            raise ConfigurationError(
                f"gradient of shape {grads.shape} for parameters of shape {params.shape}")
        if not np.isfinite(grads).all():
            name = next(n for n, a, b in views if not np.isfinite(grads[a:b]).all())
            raise NonFiniteGradientError(f"non-finite gradient entries in {name}")
        s = self.sq
        if s is None or (views is not self.views and views != self.views):
            s = self.sq = np.zeros_like(params)
            self.views = views
        # in place, in the operand order of s = decay*s + (1-decay)*g*g and
        # p -= lr*g / (sqrt(s) + eps)
        work = np.multiply(1.0 - self.decay, grads)
        np.multiply(work, grads, out=work)
        np.multiply(self.decay, s, out=s)
        np.add(s, work, out=s)
        step = np.multiply(self.lr, grads)
        np.add(np.sqrt(s, out=work), self.eps, out=work)
        params -= np.divide(step, work, out=step)


def clip_grads_global(grads, max_norm, views):
    """Scale the 1-D gradient ``grads`` so its L2 norm is at most
    ``max_norm`` (> 0); returns the scaled vector, or ``grads`` itself.

    The sum of squares adds one ``np.sum`` (as ``np.add.reduce``, without
    its Python wrapper) per ``(name, start, stop)`` of ``views``, in order,
    as the per-array norms did. Finite gradients whose
    sum of squares overflows are measured again in units of their largest
    |g|, so they are scaled down to the bound rather than to zero.
    Gradients with a NaN or Inf entry come back unscaled, and
    :meth:`RMSProp.step` rejects them.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        sq = grads * grads
        for _, start, stop in views:
            total += float(np.add.reduce(sq[start:stop]))
    unit = 1.0
    if not np.isfinite(total):
        peak = float(np.max(np.abs(grads), initial=0.0))
        if np.isfinite(peak):
            unit = peak
            sq = np.square(grads / peak)
            total = sum(float(np.add.reduce(sq[start:stop])) for _, start, stop in views)
    norm = np.sqrt(total)  # in units of `unit`
    if np.isfinite(norm) and norm > max_norm / unit:
        grads = grads * (max_norm / unit / norm)
    return grads


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, ps: ParamSet, meta=None):
    """Write a version-2 .npz checkpoint (documented in the README): a JSON
    ``header`` whose ``layout`` lists ``[group, key, shape]`` in GROUPS
    order, and one float64 ``params`` vector holding those arrays end to end.
    The file is written beside ``path`` and moved over it, so a failed write
    leaves any existing checkpoint as it was."""
    groups = [getattr(ps, g) for g in GROUPS]
    layout = [[g, key, list(arr.shape)] for g, params in zip(GROUPS, groups)
              for key, arr in params.items()]
    header = {
        "version": CHECKPOINT_VERSION,
        "n_agents": n_slots(ps.agent),
        "n_reprs": n_slots(ps.repr),
        "meta": meta or {},
        "layout": layout,
    }
    params = flatten(groups)
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                     params=params)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def malformed_checkpoint(path, problem):
    return ConfigurationError(f"malformed checkpoint {os.fspath(path)}: {problem}")


def _unpack(path, layout, params):
    """The ParamSet of a version-2 layout: each array a reshaped slice of
    ``params``, which is read once."""
    try:
        if not all(isinstance(group, str) and isinstance(key, str)
                   and all(type(n) is int and n >= 0 for n in shape)
                   for group, key, shape in layout):
            raise TypeError
        sizes = [math.prod(shape) for _, _, shape in layout]
    except (TypeError, ValueError):
        raise malformed_checkpoint(path, "layout is not a list of [group, key, shape] of two "
                                         "strings and a list of non-negative integers") from None
    if params.ndim != 1 or params.dtype != np.float64 or params.size != sum(sizes):
        raise malformed_checkpoint(path, f"params is {params.dtype} of shape {params.shape}, "
                                         f"the layout needs float64 of shape ({sum(sizes)},)")
    groups = {g: {} for g in GROUPS}
    offset = 0
    for (group, key, shape), size in zip(layout, sizes):
        if group not in groups:
            raise malformed_checkpoint(path, f"unknown group {group!r}")
        if key in groups[group]:
            raise malformed_checkpoint(path, f"{group}.{key} occurs twice")
        groups[group][key] = params[offset:offset + size].reshape(shape)
        offset += size
    return ParamSet(**groups)


def _check_slot_counts(path, header, ps):
    """The header's ``n_agents`` and ``n_reprs`` against the layout: the
    leading axis of every agent, target_agent and repr array, and the slot
    count of the agent and repr groups (0 when empty)."""
    for count, groups in (("n_agents", ("agent", "target_agent")), ("n_reprs", ("repr",))):
        n = header.get(count)
        for group in groups:
            for key, arr in getattr(ps, group).items():
                if arr.shape[:1] != (n,):
                    raise malformed_checkpoint(path, f"the header says {count} {n!r}, "
                                                     f"but {group}.{key} has shape {arr.shape}")
        if n != n_slots(getattr(ps, groups[0])):
            raise malformed_checkpoint(path, f"the header says {count} {n!r}, "
                                             f"but the {groups[0]} group is empty")


def _member(path, data, key):
    """The array ``key`` of the open archive ``data``; a member whose bytes
    fail their CRC or do not parse as an array is a malformed checkpoint."""
    try:
        return data[key]
    except (ValueError, EOFError, zipfile.BadZipFile) as err:
        raise malformed_checkpoint(path, f"the {key!r} entry is damaged ({err!r})") from None


def load_checkpoint(path):
    """Read a version-2 checkpoint back into a ParamSet; returns
    (ParamSet, meta). Any other version is a :class:`ConfigurationError`."""
    try:
        data = np.load(path)
    except (ValueError, EOFError, zipfile.BadZipFile) as err:  # text, empty, truncated
        raise malformed_checkpoint(path, f"not an .npz archive ({err!r})") from None
    if not isinstance(data, np.lib.npyio.NpzFile):
        raise malformed_checkpoint(path, f"not an .npz archive (an .npy array of shape "
                                         f"{data.shape})")
    with data:
        if "header" not in data.files:
            raise malformed_checkpoint(path, "no 'header' entry")
        raw_header = bytes(_member(path, data, "header"))
        try:
            header = json.loads(raw_header.decode())
        except ValueError:
            raise malformed_checkpoint(path, "the header is not JSON") from None
        if not isinstance(header, dict) or "version" not in header:
            raise malformed_checkpoint(path, "the header has no 'version'")
        if "meta" not in header:
            raise malformed_checkpoint(path, "the header has no 'meta'")
        if header["version"] == CHECKPOINT_VERSION:
            if "params" not in data.files:
                raise malformed_checkpoint(path, "no 'params' entry")
            ps = _unpack(path, header.get("layout"), _member(path, data, "params"))
            _check_slot_counts(path, header, ps)
        else:
            raise ConfigurationError(
                f"unsupported checkpoint version {header['version']} in {os.fspath(path)}"
            )
    return ps, header["meta"]
