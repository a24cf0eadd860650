"""Parameterised function blocks, the optimiser and parameter containers.

Parameters for one network are a plain ``dict[str, np.ndarray]`` in a
fixed insertion order. Per-agent networks are slot-stacked: every array
carries a leading slot axis, one slot per agent or a single slot that
numpy broadcasting shares across agents. Forward passes are written once
and run either on raw arrays (fast, gradient-free) or on
:class:`~goalmix.autodiff.Tensor` wrapped parameters (graph mode).
:class:`ParamSet` bundles every learnable array of a training run
together with the target copies.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

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


def affine(params, prefix, x):
    """x @ w + b. Slot-stacked weights (S, n_in, n_out) take x (N, rows, n_in)
    with N = S, or any N when S = 1; a single net's weights take x (..., n_in)."""
    w, b = params[f"{prefix}.w"], params[f"{prefix}.b"]
    if x.shape[-1] != w.shape[-2]:
        raise ConfigurationError(
            f"block '{prefix}' expects input dim {w.shape[-2]}, got {x.shape[-1]}"
        )
    if w.ndim == 3:
        b = b.reshape(b.shape[0], 1, b.shape[1])
    return x @ w + b


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
    representation nets (``repr``, empty when disabled), plus target copies
    of the utility nets and the mixer.

    ``agent``, ``repr`` and ``target_agent`` are slot-stacked: each array
    has shape (S, ...), with S the number of agents, or 1 when all agents
    share one net. ``named_online``/``named_all`` yield one view per slot,
    named ``agent.<i>.<name>``; optimiser state and checkpoints use these.
    """

    agent: Params = field(default_factory=dict)
    mixer: Params = field(default_factory=dict)
    repr: Params = field(default_factory=dict)
    target_agent: Params = field(default_factory=dict)
    target_mixer: Params = field(default_factory=dict)

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

    def copy(self):
        return self.map(_copy_params)

    def all_finite(self):
        return all(np.all(np.isfinite(v)) for _, v in self.named_all())


def sync_targets(ps: ParamSet) -> ParamSet:
    """Copy online utility/mixer arrays onto the target copies (idempotent)."""
    ps.target_agent = _copy_params(ps.agent)
    ps.target_mixer = _copy_params(ps.mixer)
    return ps


# ---------------------------------------------------------------------------
# optimiser
# ---------------------------------------------------------------------------


class RMSProp:
    """RMSProp with a persistent per-array accumulator.

    s <- decay*s + (1-decay)*g^2 ; p <- p - lr*g/(sqrt(s)+eps)
    """

    def __init__(self, lr=5e-4, decay=0.99, eps=1e-5):
        self.lr = lr
        self.decay = decay
        self.eps = eps
        self.sq = {}

    def step(self, named_params, grads):
        """Update arrays in place. ``named_params`` is an iterable of
        (name, array); ``grads`` maps the same names to gradient arrays."""
        pairs = list(named_params)
        for name, p in pairs:
            g = grads[name]
            if g.shape != p.shape:
                raise ConfigurationError(f"gradient shape mismatch for {name}")
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradientError(f"non-finite gradient entries in {name}")
        for name, p in pairs:
            g = grads[name]
            s = self.sq.get(name)
            if s is None:
                s = np.zeros_like(p)
            s = self.decay * s + (1.0 - self.decay) * g * g
            self.sq[name] = s
            p -= self.lr * g / (np.sqrt(s) + self.eps)


def clip_grads_global(grads, max_norm):
    """Scale all gradients so the joint L2 norm is at most ``max_norm`` (> 0).

    Finite gradients whose sum of squares overflows are measured again in
    units of their largest |g|, so they are scaled down to the bound rather
    than to zero. Gradients with a NaN or Inf entry come back unscaled, and
    :meth:`RMSProp.step` rejects them.
    """
    total = 0.0
    with np.errstate(over="ignore"):
        for g in grads.values():
            total += float(np.sum(g * g))
    unit = 1.0
    if not np.isfinite(total):
        peak = max(float(np.max(np.abs(g), initial=0.0)) for g in grads.values())
        if np.isfinite(peak):
            unit = peak
            total = sum(float(np.sum(np.square(g / peak))) for g in grads.values())
    norm = np.sqrt(total)  # in units of `unit`
    if np.isfinite(norm) and norm > max_norm / unit:
        scale = max_norm / unit / norm
        grads = {k: g * scale for k, g in grads.items()}
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
    layout, arrays = [], []
    for group in GROUPS:
        for key, arr in getattr(ps, group).items():
            layout.append([group, key, list(arr.shape)])
            arrays.append(np.ravel(arr))
    header = {
        "version": CHECKPOINT_VERSION,
        "n_agents": n_slots(ps.agent),
        "n_reprs": n_slots(ps.repr),
        "meta": meta or {},
        "layout": layout,
    }
    params = np.concatenate([np.empty(0), *arrays])
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}"
    try:
        with open(tmp, "wb") as fh:
            np.savez(fh, header=np.frombuffer(json.dumps(header).encode(), dtype=np.uint8),
                     params=params)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _malformed(path, problem):
    return ConfigurationError(f"malformed checkpoint {os.fspath(path)}: {problem}")


def _unpack(path, layout, params):
    """The ParamSet of a version-2 layout: each array a reshaped slice of
    ``params``, which is read once."""
    try:
        sizes = [int(np.prod(shape, dtype=np.int64)) for _, _, shape in layout]
    except (TypeError, ValueError):
        raise _malformed(path, "layout is not a list of [group, key, shape]") from None
    if params.ndim != 1 or params.dtype != np.float64 or params.size != sum(sizes):
        raise _malformed(path, f"params is {params.dtype} of shape {params.shape}, "
                               f"the layout needs float64 of shape ({sum(sizes)},)")
    groups = {g: {} for g in GROUPS}
    offset = 0
    for (group, key, shape), size in zip(layout, sizes):
        if group not in groups:
            raise _malformed(path, f"unknown group {group!r}")
        if key in groups[group]:
            raise _malformed(path, f"{group}.{key} occurs twice")
        groups[group][key] = params[offset:offset + size].reshape(shape)
        offset += size
    return ParamSet(**groups)


def load_checkpoint(path):
    """Read a checkpoint back into a ParamSet; returns (ParamSet, meta).
    Version 1 files (one ``param/<name>`` array per slot) still load."""
    with np.load(path) as data:
        if "header" not in data.files:
            raise _malformed(path, "no 'header' entry")
        try:
            header = json.loads(bytes(data["header"]).decode())
        except ValueError:
            raise _malformed(path, "the header is not JSON") from None
        if not isinstance(header, dict) or "version" not in header:
            raise _malformed(path, "the header has no 'version'")
        if header["version"] == 1:
            named = [(key[len("param/"):], data[key])
                     for key in data.files if key.startswith("param/")]
            unknown = [name for name, _ in named if name.split(".", 1)[0] not in GROUPS]
            if unknown:
                raise _malformed(path, f"unknown group in {unknown[0]!r}")
            ps = ParamSet.from_named(named)
        elif header["version"] == CHECKPOINT_VERSION:
            if "params" not in data.files:
                raise _malformed(path, "no 'params' entry")
            ps = _unpack(path, header.get("layout"), data["params"])
        else:
            raise ConfigurationError(
                f"unsupported checkpoint version {header['version']} in {os.fspath(path)}"
            )
    return ps, header["meta"]
