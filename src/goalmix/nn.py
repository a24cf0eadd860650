"""Parameterised function blocks, the optimiser and parameter containers.

Parameters for one network are a plain ``dict[str, np.ndarray]`` in a
fixed insertion order. Forward passes are written once and run either
on raw arrays (fast, gradient-free) or on :class:`~goalmix.autodiff.Tensor`
wrapped parameters (graph mode). :class:`ParamSet` bundles every
learnable array of a training run together with the target copies.
"""

from __future__ import annotations

import io
import json
from dataclasses import dataclass, field

import numpy as np

from .autodiff import Tensor, sigmoid, tanh

Params = dict  # name -> np.ndarray (or Tensor in graph mode)

CHECKPOINT_VERSION = 1


class ConfigurationError(ValueError):
    """Raised for shape/arity mismatches when wiring blocks."""


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
    w = params[f"{prefix}.w"]
    wshape = w.shape if not isinstance(w, Tensor) else w.data.shape
    xshape = x.shape if not isinstance(x, Tensor) else x.data.shape
    if xshape[-1] != wshape[0]:
        raise ConfigurationError(
            f"block '{prefix}' expects input dim {wshape[0]}, got {xshape[-1]}"
        )
    return x @ w + params[f"{prefix}.b"]


class GRUCell:
    """Gated recurrent cell (update + reset gates, candidate via reset-scaled state)."""

    def __init__(self, n_in, n_hidden):
        self.n_in = n_in
        self.n_hidden = n_hidden

    def init_params(self, rng, prefix="gru"):
        p = {}
        for gate in ("z", "r", "n"):
            p.update(linear_params(rng, self.n_in, self.n_hidden, f"{prefix}.x{gate}"))
            p[f"{prefix}.h{gate}.w"] = uniform_init(
                rng, self.n_hidden, (self.n_hidden, self.n_hidden)
            )
        return p

    def step(self, params, x, h, prefix="gru"):
        return gru_update(
            params,
            affine(params, f"{prefix}.xz", x),
            affine(params, f"{prefix}.xr", x),
            affine(params, f"{prefix}.xn", x),
            h,
            prefix,
        )


def gru_update(params, xz, xr, xn, h, prefix="gru"):
    """Next hidden state from the input projections xz, xr, xn of the
    update, reset and candidate gates and the previous state h."""
    z = sigmoid(xz + h @ params[f"{prefix}.hz.w"])
    r = sigmoid(xr + h @ params[f"{prefix}.hr.w"])
    n = tanh(xn + (r * h) @ params[f"{prefix}.hn.w"])
    return (1.0 - z) * n + z * h


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
    """Reverse-mode gradient of a scalar loss w.r.t. wrapped parameters."""
    if not isinstance(loss, Tensor):
        raise ConfigurationError("loss did not depend on any parameter Tensor")
    if loss.data.size != 1:
        raise ConfigurationError(f"loss must be scalar, got shape {loss.data.shape}")
    if not np.isfinite(loss.data):
        raise NonFiniteGradientError(f"loss is non-finite: {float(loss.data)}")
    loss.backward()
    return grads_from_tensors(tensor_params)


# ---------------------------------------------------------------------------
# the full parameter set of a run
# ---------------------------------------------------------------------------


def _copy_params(p):
    return {k: v.copy() for k, v in p.items()}


@dataclass
class ParamSet:
    """All learnable arrays: per-agent utility nets, mixer, representation
    nets, plus target copies of the utility nets and the mixer."""

    agents: list = field(default_factory=list)
    mixer: Params = field(default_factory=dict)
    reprs: list = field(default_factory=list)
    target_agents: list = field(default_factory=list)
    target_mixer: Params = field(default_factory=dict)

    @property
    def n_agents(self):
        return len(self.agents)

    def named_online(self):
        """Deterministic (name, array) iteration over trainable params."""
        for i, p in enumerate(self.agents):
            for k, v in p.items():
                yield f"agent.{i}.{k}", v
        for k, v in self.mixer.items():
            yield f"mixer.{k}", v
        for i, p in enumerate(self.reprs):
            for k, v in p.items():
                yield f"repr.{i}.{k}", v

    def named_all(self):
        yield from self.named_online()
        for i, p in enumerate(self.target_agents):
            for k, v in p.items():
                yield f"target_agent.{i}.{k}", v
        for k, v in self.target_mixer.items():
            yield f"target_mixer.{k}", v

    def copy(self):
        return ParamSet(
            agents=[_copy_params(p) for p in self.agents],
            mixer=_copy_params(self.mixer),
            reprs=[_copy_params(p) for p in self.reprs],
            target_agents=[_copy_params(p) for p in self.target_agents],
            target_mixer=_copy_params(self.target_mixer),
        )

    def all_finite(self):
        return all(np.all(np.isfinite(v)) for _, v in self.named_all())


def sync_targets(ps: ParamSet) -> ParamSet:
    """Copy online utility/mixer arrays onto the target copies (idempotent)."""
    ps.target_agents = [_copy_params(p) for p in ps.agents]
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
    """Scale all gradients so the joint L2 norm is at most ``max_norm``."""
    if not max_norm or max_norm <= 0:
        return grads
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > max_norm:
        scale = max_norm / norm
        grads = {k: g * scale for k, g in grads.items()}
    return grads


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def save_checkpoint(path, ps: ParamSet, meta=None):
    """Write a versioned .npz checkpoint (documented in the README)."""
    arrays = {f"param/{name}": arr for name, arr in ps.named_all()}
    header = {
        "version": CHECKPOINT_VERSION,
        "n_agents": ps.n_agents,
        "n_reprs": len(ps.reprs),
        "meta": meta or {},
    }
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path):
    """Read a checkpoint back into a ParamSet; returns (ParamSet, meta)."""
    with np.load(path) as data:
        header = json.loads(bytes(data["header"]).decode())
        if header["version"] != CHECKPOINT_VERSION:
            raise ConfigurationError(
                f"unsupported checkpoint version {header['version']}"
            )
        ps = ParamSet(
            agents=[{} for _ in range(header["n_agents"])],
            target_agents=[{} for _ in range(header["n_agents"])],
            reprs=[{} for _ in range(header["n_reprs"])],
        )
        for key in data.files:
            if not key.startswith("param/"):
                continue
            name = key[len("param/"):]
            head, rest = name.split(".", 1)
            if head == "agent":
                i, sub = rest.split(".", 1)
                ps.agents[int(i)][sub] = data[key]
            elif head == "target_agent":
                i, sub = rest.split(".", 1)
                ps.target_agents[int(i)][sub] = data[key]
            elif head == "repr":
                i, sub = rest.split(".", 1)
                ps.reprs[int(i)][sub] = data[key]
            elif head == "mixer":
                ps.mixer[rest] = data[key]
            elif head == "target_mixer":
                ps.target_mixer[rest] = data[key]
    return ps, header["meta"]
