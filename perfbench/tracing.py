"""Spans around goalmix's public layer functions, for traced runs only.

``Tracer.install()`` replaces each function named in ``TARGETS`` on its
class or module with a wrapper that records one span (name, start, end,
parent span, op id); ``uninstall()`` puts the originals back. Nothing in
the package is edited, and an untraced run never imports this module.

Spans are kept in memory. A layer's self time is the duration of its
spans minus the time covered by their direct children.
"""

from __future__ import annotations

import time
from collections import defaultdict

from goalmix import agents, autodiff, env, mixer, nn, oracles, replay, rewards, training

# Per-layer names in report order. The figures of the layers in
# SETUP_LAYERS are per set-up; all others are per op.
LAYERS = (
    "training.train_block",
    "autodiff.backward",
    "agents.unroll_graph",
    "agents.unroll_np",
    "agents.step",
    "env.step",
    "env.avail_actions",
    "env.reset",
    "training.prepare_block",
    "training.block_losses",
    "mixer.forward",
    "rewards.repr_forward",
    "nn.rmsprop_step",
    "nn.clip_grads_global",
    "nn.sync_targets",
    "replay.sample",
    "replay.push",
    "training.stack_episodes",
    "training.evaluate",
    "training.collect_episode",
    "nn.load_checkpoint",
)
SETUP_LAYERS = ("nn.load_checkpoint",)


def _unroll_name(args):
    # RecurrentQNet.unroll(self, params, obs_seq): graph mode when the
    # parameters are Tensors (online net), plain numpy otherwise (target net)
    params = args[1]
    first = next(iter(params.values()))
    return "agents.unroll_graph" if isinstance(first, autodiff.Tensor) else "agents.unroll_np"


# (layer name or a function of the call's positional arguments, owner, attribute).
# Module-level functions are patched in the module whose code calls them,
# since ``from .nn import f`` binds its own name.
TARGETS = (
    ("training.train_block", training.Trainer, "train_block"),
    ("autodiff.backward", autodiff.Tensor, "backward"),
    (_unroll_name, agents.RecurrentQNet, "unroll"),
    ("agents.step", agents.RecurrentQNet, "step"),
    ("env.step", env.SkirmishEnv, "step"),
    ("env.step", oracles.TabularEnv, "step"),
    ("env.avail_actions", env.SkirmishEnv, "avail_actions"),
    ("env.avail_actions", oracles.TabularEnv, "avail_actions"),
    ("env.reset", env.SkirmishEnv, "reset"),
    ("env.reset", oracles.TabularEnv, "reset"),
    ("training.prepare_block", training.Trainer, "prepare_block"),
    ("training.block_losses", training.Trainer, "block_losses"),
    ("mixer.forward", mixer.MonotonicMixer, "forward"),
    ("rewards.repr_forward", rewards.ReprNet, "forward"),
    ("nn.rmsprop_step", nn.RMSProp, "step"),
    ("nn.clip_grads_global", training, "clip_grads_global"),
    ("nn.sync_targets", training, "sync_targets"),
    ("replay.sample", replay.ReplayBuffer, "sample"),
    ("replay.push", replay.ReplayBuffer, "push"),
    ("training.stack_episodes", training, "stack_episodes"),
    ("training.evaluate", training.Trainer, "evaluate"),
    ("training.collect_episode", training.Trainer, "collect_episode"),
    ("nn.load_checkpoint", nn, "load_checkpoint"),
)


class Tracer:
    def __init__(self):
        self.spans = []   # (name, start, end, parent index or -1, op id)
        self.op = -1      # -1 while setting up
        self.nodes = 0    # Tensor constructions so far
        self.node_counts = []  # Tensor constructions of each traced op
        self._open = []
        self._saved = []

    def _wrap(self, fn, name):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        pick = name if callable(name) else (lambda args: name)

        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = open_[-1] if open_ else -1
            open_.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_.pop()
                spans[index] = (pick(args), start, end, parent, self.op)

        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for name, owner, attr in TARGETS:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        init = autodiff.Tensor.__init__
        self._saved.append((autodiff.Tensor, "__init__", init))

        def counting_init(tensor, *args, **kwargs):
            self.nodes += 1
            init(tensor, *args, **kwargs)

        autodiff.Tensor.__init__ = counting_init

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def layer_table(self, n_ops):
        """{layer: (self ms, calls)}, per op over ops 0.., per set-up for SETUP_LAYERS."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        calls = defaultdict(int)
        for index, (name, start, end, _, op) in enumerate(self.spans):
            if (op < 0) == (name in SETUP_LAYERS):
                self_s[name] += end - start - child[index]
                calls[name] += 1
        out = {}
        for name in LAYERS:
            per = 1 if name in SETUP_LAYERS else n_ops
            out[name] = (1e3 * self_s[name] / per, calls[name] / per)
        return out

    def write_spans(self, path):
        """CSV of every span, times in microseconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w") as fh:
            fh.write("name,start_us,end_us,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{(start - origin) * 1e6:.1f},{(end - origin) * 1e6:.1f},"
                         f"{parent},{op}\n")
