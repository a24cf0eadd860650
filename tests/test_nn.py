"""Blocks, gradients, RMSProp, target sync and checkpoint IO."""

import json
import math

import numpy as np
import pytest

from goalmix.agents import RecurrentQNet
from goalmix.autodiff import Tensor, relu
from goalmix.nn import (
    ConfigurationError,
    NonFiniteGradientError,
    ParamSet,
    RMSProp,
    affine,
    as_tensors,
    clip_grads_global,
    gradient,
    linear_params,
    load_checkpoint,
    save_checkpoint,
    stack_slots,
    sync_targets,
    uniform_init,
)
from goalmix.oracles import finite_diff_grad
from tests.conftest import assert_grads_close, make_nets, make_paramset, zero_params

# frozen on the first correct run (seed 42, input [0.5, -1, 2])
TWO_LAYER_GOLDEN = [0.2520150121511014, 0.10127670374834144]


def test_affine_identity():
    p = {"l.w": np.eye(2), "l.b": np.zeros(2)}
    out = affine(p, "l", np.array([[1.0, 2.0]]))
    np.testing.assert_array_equal(out, [[1.0, 2.0]])


def test_affine_dimension_mismatch_is_configuration_error():
    p = {"l.w": np.eye(2), "l.b": np.zeros(2)}
    with pytest.raises(ConfigurationError):
        affine(p, "l", np.ones((1, 3)))


def test_gru_zero_params_zero_hidden_gives_zero():
    qnet = RecurrentQNet(3, 2, 3)
    params = zero_params(qnet.init_params(np.random.default_rng(0)))
    q, h = qnet.step(params, np.random.default_rng(1).normal(size=(2, 3)), np.zeros((2, 3)))
    np.testing.assert_array_equal(h, np.zeros((2, 3)))
    np.testing.assert_array_equal(q, np.zeros((2, 2)))


def test_two_layer_block_golden_value():
    rng = np.random.default_rng(42)
    p = linear_params(rng, 3, 4, "l1")
    p.update(linear_params(rng, 4, 2, "l2"))
    out = affine(p, "l2", relu(affine(p, "l1", np.array([[0.5, -1.0, 2.0]]))))
    np.testing.assert_allclose(out[0], TWO_LAYER_GOLDEN, rtol=0, atol=1e-15)


def test_evaluation_is_deterministic():
    rng = np.random.default_rng(3)
    qnet = RecurrentQNet(4, 3, 8)
    params = qnet.init_params(rng)
    obs = rng.normal(size=(2, 5, 4))
    np.testing.assert_array_equal(qnet.unroll(params, obs), qnet.unroll(params, obs))


def test_uniform_init_bounds():
    rng = np.random.default_rng(0)
    w = uniform_init(rng, 16, (16, 64))
    assert np.all(np.abs(w) <= 1 / 4)


# -- gradient ----------------------------------------------------------------


def test_gradient_square():
    p = Tensor(3.0)
    grads = gradient(p * p, {"p": p})
    assert grads["p"] == pytest.approx(6.0)


def test_gradient_constant_in_param_is_zero():
    p = Tensor(np.ones(3))
    other = Tensor(1.5)
    grads = gradient(other * other, {"p": p, "other": other})
    assert np.all(grads["p"] == 0.0)


def test_gradient_non_scalar_rejected():
    p = Tensor(np.ones(3))
    with pytest.raises(ConfigurationError):
        gradient(p * p, {"p": p})


def test_small_network_gradient_matches_finite_differences():
    _check_small_network_gradient(n_slots=None)


@pytest.mark.parametrize("n_slots", [2, 1])
def test_slot_stacked_network_gradient_matches_finite_differences(n_slots):
    _check_small_network_gradient(n_slots)


def _check_small_network_gradient(n_slots):
    # one net on (B, T, D), or two agents' slot-stacked nets on (N, B, T, D),
    # each agent with its own slot or both sharing one
    rng = np.random.default_rng(11)
    qnet = RecurrentQNet(3, 2, 4)
    if n_slots is None:
        params = qnet.init_params(rng)
        obs = rng.normal(size=(2, 4, 3))
    else:
        params = stack_slots([qnet.init_params(rng) for _ in range(n_slots)])
        obs = rng.normal(size=(2, 2, 4, 3))
    w = rng.normal(size=obs.shape[:-1] + (2,))

    def loss_fn(p):
        q = qnet.unroll(p, obs)
        return float((q * q * w).sum())

    tensors = as_tensors(params)
    q = qnet.unroll(tensors, obs)
    grads = gradient((q * q * w).sum(), tensors)
    fd = finite_diff_grad(loss_fn, params, step=1e-5)
    assert_grads_close(grads, fd)


# -- RMSProp -------------------------------------------------------------------


def test_rmsprop_zero_gradient_leaves_params():
    p = np.array([1.0, -2.0])
    opt = RMSProp()
    opt.step([("p", p)], {"p": np.zeros(2)})
    np.testing.assert_array_equal(p, [1.0, -2.0])


def test_rmsprop_symmetry():
    p = np.array([0.7, 0.7])
    opt = RMSProp(lr=0.01)
    opt.step([("p", p)], {"p": np.array([0.3, 0.3])})
    assert p[0] == p[1]


def test_rmsprop_single_step_hand_evaluated():
    # p=1, g=1, fresh accumulator, lr=0.0005: evaluate the recurrence once
    s = 0.99 * 0.0 + 0.01 * 1.0 * 1.0
    expected = 1.0 - 0.0005 * 1.0 / (math.sqrt(s) + 1e-5)
    assert expected == pytest.approx(0.995000499950005, abs=1e-15)
    p = np.array([1.0])
    opt = RMSProp(lr=0.0005, decay=0.99, eps=1e-5)
    opt.step([("p", p)], {"p": np.array([1.0])})
    assert p[0] == pytest.approx(expected, abs=1e-15)


def test_rmsprop_accumulator_persists():
    p1 = np.array([1.0])
    opt1 = RMSProp(lr=0.1)
    opt1.step([("p", p1)], {"p": np.array([1.0])})
    after_one = p1.copy()
    opt1.step([("p", p1)], {"p": np.array([1.0])})
    # a fresh optimiser applied to the one-step value gives a different result
    p2 = after_one.copy()
    opt2 = RMSProp(lr=0.1)
    opt2.step([("p", p2)], {"p": np.array([1.0])})
    assert p1[0] != p2[0]


def test_rmsprop_rejects_non_finite_and_leaves_params_untouched():
    p = np.array([1.0, 2.0])
    q = np.array([3.0])
    opt = RMSProp()
    with pytest.raises(NonFiniteGradientError):
        opt.step([("p", p), ("q", q)], {"p": np.array([0.1, 0.1]),
                                        "q": np.array([np.nan])})
    np.testing.assert_array_equal(p, [1.0, 2.0])
    np.testing.assert_array_equal(q, [3.0])


def test_clip_grads_global_norm():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([4.0])}
    clipped = clip_grads_global(grads, 1.0)
    total = np.sqrt(sum(float((g ** 2).sum()) for g in clipped.values()))
    assert total == pytest.approx(1.0)
    np.testing.assert_allclose(clipped["a"] / clipped["b"][0], [0.75, 0.0])
    same = clip_grads_global(grads, 100.0)
    np.testing.assert_array_equal(same["a"], grads["a"])


# -- target sync ----------------------------------------------------------------


def test_sync_targets_exact_and_idempotent(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    ps.agent["in.w"][0] += 1.0
    sync_targets(ps)
    for k in ps.agent:
        np.testing.assert_array_equal(ps.agent[k], ps.target_agent[k])
    snap = {k: v.copy() for k, v in ps.target_agent.items()}
    sync_targets(ps)
    for k in snap:
        np.testing.assert_array_equal(snap[k], ps.target_agent[k])


def test_targets_follow_online_after_step_then_sync(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    opt = RMSProp(lr=0.01)
    grads = {name: np.ones_like(arr) for name, arr in ps.named_online()}
    opt.step(ps.named_online(), grads)
    # targets stale now, equal again after sync
    assert not np.array_equal(ps.agent["in.w"], ps.target_agent["in.w"])
    sync_targets(ps)
    np.testing.assert_array_equal(ps.agent["in.w"], ps.target_agent["in.w"])


def test_named_views_write_through_to_slots(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    named = dict(ps.named_online())
    named["agent.1.in.w"] += 1.0
    named["repr.0.h.b"] -= 2.0
    np.testing.assert_array_equal(ps.agent["in.w"][1], named["agent.1.in.w"])
    np.testing.assert_array_equal(ps.repr["h.b"][0], -2.0)
    rebuilt = ParamSet.from_named(ps.named_all())
    for name, arr in ps.named_all():
        np.testing.assert_array_equal(dict(rebuilt.named_all())[name], arr)


# -- checkpoints ------------------------------------------------------------------


def test_checkpoint_roundtrip_bitwise(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps, meta={"note": "test", "n": 3})
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "test", "n": 3}
    orig = dict(ps.named_all())
    new = dict(loaded.named_all())
    assert orig.keys() == new.keys()
    for k in orig:
        np.testing.assert_array_equal(orig[k], new[k])


# the on-disk arrays of one agent slot of make_nets(): one array per slot,
# in this order, so checkpoints keep the per-agent file layout
AGENT_SHAPES = [
    ("in.w", (5, 8)), ("in.b", (8,)),
    ("gru.xz.w", (8, 8)), ("gru.xz.b", (8,)), ("gru.hz.w", (8, 8)),
    ("gru.xr.w", (8, 8)), ("gru.xr.b", (8,)), ("gru.hr.w", (8, 8)),
    ("gru.xn.w", (8, 8)), ("gru.xn.b", (8,)), ("gru.hn.w", (8, 8)),
    ("out.w", (8, 4)), ("out.b", (4,)),
]
MIXER_SHAPES = [
    ("hw1.w", (4, 8)), ("hw1.b", (8,)), ("hb1.w", (4, 4)), ("hb1.b", (4,)),
    ("hw2.w", (4, 4)), ("hw2.b", (4,)), ("v1.w", (4, 4)), ("v1.b", (4,)),
    ("v2.w", (4, 1)), ("v2.b", (1,)),
]
REPR_SHAPES = [("h.w", (5, 6)), ("h.b", (6,)), ("out.w", (6, 4)), ("out.b", (4,))]


FILE_LAYOUT = [
    (f"param/{prefix}{k}", shape)
    for prefix, shapes in (("agent.0.", AGENT_SHAPES), ("agent.1.", AGENT_SHAPES),
                           ("mixer.", MIXER_SHAPES),
                           ("repr.0.", REPR_SHAPES), ("repr.1.", REPR_SHAPES),
                           ("target_agent.0.", AGENT_SHAPES), ("target_agent.1.", AGENT_SHAPES),
                           ("target_mixer.", MIXER_SHAPES))
    for k, shape in shapes
] + [("header", None)]


def test_checkpoint_file_layout_pinned(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps)
    with np.load(path) as data:
        found = [(k, None if k == "header" else data[k].shape) for k in data.files]
        header = json.loads(bytes(data["header"]).decode())
    assert found == FILE_LAYOUT
    assert (header["n_agents"], header["n_reprs"]) == (2, 2)


def test_checkpoint_in_per_agent_layout_loads_bitwise(tmp_path, rng):
    # a file written one array per agent slot, straight from per-agent dicts
    qnet, mixer, repr_net = make_nets()
    nets = {g: [net.init_params(rng) for _ in range(2)]
            for g, net in (("agent", qnet), ("repr", repr_net), ("target_agent", qnet))}
    mix, target_mix = mixer.init_params(rng), mixer.init_params(rng)
    arrays = {}
    for group in ("agent", "mixer", "repr", "target_agent", "target_mixer"):
        if group in nets:
            for i, p in enumerate(nets[group]):
                arrays.update({f"param/{group}.{i}.{k}": v for k, v in p.items()})
        else:
            p = mix if group == "mixer" else target_mix
            arrays.update({f"param/{group}.{k}": v for k, v in p.items()})
    header = {"version": 1, "n_agents": 2, "n_reprs": 2, "meta": {"note": "old"}}
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    path = tmp_path / "old.npz"
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    loaded, meta = load_checkpoint(path)
    assert meta == {"note": "old"}
    named = dict(loaded.named_all())
    assert sorted(named) == sorted(k[len("param/"):] for k in arrays if k != "header")
    for key, arr in arrays.items():
        if key != "header":
            np.testing.assert_array_equal(named[key[len("param/"):]], arr)
    for group, per_agent in nets.items():
        for k in per_agent[0]:
            np.testing.assert_array_equal(getattr(loaded, group)[k],
                                          np.stack([p[k] for p in per_agent]))


def test_checkpoint_version_guard(tmp_path, rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    path = tmp_path / "ck.npz"
    save_checkpoint(path, ps)

    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files}
    header = json.loads(bytes(arrays["header"]).decode())
    header["version"] = 999
    arrays["header"] = np.frombuffer(json.dumps(header).encode(), dtype=np.uint8)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    with pytest.raises(ConfigurationError):
        load_checkpoint(path)


def test_paramset_copy_is_deep(rng):
    qnet, mixer, repr_net = make_nets()
    ps = make_paramset(rng, qnet, mixer, repr_net)
    cp = ps.copy()
    cp.agent["in.w"][0] += 5.0
    assert not np.array_equal(cp.agent["in.w"], ps.agent["in.w"])
