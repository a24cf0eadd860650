"""Gradient engine checks against finite differences and hand derivatives."""

import numpy as np
import pytest

from goalmix.autodiff import (
    Tensor, absval, elu, exp, log, logsumexp_last, moveaxis, relu, sigmoid,
    sqrt, stack, take_along_last, tanh,
)
from goalmix.nn import gradient
from goalmix.oracles import finite_diff_grad


def test_square_gradient():
    p = Tensor(3.0)
    loss = p * p
    loss.backward()
    assert p.grad == pytest.approx(6.0, abs=1e-12)


def test_constant_loss_zero_gradient():
    p = Tensor(np.ones(4))
    q = Tensor(2.0)
    loss = q * q
    grads = gradient(loss, {"p": p, "q": q})
    assert np.all(grads["p"] == 0.0)
    assert grads["q"] == pytest.approx(4.0)


def test_backward_requires_scalar():
    t = Tensor(np.ones(3))
    with pytest.raises(ValueError):
        t.backward()


def test_tensor_division_by_tensor_rejected():
    with pytest.raises(TypeError):
        Tensor(1.0) / Tensor(2.0)


def test_sqrt_zero_subgradient():
    x = Tensor(np.array([0.0, 4.0]))
    y = sqrt(x).sum()
    y.backward()
    assert x.grad[0] == 0.0
    assert x.grad[1] == pytest.approx(0.25)


def test_broadcast_add_backward():
    rng = np.random.default_rng(0)
    b = Tensor(rng.normal(size=3))
    x = rng.normal(size=(5, 3))

    def loss_fn(params):
        return float((((x + params["b"]) ** 2)).sum())

    loss = ((x + b) * (x + b)).sum()
    loss.backward()
    fd = finite_diff_grad(lambda p: loss_fn(p), {"b": b.data}, step=1e-6)
    np.testing.assert_allclose(b.grad, fd["b"], rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("op,np_ref", [
    (sigmoid, lambda x: 1 / (1 + np.exp(-x))),
    (tanh, np.tanh),
    (relu, lambda x: np.maximum(x, 0)),
    (elu, lambda x: np.where(x > 0, x, np.expm1(x))),
    (absval, np.abs),
    (exp, np.exp),
])
def test_unary_ops_match_numpy_and_fd(op, np_ref):
    rng = np.random.default_rng(7)
    x = rng.normal(size=(4, 3)) + 0.1  # keep away from relu/abs kinks
    t = Tensor(x)
    out = op(t)
    np.testing.assert_allclose(out.data, np_ref(x), rtol=1e-12)
    w = rng.normal(size=(4, 3))
    (out * w).sum().backward()
    fd = finite_diff_grad(
        lambda p: float((np_ref(p["x"]) * w).sum()), {"x": x}, step=1e-6
    )
    np.testing.assert_allclose(t.grad, fd["x"], rtol=1e-5, atol=1e-8)


def test_log_backward():
    x = np.array([0.5, 2.0, 3.0])
    t = Tensor(x)
    log(t).sum().backward()
    np.testing.assert_allclose(t.grad, 1.0 / x, rtol=1e-12)


def test_matmul_param_on_right_fd():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 5, 3))  # batched constant input
    w = Tensor(rng.normal(size=(3, 4)))
    out = (a @ w)
    (out * out).sum().backward()
    fd = finite_diff_grad(
        lambda p: float(((a @ p["w"]) ** 2).sum()), {"w": w.data}, step=1e-6
    )
    np.testing.assert_allclose(w.grad, fd["w"], rtol=1e-6, atol=1e-8)


def test_batched_matmul_both_sides_fd():
    rng = np.random.default_rng(4)
    a0 = rng.normal(size=(6, 1, 3))
    b0 = rng.normal(size=(6, 3, 2))

    def loss_np(p):
        return float(((p["a"] @ p["b"]) ** 2).sum())

    a, b = Tensor(a0), Tensor(b0)
    out = a @ b
    (out * out).sum().backward()
    fd = finite_diff_grad(loss_np, {"a": a0, "b": b0}, step=1e-6)
    np.testing.assert_allclose(a.grad, fd["a"], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(b.grad, fd["b"], rtol=1e-6, atol=1e-8)


def test_stack_take_slice_reshape_backward():
    rng = np.random.default_rng(5)
    x0 = rng.normal(size=(3, 4))
    y0 = rng.normal(size=(3, 4))
    idx = rng.integers(2, size=(3,))

    def loss_np(p):
        s = np.stack([p["x"], p["y"]], axis=1)      # (3, 2, 4)
        first = s[:, 0]                              # slice_time
        picked = np.take_along_axis(
            first.reshape(3, 4), np.stack([idx] * 4, axis=1)[:, :1], axis=1
        )[:, 0]
        return float((picked ** 2).sum() + (s ** 2).sum())

    x, y = Tensor(x0), Tensor(y0)
    s = stack([x, y], axis=1)
    first = (s * np.array([1.0, 0.0])[:, None]).sum(axis=1)  # s[:, 0] by a constant mask
    picked = take_along_last(first.reshape(3, 4), np.stack([idx] * 4, axis=1)[:, 0])
    loss = (picked * picked).sum() + (s * s).sum()
    loss.backward()
    fd = finite_diff_grad(loss_np, {"x": x0, "y": y0}, step=1e-6)
    np.testing.assert_allclose(x.grad, fd["x"], rtol=1e-6, atol=1e-8)
    np.testing.assert_allclose(y.grad, fd["y"], rtol=1e-6, atol=1e-8)


def test_moveaxis_and_later_axis_slice_backward():
    # agents first (N, M, T, U): slice a time step, move the agent axis last
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(2, 3, 4, 5))
    w = rng.normal(size=(3, 5, 2))

    def loss_np(p):
        moved = np.moveaxis(p["x"][..., 1, :], 0, -1)          # (3, 5, 2)
        return float((moved * w).sum() + (p["x"][..., 3, :] ** 2).sum())

    x = Tensor(x0)
    at_step = np.eye(4)[:, :, None]  # at_step[t]: one-hot mask of time step t, (4, 1)
    moved = moveaxis((x * at_step[1]).sum(axis=-2), 0, -1)
    assert moved.data.flags["C_CONTIGUOUS"]
    last = (x * at_step[3]).sum(axis=-2)
    loss = (moved * w).sum() + (last * last).sum()
    loss.backward()
    fd = finite_diff_grad(loss_np, {"x": x0}, step=1e-6)
    np.testing.assert_allclose(x.grad, fd["x"], rtol=1e-6, atol=1e-8)
    np.testing.assert_array_equal(moveaxis(x0, 0, -1), np.moveaxis(x0, 0, -1))


def test_logsumexp_matches_reference_and_fd():
    rng = np.random.default_rng(6)
    x0 = rng.normal(size=(5, 3)) * 4
    ref = np.log(np.exp(x0).sum(axis=-1))
    t = Tensor(x0)
    out = logsumexp_last(t)
    np.testing.assert_allclose(out.data, ref, rtol=1e-12)
    out.sum().backward()
    fd = finite_diff_grad(
        lambda p: float(np.log(np.exp(p["x"]).sum(axis=-1)).sum()),
        {"x": x0}, step=1e-6,
    )
    np.testing.assert_allclose(t.grad, fd["x"], rtol=1e-5, atol=1e-8)


def test_sum_axis_keepdims_backward():
    x = Tensor(np.arange(12.0).reshape(3, 4))
    out = x.sum(axis=1)
    (out * np.array([1.0, 2.0, 3.0])).sum().backward()
    expected = np.repeat(np.array([[1.0], [2.0], [3.0]]), 4, axis=1)
    np.testing.assert_array_equal(x.grad, expected)


def test_gradient_accumulates_through_reuse():
    p = Tensor(2.0)
    loss = p * p + p * 3.0
    loss.backward()
    assert p.grad == pytest.approx(7.0)
