"""Minimal reverse-mode differentiation over numpy arrays.

Deliberately restricted to the operations the training losses need:
elementwise arithmetic and activations, matmul, reshape, sum, stack,
gathers (``take_along_last``), ``moveaxis``, ``logsumexp_last``, and
``gru_sequence``, a whole GRU recurrence as one node whose backward is
hand-written backpropagation through time. Everything is float64. A :class:`Tensor` wraps an ndarray
and records a backward closure; ``Tensor.backward()`` walks the graph
in reverse topological order and accumulates gradients into ``.grad``.

Plain ndarrays and Python floats mix freely with Tensors in
expressions and are treated as constants (no graph nodes are created
for them). The same network code therefore runs in "graph mode" when
the parameters are Tensors and as plain numpy when they are arrays;
see :mod:`goalmix.nn`.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "Tensor",
    "stack",
    "take_along_last",
    "sigmoid",
    "tanh",
    "relu",
    "elu",
    "absval",
    "exp",
    "log",
    "sqrt",
    "logsumexp_last",
    "gru_cell",
    "gru_sequence",
]


def _unbroadcast(grad, shape):
    """Sum ``grad`` down to ``shape`` (reverses numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """A node in the computation graph."""

    __slots__ = ("data", "grad", "_parents", "_backward")

    # Keep numpy from absorbing Tensor operands into object arrays; with
    # this set, ndarray <op> Tensor falls through to the reflected method.
    __array_ufunc__ = None

    def __init__(self, data, parents=(), backward=None):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self._parents = parents
        self._backward = backward

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self):
        return self.data.shape

    @property
    def ndim(self):
        return self.data.ndim

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"

    def _accum(self, g):
        self.grad = g if self.grad is None else self.grad + g

    def backward(self):
        """Backpropagate from a scalar through the recorded graph."""
        if self.data.size != 1:
            raise ValueError(f"backward() needs a scalar, got shape {self.data.shape}")
        order = []
        visited = set()
        stack_ = [(self, False)]
        while stack_:
            node, done = stack_.pop()
            if done:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack_.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack_.append((p, False))
        for node in order:
            node.grad = None
        self.grad = np.ones_like(self.data)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data + other.data, (self, other))

            def back(g):
                self._accum(_unbroadcast(g, self.data.shape))
                other._accum(_unbroadcast(g, other.data.shape))

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data + const, (self,))

            def back(g):
                self._accum(_unbroadcast(g, self.data.shape))

        out._backward = back
        return out

    __radd__ = __add__

    def __neg__(self):
        out = Tensor(-self.data, (self,))

        def back(g):
            self._accum(-g)

        out._backward = back
        return out

    def __sub__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data - other.data, (self, other))

            def back(g):
                self._accum(_unbroadcast(g, self.data.shape))
                other._accum(_unbroadcast(-g, other.data.shape))

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data - const, (self,))

            def back(g):
                self._accum(_unbroadcast(g, self.data.shape))

        out._backward = back
        return out

    def __rsub__(self, other):
        const = np.asarray(other, dtype=np.float64)
        out = Tensor(const - self.data, (self,))

        def back(g):
            self._accum(_unbroadcast(-g, self.data.shape))

        out._backward = back
        return out

    def __mul__(self, other):
        if isinstance(other, Tensor):
            out = Tensor(self.data * other.data, (self, other))

            def back(g):
                self._accum(_unbroadcast(g * other.data, self.data.shape))
                other._accum(_unbroadcast(g * self.data, other.data.shape))

        else:
            const = np.asarray(other, dtype=np.float64)
            out = Tensor(self.data * const, (self,))

            def back(g):
                self._accum(_unbroadcast(g * const, self.data.shape))

        out._backward = back
        return out

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Tensor):
            raise TypeError("Tensor/Tensor division is not supported; multiply by a reciprocal constant")
        return self * (1.0 / np.asarray(other, dtype=np.float64))

    def __matmul__(self, other):
        other_data = other.data if isinstance(other, Tensor) else np.asarray(other, dtype=np.float64)
        out_data = self.data @ other_data
        parents = (self, other) if isinstance(other, Tensor) else (self,)
        out = Tensor(out_data, parents)
        a, b = self.data, other_data

        def back(g):
            self._accum(_matmul_grad_left(g, a, b))
            if isinstance(other, Tensor):
                other._accum(_matmul_grad_right(g, a, b))

        out._backward = back
        return out

    def __rmatmul__(self, other):
        # constant @ Tensor
        const = np.asarray(other, dtype=np.float64)
        out = Tensor(const @ self.data, (self,))
        a, b = const, self.data

        def back(g):
            self._accum(_matmul_grad_right(g, a, b))

        out._backward = back
        return out

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        src = self.data.shape
        out = Tensor(self.data.reshape(shape), (self,))

        def back(g):
            self._accum(g.reshape(src))

        out._backward = back
        return out

    def sum(self, axis=None, keepdims=False):
        out = Tensor(self.data.sum(axis=axis, keepdims=keepdims), (self,))
        src = self.data.shape

        def back(g):
            gg = g
            if axis is not None and not keepdims:
                gg = np.expand_dims(gg, axis)
            self._accum(np.broadcast_to(gg, src))

        out._backward = back
        return out

    def square(self):
        return self * self


def _matmul_grad_left(g, a, b):
    if b.ndim == 1:
        raise ValueError("matmul operands must be at least 2-D")
    ga = g @ np.swapaxes(b, -1, -2)
    return _unbroadcast(ga, a.shape)


def _matmul_grad_right(g, a, b):
    if b.ndim == 2 and a.ndim > 2:
        # batched input against a shared 2-D parameter: fold the batch
        k = a.shape[-1]
        m = g.shape[-1]
        return a.reshape(-1, k).T @ g.reshape(-1, m)
    gb = np.swapaxes(a, -1, -2) @ g
    return _unbroadcast(gb, b.shape)


def _wrap_unary(fn_val, fn_grad):
    """Build a dual-mode unary op: numpy in, numpy out; Tensor in, node out."""

    def op(x):
        if isinstance(x, Tensor):
            y = fn_val(x.data)
            out = Tensor(y, (x,))

            def back(g):
                x._accum(g * fn_grad(x.data, y))

            out._backward = back
            return out
        return fn_val(np.asarray(x, dtype=np.float64))

    return op


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


sigmoid = _wrap_unary(_sigmoid, lambda x, y: y * (1.0 - y))

tanh = _wrap_unary(np.tanh, lambda x, y: 1.0 - y * y)

relu = _wrap_unary(
    lambda x: np.maximum(x, 0.0),
    lambda x, y: (x > 0).astype(np.float64),
)

elu = _wrap_unary(
    lambda x: np.where(x > 0, x, np.expm1(x)),
    lambda x, y: np.where(x > 0, 1.0, np.exp(x)),
)

absval = _wrap_unary(np.abs, lambda x, y: np.sign(x))

exp = _wrap_unary(np.exp, lambda x, y: y)

log = _wrap_unary(np.log, lambda x, y: 1.0 / x)

# Zero-safe square root: the subgradient at 0 is taken as 0, which is the
# true derivative wherever sqrt appears under an outer square (norms).
sqrt = _wrap_unary(
    np.sqrt,
    lambda x, y: np.where(y > 0, 0.5 / np.where(y > 0, y, 1.0), 0.0),
)


def stack(tensors, axis=0):
    """Stack Tensors (or constants) along a new axis."""
    if not any(isinstance(t, Tensor) for t in tensors):
        return np.stack(tensors, axis=axis)
    datas = [t.data if isinstance(t, Tensor) else np.asarray(t, dtype=np.float64) for t in tensors]
    parents = tuple(t for t in tensors if isinstance(t, Tensor))
    out = Tensor(np.stack(datas, axis=axis), parents)
    items = list(tensors)

    def back(g):
        slices = np.moveaxis(g, axis, 0)
        for t, gs in zip(items, slices):
            if isinstance(t, Tensor):
                t._accum(np.ascontiguousarray(gs))

    out._backward = back
    return out


def take_along_last(x, idx):
    """Select one entry per row along the last axis (differentiable gather)."""
    idx = np.asarray(idx)
    if isinstance(x, Tensor):
        picked = np.take_along_axis(x.data, idx[..., None], axis=-1)[..., 0]
        out = Tensor(picked, (x,))
        src = x.data.shape

        def back(g):
            full = np.zeros(src)
            np.put_along_axis(full, idx[..., None], g[..., None], axis=-1)
            x._accum(full)

        out._backward = back
        return out
    return np.take_along_axis(np.asarray(x), idx[..., None], axis=-1)[..., 0]


def moveaxis(x, source, destination):
    """np.moveaxis with C-contiguous data (so a later matmul can use BLAS);
    a graph node when x is a Tensor."""
    if isinstance(x, Tensor):
        out = Tensor(np.ascontiguousarray(np.moveaxis(x.data, source, destination)), (x,))

        def back(g):
            x._accum(np.ascontiguousarray(np.moveaxis(g, destination, source)))

        out._backward = back
        return out
    return np.ascontiguousarray(np.moveaxis(x, source, destination))


def logsumexp_last(x):
    """log(sum(exp(x), axis=-1)), stabilised by a constant max shift."""
    xd = x.data if isinstance(x, Tensor) else np.asarray(x, dtype=np.float64)
    c = xd.max(axis=-1, keepdims=True)
    if isinstance(x, Tensor):
        shifted = x - c
        return log(exp(shifted).sum(axis=-1)) + c[..., 0]
    return np.log(np.exp(xd - c).sum(axis=-1)) + c[..., 0]


def gru_cell(xz, xr, xn, h, w_hz, w_hr, w_hn):
    """One GRU step on arrays: the update, reset and candidate gates from
    their input projections xz, xr, xn and the previous state h. ``h @ w``
    broadcasts over a leading slot axis of slot-stacked weights (S, H, H).
    Returns (h', z, r, r * h, n): the next state and the intermediates
    that :func:`gru_sequence`'s backward pass reuses."""
    z = _sigmoid(xz + h @ w_hz)
    r = _sigmoid(xr + h @ w_hr)
    rh = r * h
    n = np.tanh(xn + rh @ w_hn)
    return (1.0 - z) * n + z * h, z, r, rh, n


def gru_sequence(xz, xr, xn, w_hz, w_hr, w_hn):
    """Hidden states (..., T, H) of a GRU run from a zero state over the
    time axis (second to last) of the input projections xz, xr, xn, each
    (..., T, H), with recurrent weights (H, H) or slot-stacked (S, H, H).

    Plain arrays give an array. If any operand is a Tensor, the whole
    recurrence is one graph node: the forward caches each step's
    h_{t-1}, z, r, r * h and n, and the backward runs once in reverse
    over T, then forms each recurrent-weight gradient as one
    (H, rows) @ (rows, H) product per slot.
    """
    operands = (xz, xr, xn, w_hz, w_hr, w_hn)
    xz_d, xr_d, xn_d, hz, hr, hn = (o.data if isinstance(o, Tensor) else o for o in operands)
    *lead, t_len, hd = xz_d.shape
    graph = any(isinstance(o, Tensor) for o in operands)
    hs = np.empty(xz_d.shape)
    cache = [np.empty(xz_d.shape) for _ in range(5)] if graph else ()
    h = np.zeros((*lead, hd))
    for t in range(t_len):
        h_prev = h
        h, *gates = gru_cell(xz_d[..., t, :], xr_d[..., t, :], xn_d[..., t, :], h, hz, hr, hn)
        hs[..., t, :] = h
        for arr, value in zip(cache, (h_prev, *gates)):
            arr[..., t, :] = value
    if not graph:
        return hs

    h_prev, z, r, rh, n = cache
    out = Tensor(hs, tuple(o for o in operands if isinstance(o, Tensor)))

    def back(g):
        # per-step factors, for all steps at once: the gradient w.r.t. the
        # pre-activation of n and z is dh times these, and w.r.t. that of r
        # it is d(r * h) times c_r
        one_minus_z = 1.0 - z
        c_n = one_minus_z * (1.0 - n * n)
        c_z = (h_prev - n) * z * one_minus_z
        c_r = h_prev * r * (1.0 - r)
        hz_t, hr_t, hn_t = (np.ascontiguousarray(np.swapaxes(w, -1, -2)) for w in (hz, hr, hn))
        dxz, dxr, dxn = np.empty(hs.shape), np.empty(hs.shape), np.empty(hs.shape)
        dh = np.zeros((*lead, hd))
        for t in range(t_len - 1, -1, -1):
            dh = dh + g[..., t, :]  # dL/dh_t: its own output plus step t + 1
            d_an = np.multiply(dh, c_n[..., t, :], out=dxn[..., t, :])
            d_az = np.multiply(dh, c_z[..., t, :], out=dxz[..., t, :])
            d_rh = d_an @ hn_t
            d_ar = np.multiply(d_rh, c_r[..., t, :], out=dxr[..., t, :])
            dh = dh * z[..., t, :] + d_rh * r[..., t, :] + d_az @ hz_t + d_ar @ hr_t
        rows = (*lead[:-1], -1, hd)
        grads = (dxz, dxr, dxn)
        for operand, grad in zip(operands, grads):
            if isinstance(operand, Tensor):
                operand._accum(grad)
        for operand, left, right in zip(operands[3:], (h_prev, h_prev, rh), grads):
            if isinstance(operand, Tensor):
                w_grad = np.swapaxes(left.reshape(rows), -1, -2) @ right.reshape(rows)
                operand._accum(_unbroadcast(w_grad, operand.data.shape))

    out._backward = back
    return out
