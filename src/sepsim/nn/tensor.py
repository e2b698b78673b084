"""Reverse-mode autodiff over float64 numpy arrays.

Tape-based engine sized for the models in this package: dense stacks, an
LSTM cell, Gaussian and mixture losses. Deliberately not a general
framework; only the ops those models need exist.
"""
from __future__ import annotations

from contextlib import contextmanager
from typing import Callable

import numpy as np
from scipy.special import expit

__all__ = [
    "Tensor",
    "Parameter",
    "exp",
    "log",
    "tanh",
    "sigmoid",
    "relu",
    "logsumexp",
    "log_softmax",
    "softmax",
    "no_grad",
    "grad_enabled",
]

# Process-wide switch read by Tensor._from_op; only no_grad() changes it.
_grad_enabled = True


@contextmanager
def no_grad():
    """Run ops without recording a tape.

    Results carry the same values but no parents and no backward closures,
    so they cannot be differentiated. Nestable; the previous setting is
    restored on exit, also when the body raises. Not thread-safe: the
    switch is shared by every thread in the process.
    """
    global _grad_enabled
    previous = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = previous


def grad_enabled() -> bool:
    """False inside no_grad(): ops then record no tape.

    A fused op reads this to skip keeping the values only its backward needs.
    """
    return _grad_enabled


def logsumexp_np(a, axis=None, keepdims: bool = False):
    """scipy.special.logsumexp (scipy 1.17, real float64, no weights) on
    arrays of one or more dimensions, step for step, so results match it bit
    for bit at a fraction of its per-call cost.

    The maxima are split out of the sum: with m the number of entries equal
    to the max, the result is log1p(sum of exp(a - max) over the others / m)
    + log(m) + max. Where that is not finite (all -inf, +inf or NaN
    entries), it falls back to log(sum(exp(a))), as scipy does.
    """
    a = np.asarray(a, dtype=np.float64)
    axes = tuple(range(a.ndim)) if axis is None else axis
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        a_max = a.max(axis=axes, keepdims=True)
        is_max = a == a_max
        m = is_max.sum(axis=axes, keepdims=True, dtype=np.float64)
        rest = np.exp(np.where(is_max, -np.inf, a) - a_max)
        # scipy keeps s where s == 0; s / m is then +0.0 as well, since
        # m >= 1 wherever the max is not NaN
        s = rest.sum(axis=axes, keepdims=True, dtype=np.float64) / m
        out = np.log1p(s) + np.log(m) + a_max
        finite = np.isfinite(out)
        if not finite.all():
            direct = np.log(np.exp(a).sum(axis=axes, keepdims=True))
            out = np.where(finite, out, direct)
    if not keepdims:
        out = np.squeeze(out, axis=axes)
    return out[()] if out.ndim == 0 else out


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, reversing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """Node in the autodiff tape.

    Leaf tensors created with requires_grad=True own a persistent `grad`
    buffer; repeated backward() calls accumulate into it until zeroed.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad = np.zeros_like(self.data) if requires_grad else None
        self._parents: tuple = ()
        self._backward: Callable | None = None

    @classmethod
    def _from_op(cls, data: np.ndarray, parents: tuple, backward: Callable) -> "Tensor":
        out = cls.__new__(cls)
        out.data = data
        out.grad = None
        if _grad_enabled and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = parents
            out._backward = backward
        else:
            out.requires_grad = False
            out._parents = ()
            out._backward = None
        return out

    # ---- basic introspection -------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def zero_grad(self) -> None:
        if self.grad is not None:
            self.grad[...] = 0.0

    def __repr__(self) -> str:
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    # ---- arithmetic ------------------------------------------------------

    def __add__(self, other):
        a, b = self, _coerce(other)
        data = a.data + b.data

        def bw(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))

        return Tensor._from_op(data, (a, b), bw)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self, _coerce(other)
        data = a.data - b.data

        def bw(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(-g, b.data.shape))

        return Tensor._from_op(data, (a, b), bw)

    def __rsub__(self, other):
        return _coerce(other).__sub__(self)

    def __mul__(self, other):
        a, b = self, _coerce(other)
        data = a.data * b.data

        def bw(g):
            return (
                _unbroadcast(g * b.data, a.data.shape),
                _unbroadcast(g * a.data, b.data.shape),
            )

        return Tensor._from_op(data, (a, b), bw)

    __rmul__ = __mul__

    def __truediv__(self, other):
        a, b = self, _coerce(other)
        data = a.data / b.data

        def bw(g):
            return (
                _unbroadcast(g / b.data, a.data.shape),
                _unbroadcast(-g * a.data / (b.data * b.data), b.data.shape),
            )

        return Tensor._from_op(data, (a, b), bw)

    def __rtruediv__(self, other):
        return _coerce(other).__truediv__(self)

    def __neg__(self):
        a = self

        def bw(g):
            return (-g,)

        return Tensor._from_op(-a.data, (a,), bw)

    def __matmul__(self, other):
        a, b = self, _coerce(other)
        if a.data.ndim != 2 or b.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {a.data.shape} @ {b.data.shape}"
            )
        data = a.data @ b.data

        def bw(g):
            # a constant operand (such as input data) gets no gradient;
            # backward() skips parents that do not require one
            return (g @ b.data.T if a.requires_grad else None,
                    a.data.T @ g if b.requires_grad else None)

        return Tensor._from_op(data, (a, b), bw)

    def __getitem__(self, idx):
        a = self
        data = a.data[idx]
        basic = _is_basic_index(idx)

        def bw(g):
            buf = np.zeros_like(a.data)
            if basic:
                # a basic index names each element at most once
                buf[idx] += g
            else:
                # advanced indices may repeat an element; add.at accumulates
                np.add.at(buf, idx, g)
            return (buf,)

        return Tensor._from_op(data, (a,), bw)

    # ---- reductions / shape ---------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        a = self
        data = a.data.sum(axis=axis, keepdims=keepdims)
        shape = a.data.shape

        def bw(g):
            ga = np.asarray(g)
            if axis is not None and not keepdims:
                ga = np.expand_dims(ga, axis)
            return (np.broadcast_to(ga, shape),)

        return Tensor._from_op(data, (a,), bw)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.data.shape[i] for i in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        a = self
        orig = a.data.shape
        data = a.data.reshape(shape)

        def bw(g):
            return (g.reshape(orig),)

        return Tensor._from_op(data, (a,), bw)

    # ---- backward pass ---------------------------------------------------

    def backward(self) -> None:
        """Propagate d(self)/d(leaf) into every reachable grad leaf.

        self must be scalar. Grad buffers are accumulated, not reset; call
        zero_grad on parameters between steps.
        """
        if self.data.size != 1:
            raise ValueError(f"backward() requires a scalar, got shape {self.data.shape}")
        if self._backward is None and not self.requires_grad:
            raise RuntimeError("backward() called with no recorded computation")

        topo: list[Tensor] = []
        seen: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, ready = stack.pop()
            if ready:
                topo.append(node)
                continue
            if id(node) in seen:
                continue
            seen.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in seen:
                    stack.append((p, False))

        flowing: dict[int, np.ndarray] = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = flowing.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                node.grad += g
            else:
                for parent, pg in zip(node._parents, node._backward(g)):
                    if not parent.requires_grad:
                        continue
                    cur = flowing.get(id(parent))
                    flowing[id(parent)] = pg if cur is None else cur + pg


class Parameter(Tensor):
    """Trainable leaf tensor with a persistent gradient buffer."""

    __slots__ = ()

    def __init__(self, data):
        super().__init__(data, requires_grad=True)


def _coerce(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _is_basic_index(idx) -> bool:
    """True when idx uses only ints, slices, None and Ellipsis."""
    parts = idx if isinstance(idx, tuple) else (idx,)
    return all(p is None or p is Ellipsis or isinstance(p, slice)
               or (isinstance(p, (int, np.integer)) and not isinstance(p, bool))
               for p in parts)


# ---- elementwise functions ------------------------------------------------


def exp(t: Tensor) -> Tensor:
    t = _coerce(t)
    out = np.exp(t.data)

    def bw(g):
        return (g * out,)

    return Tensor._from_op(out, (t,), bw)


def log(t: Tensor) -> Tensor:
    t = _coerce(t)

    def bw(g):
        return (g / t.data,)

    return Tensor._from_op(np.log(t.data), (t,), bw)


def tanh(t: Tensor) -> Tensor:
    t = _coerce(t)
    out = np.tanh(t.data)

    def bw(g):
        return (g * (1.0 - out * out),)

    return Tensor._from_op(out, (t,), bw)


def sigmoid(t: Tensor) -> Tensor:
    t = _coerce(t)
    out = expit(t.data)

    def bw(g):
        return (g * out * (1.0 - out),)

    return Tensor._from_op(out, (t,), bw)


def relu(t: Tensor) -> Tensor:
    """max(t, 0); NaN stays NaN, as in Dense and the numpy forwards."""
    t = _coerce(t)
    mask = t.data > 0

    def bw(g):
        return (g * mask,)

    return Tensor._from_op(np.maximum(t.data, 0.0), (t,), bw)


def logsumexp(t: Tensor, axis: int, keepdims: bool = False) -> Tensor:
    t = _coerce(t)
    lse_keep = logsumexp_np(t.data, axis=axis, keepdims=True)
    out = lse_keep if keepdims else np.squeeze(lse_keep, axis=axis)

    def bw(g):
        ga = g if keepdims else np.expand_dims(g, axis)
        return (np.exp(t.data - lse_keep) * ga,)

    return Tensor._from_op(out, (t,), bw)


def log_softmax(t: Tensor, axis: int) -> Tensor:
    return t - logsumexp(t, axis=axis, keepdims=True)


def softmax(t: Tensor, axis: int) -> Tensor:
    return exp(log_softmax(t, axis=axis))
