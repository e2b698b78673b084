"""Gradient-descent update rules.

An optimizer packs its parameters' values and gradients into one contiguous
float64 buffer each: every `Parameter.data` and `.grad` becomes a view of
its slice, with values unchanged, so `zero_grad` is one fill and each
update runs its elementwise ops once over the flat vector. Elementwise ops
do not depend on how an array is split, so the results equal a loop over
the parameters bit for bit.

Write parameter values in place (`p.data[...] = x`, as `load_state_arrays`
does). Rebinding `p.data` or `p.grad`, or packing the same parameters into
another optimizer, detaches them from this optimizer's buffer; its next
`zero_grad` or `step` then raises rather than update memory no model reads.
"""
from __future__ import annotations

import numpy as np

from .tensor import Parameter


class Optimizer:
    def __init__(self, params, lr: float):
        self.params: list[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer needs at least one parameter")
        if len({id(p) for p in self.params}) != len(self.params):
            raise ValueError("optimizer got the same parameter more than once")
        if any(p.grad is None for p in self.params):
            raise ValueError("optimizer parameters must require gradients")
        if not lr > 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)
        size = sum(p.data.size for p in self.params)
        self._data = np.empty(size)
        self._grad = np.empty(size)
        self._views = []
        start = 0
        for p in self.params:
            stop = start + p.data.size
            self._data[start:stop] = p.data.ravel()
            self._grad[start:stop] = p.grad.ravel()
            p.data = self._data[start:stop].reshape(p.data.shape)
            p.grad = self._grad[start:stop].reshape(p.grad.shape)
            self._views.append((p.data, p.grad))
            start = stop

    def _buffers(self) -> tuple[np.ndarray, np.ndarray]:
        """The flat (values, gradients), once every parameter still reads them."""
        for p, (data, grad) in zip(self.params, self._views):
            if p.data is not data or p.grad is not grad:
                raise RuntimeError(
                    "a parameter no longer views this optimizer's buffer "
                    "(rebound, or packed by another optimizer)")
        return self._data, self._grad

    def zero_grad(self) -> None:
        self._buffers()[1].fill(0.0)

    def step(self) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    def step(self) -> None:
        data, grad = self._buffers()
        data -= self.lr * grad


class Adam(Optimizer):
    def __init__(self, params, lr: float = 1e-3, betas: tuple[float, float] = (0.9, 0.999),
                 eps: float = 1e-8):
        super().__init__(params, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self._m = np.zeros_like(self._data)
        self._v = np.zeros_like(self._data)
        self._scratch = np.empty_like(self._data)
        self._t = 0

    def step(self) -> None:
        data, grad = self._buffers()
        self._t += 1
        c1 = 1.0 - self.beta1 ** self._t
        c2 = 1.0 - self.beta2 ** self._t
        m, v, s = self._m, self._v, self._scratch
        # m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g);
        # data -= lr*(m/c1) / (sqrt(v/c2) + eps), op for op
        m *= self.beta1
        np.multiply(grad, 1.0 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(grad, grad, out=s)
        s *= 1.0 - self.beta2
        v += s
        np.divide(v, c2, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        update = m / c1
        update *= self.lr
        update /= s
        data -= update
