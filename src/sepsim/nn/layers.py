"""Dense and recurrent building blocks.

`Dense.__call__` and `LSTMCell.unroll` are fused tape ops: one node each,
with a hand-written backward that repeats the per-op graph's float
operations in the same order, so trained weights match it bit for bit.
`Dense.forward_np` and `LSTMCell.step_np`/`recur_np` run the same forward
arithmetic on bare arrays for inference (rollouts, environment stepping);
`LSTMCell.step` builds the per-op graph of one step and is the reference
the fused unroll is tested against.
"""
from __future__ import annotations

import numpy as np
from scipy.special import expit

from .tensor import Parameter, Tensor, grad_enabled, sigmoid, tanh

ACTIVATIONS = ("linear", "relu", "tanh", "sigmoid")


class Module:
    """Minimal parameter container; attributes register themselves."""

    def named_parameters(self, prefix: str = "") -> list[tuple[str, Parameter]]:
        out: list[tuple[str, Parameter]] = []
        for key, val in vars(self).items():
            if isinstance(val, Parameter):
                out.append((prefix + key, val))
            elif isinstance(val, Module):
                out.extend(val.named_parameters(prefix + key + "."))
            elif isinstance(val, (list, tuple)):
                for i, item in enumerate(val):
                    if isinstance(item, Module):
                        out.extend(item.named_parameters(f"{prefix}{key}.{i}."))
                    elif isinstance(item, Parameter):
                        out.append((f"{prefix}{key}.{i}", item))
        return out

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        extra = set(state) - set(params)
        if missing or extra:
            raise ValueError(f"state mismatch: missing={sorted(missing)} extra={sorted(extra)}")
        for name, p in params.items():
            arr = np.asarray(state[name], dtype=np.float64)
            if arr.shape != p.data.shape:
                raise ValueError(f"shape mismatch for {name}: {arr.shape} vs {p.data.shape}")
            p.data[...] = arr


def init_weight(rng: np.random.Generator, fan_in: int, shape: tuple) -> np.ndarray:
    """Uniform init scaled by 1/sqrt(fan_in)."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape)


def _apply_activation_np(x: np.ndarray, activation: str) -> np.ndarray:
    if activation == "linear":
        return x
    if activation == "relu":
        return np.maximum(x, 0.0)
    if activation == "tanh":
        return np.tanh(x)
    if activation == "sigmoid":
        return expit(x)
    raise ValueError(f"unknown activation {activation!r}")


class Dense(Module):
    """Fully connected layer: activation(x @ W + b)."""

    def __init__(self, in_dim: int, out_dim: int, activation: str = "linear",
                 rng: np.random.Generator | None = None):
        if activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.activation = activation
        self.W = Parameter(init_weight(rng, in_dim, (in_dim, out_dim)))
        self.b = Parameter(np.zeros(out_dim))

    def _check(self, x_shape: tuple) -> None:
        if x_shape[-1] != self.in_dim:
            raise ValueError(f"expected input dim {self.in_dim}, got {x_shape[-1]}")

    def __call__(self, x: Tensor) -> Tensor:
        """One tape node: `forward_np`'s arithmetic, backward by hand."""
        self._check(x.shape)
        if x.data.ndim != 2:
            raise ValueError(
                f"matmul expects 2-d operands, got {x.shape} @ {self.W.shape}")
        out = self.forward_np(x.data)
        W, activation = self.W, self.activation

        def bw(g):
            # the activation derivative as the per-op relu/tanh/sigmoid take it
            if activation == "relu":
                g = g * (out > 0)
            elif activation == "tanh":
                g = g * (1.0 - out * out)
            elif activation == "sigmoid":
                g = g * out * (1.0 - out)
            return (g @ W.data.T if x.requires_grad else None,
                    x.data.T @ g, g.sum(axis=0))

        return Tensor._from_op(out, (x, W, self.b), bw)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check(x.shape)
        return _apply_activation_np(x @ self.W.data + self.b.data, self.activation)


class MLP(Module):
    """Dense stack; hidden layers share one activation, output has its own."""

    def __init__(self, dims: list[int], hidden_activation: str = "relu",
                 output_activation: str = "linear",
                 rng: np.random.Generator | None = None):
        if len(dims) < 2:
            raise ValueError("need at least input and output dims")
        rng = rng if rng is not None else np.random.default_rng(0)
        self.layers = []
        for i in range(len(dims) - 1):
            act = output_activation if i == len(dims) - 2 else hidden_activation
            self.layers.append(Dense(dims[i], dims[i + 1], activation=act, rng=rng))

    def __call__(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward_np(x)
        return x


class LSTMCell(Module):
    """Standard LSTM gating; fused weights, gate order (input, forget, cell, output)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.Wx = Parameter(init_weight(rng, input_size, (input_size, 4 * hidden_size)))
        self.Wh = Parameter(init_weight(rng, hidden_size, (hidden_size, 4 * hidden_size)))
        self.b = Parameter(np.zeros(4 * hidden_size))

    def _check(self, x_shape: tuple, h_shape: tuple, c_shape: tuple) -> None:
        if x_shape[-1] != self.input_size:
            raise ValueError(f"expected input size {self.input_size}, got {x_shape[-1]}")
        if h_shape[-1] != self.hidden_size or c_shape[-1] != self.hidden_size:
            raise ValueError(
                f"expected hidden size {self.hidden_size}, got h={h_shape[-1]} c={c_shape[-1]}"
            )

    def init_state(self, batch: int) -> tuple[np.ndarray, np.ndarray]:
        return (np.zeros((batch, self.hidden_size)), np.zeros((batch, self.hidden_size)))

    def step(self, x: Tensor, h: Tensor, c: Tensor) -> tuple[Tensor, Tensor]:
        if not isinstance(x, Tensor):
            x = Tensor(x)
        if not isinstance(h, Tensor):
            h = Tensor(h)
        if not isinstance(c, Tensor):
            c = Tensor(c)
        self._check(x.shape, h.shape, c.shape)
        n = self.hidden_size
        z = x @ self.Wx + h @ self.Wh + self.b
        i = sigmoid(z[:, :n])
        f = sigmoid(z[:, n:2 * n])
        g = tanh(z[:, 2 * n:3 * n])
        o = sigmoid(z[:, 3 * n:])
        c_next = f * c + i * g
        h_next = o * tanh(c_next)
        return h_next, c_next

    def unroll(self, *parts: np.ndarray) -> Tensor:
        """Hidden state after running the cell over a window from the zero
        state, as one tape node.

        Each part is a (batch, steps, k) array; step t's input is the parts'
        step-t slices joined along the feature axis, built as that step is
        reached. The forward repeats `step` and the backward (BPTT) repeats
        the backward of `steps` chained `step` graphs, float for float and in
        the same order, so values and gradients equal the step loop's bit
        for bit.
        """
        batch, steps = parts[0].shape[:2]
        n = self.hidden_size
        Wx, Wh, b = self.Wx, self.Wh, self.b
        h, c = self.init_state(batch)
        record = grad_enabled()
        cache = []
        for t in range(steps):
            x = np.asarray(np.concatenate([p[:, t] for p in parts], axis=1),
                           dtype=np.float64)
            self._check(x.shape, h.shape, c.shape)
            if x.ndim != 2:
                raise ValueError(
                    f"matmul expects 2-d operands, got {x.shape} @ {Wx.shape}")
            z = x @ Wx.data + h @ Wh.data + b.data
            i = expit(z[:, :n])
            f = expit(z[:, n:2 * n])
            g = np.tanh(z[:, 2 * n:3 * n])
            o = expit(z[:, 3 * n:])
            c_next = f * c + i * g
            tc = np.tanh(c_next)
            if record:
                cache.append((x, h, c, i, f, g, o, tc))
            h, c = o * tc, c_next

        def bw(dh):
            gWx = gWh = gb = dc = None
            for t in range(steps - 1, -1, -1):
                x, h_prev, c_prev, i, f, g, o, tc = cache[t]
                do = dh * tc
                dct = dh * o * (1.0 - tc * tc)
                if dc is not None:
                    dct = dct + dc
                di = dct * g
                dg = dct * i
                df = dct * c_prev
                dc = dct * f
                # zeroed buffer plus +=, as getitem's backward builds it
                dz = np.zeros((batch, 4 * n))
                dz[:, :n] += di * i * (1.0 - i)
                dz[:, n:2 * n] += df * f * (1.0 - f)
                dz[:, 2 * n:3 * n] += dg * (1.0 - g * g)
                dz[:, 3 * n:] += do * o * (1.0 - o)
                # newest step first, the order the tape sums them in; step
                # 0's h is zero, but its h.T @ dz term is summed all the same
                terms = (x.T @ dz, h_prev.T @ dz, dz.sum(axis=0))
                if gWx is None:
                    gWx, gWh, gb = terms
                else:
                    gWx, gWh, gb = gWx + terms[0], gWh + terms[1], gb + terms[2]
                if t > 0:
                    dh = dz @ Wh.data.T
            return gWx, gWh, gb

        return Tensor._from_op(h, (Wx, Wh, b), bw)

    def step_np(self, x: np.ndarray, h: np.ndarray, c: np.ndarray
                ) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=np.float64)
        h = np.asarray(h, dtype=np.float64)
        c = np.asarray(c, dtype=np.float64)
        self._check(x.shape, h.shape, c.shape)
        return self.recur_np(x @ self.Wx.data, h, c)

    def recur_np(self, xw: np.ndarray, h: np.ndarray, c: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
        """`step_np` given the input projection `xw = x @ Wx`, unchecked.

        A caller that feeds the same input rows to several unrolls can
        project each row once; the result is bit-identical to `step_np`.
        """
        n = self.hidden_size
        z = xw + h @ self.Wh.data + self.b.data
        i = expit(z[..., :n])
        f = expit(z[..., n:2 * n])
        g = np.tanh(z[..., 2 * n:3 * n])
        o = expit(z[..., 3 * n:])
        c_next = f * c + i * g
        h_next = o * np.tanh(c_next)
        return h_next, c_next
