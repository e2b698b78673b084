"""Dense and recurrent building blocks.

`Dense.__call__` and `LSTMCell.unroll` are fused tape ops: one node each,
with a hand-written backward that repeats the per-op graph's float
operations in the same order, so trained weights match it bit for bit.
Dense's backward is `Dense.backward_np`, on bare arrays, which the DQN's
tape-free `agent.td_update` calls too. Inference runs `unroll` under
`no_grad`, or `Dense.forward_np` and `LSTMCell.step_np`/`recur_np` on bare
arrays; `unroll`'s forward and `recur_np` share one gate kernel,
`LSTMCell._gates`. Environment stepping calls `recur_np` once per step on
stacked (W, 1, hidden) lanes, the W unrolls of the history window advancing
in lockstep; a stacked (W, 1, k) @ (k, n) product equals the batch-1 product
lane by lane, so each lane stays bit-identical to its own batch-1 unroll.
`LSTMCell.step` builds the per-op graph of one step and is the reference
the fused unroll is tested against.
"""
from __future__ import annotations

import numpy as np

from .tensor import Parameter, Tensor, grad_enabled, sigmoid, sigmoid_np, tanh

ACTIVATIONS = ("linear", "relu", "tanh")


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
        return out

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

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


# The `rng` a loader builds a model with: its weights are allocated, not
# drawn, since the checkpoint's arrays are copied over them.
UNINITIALIZED = object()


def _initial_weight(rng, fan_in: int, shape: tuple) -> np.ndarray:
    if rng is UNINITIALIZED:
        return np.empty(shape)
    return init_weight(rng, fan_in, shape)


def _apply_activation_np(x: np.ndarray, activation: str) -> np.ndarray:
    """The activation of `x`; relu overwrites `x` with it."""
    if activation == "linear":
        return x
    if activation == "relu":
        return np.maximum(x, 0.0, out=x)
    if activation == "tanh":
        return np.tanh(x)
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
        self.W = Parameter(_initial_weight(rng, in_dim, (in_dim, out_dim)))
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

        def bw(g):
            return self.backward_np(x.data, out, g, input_grad=x.requires_grad)

        return Tensor._from_op(out, (x, self.W, self.b), bw)

    def forward_np(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        self._check(x.shape)
        return self._forward_np(x)

    def _forward_np(self, x: np.ndarray) -> np.ndarray:
        """`forward_np` of a float64 array whose last axis is `in_dim`."""
        y = x @ self.W.data
        y += self.b.data
        return _apply_activation_np(y, self.activation)

    def backward_np(self, x: np.ndarray, out: np.ndarray, g: np.ndarray, *,
                    input_grad: bool = True):
        """Gradients (input or None, W, b) of `forward_np(x) == out` given
        the output gradient `g`, in the per-op graph's float order."""
        # the activation derivative as the per-op relu/tanh take it
        if self.activation == "relu":
            g = g * (out > 0)
        elif self.activation == "tanh":
            g = g * (1.0 - out * out)
        return (g @ self.W.data.T if input_grad else None,
                x.T @ g, g.sum(axis=0))


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
        # each layer's output has the next layer's input width
        x = self.layers[0].forward_np(x)
        for layer in self.layers[1:]:
            x = layer._forward_np(x)
        return x


class LSTMCell(Module):
    """Standard LSTM gating; fused weights, gate order (input, forget, cell, output)."""

    def __init__(self, input_size: int, hidden_size: int,
                 rng: np.random.Generator | None = None):
        rng = rng if rng is not None else np.random.default_rng(0)
        self.input_size = input_size
        self.hidden_size = hidden_size
        self.Wx = Parameter(_initial_weight(rng, input_size, (input_size, 4 * hidden_size)))
        self.Wh = Parameter(_initial_weight(rng, hidden_size, (hidden_size, 4 * hidden_size)))
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
            i, f, g, o, c_next, tc = self._gates(x @ Wx.data + h @ Wh.data, c)
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
        `h` and `c` may be stacked lanes, (lanes, 1, hidden), with `xw`
        shared by every lane; each lane's result is that of a batch-1 call.
        """
        _, _, _, o, c_next, tc = self._gates(xw + h @ self.Wh.data, c)
        return o * tc, c_next

    def _gates(self, z: np.ndarray, c: np.ndarray) -> tuple:
        """One step's gate kernel given `z = x @ Wx + h @ Wh`: the gates
        (i, f, g, o), `c_next` and `tanh(c_next)`, in `step`'s float order.
        Taking the sum, not `x @ Wx`, keeps no projection alive beside `z`,
        a temporary that the bias is added to in place."""
        n = self.hidden_size
        z += self.b.data
        # one sigmoid over all four gates; the cell gate's share is unused
        s = sigmoid_np(z)
        i, f, o = s[..., :n], s[..., n:2 * n], s[..., 3 * n:]
        g = np.tanh(z[..., 2 * n:3 * n])
        c_next = f * c + i * g
        return i, f, g, o, c_next, np.tanh(c_next)
