"""A fixed reference kernel that gauges the host's speed at a moment.

The benchmark runs on a few cores of a shared host. Other tenants change its
speed by up to 60% over spells of tens of seconds to many minutes, and a
30-second run cannot average such spells out. The kernel below does a fixed
amount of the kind of work sepsim does: it builds and walks a graph of small
Python objects that hold small arrays, as autodiff does, and runs small
matrix products and element-wise numpy calls, as single-row inference does.
It never calls sepsim, so the parent commit and a change run the same
kernel.

The benchmark runs the kernel next to every timed stage and every set-up
probe, and states its timings in reference seconds:

    reference seconds = seconds * (REF_S / kernel time alongside) ** elasticity

A slow spell stretches the kernel and the stages alike, so the scaled time
holds steady where the raw time does not. The elasticity is the share of a
change in the kernel's time that shows in a workload's time; each workload
states its own (``workloads.ELASTICITY``).
"""
from __future__ import annotations

import gc
import time

import numpy as np

# Kernel time on a 2-vCPU Firecracker VM at its usual speed; a reference
# second is a second on such a host.
REF_S = 0.05

_SMALL = np.linspace(-1.0, 1.0, 32 * 32).reshape(32, 32)
_WIDE = np.linspace(-0.1, 0.1, 64 * 128).reshape(64, 128)
_LONG = np.linspace(-1.0, 1.0, 262144)     # 2 MB


class _Node:
    __slots__ = ("value", "parents", "grad")

    def __init__(self, value, parents):
        self.value = value
        self.parents = parents
        self.grad = None


def _object_graph() -> float:
    """Build a graph of 6,000 nodes holding 8-element arrays, walk it back."""
    nodes = []
    zero = np.zeros(8)
    for i in range(6000):
        parents = (nodes[i - 1], nodes[i // 2]) if i else ()
        nodes.append(_Node(zero + i, parents))
    total = 0.0
    for node in reversed(nodes):
        node.grad = node.value * 0.5
        total += float(node.grad[0])
    return total


def _interpreter() -> float:
    acc: dict[int, float] = {}
    for i in range(40000):
        acc[i & 255] = acc.get(i & 255, 0.0) + i * 0.5
    return acc[0]


def _small_numpy() -> float:
    x = _SMALL
    for _ in range(600):
        x = np.tanh(_SMALL @ x * 0.05 + 0.1)
    h = np.ones((64, 64))
    for _ in range(40):
        g = np.tanh(h @ _WIDE)
        h = g[:, :64] * 0.5 + g[:, 64:] * 0.5
    y = _LONG
    for _ in range(6):
        y = np.exp(-np.abs(y)) + y * 0.1
    return float(x[0, 0] + h[0, 0] + y[0])


def measure() -> float:
    """Seconds one pass of the kernel takes now. The cyclic garbage collector
    is off meanwhile: a collection would walk the caller's whole heap, whose
    size depends on the code under test."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _object_graph()
        _interpreter()
        _small_numpy()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def to_reference(seconds: float, kernel_s: float, elasticity: float) -> float:
    """``seconds`` measured while the kernel took ``kernel_s``, in reference
    seconds, for work whose time moves by ``elasticity`` times the kernel's
    relative change."""
    return seconds * (REF_S / kernel_s) ** elasticity
