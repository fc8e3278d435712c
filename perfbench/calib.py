"""Reference kernel that tracks the machine's speed through a run.

The kernel does the package's kind of work without calling the package:
a depth-first enumeration of simple paths on a 4x5 grid (tuples, sets,
recursion), dict bookkeeping, and small numpy arrays with masks. It runs
right after every set-up and every operation, outside their timing, and
the time measured is multiplied by ``scale`` of that kernel run: seconds
on a machine where the kernel takes ``REFERENCE_S``. A slow spell on a
shared machine lasts seconds, so it slows an operation and the kernel run
next to it alike. A change to the package moves the scaled times exactly as
it moves the raw ones.
"""

from __future__ import annotations

import time

import numpy as np

# about the kernel's time on a 2-vCPU x86-64 virtual machine (Python 3.11)
# when it is not slowed by its neighbours; reported times are seconds at
# that speed
REFERENCE_S = 0.008


def _grid_succ(rows, cols):
    succ = {}
    for r in range(rows):
        for c in range(cols):
            a = r * cols + c
            nxt = []
            if c + 1 < cols:
                nxt.append(a + 1)
            if r + 1 < rows:
                nxt.append(a + cols)
            if c > 0:
                nxt.append(a - 1)
            if r > 0:
                nxt.append(a - cols)
            succ[a] = tuple(sorted(nxt))
    return succ


_SUCC = _grid_succ(4, 5)


def kernel() -> float:
    paths = []
    seq = [0]
    on = {0}

    def dfs(node):
        if node == 19:
            paths.append(tuple(seq))
            return
        for v in _SUCC[node]:
            if v not in on:
                seq.append(v)
                on.add(v)
                dfs(v)
                on.discard(v)
                seq.pop()

    dfs(0)
    index = {}
    for p in paths:
        for pair in zip(p, p[1:]):
            index[pair] = index.get(pair, 0) + 1
    x = np.linspace(0.0, 8.0, 48)
    for _ in range(600):
        mask = x > 4.0
        x = np.where(mask, x * 0.5, x + 1.0)
        x[x < 1.0] += 0.25
    return len(paths) + len(index) + float(x.sum())


def run() -> float:
    """Seconds one kernel run takes now."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0


def scale(kernel_s: float) -> float:
    """Factor from seconds measured next to a kernel run of ``kernel_s``
    to reference seconds."""
    return REFERENCE_S / kernel_s
