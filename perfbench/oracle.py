"""Exact QAOA expectation by state-vector simulation, sharing no code with qmaxemu.

Each layer multiplies by the cost phase exp(-2i*gamma*C(x)) (the emulator's
diagonal stores 2*C and applies -gamma times it) and then applies
exp(-i*beta*X) to every qubit, one axis at a time.  This costs O(n * 2**n)
per layer, so it reaches the n = 16..18 instances where the dense engine
stops, and it agrees with the dense engine to rounding at small n (checked
by selftest.py).
"""

from __future__ import annotations

import numpy as np


def cut_values(n: int, edges) -> np.ndarray:
    """C(x) for every basis state x; bit v of x is the side of vertex v."""
    bits = (np.arange(1 << n, dtype=np.int64)[:, None] >> np.arange(n)) & 1
    cut = np.zeros(1 << n, dtype=np.float64)
    for i, j, w in edges:
        cut += w * (bits[:, i] != bits[:, j])
    return cut


def expected_cut(n: int, edges, gamma, beta) -> float:
    """f_p: the expected cut weight after the p layers."""
    cut = cut_values(n, edges)
    psi = np.full(1 << n, (1 << n) ** -0.5, dtype=np.complex128)
    for g, b in zip(gamma, beta):
        psi = psi * np.exp(-2j * g * cut)
        c, s = np.cos(b), -1j * np.sin(b)
        for k in range(n):
            v = psi.reshape(1 << (n - k - 1), 2, 1 << k)
            a0, a1 = v[:, 0, :], v[:, 1, :]
            psi = np.stack([c * a0 + s * a1, s * a0 + c * a1], axis=1).reshape(-1)
    prob = np.abs(psi) ** 2
    return float(prob @ cut / prob.sum())


def max_cut(n: int, edges) -> float:
    return float(cut_values(n, edges).max())
