"""Diagonal data driving each phase-and-transform operation.

The cost table holds twice the cut value of each basis state (the hardware
convention: every crossed edge contributes 2*weight), and the mixer table
holds the integer exponents 2*popcount(l) - n.  Angle vectors derived here
are plain float64 radians; the fixed-point pipeline quantizes them at entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graph import WeightedGraph, check_qubit_count, cut_values_all


@dataclass(frozen=True)
class CostDiagonal:
    """entries[l] = sum over edges of 2*weight where the endpoint bits of l differ."""

    entries: np.ndarray  # float64, length 2**n
    n: int


@dataclass(frozen=True)
class MixerExponents:
    """u[l] = 2*popcount(l) - n, the per-state phase exponent of the mixer."""

    u: np.ndarray  # int64, length 2**n
    n: int


def build_cost_diagonal(g: WeightedGraph, n: int) -> CostDiagonal:
    """Accumulate 2*weight into every index whose endpoint bits differ."""
    return CostDiagonal(entries=2.0 * cut_values_all(g, n), n=n)


def popcount(values: np.ndarray) -> np.ndarray:
    """Bit-population count for non-negative int64 arrays (n <= 24 bits used)."""
    v = values.astype(np.int64)
    count = np.zeros_like(v)
    while True:
        count += v & 1
        v >>= 1
        if not v.any():
            return count


def build_mixer_exponents(n: int) -> MixerExponents:
    check_qubit_count(n)
    idx = np.arange(1 << n, dtype=np.int64)
    return MixerExponents(u=2 * popcount(idx) - n, n=n)


def cost_angles(d: CostDiagonal, gamma: float) -> np.ndarray:
    """Phase angles of the cost diagonal: exp(i*angle[l]) with angle = -gamma*entry."""
    return -gamma * d.entries


def mixer_angles(m: MixerExponents, beta: float) -> np.ndarray:
    """Phase angles of the mixer diagonal: exp(i*u[l]*beta)."""
    return m.u.astype(np.float64) * beta
