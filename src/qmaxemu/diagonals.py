"""Diagonal data driving each phase-and-transform operation.

The cost table holds twice the cut value of each basis state (the hardware
convention: every crossed edge contributes 2*weight) and belongs to the
graph, so the engines read WeightedGraph.cost_table; the mixer table, the
integer exponents 2*popcount(l) - n, depends on n alone, so the engines
take it from mixer_table(n).  Angle vectors derived here are plain float64
radians; the fixed-point pipeline quantizes them at entry.

Each diagonal takes few distinct values: the cost table is symmetric under
complementing every bit, and the mixer table takes n + 1 values.  So the
engines evaluate a per-element function on the distinct angles only
(cost_half_angles, mixer_level_angles) and widen the result to all N
states with the table's expand.  An angle whose float64 product overflows
saturates at +/-max float64, with no numpy warning.  That lies past every
word range, so the pipeline's CALCULATE_RAD saturates it as it would the
exact product; the float64 engines reject such a parameter, which they
find from the table's peak.

The same symmetry holds for the pipeline's state, which run_qaoa keeps in
its parity sector, N/2 words indexed by the low n - 1 bits j; the mixer
table also gives the sector's states and exponents (odd, sector_level).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .graph import WeightedGraph, check_qubit_count, cut_values_all


@dataclass(frozen=True)
class CostDiagonal:
    """entries[l] = sum over edges of 2*weight where the endpoint bits of l differ.

    Invariant: entries[l] == entries[2**n - 1 - l] to the bit, because a cut
    and its complement cross the same edges (cut_values_all builds the
    upper half as the reverse of the lower one).  So the lower half, bit
    n-1 clear, holds every distinct value.
    """

    entries: np.ndarray  # float64, length 2**n
    n: int

    def expand(self, half: np.ndarray) -> np.ndarray:
        """Per-state values from those of the lower half: half, then half
        reversed, so out[l] == out[2**n - 1 - l] as for entries."""
        return np.concatenate((half, half[::-1]))

    @cached_property
    def peak(self) -> float:
        """The largest |entry|: gamma * peak is finite exactly when every
        cost angle is.  Two scans, and no N-element temporary."""
        return float(max(self.entries.max(), -self.entries.min()))


@dataclass(frozen=True)
class MixerExponents:
    """u[l] = 2*popcount(l) - n, the per-state phase exponent of the mixer.

    popcount[l] indexes the n + 1 distinct exponents, so a per-exponent
    value array (see mixer_level_angles) gathers into a per-state one.

    The pipeline's parity sector holds, for each j < N/2, the even-popcount
    state of the pair {j, j + N/2}: odd[j] is 1 where that is j + N/2, and
    sector_level[j] is its popcount.  Both are read-only, built on first use.
    """

    popcount: np.ndarray  # uint8, length 2**n
    n: int

    @property
    def u(self) -> np.ndarray:  # a fresh int64 array; no engine reads it
        return 2 * self.popcount.astype(np.int64) - self.n

    @property
    def peak(self) -> float:
        """The largest |u|, n: beta * peak is finite exactly when every
        mixer angle is."""
        return float(self.n)

    def expand(self, levels: np.ndarray) -> np.ndarray:
        """Per-state values from the n + 1 per-exponent ones, by popcount."""
        return levels[self.popcount]

    @cached_property
    def odd(self) -> np.ndarray:  # uint8, length 2**(n-1)
        odd = self.popcount[:len(self.popcount) // 2] & 1
        odd.flags.writeable = False
        return odd

    @cached_property
    def sector_level(self) -> np.ndarray:  # uint8, length 2**(n-1)
        level = self.popcount[:len(self.popcount) // 2] + self.odd
        level.flags.writeable = False
        return level

    def sector_expand(self, levels: np.ndarray) -> np.ndarray:
        """Per-state values of the parity sector from the n + 1 per-exponent
        ones, along the last axis (take, several times faster here)."""
        return levels.take(self.sector_level, axis=-1)


def build_cost_diagonal(g: WeightedGraph, n: int) -> CostDiagonal:
    """Accumulate 2*weight into every index whose endpoint bits differ."""
    entries = cut_values_all(g, n)
    entries *= 2.0  # exact
    return CostDiagonal(entries=entries, n=n)


def build_mixer_exponents(n: int) -> MixerExponents:
    """Popcount by doubling: bit k splits the table into its two halves, the
    upper one a copy of the lower plus one, so n concatenations build it."""
    check_qubit_count(n)
    popcount = np.zeros(1, dtype=np.uint8)
    for _ in range(n):
        popcount = np.concatenate((popcount, popcount + 1))
    return MixerExponents(popcount=popcount, n=n)


@lru_cache(maxsize=None)
def mixer_table(n: int) -> MixerExponents:
    """The engines' mixer table, built once per n and shared, so read-only.
    n <= MAX_QUBITS keeps the cache under 2**25 bytes; an n outside
    1..MAX_QUBITS raises before allocating and is not cached."""
    m = build_mixer_exponents(n)
    m.popcount.flags.writeable = False
    return m


def _scaled(factor: float, values: np.ndarray, peak: float) -> np.ndarray:
    """factor * values, where peak bounds |values|; a product past float64
    saturates at +/-max float64, without numpy's overflow warning."""
    if math.isfinite(factor * peak):
        return factor * values
    top = np.finfo(np.float64).max
    with np.errstate(over="ignore"):
        return np.clip(factor * values, -top, top)


def cost_angles(d: CostDiagonal, gamma: float) -> np.ndarray:
    """Phase angles of the cost diagonal: exp(i*angle[l]) with angle = -gamma*entry."""
    return -gamma * d.entries


def cost_half_angles(d: CostDiagonal, gamma: float) -> np.ndarray:
    """The cost angles of the lower half, which hold every distinct one:
    d.expand(cost_half_angles(d, gamma)) equals cost_angles(d, gamma) bit
    for bit."""
    return _scaled(-gamma, d.entries[:len(d.entries) // 2], d.peak)


def mixer_angles(m: MixerExponents, beta: float) -> np.ndarray:
    """Phase angles of the mixer diagonal: exp(i*u[l]*beta)."""
    return m.u.astype(np.float64) * beta


def mixer_level_angles(m: MixerExponents, beta: float) -> np.ndarray:
    """The n + 1 distinct mixer angles u*beta, u = -n, -n+2, ..., n, in the
    order popcount indexes them: mixer_angles(m, beta) equals
    mixer_level_angles(m, beta)[m.popcount] bit for bit."""
    return _scaled(beta, np.arange(-m.n, m.n + 1, 2, dtype=np.int64).astype(np.float64), m.peak)
