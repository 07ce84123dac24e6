"""Measurement statistics, expectation evaluation, and the classical outer loop.

Probabilities are computed from the stored amplitudes and renormalized, so
the state's power-of-two scale exponent cancels.  The expected cut weight
divides the cost table by two to undo the hardware's 2*cut convention.

The optimizer is a restarted Nelder-Mead simplex (derivative-free: the
fixed-point engine's objective is piecewise constant at ulp scale).
Parameters are folded into [0, DOMAIN) before evaluation; with DOMAIN = pi
this is exact for integer weights, where the objective is pi-periodic in
every coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import minimize

from .diagonals import CostDiagonal
from .diagonals import build_cost_diagonal  # noqa: F401  unused; in perfbench's SITES
from .graph import WeightedGraph, assignment_from_index
from .pipeline import EngineRun, QaoaParams, StateVector
from .reference import decomposed_run_qaoa_f64

EngineFn = Callable[[WeightedGraph, QaoaParams], EngineRun]

DOMAIN = math.pi  # parameter period; restart points are drawn from [0, DOMAIN)
XATOL = 1e-4  # Nelder-Mead convergence tolerances on parameters and on f_p
FATOL = 1e-7


class ZeroStateError(ValueError):
    """All amplitudes are zero; probabilities are undefined."""


@dataclass
class ExpectationResult:
    f_p: float
    probs: np.ndarray
    best_bitstring: str
    best_cut: float


@dataclass(frozen=True)
class OptimizerConfig:
    restarts: int = 8
    max_evals: int = 2000  # total budget, split across restarts


@dataclass
class OptimizationTrace:
    iterations: list[tuple[QaoaParams, float]] = field(default_factory=list)
    best_params: QaoaParams | None = None
    best_f_p: float = -math.inf
    evaluations: int = 0
    converged: bool = False


def probabilities(state: StateVector) -> np.ndarray:
    """p[l] = |amp_l|^2 / sum_k |amp_k|^2, in double precision at readout."""
    weights = np.abs(state.amps) ** 2
    total = float(weights.sum())
    if total == 0.0:
        raise ZeroStateError("state vector is identically zero")
    return weights / total


def expectation(state: StateVector, d: CostDiagonal) -> ExpectationResult:
    """Expected cut weight sum_l p[l] * entries[l]/2 plus the modal cut.

    A cut l and its complement N-1-l tie in exact arithmetic, so the modal
    cut is the pair with the largest summed probability, reported by its
    lower index.  Pairs whose computed sums are exactly equal resolve to
    the lowest index.  Pairs that are equal only in exact arithmetic, as
    under a symmetry of the graph, are not ties: with the float64 engines,
    rounding chooses between them."""
    if len(state.amps) != len(d.entries):
        raise ValueError("state and cost diagonal lengths differ")
    probs = probabilities(state)
    cuts = d.entries * 0.5
    f_p = float(np.sum(probs * cuts))
    half = len(probs) // 2
    best = int(np.argmax(probs[:half] + probs[::-1][:half]))
    return ExpectationResult(
        f_p=f_p,
        probs=probs,
        best_bitstring=assignment_from_index(best, state.n),
        best_cut=float(cuts[best]),
    )


def make_objective(g: WeightedGraph, p: int, engine: EngineFn,
                   trace: OptimizationTrace):
    """Negated-f_p objective over a flat [gamma..., beta...] vector."""
    def objective(x: np.ndarray) -> float:
        folded = np.mod(x, DOMAIN)
        params = QaoaParams(p, tuple(folded[:p]), tuple(folded[p:]))
        f_p = expectation(engine(g, params).state, g.cost_table).f_p
        trace.iterations.append((params, f_p))
        trace.evaluations += 1
        if f_p > trace.best_f_p:
            trace.best_f_p = f_p
            trace.best_params = params
        return -f_p

    return objective


def optimize(g: WeightedGraph, p: int, engine: EngineFn,
             cfg: OptimizerConfig = OptimizerConfig(), seed: int = 0) -> OptimizationTrace:
    """Maximize f_p over the 2p parameters with restarted Nelder-Mead.

    Restart points are drawn once from a seeded generator and the restarts
    run in index order, so the trace is deterministic.  If no restart
    converges within its share of the budget, the best evaluation seen so
    far is still reported, with converged=False.
    """
    if p < 1:
        raise ValueError("layer count must be >= 1")
    if cfg.restarts < 1:
        raise ValueError("need at least one restart")
    if cfg.max_evals < 1:
        raise ValueError("need at least one evaluation")
    trace = OptimizationTrace()
    objective = make_objective(g, p, engine, trace)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, DOMAIN, size=(cfg.restarts, 2 * p))
    per_restart = max(2 * p + 2, cfg.max_evals // cfg.restarts)
    for x0 in starts:
        res = minimize(objective, x0, method="Nelder-Mead",
                       options={"maxfev": per_restart, "xatol": XATOL,
                                "fatol": FATOL, "disp": False})
        trace.converged = trace.converged or bool(res.success)
    return trace


def grid_search_p1(g: WeightedGraph, resolution: int, engine: EngineFn | None = None,
                   trace: OptimizationTrace | None = None) -> tuple[float, float, float]:
    """Exhaustive p=1 maximum of f_p over the lattice points gamma = i*step
    in [0, pi) and beta = j*step in [0, pi/2), step = pi/resolution.

    At p = 1, beta and beta + pi/2 give the same state up to a global phase
    (the mixer gains a flip of every bit, which the cost-phased uniform
    state is symmetric under), so only beta < pi/2 is evaluated: that is
    resolution * ceil(resolution/2) engine calls, recorded in trace when
    one is given.  Of points with equal computed f_p, the first in (i, j)
    order wins; points equal only in exact arithmetic do not tie, as with
    the float64 engines rounding decides.  The default engine is
    decomposed_run_qaoa_f64."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    if trace is None:
        trace = OptimizationTrace()
    objective = make_objective(g, 1, engine or decomposed_run_qaoa_f64, trace)
    step = math.pi / resolution
    for i in range(resolution):
        for j in range((resolution + 1) // 2):
            objective(np.array([i * step, j * step]))  # inside [0, DOMAIN): unfolded
    best = trace.best_params
    return float(best.gamma[0]), float(best.beta[0]), trace.best_f_p
