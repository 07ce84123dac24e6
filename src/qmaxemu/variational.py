"""Measurement statistics, expectation evaluation, and the classical outer loop.

Probabilities are computed from the stored amplitudes and renormalized, so
the state's power-of-two scale exponent cancels.  The expected cut weight
divides the cost table by two to undo the hardware's 2*cut convention.

The optimizer is a restarted Nelder-Mead simplex (derivative-free: the
fixed-point engine's objective is piecewise constant at ulp scale).  The
simplex is in-repo and takes scipy.optimize's non-adaptive Nelder-Mead
steps exactly, so the package imports no scipy; scipy is a test-only
dependency, which the comparison test runs against.
Parameters are folded into [0, DOMAIN) before evaluation; with DOMAIN = pi
this is exact for integer weights, where the objective is pi-periodic in
every coordinate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

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
    max_evals: int = 2000  # each restart gets max(2p + 2, max_evals // restarts)


@dataclass
class OptimizationTrace:
    """An optimization's log of (params, f_p) evaluations, in order, and
    whether it converged; the best point is the log's first largest f_p."""

    iterations: list[tuple[QaoaParams, float]] = field(default_factory=list)
    converged: bool = False

    @property
    def evaluations(self) -> int:
        return len(self.iterations)

    @property
    def best_params(self) -> QaoaParams | None:  # None before any evaluation
        return self._best()[0]

    @property
    def best_f_p(self) -> float:  # -inf before any evaluation
        return self._best()[1]

    def _best(self) -> tuple[QaoaParams | None, float]:
        return max(self.iterations, key=lambda point: point[1], default=(None, -math.inf))


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
    f_p, probs, cuts = _expected_cut(state, d)
    half = len(probs) // 2
    best = int(np.argmax(probs[:half] + probs[::-1][:half]))
    return ExpectationResult(
        f_p=f_p,
        probs=probs,
        best_bitstring=assignment_from_index(best, state.n),
        best_cut=float(cuts[best]),
    )


def _expected_cut(state: StateVector, d: CostDiagonal) -> tuple[float, np.ndarray, np.ndarray]:
    """f_p, and the probabilities and cut values it sums: expectation's
    arithmetic, which the optimizer's objective runs alone."""
    if len(state.amps) != len(d.entries):
        raise ValueError("state and cost diagonal lengths differ")
    probs = probabilities(state)
    cuts = d.entries * 0.5
    return float(np.sum(probs * cuts)), probs, cuts


def make_objective(g: WeightedGraph, p: int, engine: EngineFn,
                   trace: OptimizationTrace):
    """Negated-f_p objective over a batch of flat [gamma..., beta...]
    vectors, the rows of x, which returns their values and appends each
    evaluation to trace's log: through the engine's batch(g, points) when
    it has one (engines.make_engine), else one point at a time."""
    run_batch = getattr(engine, "batch", None)

    def objective(x: np.ndarray) -> list[float]:
        folded = np.mod(x, DOMAIN)
        points = [QaoaParams(p, tuple(row[:p]), tuple(row[p:])) for row in folded]
        runs = run_batch(g, points) if run_batch else [engine(g, params) for params in points]
        f_ps = [_expected_cut(run.state, g.cost_table)[0] for run in runs]
        trace.iterations += zip(points, f_ps)
        return [-f_p for f_p in f_ps]

    return objective


def optimize(g: WeightedGraph, p: int, engine: EngineFn,
             cfg: OptimizerConfig = OptimizerConfig(), seed: int = 0) -> OptimizationTrace:
    """Maximize f_p over the 2p parameters with restarted Nelder-Mead.

    Restart points are drawn once from a seeded generator.  The restarts
    run in lockstep: each round hands the objective one batch, the next
    point of every restart that has one, in restart order.  They are
    independent, so each evaluates the points it would alone, and the
    trace is their logs in restart order, deterministic.  If no restart
    converges within its share of the budget, the best evaluation seen so
    far is still reported, with converged=False.
    """
    if p < 1:
        raise ValueError("layer count must be >= 1")
    if cfg.restarts < 1:
        raise ValueError("need at least one restart")
    if cfg.max_evals < 1:
        raise ValueError("need at least one evaluation")
    log = OptimizationTrace()
    objective = make_objective(g, p, engine, log)
    rng = np.random.default_rng(seed)
    starts = rng.uniform(0.0, DOMAIN, size=(cfg.restarts, 2 * p))
    per_restart = max(2 * p + 2, cfg.max_evals // cfg.restarts)
    owners, converged = _lockstep([_simplex(x0, per_restart, XATOL, FATOL) for x0 in starts],
                                  objective)
    order = sorted(range(len(owners)), key=owners.__getitem__)  # stable: each log in order
    return OptimizationTrace([log.iterations[i] for i in order], converged)


def _lockstep(runs: list, evaluate: Callable[[np.ndarray], list[float]]
              ) -> tuple[list[int], bool]:
    """Step the _simplex generators runs together: each round, evaluate
    gets one batch, the next point of every run that has one, in run
    order, and returns their values.  Returns the run of each evaluation,
    in order, and whether any run converged."""
    pending = dict.fromkeys(range(len(runs)))  # run -> the value it is sent next
    owners: list[int] = []
    converged = False
    while pending:
        points = {}
        for k, value in pending.items():
            try:
                points[k] = runs[k].send(value)
            except StopIteration as done:
                converged = converged or done.value
        owners += points
        pending = dict(zip(points, evaluate(np.array(list(points.values()))))) if points else {}
    return owners, converged


class _BudgetSpent(Exception):
    """_simplex's evaluation budget ran out inside a step."""


def _nelder_mead(fun: Callable[[np.ndarray], float], x0: np.ndarray, maxfev: int,
                 xatol: float, fatol: float) -> bool:
    """Minimize fun from x0 with the non-adaptive Nelder-Mead simplex (Nelder
    and Mead, Comput. J. 7, 1965; Lagarias et al., SIAM J. Optim. 9, 1998)
    in at most maxfev evaluations; True if it converged.  It evaluates
    _simplex's points with fun.
    """
    return _lockstep([_simplex(x0, maxfev, xatol, fatol)], lambda x: [fun(x[0])])[1]


def _simplex(x0: np.ndarray, maxfev: int, xatol: float, fatol: float):
    """_nelder_mead's simplex as a generator: it yields each point to
    evaluate, is sent its value, and returns whether it converged.

    It evaluates the points that scipy 1.17's minimize(method="Nelder-Mead")
    evaluates with these options, bit for bit and in the same order, and
    returns its success: the same initial simplex, coefficients (reflect 1,
    expand 2, contract 1/2, shrink 1/2) and arithmetic, the same unstable
    argsort after every step (twice after the first n + 1 evaluations), and
    the convergence test only at the top of a step.  Each point yielded is
    a copy.  No evaluation is made past maxfev, even inside a shrink.
    """
    n = len(x0)
    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = (1 + 0.05) * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    calls = 0

    def f(x: np.ndarray):
        nonlocal calls
        if calls == maxfev:
            raise _BudgetSpent
        calls += 1
        return (yield x.copy())

    def by_value(sim, fsim):
        order = np.argsort(fsim)
        return np.take(sim, order, 0), np.take(fsim, order, 0)

    try:
        for k in range(n + 1):
            fsim[k] = yield from f(sim[k])
        sim, fsim = by_value(*by_value(sim, fsim))
        while calls < maxfev:
            if (np.max(np.abs(sim[1:] - sim[0])) <= xatol
                    and np.max(np.abs(fsim[0] - fsim[1:])) <= fatol):
                return True
            xbar = np.add.reduce(sim[:-1], 0) / n
            xr = 2 * xbar - sim[-1]
            fxr = yield from f(xr)
            if fxr < fsim[0]:
                xe = 3 * xbar - 2 * sim[-1]
                fxe = yield from f(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = 1.5 * xbar - 0.5 * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc <= fxr
                else:  # inside contraction
                    xc = 0.5 * xbar + 0.5 * sim[-1]
                    fxc = yield from f(xc)
                    accept = fxc < fsim[-1]
                if accept:
                    sim[-1], fsim[-1] = xc, fxc
                else:  # shrink towards the best vertex
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + 0.5 * (sim[j] - sim[0])
                        fsim[j] = yield from f(sim[j])
            sim, fsim = by_value(sim, fsim)
    except _BudgetSpent:
        pass
    return False


def grid_search_p1(g: WeightedGraph, resolution: int,
                   engine: EngineFn | None = None) -> OptimizationTrace:
    """Exhaustive p=1 maximum of f_p over the lattice points gamma = i*step
    in [0, pi) and beta = j*step in [0, pi/2), step = pi/resolution.

    At p = 1, beta and beta + pi/2 give the same state up to a global phase
    (the mixer gains a flip of every bit, which the cost-phased uniform
    state is symmetric under), so only beta < pi/2 is evaluated: that is
    resolution * ceil(resolution/2) engine calls, in (i, j) order, whose
    log is the returned trace, converged as the lattice is exhausted.  Of
    points with equal computed f_p, the first in (i, j) order wins; points
    equal only in exact arithmetic do not tie, as with the float64 engines
    rounding decides.  The default engine is decomposed_run_qaoa_f64."""
    if resolution < 8:
        raise ValueError("resolution must be >= 8")
    trace = OptimizationTrace(converged=True)
    objective = make_objective(g, 1, engine or decomposed_run_qaoa_f64, trace)
    step = math.pi / resolution
    for i in range(resolution):  # one batch per lattice row, inside [0, DOMAIN): unfolded
        objective(np.array([[i * step, j * step] for j in range((resolution + 1) // 2)]))
    return trace
