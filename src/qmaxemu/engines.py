"""Engine registry: one call surface over the three state-evolution routes."""

from __future__ import annotations

from dataclasses import dataclass

from .fxp import FxFormat
from .graph import WeightedGraph
from .pipeline import (OpCounts, PipelineConfig, QaoaParams, StateVector,
                       TraceWriter, run_qaoa)
from .reference import decomposed_run_qaoa_f64, dense_run_qaoa

ENGINE_NAMES = ("pipeline", "decomposed-f64", "dense")


@dataclass
class EngineRun:
    state: StateVector
    counts: OpCounts


def run_engine(name: str, g: WeightedGraph, params: QaoaParams,
               fmt: FxFormat | None = None, fast: bool = False,
               trace_writer: TraceWriter | None = None) -> EngineRun:
    """Run one engine.  `fast` is ignored (decomposed-f64 always runs the
    butterfly); it stays for callers that still pass it."""
    if name == "pipeline":
        cfg = PipelineConfig(fmt=fmt or FxFormat())
        state, counts = run_qaoa(g, params, cfg, trace_writer)
        return EngineRun(state, counts)
    counts = OpCounts()
    if name == "decomposed-f64":
        return EngineRun(decomposed_run_qaoa_f64(g, params, counts=counts), counts)
    if name == "dense":
        return EngineRun(dense_run_qaoa(g, params, counts=counts), counts)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")


def make_engine(name: str, fmt: FxFormat | None = None):
    """State-only engine closure for the optimizer."""
    def engine(g: WeightedGraph, params: QaoaParams) -> StateVector:
        return run_engine(name, g, params, fmt=fmt).state

    return engine
