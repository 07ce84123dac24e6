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
    if name == "pipeline":
        cfg = PipelineConfig(fmt=fmt or FxFormat())
        state, counts = run_qaoa(g, params, cfg, trace_writer)
        return EngineRun(state, counts)
    counts = OpCounts()
    if name == "decomposed-f64":
        return EngineRun(decomposed_run_qaoa_f64(g, params, fast=fast, counts=counts), counts)
    if name == "dense":
        return EngineRun(dense_run_qaoa(g, params, counts=counts), counts)
    raise ValueError(f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")


def make_engine(name: str, fmt: FxFormat | None = None, fast: bool = False):
    """State-only engine closure for the optimizer."""

    def engine(g: WeightedGraph, params: QaoaParams) -> StateVector:
        return run_engine(name, g, params, fmt=fmt, fast=fast).state

    return engine
