"""Engine registry: one call surface over the three state-evolution routes."""

from __future__ import annotations

import functools

from .fxp import FxFormat
from .graph import WeightedGraph
from .pipeline import (EngineRun, PipelineConfig, QaoaParams, TraceWriter, run_qaoa,
                       run_qaoa_batch)
from .reference import decomposed_run_qaoa_f64, dense_run_qaoa
from .variational import EngineFn

ENGINE_NAMES = ("pipeline", "decomposed-f64", "dense")


def run_engine(name: str, g: WeightedGraph, params: QaoaParams,
               fmt: FxFormat | None = None, fast: bool = False,
               trace_writer: TraceWriter | None = None) -> EngineRun:
    """Run one engine.  Only the pipeline models clocks, so only it takes a
    trace_writer.  `fast` is ignored (decomposed-f64 always runs the
    butterfly); it stays for callers that still pass it."""
    if name == "pipeline":
        return run_qaoa(g, params, PipelineConfig(fmt=fmt or FxFormat()), trace_writer)
    if name not in ENGINE_NAMES:
        raise ValueError(f"unknown engine {name!r}; expected one of {ENGINE_NAMES}")
    if trace_writer is not None:
        raise ValueError(f"engine {name!r} models no clocks to trace")
    if name == "dense":
        return dense_run_qaoa(g, params)
    return decomposed_run_qaoa_f64(g, params)


def make_engine(name: str, fmt: FxFormat | None = None) -> EngineFn:
    """The optimizer's engine: run_engine(name, g, params, fmt=fmt).  The
    pipeline's also has batch(g, points), which runs a list of points as
    batches (run_qaoa_batch)."""
    engine = functools.partial(run_engine, name, fmt=fmt)
    if name == "pipeline":
        engine.batch = functools.partial(run_qaoa_batch, cfg=PipelineConfig(fmt=fmt or FxFormat()))
    return engine
