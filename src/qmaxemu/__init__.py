"""Software emulator of a fixed-point QAOA accelerator for Weighted-MaxCut.

Layers: graph core, Q-format fixed-point math with a 16-stage CORDIC,
diagonal-table construction, a cycle-accurate pipeline engine, two
double-precision reference engines, and a classical variational loop,
all behind the `qmaxemu` CLI.
"""

from .diagonals import (CostDiagonal, MixerExponents, build_cost_diagonal,
                        build_mixer_exponents, cost_angles, cost_half_angles,
                        mixer_angles, mixer_level_angles, mixer_table)
from .engines import ENGINE_NAMES, EngineRun, make_engine, run_engine
from .fxp import (CFx, Fx, FxContext, FxFormat, QuadrantFlags, apply_flags,
                  cordic_sincos, fx_from_real, fx_mul, fx_sincos,
                  normalize_rad, reduce_mod_2pi)
from .graph import (WeightedGraph, assignment_from_index, brute_force_max_cut,
                    cut_value, cut_values_all, index_from_assignment, parse_graph)
from .pipeline import (CLOCK_HZ, PIPELINE_LATENCY, OpCounts, PipelineConfig,
                       QaoaParams, StateVector, hadamard_sign, init_uniform_state,
                       run_elemental_ansatz, run_layer, run_qaoa)
from .reference import (align_global_phase, decomposed_run_qaoa_f64,
                        dense_cost_unitary, dense_mixer_unitary, dense_run_qaoa,
                        fwht_inplace, walsh_streamed)
from .variational import (ExpectationResult, OptimizationTrace, OptimizerConfig,
                          ZeroStateError, expectation, grid_search_p1, optimize,
                          probabilities)

__version__ = "0.1.0"
