"""Which fedgame names the benchmark wraps, and the span name each one gets.

A span name is "<group>:<function>"; the per-layer metrics sum over groups.
The coarse set (run_dynamic and the pool steps) is all the end-to-end
metrics need: one span per run and one per round.  The full set adds a span
around every call into each module's public functions and methods and is
used only by traced passes.
"""

from __future__ import annotations

import os

import fedgame
from fedgame import analysis, cli, config, core, dynamics, federation, models, traceio

MODULES = (fedgame, analysis, cli, config, core, dynamics, federation, models, traceio)

CORE_FUNCTIONS = (
    "utility", "payment", "payment_vector", "strategy_gradient",
    "welfare_gradient", "social_welfare",
)
ORACLE_METHODS = ("value", "grad_w", "dsi")


def _file_bytes(tracer):
    def record(args, _result):
        tracer.count("traceio.bytes_written", os.path.getsize(args[1]))

    return record


def _w_opt_iters(tracer):
    def record(_args, result):
        tracer.count("analysis.w_opt_iters", result.iterations)

    return record


def install_coarse(tracer) -> None:
    tracer.patch_function(MODULES, dynamics.run_dynamic, "dynamics.run:run_dynamic")
    tracer.patch_method(dynamics.LocalPool, "step", "dynamics.step:LocalPool.step")
    tracer.patch_method(federation.RemotePool, "step", "dynamics.step:RemotePool.step")


def install_full(tracer) -> None:
    install_coarse(tracer)
    for cls in (models.QuadraticAccuracy, models.EmpiricalAccuracy):
        for meth in ORACLE_METHODS:
            tracer.patch_method(cls, meth, f"models.oracle:{cls.__name__}.{meth}")
    for fn in (models.cross_entropy, models.cross_entropy_grad):
        tracer.patch_function(MODULES, fn, f"models.ce:{fn.__name__}")
    tracer.patch_function(MODULES, models.synth_dataset, "models.synth:synth_dataset")
    for name in CORE_FUNCTIONS:
        tracer.patch_function(MODULES, getattr(core, name), f"core:{name}")
    tracer.patch_function(MODULES, config.parse_scenario, "config.parse:parse_scenario")
    tracer.patch_function(MODULES, config.build_scenario, "config.build:build_scenario")
    tracer.patch_function(MODULES, analysis.certify_nash, "analysis.certify:certify_nash")
    tracer.patch_function(MODULES, analysis.best_response, "analysis.best_response:best_response")
    tracer.patch_function(
        MODULES, analysis.estimate_matrices, "analysis.estimate_matrices:estimate_matrices"
    )
    tracer.patch_function(
        MODULES, analysis.compute_w_opt, "analysis.compute_w_opt:compute_w_opt",
        _w_opt_iters(tracer),
    )
    for fn in (traceio.write_trace_csv, traceio.write_run_manifest):
        tracer.patch_function(MODULES, fn, f"traceio.write:{fn.__name__}", _file_bytes(tracer))
    tracer.patch_function(MODULES, traceio.read_trace_csv, "traceio.read:read_trace_csv")
    tracer.patch_function(MODULES, federation.encode_frame, "federation.encode:encode_frame")
    tracer.patch_function(MODULES, federation.decode_frame, "federation.decode:decode_frame")
    tracer.patch_method(federation.RemotePool, "handshake", "federation.handshake:RemotePool.handshake")
