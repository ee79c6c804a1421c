"""The benchmark's wrappers still fit the package.

perfbench/hooks.py binds fedgame functions and methods by name.  Installing
the full set and restoring it must work on this source tree, and a run under
the wrappers must give the trace of an unwrapped run; a name the package
drops or renames then fails here instead of in a traced benchmark run.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from fedgame import dynamics
from fedgame.core import PaymentRule
from fedgame.dynamics import RunConfig
from fedgame.traceio import trace_csv_text

from conftest import quadratic_game

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.mark.parametrize("algorithm", ["upbred", "fedavg-strategic"])
def test_full_hooks_install_restore_and_keep_the_trace(monkeypatch, algorithm):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    hooks = importlib.import_module("hooks")
    tracer_mod = importlib.import_module("tracer")
    g = quadratic_game(
        n=4, m=2, theta=(0.8, -0.4), sigma0=1.0, s_max=2.0,
        cost_coeffs=(0.02, 0.04, 0.06, 0.08), payment=PaymentRule.linear(0.12),
    )
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=8, eps=1e-14)
    expected = trace_csv_text(dynamics.run_dynamic(g, cfg, algorithm, s0=np.full(4, 0.5)))
    originals = (dynamics.run_dynamic, dynamics.LocalPool.__dict__["step"])

    tracer = tracer_mod.Tracer()
    try:
        hooks.install_full(tracer)
        assert dynamics.run_dynamic is not originals[0]
        got = trace_csv_text(dynamics.run_dynamic(g, cfg, algorithm, s0=np.full(4, 0.5)))
    finally:
        tracer.restore()
    assert (dynamics.run_dynamic, dynamics.LocalPool.__dict__["step"]) == originals
    assert got == expected
    names = {span[2] for span in tracer.spans}
    assert {"dynamics.run:run_dynamic", "dynamics.step:LocalPool.step"} <= names
