"""The benchmark's wrappers still fit the package.

perfbench/hooks.py binds fedgame functions and methods by name.  Installing
the full set and restoring it must work on this source tree, and a run under
the wrappers must give the trace of an unwrapped run; a name the package
drops or renames then fails here instead of in a traced benchmark run.

The traced fed-tcp-n2 pass wraps every center channel in perfbench's
CountingChannel, which offers send_bytes(data), recv_line() and close()
only.  A federated run over those wrappers must give the local trace, so a
center that needs more from a channel fails here first.
"""

import importlib
import threading
from pathlib import Path

import numpy as np
import pytest

from fedgame import dynamics, federation
from fedgame.core import PaymentRule
from fedgame.dynamics import RunConfig
from fedgame.traceio import trace_csv_text

from conftest import channel_pair, quadratic_game

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def four_agent_game():
    return quadratic_game(
        n=4, m=2, theta=(0.8, -0.4), sigma0=1.0, s_max=2.0,
        cost_coeffs=(0.02, 0.04, 0.06, 0.08), payment=PaymentRule.linear(0.12),
    )


@pytest.mark.parametrize("algorithm", ["upbred", "fedavg-strategic"])
def test_full_hooks_install_restore_and_keep_the_trace(monkeypatch, algorithm):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    hooks = importlib.import_module("hooks")
    tracer_mod = importlib.import_module("tracer")
    g = four_agent_game()
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


@pytest.mark.parametrize("algorithm", ["upbred", "2p-upbred"])
def test_federated_run_over_counting_channels_keeps_the_trace(monkeypatch, algorithm):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    counting = importlib.import_module("workloads").CountingChannel
    g = four_agent_game()
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=8, eps=1e-14)
    s0 = np.full(4, 0.5)
    expected = trace_csv_text(dynamics.run_dynamic(g, cfg, algorithm, s0=s0))
    center_ends, agent_ends = zip(*(channel_pair() for _ in range(g.n)))
    wrapped = [counting(ch) for ch in center_ends]
    status = [None] * g.n

    def agent_main(i):
        status[i] = federation.run_agent(g, i, cfg, agent_ends[i], timeout=10.0)

    threads = [threading.Thread(target=agent_main, args=(i,), daemon=True) for i in range(g.n)]
    for th in threads:
        th.start()
    try:
        trace = federation.serve_center(g, cfg, algorithm, wrapped, s0=s0, timeout=10.0)
    finally:
        for th in threads:
            th.join(timeout=10.0)
        for ch in agent_ends:
            ch.close()
    assert status == [0] * g.n
    assert trace_csv_text(trace) == expected
    for ch in wrapped:
        # in: hello and one report per broadcast; out: the ack, the
        # broadcasts and the bye
        assert ch.frames_in > 1 and ch.frames_out == ch.frames_in + 1
        assert ch.bytes_in > 0 and ch.bytes_out > 0
