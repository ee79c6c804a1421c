"""Golden traces: sha256 of the trace CSV for fixed runs.

The digests pin every recorded value bit for bit, so any change to the round
loop, the agent step or the record shows up here.  They were captured with
Python 3.11.7 and numpy 2.4.6.  A change that alters a digest on purpose
must say why and give the largest absolute difference per column.
"""

import hashlib

import pytest

from fedgame.config import build_scenario, parse_scenario
from fedgame.dynamics import run_dynamic
from fedgame.federation import run_inprocess_federation
from fedgame.scenarios import builtin_text
from fedgame.traceio import trace_csv_text

# (scenario, overrides, sha256 of the trace CSV, outcome, records, error prefix)
CASES = {
    "empirical-small": (
        "empirical-small", (),
        "9d5a8cc842f16bf76a5cd9c55514613df60ea2d7ac510e914b69da6311169335",
        "MaxRounds", 26, None,
    ),
    "example1-2p": (
        "example1-2p", (),
        "6e5a29b737459d82f45a6a0fd51b69d860eefe666aa1ddb8e33ec74e3fc51a12",
        "Converged", 56, None,
    ),
    "example1-fas": (
        "example1-fas", (),
        "a0c900c984dc834250c115236f7ba6ac5ac37de56474a0929a2c07f32a967372",
        "Converged", 5249, None,
    ),
    "example1-upbred": (
        "example1-upbred", (),
        "f252e601dfad3350a4eb516c6427fc6284661c2ad12215d69edcbe5633e3713f",
        "Converged", 3, None,
    ),
    "quad5": (
        "quad5", (),
        "b6c38f10924b8c349a71ae856df1a45bfe82a4e663f4a6548f3c0ffbabd028b8",
        "Converged", 188, None,
    ),
    # no bundled scenario runs plain fedavg
    "quad5-fedavg": (
        "quad5", ("run.algorithm=fedavg",),
        "6bc9919270fc18df26261e0fb464f784d5c14a94de83ecf7f6ca76e6de198a67",
        "Converged", 128, None,
    ),
    "example1-2p-cap": (
        "example1-2p", ("run.phase1_cap=3",),
        "f473026a07cc8c22206f610283d0c8816136ad65250fc50d51d498afbadb82cb",
        "Error", 4, "round 3: contribution phase exceeded its cap of 3 rounds; agent 0",
    ),
    # both contributions shrink to zero after about a thousand rounds; the
    # agents' gradient at the emptied pool is singular
    "example1-upbred-singular": (
        "example1-upbred", ("run.rounds=3000", "run.eps=1e-14"),
        "bb7a87b40883456d4b39dc1d71e1b705fd2a9cbc7925eef8e73bb1e44c3b42e3",
        "Error", 1008, "round 1007: singular denominator",
    ),
}


def built(name, overrides=()):
    return build_scenario(parse_scenario(builtin_text(name), list(overrides)))


def digest(trace) -> str:
    return hashlib.sha256(trace_csv_text(trace).encode("utf-8")).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_trace(case):
    name, overrides, sha, outcome, count, error = CASES[case]
    b = built(name, overrides)
    trace = run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)
    assert trace.outcome == outcome
    assert len(trace.records) == count
    if error is None:
        assert trace.error is None
    else:
        assert trace.error.startswith(error)
    assert digest(trace) == sha


def test_golden_inprocess_federation_equals_local():
    b = built("example1-upbred")
    fed = run_inprocess_federation(b.game, b.run, b.algorithm, b.w0, b.s0, timeout=10.0)
    assert fed.agent_status == [0, 0]
    assert fed.trace.outcome == "Converged"
    assert digest(fed.trace) == CASES["example1-upbred"][2]
