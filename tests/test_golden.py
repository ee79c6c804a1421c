"""Golden traces: sha256 of the trace CSV for fixed runs.

The digests pin every recorded value bit for bit, so any change to the round
loop, the agent step or the record shows up here.  They were captured with
Python 3.11.7 and numpy 2.4.6.  A change that alters a digest on purpose
must say why and give the largest absolute difference per column.
"""

import hashlib

import pytest

from fedgame.analysis import certify_nash
from fedgame.cli import main
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
    # 9 and 130 classes: the class sums of the log-sum-exp and the softmax
    # go through numpy's eight-accumulator and halving pairwise branches
    "empirical-small-9-classes": (
        "empirical-small", ("instance.classes=9",),
        "ce0254ebcb321a6e50e26c2dd645785edb01a3fc28e21f01d17b7f9a8e3bd527",
        "MaxRounds", 26, None,
    ),
    "empirical-small-130-classes": (
        "empirical-small", ("instance.classes=130",),
        "02cb2dc5268666d9e28691a481e501d41e8bc1436163f5055af63ea59d8f1d56",
        "MaxRounds", 26, None,
    ),
    # the empirical family ignores s, so the gradient taken at the current
    # profile equals the one at the updated profile
    "empirical-small-current": (
        "empirical-small", ("run.w_grad_at=current",),
        "9d5a8cc842f16bf76a5cd9c55514613df60ea2d7ac510e914b69da6311169335",
        "MaxRounds", 26, None,
    ),
    # both contributions shrink to zero after about a thousand rounds; the
    # agents' gradient at the emptied pool is singular
    "example1-upbred-singular": (
        "example1-upbred", ("run.rounds=3000", "run.eps=1e-14"),
        "bb7a87b40883456d4b39dc1d71e1b705fd2a9cbc7925eef8e73bb1e44c3b42e3",
        "Error", 1008, "round 1007: singular denominator",
    ),
}


# n = 50 agents on a 30-d bowl: large enough that a change in the order of
# the O(n) row sums behind every oracle call would show in the digests.
QUAD50 = """[instance]
n = 50
m = 30
accuracy = quadratic
theta = {theta}
sigma0 = 1.0
r = 1.0
s_max = 2.0
cost = random-linear
cost_scale = 0.1
payment = linear
beta = 0.12

[run]
algorithm = upbred
gamma = 0.5
eta = 0.5
rounds = 60
eps = 1e-12
seed = 3

[init]
w0 = zeros
s0 = random
""".format(theta=",".join(repr(((k % 7) - 3) / 4.0) for k in range(30)))

# (overrides to QUAD50, sha256 of the trace CSV, outcome, records)
LARGE_CASES = {
    "quad50-updated": (
        (),
        "cd5d20afc918be49830572d83dc300ad8d497f8f046dfa3aeb8dee2a5636fba7",
        "MaxRounds", 61,
    ),
    "quad50-current": (
        ("run.w_grad_at=current",),
        "f0372b15e95047a673cef4454545cd5a4aaaa7a2bc2e08d88989a39c684781d2",
        "MaxRounds", 61,
    ),
    "quad50-2p": (
        ("run.algorithm=2p-upbred", "run.rounds=40"),
        "f929fd5e56532ac68c95973adc9035609607d167d5240b2c2a17db884565a443",
        "MaxRounds", 160,
    ),
    "quad50-strategic": (
        ("run.algorithm=fedavg-strategic", "run.rounds=40", "instance.beta=0.05", "run.gamma=8.0"),
        "3eb4fbc07534432b0de6f3b840e339e24683b6005778ab29c6a939112e387073",
        "MaxRounds", 103,
    ),
}

# sha256 of the repr of the regrets and best responses (as float lists) of
# certify_nash at the final profile of quad50-updated
QUAD50_CERTIFY = "4eb3b99626b5d888eee42fe45de73d1cfb779d382a55a0df2786b5e2195531e9"


# sha256 of the stdout of `fedgame bounds --config <name> --samples 16`: the
# estimated curvature constants pin every finite-difference stencil value
BOUNDS = {
    "example1-2p": "132dc94b4cb95b09f1f43e462ce1d087e146a4a206ed7216abfd7fd60e88f446",
    "quad5": "e37382caca597856a463a2bf0af871a4fbf77065327353f77011f826108d0f40",
}


def built(name, overrides=()):
    return build_scenario(parse_scenario(builtin_text(name), list(overrides)))


def built50(overrides=()):
    return build_scenario(parse_scenario(QUAD50, list(overrides)))


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


@pytest.mark.parametrize("case", sorted(LARGE_CASES))
def test_golden_trace_n50(case):
    overrides, sha, outcome, count = LARGE_CASES[case]
    b = built50(overrides)
    trace = run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)
    assert trace.outcome == outcome
    assert len(trace.records) == count
    assert trace.error is None
    assert digest(trace) == sha


def test_golden_certify_n50():
    b = built50()
    trace = run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)
    cert = certify_nash(b.game, trace.final.w, trace.final.s, 1e-6)
    text = repr(([float(v) for v in cert.regrets], [float(v) for v in cert.best_responses]))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == QUAD50_CERTIFY


def test_golden_inprocess_federation_quad5_equals_local():
    b = built("quad5")
    fed = run_inprocess_federation(b.game, b.run, b.algorithm, b.w0, b.s0, timeout=10.0)
    assert fed.agent_status == [0] * 5
    assert digest(fed.trace) == CASES["quad5"][2]


def test_golden_inprocess_federation_empirical_equals_local():
    b = built("empirical-small")
    fed = run_inprocess_federation(b.game, b.run, b.algorithm, b.w0, b.s0, timeout=10.0)
    assert fed.agent_status == [0] * 3
    assert digest(fed.trace) == CASES["empirical-small"][2]


@pytest.mark.parametrize("name", sorted(BOUNDS))
def test_golden_bounds_output(name, capsys):
    assert main(["bounds", "--config", name, "--samples", "16"]) == 3  # the region is empty
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == BOUNDS[name]

