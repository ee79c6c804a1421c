"""Golden traces: sha256 of the trace CSV for fixed runs.

The digests pin every recorded value bit for bit, so any change to the round
loop, the agent step or the record shows up here.  They were captured with
Python 3.11.7 and numpy 2.4.6.  A change that alters a digest on purpose
must say why and give the largest absolute difference per column.
"""

import hashlib
import json

import pytest

from fedgame.analysis import assumption_samples, certify_nash, compute_w_opt, estimate_matrices
from fedgame.cli import main
from fedgame.config import build_scenario, parse_scenario
from fedgame.dynamics import run_dynamic
from fedgame.scenarios import builtin_text
from fedgame.traceio import document_text, trace_csv_text

from conftest import run_inprocess_federation

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
    "quad5-certified": (
        "quad5-certified", (),
        "188ecd0e3a18ec6546657e901d7749932f128d877d2b1ac88ddb2a8397566847",
        "Converged", 1579, None,
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
    # polynomial costs at n > 1: the strategy derivative keeps Python's pow
    # for the marginal cost row by row
    "quad5-polynomial": (
        "quad5", (
            "run.algorithm=upbred", "instance.cost=polynomial",
            "instance.cost_coeffs=0.02,0.01;0.04,0.01;0.06,0.0;0.08,0.02;0.1,0.01",
            "run.rounds=300",
        ),
        "6cdaaf67f0491f028c2300c4bd2e62220970076f1570148d5a791df96d314f9c",
        "MaxRounds", 301, None,
    ),
    # four agents sit on the floor s = 0 with a negative derivative, which
    # the boundary correction zeroes every round
    "quad5-floor": (
        "quad5", ("run.algorithm=upbred", "instance.beta=0.03", "run.rounds=300"),
        "97ea5de0ba3d7daf188ebcc0f712cb9624bacea84be886653f147edccac0e911",
        "Converged", 208, None,
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


# `fedgame bounds --config <name> --samples 16`: exit code, steps_in_region,
# and sha256 of the document that stdout holds with steps_in_region dropped
# (the digests predate that key).  The estimated curvature constants pin
# every finite-difference stencil value.
BOUNDS = {
    "example1-2p": (3, False, "132dc94b4cb95b09f1f43e462ce1d087e146a4a206ed7216abfd7fd60e88f446"),
    "quad5": (3, False, "e37382caca597856a463a2bf0af871a4fbf77065327353f77011f826108d0f40"),
    "quad5-certified": (
        0, True, "5e30ff3ec097142e8bf560cabdf349d642402b9270ab4e6d41d53fb6ca906d7d",
    ),
}


# sha256 of the repr of G, G~, H and H~ (as nested float lists) from
# estimate_matrices at each of assumption_samples(g, count=6), followed by
# compute_w_opt(g)'s w_opt, welfare, grad_norm, iterations and converged:
# the raw curvature bits behind the constants the bounds digests pin
CURVATURE = {
    "empirical-small": "eeaa700c34c68666745bcf4eb7591a42ddb9acd617c29687adfe369ce300b5a0",
    "example1-2p": "3cf62ace9f31e6da83bf828b98c805ec1e12a95a2a54d58f3c8bebe09b257214",
    "example1-upbred": "0f0148ff729175a720c4e76d3e18db23807ecbcb4f0b4fb69ee99605c3415258",
    "quad5": "cf6466ca1ae765eb00d3843744107ed8618adedc34877da649875277145d9d40",
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
    code, in_region, sha = BOUNDS[name]
    assert main(["bounds", "--config", name, "--samples", "16"]) == code
    out = capsys.readouterr().out
    doc = json.loads(out)
    assert document_text(doc, "bounds document") == out
    assert doc.pop("steps_in_region") is in_region
    text = document_text(doc, "bounds document")
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == sha



@pytest.mark.parametrize("name", sorted(CURVATURE))
def test_golden_curvature_matrices(name):
    g = built(name).game
    parts = []
    for w, s in assumption_samples(g, count=6):
        est = estimate_matrices(g, w, s)
        parts.append([a.tolist() for a in (est.G, est.G_tilde, est.H, est.H_tilde)])
    opt = compute_w_opt(g)
    parts.append((opt.w_opt.tolist(), opt.welfare, opt.grad_norm, opt.iterations, opt.converged))
    assert hashlib.sha256(repr(parts).encode("utf-8")).hexdigest() == CURVATURE[name]
