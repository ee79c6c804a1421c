"""Best responses, certification, curvature estimation, step regions."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fedgame.analysis import (
    assumption_samples,
    best_response,
    certify_nash,
    check_assumption1,
    compute_w_opt,
    contraction_diagnostic,
    estimate_matrices,
    feasible_steps,
)
from fedgame.core import ConfigError

from conftest import quadratic_game, quadratic_matrices, separable_game, src_env


def test_best_response_flat_utility_prefers_smallest(example_game):
    # at w = theta accuracy is constant, so cost makes 0 the unique argmax;
    # with zero cost it would be flat and the tie must stay at the left edge
    free = quadratic_game(2, 2, (1.0, 2.0), 0.0, 5.0, (0.0, 0.0))
    x, _ = best_response(free, np.array([1.0, 2.0]), np.array([2.0, 3.0]), 0)
    assert x == 0.0


def test_best_response_interior_maximum():
    # u(x) = 1 - 0.5/(x) - 0.02 x for agent 1 with others at 0: max at x = 5
    g = quadratic_game(2, 2, (1.0, 2.0), 0.0, 8.0, (0.04, 0.02))
    x, v = best_response(g, np.array([0.5, 1.5]), np.array([0.0, 3.0]), 1)
    assert x == pytest.approx(5.0, abs=1e-4)
    assert v == pytest.approx(1.0 - 0.5 / 5.0 - 0.02 * 5.0, abs=1e-6)


def test_best_response_handles_singular_left_edge():
    # sigma0 = 0 and everyone else at zero: x -> 0 is a -inf limit, skipped
    g = quadratic_game(2, 1, (2.0,), 0.0, 5.0, (0.0, 0.0))
    x, v = best_response(g, np.array([1.0]), np.array([0.0, 0.0]), 1)
    assert x == 5.0
    assert np.isfinite(v)


@pytest.mark.parametrize("s_max", [1e8, 1e9, 1e15])
def test_best_response_ends_where_one_ulp_exceeds_the_tolerance(s_max):
    # free contributions put both maxima at the top of the range, where one
    # ulp of s_i is above GOLDEN_XTOL; a child process turns a hang into a
    # failure
    code = f"""
import sys
sys.path.insert(0, {str(Path(__file__).parent)!r})
import numpy as np
from conftest import quadratic_game
from fedgame.analysis import best_response
g = quadratic_game(2, 2, (1.0, 2.0), 0.0, {s_max!r}, (0.0, 0.0))
x, v = best_response(g, np.array([0.5, 1.5]), np.array([1.0, 1.0]), np.array([0, 1]))
print(x.tolist())
print(v.tolist())
"""
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), capture_output=True, text=True,
        check=True, timeout=30,
    )
    xs, vs = (json.loads(line) for line in out.stdout.splitlines())
    assert all(0.0 <= x <= s_max for x in xs)
    assert vs == pytest.approx([1.0, 1.0], abs=1e-7)


def test_best_response_rejects_tiny_grid(example_game):
    with pytest.raises(ConfigError):
        best_response(example_game, np.zeros(2), np.zeros(2), 0, grid_points=2)


def test_certify_example_equilibrium(example_game):
    cert = certify_nash(example_game, np.array([0.5, 1.5]), np.array([0.0, 5.0]), 1e-6)
    assert cert.certified
    assert cert.verdict == "Certified"
    assert max(cert.regrets) <= 1e-6


def test_certify_example_refuted_at_full_contribution(example_game):
    cert = certify_nash(example_game, np.array([1.0, 2.0]), np.array([5.0, 5.0]), 1e-6)
    assert not cert.certified
    # at w = theta accuracy no longer depends on s, so costs are pure loss
    assert cert.worst_gain == pytest.approx(0.2, abs=1e-6)
    assert cert.best_responses[cert.worst_agent] == pytest.approx(0.0, abs=1e-6)


def test_certify_validates_inputs(example_game):
    with pytest.raises(ConfigError):
        certify_nash(example_game, np.zeros(2), np.array([6.0, 0.0]), 1e-6)
    with pytest.raises(ConfigError):
        certify_nash(example_game, np.zeros(2), np.zeros(2), 0.0)
    with pytest.raises(ConfigError):
        certify_nash(example_game, np.zeros(2), np.zeros(2), float("inf"))


def test_certify_rejects_a_profile_whose_utility_is_minus_inf(example_game):
    # sigma0 = 0 and nobody contributes: no accuracy can be evaluated there
    with pytest.raises(ConfigError, match="^agent 0's utility at this profile is -inf"):
        certify_nash(example_game, np.array([0.5, 1.5]), np.zeros(2), 1e-6)


def test_certificate_as_dict_round_trips(example_game):
    cert = certify_nash(example_game, np.array([0.5, 1.5]), np.array([0.0, 5.0]), 1e-6)
    doc = cert.as_dict()
    assert doc["verdict"] == "Certified"
    assert len(doc["regrets"]) == 2
    assert doc["worst_gain"] == cert.worst_gain


def test_estimated_matrices_match_closed_form(five_agent_game):
    g = five_agent_game
    rng = np.random.default_rng(21)
    w = rng.normal(size=g.m) * 0.5
    s = rng.uniform(0.4, 1.6, size=g.n)
    est = estimate_matrices(g, w, s)
    exact = quadratic_matrices(g, w, s)
    assert est.G == pytest.approx(exact.G, rel=1e-4, abs=1e-6)
    assert est.G_tilde == pytest.approx(exact.G_tilde, rel=1e-4, abs=1e-6)
    assert est.H == pytest.approx(exact.H, rel=1e-4, abs=1e-6)
    assert est.H_tilde == pytest.approx(exact.H_tilde, rel=1e-4, abs=1e-6)


def test_estimate_matrices_requires_interior(five_agent_game):
    w = np.zeros(3)
    with pytest.raises(ConfigError):
        estimate_matrices(five_agent_game, w, np.array([0.0, 1.0, 1.0, 1.0, 1.0]))


def test_assumption_samples_deterministic_and_interior(five_agent_game):
    a = assumption_samples(five_agent_game, count=8)
    b = assumption_samples(five_agent_game, count=8)
    assert len(a) == 8
    for (wa, sa), (wb, sb) in zip(a, b):
        assert np.array_equal(wa, wb) and np.array_equal(sa, sb)
        assert np.all(sa > 0.0) and np.all(sa < five_agent_game.s_max)


def test_check_assumption1_certifies_known_constants(known_constants_game):
    g = known_constants_game
    samples = assumption_samples(g, count=8)
    est = check_assumption1(samples, g, lam=0.9, lam_tilde=0.9)
    assert est.certified
    assert est.lam == pytest.approx(1.0, abs=1e-4)
    assert est.lam_tilde == pytest.approx(1.0, abs=1e-4)
    assert est.L == pytest.approx(1.0, abs=1e-4)
    assert est.L_tilde == pytest.approx(1.0, abs=1e-4)
    assert est.P == pytest.approx(0.0, abs=1e-4)
    assert est.P_tilde == pytest.approx(0.0, abs=1e-4)


def test_check_assumption1_flags_overclaimed_concavity(known_constants_game):
    samples = assumption_samples(known_constants_game, count=4)
    est = check_assumption1(samples, known_constants_game, lam=2.0, lam_tilde=0.9)
    assert not est.nsd_strategy
    assert not est.certified


def test_feasible_steps_hand_values():
    # terms: 1, 1/Pt = 1, 2*1.1/(2^2) = 0.55, (1.1 - 1)/(4 - 1) = 1/30
    region = feasible_steps(2, 1, 1.0, 1.0, 1.1, 1.1, 0.0, 1.0)
    assert region.gamma_max == pytest.approx(0.1 / 3.0)
    assert not region.empty
    # decoupled case: min(1, 2*lam/(n L)^2, lam/(n L)^2) with lam = (n L)^2 / 2
    region = feasible_steps(2, 1, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0)
    assert region.gamma_max == pytest.approx(0.5)


def test_feasible_steps_empty_when_coupling_dominates():
    region = feasible_steps(2, 2, 1.0, 1.0, 0.5, 0.5, 0.0, 0.5)
    assert not region.gamma_ok
    assert region.empty
    assert region.gamma_max == 0.0


def test_feasible_steps_monotone_in_lam_and_coupling():
    # monotonicity in the coupling needs 2 P~ lam <= (nL)^2 + P~^2, so keep
    # lam within [1.05, 2] against P~ <= 1 for n = 2, L = 1
    lams = np.linspace(1.05, 2.0, 8)
    pts = np.linspace(0.0, 1.0, 8)
    for pt in pts:
        caps = [feasible_steps(2, 1, 1.0, 1.0, lam, 2.0, 0.0, pt).gamma_max for lam in lams]
        assert all(b >= a - 1e-12 for a, b in zip(caps, caps[1:]))
    for lam in lams:
        caps = [feasible_steps(2, 1, 1.0, 1.0, lam, 2.0, 0.0, pt).gamma_max for pt in pts]
        assert all(b <= a + 1e-12 for a, b in zip(caps, caps[1:]))


def test_feasible_steps_validates_inputs():
    with pytest.raises(ConfigError):
        feasible_steps(2, 1, -1.0, 1.0, 1.0, 1.0, 0.0, 0.0)
    with pytest.raises(ConfigError):
        feasible_steps(0, 1, 1.0, 1.0, 1.0, 1.0, 0.0, 0.0)


def test_compute_w_opt_example(example_game):
    opt = compute_w_opt(example_game)
    assert opt.converged
    assert opt.w_opt == pytest.approx([1.0, 2.0], abs=1e-4)
    assert opt.welfare == pytest.approx(2.0, abs=1e-6)


def test_compute_w_opt_separable(known_constants_game):
    opt = compute_w_opt(known_constants_game)
    assert opt.converged
    assert opt.w_opt == pytest.approx(known_constants_game.accuracy.w_bar, abs=1e-4)


def test_contraction_diagnostic_basic():
    seq = [(1.0, 1.0, 0), (0.5, 0.5, 1), (0.25, 0.25, 2)]
    rep = contraction_diagnostic(seq)
    assert rep.ratios == pytest.approx([0.5, 0.5])
    assert rep.max_ratio == pytest.approx(0.5)
    assert rep.geo_mean == pytest.approx(0.5)
    assert list(rep.rounds) == [1, 2]


def test_contraction_diagnostic_skips_tiny_denominators():
    seq = [(0.0, 0.0, 0), (0.0, 1e-20, 1), (1.0, 0.0, 2)]
    rep = contraction_diagnostic(seq)
    assert len(rep.ratios) == 0
    assert rep.max_ratio == 0.0


def test_contraction_diagnostic_needs_two_records():
    with pytest.raises(ConfigError):
        contraction_diagnostic([(1.0, 1.0, 0)])


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -1.0])
def test_check_assumption1_rejects_bad_concavity_levels(known_constants_game, bad):
    samples = assumption_samples(known_constants_game, count=1)
    for levels in ({"lam": bad}, {"lam_tilde": bad}):
        with pytest.raises(ConfigError, match="concavity levels must be finite and nonnegative"):
            check_assumption1(samples, known_constants_game, **levels)
