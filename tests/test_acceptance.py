"""Acceptance gate: one test per release criterion.

Each test registers a `criterion NN <name>: PASS|FAIL` line that the
conftest terminal-summary hook prints after the run.
"""

import functools
import threading
from dataclasses import replace

import numpy as np
import pytest

from fedgame.analysis import (
    assumption_samples,
    certify_nash,
    check_assumption1,
    compute_w_opt,
    contraction_diagnostic,
    estimate_matrices,
    feasible_steps,
)
from fedgame.config import build_scenario, parse_scenario
from fedgame.core import (
    PaymentRule,
    payment,
    payment_vector,
    social_welfare,
    strategy_gradient,
    welfare_gradient,
)
from fedgame.dynamics import (
    RunConfig,
    contraction_factor,
    iteration_bound_T0,
    iteration_bounds_two_phase,
    run_dynamic,
)
from fedgame.federation import (
    accept_agents,
    connect_agent,
    open_listener,
    serve_center,
)
from fedgame.scenarios import builtin_text
from fedgame.traceio import trace_csv_text

from conftest import ACCEPTANCE_RESULTS, quadratic_game, quadratic_matrices, separable_game


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            status = "FAIL"
            try:
                fn(*args, **kwargs)
                status = "PASS"
            finally:
                ACCEPTANCE_RESULTS.append((num, name, status))
        return wrapper
    return deco


def built_scenario(name, overrides=()):
    return build_scenario(parse_scenario(builtin_text(name), list(overrides)))


def run_built(name, overrides=(), strict=True):
    b = built_scenario(name, overrides)
    return b, run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0, strict=strict)


# criterion 1: the linear transfer is budget balanced for every profile.
@criterion(1, "budget-balance")
def test_criterion_01_budget_balance():
    rng = np.random.default_rng(1001)
    for _ in range(10_000):
        n = int(rng.integers(2, 21))
        beta = float(rng.uniform(0.0, 10.0))
        s = rng.uniform(0.0, 10.0, size=n)
        total = float(np.sum(payment_vector(PaymentRule.linear(beta), s)))
        assert abs(total) <= 1e-9 * beta * float(np.sum(np.abs(s)))


# criterion 2: hand-computed welfare values on the two-agent example.
@criterion(2, "welfare-values")
def test_criterion_02_welfare_values(example_game):
    w_star = np.array([1.0, 2.0])
    assert abs(social_welfare(example_game, w_star, np.array([5.0, 5.0])) - 2.0) <= 1e-12
    w_mid = np.array([0.5, 1.5])
    assert abs(social_welfare(example_game, w_mid, np.array([0.0, 5.0])) - 1.8) <= 1e-12


# criterion 3: welfare ascent recovers the optimal parameters.
@criterion(3, "welfare-ascent")
def test_criterion_03_welfare_ascent(example_game):
    opt = compute_w_opt(example_game)
    assert opt.w_opt == pytest.approx([1.0, 2.0], abs=1e-4)


# criterion 4: equilibrium certification agrees with the worked example and
# the simultaneous dynamic lands on a certified profile.
@criterion(4, "nash-certification")
def test_criterion_04_nash_certification(example_game):
    good = certify_nash(example_game, np.array([0.5, 1.5]), np.array([0.0, 5.0]), 1e-6)
    assert good.certified
    bad = certify_nash(example_game, np.array([1.0, 2.0]), np.array([5.0, 5.0]), 1e-6)
    assert not bad.certified

    b, trace = run_built("example1-upbred")
    assert trace.outcome == "Converged"
    final = trace.final
    assert final.s[0] < 1e-3
    assert final.s[1] > 5.0 - 1e-3
    cert = certify_nash(b.game, final.w, final.s, 1e-6)
    assert cert.certified


# criterion 5: the two-phase dynamic meets its round bounds and reaches the
# full-contribution welfare, with the quadratic smoothness constants.
@criterion(5, "two-phase-guarantees")
def test_criterion_05_two_phase_guarantees():
    b, trace = run_built("example1-2p")
    g = b.game
    assert trace.outcome == "Converged"

    M = 2.0 / (g.accuracy.sigma0 + float(np.sum(g.s_max)))
    assert M == pytest.approx(0.2, abs=1e-15)

    f0 = (compute_w_opt(g).welfare - social_welfare(g, b.w0, g.s_max)) / g.n
    kappa, t0 = iteration_bounds_two_phase(g, b.run, b.s0, f0, M, M)

    phase1 = [r for r in trace.records if r.phase == "1"]
    phase2 = [r for r in trace.records if r.phase == "2"]
    assert 0 < len(phase1) <= kappa
    assert np.array_equal(phase2[0].s, g.s_max)
    assert len(phase2) - 1 <= t0  # model updates actually used
    assert trace.final.welfare >= 2.0 - 1e-6


# criterion 6: a transfer level above marginal cost plus the bound-derivative
# cap makes every contribution gradient strictly positive.
@criterion(6, "aligned-incentives")
def test_criterion_06_aligned_incentives():
    rng = np.random.default_rng(1006)
    radius = 1.0
    checked = 0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        theta = rng.normal(0.0, 1.0, size=m)
        sigma0 = float(rng.uniform(0.5, 2.0))
        s_max = rng.uniform(0.5, 3.0, size=n)
        coeffs = rng.uniform(0.01, 0.3, size=n)
        zeta = float(np.max(coeffs))
        tau = radius**2 / sigma0**2
        g = quadratic_game(
            n, m, theta, sigma0, s_max, coeffs,
            payment=PaymentRule.linear(zeta + tau + 0.05),
        )
        for _ in range(40):
            direction = rng.normal(size=m)
            direction /= np.linalg.norm(direction)
            w = theta + direction * rng.uniform(0.0, radius)
            s = rng.uniform(0.05, 0.95, size=n) * s_max
            assert np.all(strategy_gradient(g, w, s) > 0.0)
            checked += 1
    assert checked == 1000

    # empirical accuracy has a flat contribution bound, so tau = 0
    b = built_scenario("empirical-small")
    zeta = float(b.game.cost.max_deriv(b.game.s_max))
    g = replace(b.game, payment=PaymentRule.linear(zeta + 0.05))
    assert g.payment.beta > zeta
    for _ in range(25):
        w = rng.normal(0.0, 0.5, size=g.m)
        s = rng.uniform(0.05, 0.95, size=g.n) * g.s_max
        assert np.all(strategy_gradient(g, w, s) > 0.0)


# criterion 7: certified constants give a contraction factor that upper
# bounds the observed per-round decay, and the T0 bound is not exceeded.
@criterion(7, "contraction-rate")
def test_criterion_07_contraction_rate(known_constants_game):
    g = known_constants_game
    lam = lam_tilde = 0.9  # claimed, strictly below the true unit curvature
    samples = assumption_samples(g, count=32, w_radius=1.0)
    est = check_assumption1(samples, g, lam=lam, lam_tilde=lam_tilde)
    assert est.nsd_strategy and est.nsd_params

    region = feasible_steps(g.n, g.m, est.L, est.L_tilde, lam, lam_tilde, est.P, est.P_tilde)
    assert not region.empty
    gamma, eta = region.gamma_max, region.eta_max
    _, _, W = contraction_factor(
        gamma, eta, g.n, g.m, est.L, est.L_tilde, lam, lam_tilde, est.P, est.P_tilde
    )
    assert 0.0 < W < 1.0

    w0 = np.asarray(g.accuracy.w_bar) + 0.5
    s0 = 0.25 * g.s_max
    eps = 1e-6
    E0 = float(
        np.linalg.norm(strategy_gradient(g, w0, s0))
        + np.linalg.norm(welfare_gradient(g, w0, s0))
    )
    T0 = iteration_bound_T0(E0, eps, W)

    cfg = RunConfig(gamma=gamma, eta=eta, rounds=T0, eps=eps)
    trace = run_dynamic(g, cfg, "upbred", w0, s0)
    assert trace.outcome == "Converged"
    assert trace.final.t <= T0

    report = contraction_diagnostic(
        [(r.g_norm, r.gt_norm, r.t) for r in trace.records]
    )
    assert report.max_ratio <= W + 1e-6


# criterion 8: analytic first derivatives and closed-form curvature blocks
# agree with central finite differences at 100 interior points.
@criterion(8, "derivative-accuracy")
def test_criterion_08_derivative_accuracy(example_game, five_agent_game):
    rng = np.random.default_rng(1008)
    games = [
        example_game,
        five_agent_game,
        quadratic_game(3, 4, rng.normal(size=4), 1.5, 2.5, (0.05, 0.1, 0.2)),
        quadratic_game(4, 2, rng.normal(size=2), 2.0, 3.0, (0.02, 0.04, 0.06, 0.08),
                       payment=PaymentRule.linear(0.3)),
    ]

    def fd_first_order(g, w, s, h=1e-6):
        grad_s = np.empty(g.n)
        for i in range(g.n):
            sp, sm = np.array(s), np.array(s)
            sp[i] += h
            sm[i] -= h
            up = (g.accuracy.value(i, w, sp) - g.cost.value(i, float(sp[i]))
                  + payment(g.payment, sp, i))
            um = (g.accuracy.value(i, w, sm) - g.cost.value(i, float(sm[i]))
                  + payment(g.payment, sm, i))
            grad_s[i] = (up - um) / (2.0 * h)
        grad_w = np.empty(g.m)
        for k in range(g.m):
            wp, wm = np.array(w), np.array(w)
            wp[k] += h
            wm[k] -= h
            grad_w[k] = (social_welfare(g, wp, s) - social_welfare(g, wm, s)) / (2.0 * h * g.n)
        return grad_s, grad_w

    def rel(est, exact):
        return float(np.linalg.norm(est - exact) / max(1.0, np.linalg.norm(exact)))

    points = 0
    for g in games:
        theta = np.asarray(g.accuracy.theta)
        for _ in range(25):
            direction = rng.normal(size=g.m)
            direction /= np.linalg.norm(direction)
            w = theta + direction * rng.uniform(0.3, 1.0)
            s = rng.uniform(0.2, 0.8, size=g.n) * g.s_max

            fd_s, fd_w = fd_first_order(g, w, s)
            assert rel(fd_s, strategy_gradient(g, w, s)) < 1e-5
            assert rel(fd_w, welfare_gradient(g, w, s)) < 1e-5

            fd = estimate_matrices(g, w, s)
            cf = quadratic_matrices(g, w, s)
            for block in ("G", "G_tilde", "H", "H_tilde"):
                assert rel(getattr(fd, block).ravel(), getattr(cf, block).ravel()) < 1e-4
            points += 1
    assert points == 100


# criterion 9: hand values, monotonicity and the emptiness flag of the
# feasible step-size region.
@criterion(9, "step-size-region")
def test_criterion_09_step_size_region():
    region = feasible_steps(2, 1, 1.0, 1.0, 1.1, 1.1, 0.0, 1.0)
    assert region.gamma_max == pytest.approx(0.1 / 3.0)
    assert not region.empty
    region = feasible_steps(2, 1, 1.0, 1.0, 2.0, 2.0, 0.0, 0.0)
    assert region.gamma_max == pytest.approx(0.5)

    # monotone in the concavity level and in the coupling strength; the
    # coupled cap is only monotone while 2 P~ lam <= (nL)^2 + P~^2, hence
    # the lam range stops at 2 for n = 2, L = 1, P~ <= 1
    lams = np.linspace(1.05, 2.0, 20)
    pts = np.linspace(0.0, 1.0, 20)
    grid = np.array(
        [[feasible_steps(2, 1, 1.0, 1.0, lam, 2.0, 0.0, pt).gamma_max for lam in lams]
         for pt in pts]
    )
    assert np.all(np.diff(grid, axis=1) >= -1e-12)  # growing lam never shrinks
    assert np.all(np.diff(grid, axis=0) <= 1e-12)  # growing coupling never grows

    assert feasible_steps(2, 2, 1.0, 1.0, 0.5, 0.5, 0.0, 0.5).empty
    assert feasible_steps(2, 2, 1.0, 1.0, 1.0, 1.0, 0.0, 1.0).empty  # lam == P~


# criterion 10: transfer level sweep on a five-agent instance; full
# contribution exactly at every level above the marginal-cost bar, strictly
# below it with no transfers, and welfare monotone in the level.
@criterion(10, "transfer-sweep")
def test_criterion_10_transfer_sweep(five_agent_game):
    zeta = float(five_agent_game.cost.max_deriv(five_agent_game.s_max))
    assert zeta == pytest.approx(0.1)
    w0 = np.zeros(five_agent_game.m)
    s0 = np.zeros(five_agent_game.n)
    total_max = float(np.sum(five_agent_game.s_max))

    welfares = []
    cfg = RunConfig(gamma=0.5, eta=5.5, rounds=500, eps=1e-6)
    for beta in (0.12, 0.2, 0.5, 1.0):
        g = replace(five_agent_game, payment=PaymentRule.linear(beta))
        trace = run_dynamic(g, cfg, "2p-upbred", w0, s0)
        assert trace.outcome == "Converged"
        assert float(np.sum(trace.final.s)) == total_max  # snap makes it exact
        welfares.append((beta, trace.final.welfare))

    g0 = replace(five_agent_game, payment=PaymentRule.linear(0.0))
    cfg0 = replace(cfg, phase1_cap=2500)
    trace0 = run_dynamic(g0, cfg0, "2p-upbred", w0, s0, strict=False)
    assert trace0.outcome == "Error"
    assert float(np.sum(trace0.final.s)) < total_max
    welfares.append((0.0, trace0.final.welfare))

    welfares.sort()
    values = [w for _, w in welfares]
    # converged levels differ only by solver dust, so allow a hair of slack
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


# criterion 11: in any two-phase trace, sorting the final round by
# contribution also sorts the payments.
@criterion(11, "payment-order")
def test_criterion_11_payment_order(five_agent_game):
    traces = []

    _, trace = run_built("example1-2p")
    traces.append(trace)

    het = quadratic_game(
        4, 2, (0.5, 1.0), 1.0, (0.5, 1.0, 2.0, 3.0), (0.05, 0.04, 0.03, 0.02),
        payment=PaymentRule.linear(0.2),
    )
    cfg = RunConfig(gamma=0.5, eta=3.0, rounds=500, eps=1e-6)
    traces.append(run_dynamic(het, cfg, "2p-upbred", np.zeros(2), np.zeros(4)))

    g0 = replace(five_agent_game, payment=PaymentRule.linear(0.0))
    cfg0 = RunConfig(gamma=0.5, eta=5.5, rounds=500, eps=1e-6, phase1_cap=1500)
    traces.append(run_dynamic(g0, cfg0, "2p-upbred", np.zeros(3), np.zeros(5), strict=False))

    for trace in traces:
        final = trace.final
        order = np.argsort(final.s, kind="stable")
        pay = np.array([final.reports[i].payment for i in order])
        assert np.all(np.diff(pay) >= -1e-12)


# criterion 12: identical configuration and seed reproduce traces byte for
# byte, and the socket transport reproduces the in-process run.
@criterion(12, "determinism-and-transport")
def test_criterion_12_determinism_and_transport():
    for name in ("example1-upbred", "quad5", "empirical-small"):
        _, first = run_built(name)
        _, second = run_built(name)
        assert trace_csv_text(first) == trace_csv_text(second)

    b, local = run_built("example1-upbred")
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    result = {}

    def center_main():
        channels = accept_agents(listener, b.game.n, timeout=15.0)
        result["trace"] = serve_center(
            b.game, b.run, b.algorithm, channels, b.w0, b.s0, timeout=15.0
        )

    threads = [threading.Thread(target=center_main, daemon=True)]
    threads += [
        threading.Thread(
            target=connect_agent,
            args=(b.game, i, b.run, "127.0.0.1", port),
            kwargs={"timeout": 15.0},
            daemon=True,
        )
        for i in range(b.game.n)
    ]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=30.0)
    listener.close()
    assert trace_csv_text(result["trace"]) == trace_csv_text(local)


# criterion 13: the strategic averaging dynamic matches the two-phase
# welfare when transfers clear the incentive bar, and without transfers its
# contribution phase reproduces the free-riding corner of the example.
@criterion(13, "strategic-averaging-parity")
def test_criterion_13_strategic_averaging_parity():
    overrides = ["instance.beta=0.15"]
    b2p = built_scenario("quad5", overrides)
    bfas = built_scenario("quad5", overrides + ["run.algorithm=fedavg-strategic"])

    # the transfer clears marginal cost plus the bound-derivative cap along
    # the whole phase-one path (contributions only grow, so sigma only grows)
    g = b2p.game
    zeta = float(g.cost.max_deriv(g.s_max))
    d0 = float(np.sum((b2p.w0 - np.asarray(g.accuracy.theta)) ** 2))
    tau = d0 / (g.accuracy.sigma0 + float(np.sum(b2p.s0))) ** 2
    assert g.payment.beta > zeta + tau

    t2p = run_dynamic(b2p.game, b2p.run, b2p.algorithm, b2p.w0, b2p.s0)
    tfas = run_dynamic(bfas.game, bfas.run, bfas.algorithm, bfas.w0, bfas.s0)
    assert t2p.outcome == "Converged" and tfas.outcome == "Converged"
    assert abs(t2p.final.welfare - tfas.final.welfare) <= 1e-6

    _, free = run_built("example1-fas")
    phase1 = [r for r in free.records if r.phase == "1"]
    end = phase1[-1].s
    assert end[0] == pytest.approx(0.0, abs=1e-3)
    assert end[1] == pytest.approx(5.0, abs=1e-3)
