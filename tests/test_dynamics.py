"""Round dynamics: simultaneous, two-phase, baselines, rate arithmetic."""

from dataclasses import replace

import numpy as np
import pytest

from fedgame.core import ConfigError, NumericError, PaymentRule
from fedgame.dynamics import (
    AgentWorker,
    LocalPool,
    RunConfig,
    contraction_factor,
    corollary_bound,
    empirical_strategy_update,
    iteration_bound_T0,
    iteration_bounds_two_phase,
    _schedule,
    predicted_phase1_rounds,
    run_dynamic,
)
from fedgame.models import EmpiricalAccuracy, synth_dataset

from conftest import SeparableAccuracy, quadratic_game, separable_game


def example_start():
    w0 = np.array([0.35, 1.35])
    s0 = np.array([0.004, 4.996])
    return w0, s0


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.0, eta=0.1, rounds=10)
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.1, eta=0.1, rounds=-1)
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.1, eta=0.1, rounds=10, updater="symbolic")
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.1, eta=0.1, rounds=10, w_grad_at="midpoint")
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.1, eta=0.1, rounds=10, phase1_cap=0)
    with pytest.raises(ConfigError):
        RunConfig(gamma=0.1, eta=0.1, rounds=10, eps=float("inf"))


def test_empirical_updater_requires_the_empirical_family(example_game):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=3, updater="empirical")
    for make in (
        lambda: run_dynamic(example_game, cfg, "upbred"),
        lambda: AgentWorker(example_game, 0, cfg),
    ):
        with pytest.raises(ConfigError, match="requires the empirical accuracy family"):
            make()


def test_upbred_example_trajectory(example_game):
    w0, s0 = example_start()
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=50, eps=0.3)
    trace = run_dynamic(example_game, cfg, "upbred", w0, s0)
    assert trace.outcome == "Converged"
    assert [r.t for r in trace.records] == [0, 1, 2]
    first = trace.records[0]
    # start of round 0 is the initial state, scored before any update
    assert first.welfare == pytest.approx(1.662, abs=1e-12)
    assert first.g_norm == pytest.approx(0.015128780519261953, rel=1e-12)
    assert first.gt_norm == pytest.approx(0.3676955262170047, rel=1e-12)
    final = trace.final
    # both box faces are reached exactly through clamping
    assert final.s[0] == 0.0 and final.s[1] == 5.0
    assert final.g_norm == 0.0
    assert final.gt_norm < 0.3
    assert final.welfare == pytest.approx(1.778219493159431, rel=1e-12)


def test_upbred_stops_only_when_both_norms_small(example_game):
    w0, s0 = example_start()
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=500, eps=0.25)
    trace = run_dynamic(example_game, cfg, "upbred", w0, s0)
    assert trace.outcome == "Converged"
    # g hits exactly zero at round 2 but the welfare gradient is still large,
    # so the run must continue past it; as w keeps learning, agent 2's bound
    # derivative turns inward and its contribution eases slightly off 5
    assert trace.final.t > 2
    assert trace.final.s[0] == 0.0
    assert trace.final.s[1] == pytest.approx(5.0, abs=1e-2)
    assert trace.final.gt_norm < 0.25 and trace.final.g_norm < 0.25


def test_upbred_zero_round_budget(example_game):
    w0, s0 = example_start()
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=0, eps=1e-6)
    trace = run_dynamic(example_game, cfg, "upbred", w0, s0)
    assert trace.outcome == "MaxRounds"
    assert len(trace.records) == 1
    assert trace.records[0].t == 0


def test_upbred_error_outcome_reports_round(example_game):
    # sigma0 = 0 with an all-zero profile is singular at round 0
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=10)
    trace = run_dynamic(example_game, cfg, "upbred", np.zeros(2), np.zeros(2))
    assert trace.outcome == "Error"
    assert trace.error.startswith("round 0:")
    assert trace.records == []


class GradientBlowsUp(SeparableAccuracy):
    """Separable family whose w-gradient for agent `bad` is infinite once its
    contribution exceeds `cap`: finite at the start, non-finite at the
    updated profile."""

    def __init__(self, bad, cap, **kw):
        super().__init__(**kw)
        self.bad, self.cap = bad, cap

    def grad_w(self, i, w, s):
        g = super().grad_w(i, w, s)
        return np.full_like(g, np.inf) if i == self.bad and s[i] > self.cap else g


def test_upbred_error_names_agent_with_non_finite_updated_gradient():
    base = separable_game(n=3, m=2)
    a = base.accuracy
    g = replace(base, accuracy=GradientBlowsUp(1, 0.0, k=a.k, q=a.q, alpha=a.alpha, w_bar=a.w_bar))
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=10, w_grad_at="updated")
    # every agent's contribution rises from zero in round 0
    trace = run_dynamic(g, cfg, "upbred", np.zeros(2), np.zeros(3))
    assert trace.outcome == "Error"
    assert trace.error == "round 0: non-finite local gradient for agent 1", trace.error
    assert len(trace.records) == 1


def test_upbred_w_grad_at_choices_differ(example_game):
    w0, s0 = example_start()
    base = dict(gamma=0.25, eta=0.25, rounds=1, eps=1e-12)
    tr_upd = run_dynamic(example_game, RunConfig(**base, w_grad_at="updated"), "upbred", w0, s0)
    tr_cur = run_dynamic(example_game, RunConfig(**base, w_grad_at="current"), "upbred", w0, s0)
    # the family's parameter gradient depends on total contribution, so
    # evaluating at the updated own contribution must move w differently
    assert not np.array_equal(tr_upd.final.w, tr_cur.final.w)
    assert np.array_equal(tr_upd.records[0].w, tr_cur.records[0].w)


def test_upbred_rejects_bad_initial_state(example_game):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=1)
    with pytest.raises(ConfigError):
        run_dynamic(example_game, cfg, "upbred", np.zeros(3), None)
    with pytest.raises(ConfigError):
        run_dynamic(example_game, cfg, "upbred", np.zeros(2), np.array([0.0, 5.1]))


def test_two_phase_example_reaches_optimum(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=200)
    trace = run_dynamic(example_game_paid, cfg, "2p-upbred", np.zeros(2), np.array([2.5, 2.5]))
    assert trace.outcome == "Converged"
    phase1 = [r for r in trace.records if r.phase == "1"]
    phase2 = [r for r in trace.records if r.phase == "2"]
    assert len(phase1) <= 500  # kappa for this start and step size
    # contributions never decrease on the way to the ceiling
    stacked = np.array([r.s for r in phase1] + [phase2[0].s])
    assert np.all(np.diff(stacked, axis=0) >= -1e-12)
    assert phase2[0].s == pytest.approx([5.0, 5.0])
    # eta = 1/M jumps the quadratic family to its target in one update
    assert len(phase2) == 2
    assert trace.final.welfare == pytest.approx(2.0, abs=1e-12)
    assert trace.final.w == pytest.approx([1.0, 2.0], abs=1e-12)


def test_two_phase_snaps_within_tolerance(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=50)
    s0 = np.array([5.0, 5.0 - 1e-10])  # inside the snap tolerance
    trace = run_dynamic(example_game_paid, cfg, "2p-upbred", np.zeros(2), s0)
    assert all(r.phase == "2" for r in trace.records)
    assert trace.records[0].s == pytest.approx([5.0, 5.0], abs=0)
    assert trace.records[0].t == 0


def test_two_phase_requires_linear_rule(example_game):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=10)
    with pytest.raises(ConfigError):
        run_dynamic(example_game, cfg, "2p-upbred")


def test_two_phase_strict_validates_transfer_level():
    g = quadratic_game(
        2, 2, (1.0, 2.0), 0.0, 5.0, (0.04, 0.02), payment=PaymentRule.linear(0.04)
    )
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=10)
    with pytest.raises(ConfigError):
        run_dynamic(g, cfg, "2p-upbred")
    # non-strict mode lets the run proceed and fail (or not) on its own
    trace = run_dynamic(g, cfg, "2p-upbred", np.zeros(2), np.array([2.5, 2.5]), strict=False)
    assert trace.outcome in ("Converged", "MaxRounds", "Error")


def test_two_phase_cap_error_names_laggard():
    g = quadratic_game(
        2, 2, (1.0, 2.0), 1.0, 5.0, (0.04, 0.02), payment=PaymentRule.linear(0.01)
    )
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, phase1_cap=5)
    # at w = theta the accuracy term is flat, so both agents shrink
    trace = run_dynamic(
        g, cfg, "2p-upbred", np.array([1.0, 2.0]), np.array([2.5, 2.5]), strict=False
    )
    assert trace.outcome == "Error"
    assert "round 5:" in trace.error
    assert "cap of 5 rounds" in trace.error
    assert "agent 0" in trace.error  # the faster-shrinking agent lags most
    assert len(trace.records) == 6  # the offending round is still recorded


def stall_game():
    return quadratic_game(
        2, 2, (1.0, 2.0), 1.0, 5.0, (0.04, 0.02), payment=PaymentRule.linear(0.1)
    )


@pytest.mark.parametrize("algorithm, tail", [
    ("2p-upbred", "agent 0 is not increasing (gap 4)"),
    ("fedavg-strategic", "agent 1 still improving (derivative 0.08)"),
], ids=["2p-upbred", "fedavg-strategic"])
def test_contribution_phase_that_cannot_move_ends_at_once(algorithm, tail):
    # gamma times any derivative is below one ulp of s, so the first step
    # leaves the profile's bits unchanged: a fixed point the handover never passes
    cfg = RunConfig(gamma=1e-300, eta=0.5, rounds=10)
    trace = run_dynamic(stall_game(), cfg, algorithm, np.array([1.0, 2.0]), np.array([1.0, 1.0]))
    assert trace.outcome == "Error"
    assert trace.error == f"round 0: contribution phase stalled at a fixed point; {tail}"
    assert len(trace.records) == 1


def test_default_phase_one_cap_is_ten_kappa_up_to_100000():
    g, s0 = stall_game(), np.array([1.0, 1.0])
    for gamma, cap in ((0.5, 10 * 134), (1e-12, 100_000)):
        cfg = RunConfig(gamma=gamma, eta=0.5, rounds=10)
        assert 10 * predicted_phase1_rounds(g, cfg, s0) >= cap
        assert _schedule(g, cfg, "2p-upbred", s0)[0].cap == cap
    cfg = RunConfig(gamma=1e-12, eta=0.5, rounds=10, phase1_cap=10**9)
    assert _schedule(g, cfg, "2p-upbred", s0)[0].cap == 10**9  # an explicit cap still wins


def test_fedavg_pins_contributions_and_strips_payments(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=0.25, rounds=5000, eps=1e-6)
    trace = run_dynamic(example_game_paid, cfg, "fedavg", np.zeros(2))
    assert trace.outcome == "Converged"
    assert all(r.phase == "single" for r in trace.records)
    for rec in trace.records:
        assert rec.s == pytest.approx([5.0, 5.0], abs=0)
        assert all(rep.payment == 0.0 for rep in rec.reports)
    assert trace.instance["payment"]["kind"] == "none"
    assert trace.final.gt_norm < 1e-6
    assert trace.final.welfare == pytest.approx(2.0, abs=1e-4)


def test_fedavg_zero_rounds(example_game):
    cfg = RunConfig(gamma=0.5, eta=0.25, rounds=0)
    trace = run_dynamic(example_game, cfg, "fedavg", np.zeros(2))
    assert trace.outcome == "MaxRounds"
    assert len(trace.records) == 1


def test_fedavg_strategic_example_settles_at_corner(example_game):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=2000, eps=1e-6)
    trace = run_dynamic(
        example_game, cfg, "fedavg-strategic", np.array([0.5, 1.5]), np.array([1.0, 1.0])
    )
    assert trace.outcome == "Converged"
    phase1 = [r for r in trace.records if r.phase == "1"]
    phase2 = [r for r in trace.records if r.phase == "2"]
    assert phase1 and phase2
    # free riding: the cheap agent absorbs the work, the expensive one exits
    assert abs(phase2[0].s[0] - 0.0) <= 1e-3
    assert abs(phase2[0].s[1] - 5.0) <= 1e-3
    # contributions stay frozen through the training tail
    for rec in phase2:
        assert np.array_equal(rec.s, phase2[0].s)
    # the model was never updated during phase one
    for rec in phase1:
        assert np.array_equal(rec.w, np.array([0.5, 1.5]))


def test_fedavg_strategic_cap_error_names_pusher(example_game):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=10, eps=1e-6, phase1_cap=3)
    trace = run_dynamic(
        example_game, cfg, "fedavg-strategic", np.array([0.5, 1.5]), np.array([1.0, 1.0])
    )
    assert trace.outcome == "Error"
    assert "cap of 3 rounds" in trace.error
    assert "still improving" in trace.error


def test_run_dynamic_dispatch(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=200)
    tr = run_dynamic(example_game_paid, cfg, "2p-upbred", np.zeros(2), np.array([2.5, 2.5]))
    assert tr.outcome == "Converged"
    with pytest.raises(ConfigError):
        run_dynamic(example_game_paid, cfg, "sgd")


def test_predicted_phase1_rounds(example_game, example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=10)
    s0 = np.array([2.5, 2.5])
    assert predicted_phase1_rounds(example_game_paid, cfg, s0) == 500
    assert predicted_phase1_rounds(example_game, cfg, s0) is None
    g = quadratic_game(
        2, 2, (1.0, 2.0), 0.0, 5.0, (0.04, 0.02), payment=PaymentRule.linear(0.03)
    )
    assert predicted_phase1_rounds(g, cfg, s0) is None  # margin nonpositive


# ---------------------------------------------------------------------------
# The numerical (difference-quotient) contribution updater.


def toy_empirical_game(beta=0.01):
    train, test = synth_dataset(5, 2, 30, 20, 2, 2)
    acc = EmpiricalAccuracy(
        train_sets=train,
        test_sets=test,
        r=np.full(2, np.log(2)),
        n_classes=2,
        data_seed=5,
    )
    from fedgame.core import AgentSpec, GameInstance
    from fedgame.models import CostModel

    agents = tuple(AgentSpec(id=i, s_max=30.0, initial_s=10.0) for i in range(2))
    return GameInstance(
        agents=agents,
        accuracy=acc,
        cost=CostModel.linear([0.002, 0.002]),
        payment=PaymentRule.linear(beta),
        m=4,
    )


def test_empirical_worker_first_round_has_zero_quotient():
    g = toy_empirical_game()
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, updater="empirical", learn_rate=0.2)
    worker = AgentWorker(g, 0, cfg)
    w = np.zeros(4)
    s = np.array([10.0, 12.0])
    s_next, _ = worker.step(0, "single", w, s)
    # no previous contribution yet: update is cost/transfer only
    assert s_next.tolist() == pytest.approx([10.0 - 0.002 + 0.01])


def test_empirical_worker_quotient_matches_manual_computation():
    g = toy_empirical_game()
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, updater="empirical", learn_rate=0.2)
    worker = AgentWorker(g, 0, cfg)
    w = np.zeros(4)
    s0 = np.array([10.0, 12.0])
    r0, _ = worker.step(0, "single", w, s0)
    s1 = np.array([r0[0], 12.0])
    w1 = np.full(4, 0.05)
    before = g.accuracy.test_loss(0, w1)
    after = g.accuracy.test_loss(0, g.accuracy.local_training_step(0, w1, float(s1[0]), 0.2))
    quotient = (after - before) / (float(s1[0]) - 10.0)
    expected = float(np.clip(float(s1[0]) - quotient - 0.002 + 0.01, 0.0, 30.0))
    r1, _ = worker.step(1, "single", w1, s1)
    assert r1.tolist() == pytest.approx([expected], rel=1e-12)


def test_empirical_worker_reuses_quotient_for_tiny_moves():
    g = toy_empirical_game()
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, updater="empirical", learn_rate=0.2)
    worker = AgentWorker(g, 0, cfg)
    w = np.zeros(4)
    worker.step(0, "single", w, np.array([10.0, 12.0]))
    # second call at an unchanged contribution: falls back to the last
    # stored quotient, which is still the round-one zero
    s_next, _ = worker.step(1, "single", w, np.array([10.0, 12.0]))
    assert s_next.tolist() == pytest.approx([10.0 - 0.002 + 0.01])


def test_empirical_strategy_update_pure_form():
    # args: s_prev, s_curr, loss_prev, loss_curr, marginal cost, beta, s_max,
    # last quotient
    nxt, quo = empirical_strategy_update(1.0, 1.5, 0.8, 0.7, 0.1, 0.2, 5.0, 0.0)
    assert quo == pytest.approx(-0.2)
    assert nxt == pytest.approx(1.5 + 0.2 + 0.1)
    # an agent that did not move reuses its last quotient
    nxt, quo = empirical_strategy_update(2.0, 2.0, 0.9, 0.5, 0.1, 0.2, 5.0, -0.3)
    assert quo == -0.3
    assert nxt == pytest.approx(2.0 + 0.3 + 0.1)
    # so does one whose loss is not finite
    _, quo = empirical_strategy_update(1.0, 1.5, 0.8, float("nan"), 0.1, 0.2, 5.0, -0.3)
    assert quo == -0.3


def test_empirical_strategy_update_clamps():
    # strongly harmful contribution: quotient 5
    nxt, _ = empirical_strategy_update(1.0, 2.0, 0.5, 5.5, 0.0, 0.0, 5.0, 0.0)
    assert nxt == 0.0


def test_empirical_upbred_runs_and_records_analytic_norms():
    g = toy_empirical_game()
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=5, updater="empirical", learn_rate=0.2)
    trace = run_dynamic(g, cfg, "upbred", np.zeros(4), np.array([10.0, 12.0]))
    assert trace.outcome in ("MaxRounds", "Converged")
    # the recorded strategy norm comes from the family's analytic derivative
    # (zero own-contribution term), not from the difference quotients
    rec = trace.records[0]
    assert rec.g_norm == pytest.approx(np.linalg.norm([0.008, 0.008]))


# ---------------------------------------------------------------------------
# Rate arithmetic.


def test_contraction_factor_values():
    w1, w2, w = contraction_factor(0.1, 0.2, 2, 1, 1.0, 1.0, 1.1, 1.1, 0.0, 1.0)
    assert w1 == pytest.approx(np.sqrt(1 + 0.01 * 4 - 2 * 0.1 * 1.1) + 0.1)
    assert w2 == pytest.approx(np.sqrt(1 + 0.04 * 1 - 2 * 0.2 * 1.1) + 0.0)
    assert w == max(w1, w2)


def test_contraction_factor_rejects_negative_radicand():
    with pytest.raises(NumericError):
        contraction_factor(1.0, 0.1, 1, 1, 0.1, 0.1, 1.0, 0.1, 0.0, 0.0)


def test_iteration_bound_t0():
    assert iteration_bound_T0(0.5, 1.0, 0.9) == 0  # already below
    assert iteration_bound_T0(1.0, 1e-6, 0.0) == 1
    assert iteration_bound_T0(8.0, 1.0, 0.5) == 3  # exact power, no dust ceil
    assert iteration_bound_T0(9.0, 1.0, 0.5) == 4
    with pytest.raises(NumericError):
        iteration_bound_T0(2.0, 1.0, 1.0)
    with pytest.raises(ConfigError):
        iteration_bound_T0(2.0, 0.0, 0.5)


def test_iteration_bounds_two_phase_hand_case(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=10, eps=1e-6)
    kappa, t0 = iteration_bounds_two_phase(
        example_game_paid, cfg, np.array([2.5, 2.5]), f0=0.5, M=0.2, nu=0.2
    )
    assert kappa == 500
    assert t0 == 1  # nu == M collapses the rate to a single step


def test_iteration_bounds_two_phase_geometric_tail():
    g = quadratic_game(2, 1, (0.0,), 1.0, 1.0, 0.0, payment=PaymentRule.linear(1.0))
    cfg = RunConfig(gamma=1.0, eta=1.0, rounds=10, eps=1e-3)
    kappa, t0 = iteration_bounds_two_phase(g, cfg, np.zeros(2), f0=1.0, M=2.0, nu=1.0)
    assert kappa == 1
    # rate 1 - nu/M = 1/2: need ceil(log2(1000)) rounds
    assert t0 == 10


def test_iteration_bounds_two_phase_rejects_nonpositive_margin(example_game):
    g = quadratic_game(2, 1, (0.0,), 1.0, 1.0, 0.2, payment=PaymentRule.linear(0.1))
    cfg = RunConfig(gamma=1.0, eta=1.0, rounds=10, eps=1e-3)
    with pytest.raises(ConfigError):
        iteration_bounds_two_phase(g, cfg, np.zeros(2), 1.0, 1.0, 1.0)
    with pytest.raises(ConfigError):  # no transfer rule at all
        iteration_bounds_two_phase(example_game, cfg, np.zeros(2), 1.0, 1.0, 1.0)


def _corollary_reference(w0_dist, eps, M, nu):
    """The round count corollary_bound used before it went through
    iteration_bound_T0."""
    from math import ceil, log

    if w0_dist <= eps:
        return 0
    if nu == M:
        return 1
    x = log(w0_dist / eps) / log((1.0 + nu / M) / (1.0 - nu / M))
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(ceil(x))


def test_corollary_bound_matches_its_closed_form_on_a_grid():
    checked = 0
    for w0_dist in (0.0, 1e-9, 1e-3, 0.5, 1.0, 3.0, 9.0, 123.456, 1e6):
        for eps in (1e-12, 1e-9, 1e-6, 1e-3, 0.5, 1.0, 10.0):
            for M in (0.1, 1.0, 2.0, 7.5, 1e3):
                for frac in (1e-6, 1e-3, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.999, 1.0):
                    nu = M * frac if frac < 1.0 else M
                    got = corollary_bound(w0_dist, eps, M, nu)
                    assert got == _corollary_reference(w0_dist, eps, M, nu), (w0_dist, eps, M, nu)
                    checked += 1
    assert checked == 9 * 7 * 5 * 8


def test_corollary_bound():
    assert corollary_bound(0.5, 1.0, 2.0, 1.0) == 0
    assert corollary_bound(10.0, 1e-3, 2.0, 2.0) == 1
    # ratio (1 + 1/2)/(1 - 1/2) = 3
    assert corollary_bound(9.0, 1.0, 2.0, 1.0) == 2
    with pytest.raises(ConfigError):
        corollary_bound(1.0, 1e-3, 1.0, 2.0)


@pytest.mark.parametrize("M, nu", [
    (1.0, 2.0), (1.0, 0.0), (1.0, -1.0), (float("inf"), 0.1), (float("inf"), float("inf")),
    (float("nan"), 0.1), (1.0, float("nan")),
])
def test_training_bounds_share_one_smoothness_check(example_game_paid, M, nu):
    """Both training-phase bounds need 0 < nu <= M with M finite."""
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=10, eps=1e-6)
    with pytest.raises(ConfigError, match="0 < nu <= M with M finite"):
        corollary_bound(1.0, 1e-3, M, nu)
    with pytest.raises(ConfigError, match="0 < nu <= M with M finite"):
        iteration_bounds_two_phase(example_game_paid, cfg, np.array([2.5, 2.5]), 0.5, M, nu)
