"""Game primitives: transfers, utilities, welfare, corrected gradients."""

from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame.core import (
    BOUND_TOL,
    VECTOR_ROWS,
    AgentSpec,
    ConfigError,
    GameInstance,
    NumericError,
    PaymentRule,
    _left_sum,
    clamp_profile,
    payment,
    payment_vector,
    social_welfare,
    sq_norm,
    strategy_derivatives,
    strategy_gradient,
    utility,
    welfare_gradient,
)
from fedgame.models import CostModel

from conftest import SeparableAccuracy, quadratic_game


def test_payment_none_is_zero():
    rule = PaymentRule.none()
    s = np.array([1.0, 2.0, 3.0])
    assert payment(rule, s, 0) == 0.0
    assert np.all(payment_vector(rule, s) == 0.0)


def test_payment_linear_two_agents():
    rule = PaymentRule.linear(0.5)
    s = np.array([3.0, 1.0])
    # p_0 = 0.5 * (3 - 1), p_1 = 0.5 * (1 - 3)
    assert payment(rule, s, 0) == pytest.approx(1.0)
    assert payment(rule, s, 1) == pytest.approx(-1.0)


def test_payment_linear_uses_mean_of_others():
    rule = PaymentRule.linear(2.0)
    s = np.array([4.0, 1.0, 1.0])
    assert payment(rule, s, 0) == pytest.approx(2.0 * (4.0 - 1.0))


def test_payment_requires_valid_agent_index():
    rule = PaymentRule.linear(1.0)
    with pytest.raises(ConfigError):
        payment(rule, np.array([1.0, 2.0]), 2)


def test_payment_linear_needs_two_agents():
    with pytest.raises(ConfigError):
        payment(PaymentRule.linear(1.0), np.array([1.0]), 0)


def test_payment_rule_validation():
    with pytest.raises(ConfigError):
        PaymentRule(kind="linear", beta=-0.1)
    with pytest.raises(ConfigError):
        PaymentRule(kind="quadratic", beta=0.0)
    with pytest.raises(ConfigError):
        PaymentRule(kind="none", beta=0.3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=12),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.integers(min_value=0, max_value=2**32 - 1),
)
def test_budget_balance_property(n, beta, seed):
    rng = np.random.default_rng(seed)
    s = rng.uniform(0.0, 50.0, size=n)
    total = float(np.sum(payment_vector(PaymentRule.linear(beta), s)))
    assert abs(total) <= 1e-9 * beta * float(np.sum(np.abs(s))) + 1e-15


def test_utility_decomposition(example_game_paid):
    w = np.array([0.5, 1.5])
    s = np.array([2.0, 3.0])
    rep = utility(example_game_paid, 0, w, s)
    assert rep.utility == rep.accuracy - rep.cost + rep.payment
    # a_0 = 1 - 0.5/5, c_0 = 0.04*2, p_0 = 0.05*(2-3)
    assert rep.accuracy == pytest.approx(0.9)
    assert rep.cost == pytest.approx(0.08)
    assert rep.payment == pytest.approx(-0.05)


def test_welfare_is_sum_of_accuracies_costs_excluded(example_game):
    w = np.array([1.0, 2.0])
    s = np.array([5.0, 5.0])
    assert social_welfare(example_game, w, s) == pytest.approx(2.0, abs=1e-12)
    # individual utilities do subtract costs
    assert utility(example_game, 0, w, s).utility == pytest.approx(0.8)


def test_welfare_gradient_is_mean_gradient(example_game):
    w = np.array([0.5, 1.5])
    s = np.array([0.0, 5.0])
    # defining property of the family: grad of mean accuracy = 2 (theta - w) / sigma
    assert welfare_gradient(example_game, w, s) == pytest.approx([0.2, 0.2])


def test_strategy_gradient_interior_matches_finite_differences(five_agent_game):
    g = five_agent_game
    rng = np.random.default_rng(11)
    w = rng.normal(size=g.m)
    s = rng.uniform(0.3, 1.7, size=g.n)
    grad = strategy_gradient(g, w, s)
    h = 1e-6
    for i in range(g.n):
        up, dn = s.copy(), s.copy()
        up[i] += h
        dn[i] -= h
        fd = (utility(g, i, w, up).utility - utility(g, i, w, dn).utility) / (2 * h)
        assert grad[i] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_welfare_gradient_matches_finite_differences(five_agent_game):
    g = five_agent_game
    rng = np.random.default_rng(12)
    w = rng.normal(size=g.m)
    s = rng.uniform(0.3, 1.7, size=g.n)
    grad = welfare_gradient(g, w, s)
    h = 1e-6
    for j in range(g.m):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        fd = (social_welfare(g, up, s) - social_welfare(g, dn, s)) / (2 * h * g.n)
        assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)


def fixed_slope_game(slopes, s_max=5.0):
    """Costless game whose own-contribution derivative is exactly `slopes`."""
    n = len(slopes)
    return GameInstance(
        agents=tuple(AgentSpec(id=i, s_max=s_max) for i in range(n)),
        accuracy=SeparableAccuracy(k=slopes, q=0.0, alpha=1.0, w_bar=[0.0]),
        cost=CostModel.linear(np.zeros(n)),
        payment=PaymentRule.none(),
        m=1,
    )


def test_mu_correction_zeroes_outward_components_only():
    g = fixed_slope_game([-1.0, 1.0, -3.0, 2.0, -2.0])
    s = np.array([0.0, 5.0, 2.0, 0.0, 5.0])
    out = strategy_gradient(g, np.zeros(1), s)
    assert out == pytest.approx([0.0, 0.0, -3.0, 2.0, -2.0])
    dsi = np.array([g.accuracy.dsi(i, np.zeros(1), s) for i in range(5)])
    assert [float(strategy_derivatives(g, [i], s, dsi[[i]])[0]) for i in range(5)] == list(out)


def boundary_profile(rng, s_max):
    """Contributions at and near both ends of the box: 0, -0.0, s_max, and
    within or just beyond BOUND_TOL of either; a few lie below -1e-12, where
    the cost derivative refuses them, and the rest inside."""
    n = len(s_max)
    offsets = BOUND_TOL * np.array([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
    candidates = [
        np.zeros(n), np.full(n, -0.0), s_max,
        rng.choice(offsets, n), s_max + rng.choice(offsets, n),
        rng.uniform(0.0, 1.0, n) * s_max,
    ]
    pick = rng.choice(len(candidates), n, p=[0.15, 0.1, 0.15, 0.1, 0.15, 0.35])
    s = np.choose(pick, candidates)
    if rng.random() < 0.8:
        s = np.where(s < -1e-12, 0.0, s)
    return s


def outcome(fn):
    """fn()'s result, or the type and message of what it raised."""
    try:
        return fn()
    except (NumericError, ConfigError) as exc:
        return type(exc), str(exc)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), extra=st.integers(0, 40),
       non_finite=st.sampled_from([None, np.inf, -np.inf, np.nan]))
def test_vector_strategy_derivatives_equal_the_row_loop(seed, extra, non_finite):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 30))
    s_max = rng.uniform(0.5, 5.0, n)
    costs = rng.uniform(0.0, 0.2, n)
    beta = float(rng.choice([0.0, 0.05, 0.12]))
    g = GameInstance(
        agents=tuple(AgentSpec(id=i, s_max=float(s_max[i])) for i in range(n)),
        accuracy=SeparableAccuracy(k=np.zeros(n), q=0.0, alpha=1.0, w_bar=[0.0]),
        cost=CostModel.linear(costs),
        payment=PaymentRule.linear(beta) if beta else PaymentRule.none(),
        m=1,
    )
    s = boundary_profile(rng, s_max)
    # rows in any order, agents repeated; about a third have a derivative
    # of exactly or nearly zero, so both signs meet both bounds
    idx = rng.integers(0, n, VECTOR_ROWS + extra)
    dsi = rng.normal(size=len(idx)) * 10.0 ** rng.uniform(-3.0, 1.0, len(idx))
    dsi = np.where(rng.random(len(idx)) < 0.3, costs[idx] - beta, dsi)
    if non_finite is not None:
        dsi[rng.integers(0, len(idx), int(rng.integers(1, 3)))] = non_finite
    rows = [outcome(lambda r=r: strategy_derivatives(g, idx[[r]], s, dsi[[r]])) for r in range(len(idx))]
    first_error = next((o for o in rows if isinstance(o, tuple)), None)
    got = outcome(lambda: strategy_derivatives(g, idx, s, dsi))
    if first_error is not None:
        assert got == first_error
    else:
        expected = np.concatenate(rows)
        assert got.tobytes() == expected.tobytes()


def test_mu_correction_uses_absolute_tolerance():
    g = fixed_slope_game([-1.0, 1.0])
    s = np.array([BOUND_TOL / 2, 5.0 - BOUND_TOL / 2])
    assert strategy_gradient(g, np.zeros(1), s) == pytest.approx([0.0, 0.0])


def test_strategy_gradient_includes_transfer_slope(example_game, example_game_paid):
    w = np.array([0.5, 1.5])
    s = np.array([2.0, 3.0])  # interior: no boundary correction applies
    base = strategy_gradient(example_game, w, s)
    paid = strategy_gradient(example_game_paid, w, s)
    assert paid == pytest.approx(base + 0.05)


def test_strategy_gradient_rejects_singular_pool(example_game):
    # sigma0 = 0 and an empty pool make the family singular
    from fedgame.core import GameError

    with pytest.raises(GameError):
        strategy_gradient(example_game, np.array([0.0, 0.0]), np.array([0.0, 0.0]))


def test_clamp_profile(example_game):
    out = clamp_profile(np.array([-1.0, 7.0]), example_game)
    assert out == pytest.approx([0.0, 5.0])
    with pytest.raises(ConfigError):
        clamp_profile(np.array([1.0]), example_game)


def test_game_instance_validation():
    g = quadratic_game(2, 2, (0.0, 0.0), 1.0, 1.0, 0.0)
    with pytest.raises(ConfigError):
        GameInstance(
            agents=g.agents,
            accuracy=g.accuracy,
            cost=g.cost,
            payment=g.payment,
            m=3,  # disagrees with the accuracy family
        )
    with pytest.raises(ConfigError):
        quadratic_game(1, 1, (0.0,), 1.0, 1.0, 0.0, payment=PaymentRule.linear(1.0))


def test_agent_ids_must_be_dense(example_game):
    from fedgame.core import AgentSpec

    bad = (AgentSpec(id=1, s_max=1.0, initial_s=0.0),)
    with pytest.raises(ConfigError):
        GameInstance(
            agents=bad,
            accuracy=quadratic_game(1, 1, (0.0,), 1.0, 1.0, 0.0).accuracy,
            cost=quadratic_game(1, 1, (0.0,), 1.0, 1.0, 0.0).cost,
            payment=PaymentRule.none(),
            m=1,
        )


def test_game_arrays_are_built_once_and_read_only():
    g = quadratic_game(3, 1, (0.0,), 1.0, (1.0, 2.0, 3.0), 0.0, initial_s=(0.5, 1.0, 1.5))
    assert g.s_max is g.s_max and g.initial_s is g.initial_s
    assert list(g.s_max) == [1.0, 2.0, 3.0] and list(g.initial_s) == [0.5, 1.0, 1.5]
    # an in-place write would corrupt every later round; it raises instead
    with pytest.raises(ValueError):
        g.s_max[0] = 9.0
    with pytest.raises(ValueError):
        g.initial_s += 1.0
    assert list(g.s_max) == [1.0, 2.0, 3.0] and list(g.initial_s) == [0.5, 1.0, 1.5]


def left_to_right(a):
    return np.cumsum(a, axis=0)[-1] + 0.0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 300), m=st.integers(2, 40),
       special=st.sampled_from([0.0, 0.05, 0.3]))
def test_left_sum_adds_rows_left_to_right(seed, n, m, special):
    """On a C-contiguous (n, m >= 2) array, _left_sum's reduce has the bits
    of the left-to-right cumsum: mixed magnitudes, signed zeros and +-inf
    included.  NaN payloads may differ, so NaNs are compared by position."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, m)) * 10.0 ** rng.uniform(-12.0, 12.0, (n, m))
    picks = rng.random((n, m)) < special
    a[picks] = rng.choice([0.0, -0.0, np.inf, -np.inf], size=int(picks.sum()))
    if rng.random() < 0.2:
        a[:, int(rng.integers(0, m))] = -0.0  # a column that sums to -0.0
    with np.errstate(invalid="ignore"):
        got, expected = _left_sum(a), left_to_right(a)
    assert got.shape == (m,)
    nan = np.isnan(expected)
    assert (np.isnan(got) == nan).all()
    assert got[~nan].tobytes() == expected[~nan].tobytes()


@pytest.mark.parametrize("layout", ["1-d", "one column", "fortran"])
def test_left_sum_keeps_cumsum_where_numpy_sums_pairwise(layout):
    """1.0 followed by many 1e-16: left to right each add rounds back to 1.0,
    while numpy's pairwise sum first adds the small terms up.  Where axis 0
    is numpy's inner loop, _left_sum gives the left-to-right bits."""
    col = np.array([1.0] + [1e-16] * 100)
    a = {
        "1-d": col,
        "one column": col[:, None],
        "fortran": np.asfortranarray(np.tile(col[:, None], (1, 3))),
    }[layout]
    expected = left_to_right(a)
    assert np.all(expected == 1.0)
    assert _left_sum(a).tobytes() == expected.tobytes()
    assert (np.add.reduce(a, axis=0) + 0.0).tobytes() != expected.tobytes()


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.one_of(st.integers(1, 40), st.integers(1, 3000)),
       stride=st.integers(1, 3), scale=st.sampled_from([1e-150, 1e-5, 1.0, 1e5, 1e150, 1e300]))
def test_sq_norm_is_numpys_squared_norm(seed, m, stride, scale):
    rng = np.random.default_rng(seed)
    d = (rng.normal(size=m * stride) * scale)[::stride]
    c = np.ascontiguousarray(d)
    with np.errstate(over="ignore"):  # squares of 1e300 are inf
        norm, sq, dd = np.linalg.norm(d), sq_norm(d), c @ c
    assert np.float64(sqrt(sq)).tobytes() == norm.tobytes()
    # a strided d is summed as its contiguous copy, as the norm sums it
    assert np.float64(sq).tobytes() == np.float64(dd).tobytes()
