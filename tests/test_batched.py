"""The batched accuracy oracle and its three hot callers.

evaluate, the pool step and the best-response scan and refine each agree
bit for bit with their per-agent forms, evaluate at one shared profile row
with that row repeated, and evaluate of a subset of rows with those rows of
the full call; a round makes a fixed number of oracle calls and one
strategy-derivative call, and the pool step reuses the round record's
rows, re-evaluating at the updated profile only the agents that moved; a
remote agent evaluates only its own row; the empirical step's gradients
and test losses are evaluate rows, the record's when it is given them,
else from its own one fused test-set pass.
"""

import threading
from collections import Counter
from math import ceil, inf, log, nan, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fedgame import core, dynamics, models
from fedgame.analysis import GOLDEN_XTOL, _scan, best_response, certify_nash
from fedgame.core import (
    VECTOR_ROWS,
    AgentSpec,
    ConfigError,
    GameInstance,
    ModelEvalError,
    NumericError,
    PaymentRule,
    evaluate_profile,
    strategy_derivatives,
)
from fedgame.dynamics import AgentWorker, LocalPool, RunConfig, run_dynamic
from fedgame.models import (
    CostModel,
    EmpiricalAccuracy,
    QuadraticAccuracy,
    _logsumexp_rows,
    _shifted_exp,
    synth_dataset,
)

from conftest import (
    SeparableAccuracy,
    _golden_max,
    _own_utility,
    quadratic_game,
    run_inprocess_federation,
    separable_game,
)

SEEDS = st.integers(0, 2**32 - 1)


def same(a, b) -> bool:
    """Bit-for-bit equality of floats or float arrays, signed zeros included."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


def spread(rng, size):
    """Positive values over six orders of magnitude, so that the order of a
    row sum shows in its last bits."""
    return rng.random(size) * 10.0 ** rng.uniform(-3.0, 3.0, size)


def random_quadratic(rng, n, m, sigma0):
    return QuadraticAccuracy(theta=rng.normal(size=m), r=rng.normal(size=n), sigma0=sigma0)


def random_empirical(rng, n):
    # up to 20 classes: the class sums take both of numpy's pairwise branches
    classes = int(rng.integers(2, 21))
    features = int(rng.integers(1, 4))
    train, test = synth_dataset(
        int(rng.integers(0, 1000)), n, int(rng.integers(1, 30)), int(rng.integers(1, 60)),
        features, classes,
    )
    return EmpiricalAccuracy(train, test, np.full(n, np.log(classes)), classes)


# ---------------------------------------------------------------------------
# evaluate against the per-agent methods.


def check_rows(acc, idx, w, S):
    out = acc.evaluate(idx, w, S)
    values, dsi, grads = out[:3]
    assert values.shape == dsi.shape == (len(idx),)
    assert grads.shape == (len(idx), acc.dim)
    for r, i in enumerate(idx.tolist()):
        assert same(values[r], acc.value(i, w, S[r]))
        assert same(dsi[r], acc.dsi(i, w, S[r]))
        assert same(grads[r], acc.grad_w(i, w, S[r]))
    return out


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 300), k=st.integers(1, 12),
       sigma0=st.sampled_from([0.0, 1e-6, 1.0]))
def test_quadratic_evaluate_matches_per_agent_methods(seed, n, k, sigma0):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    acc = random_quadratic(rng, n, m, sigma0)
    idx = rng.integers(0, n, size=k)  # ids may repeat
    S = spread(rng, (k, n))
    assert len(check_rows(acc, idx, rng.normal(size=m) * 3.0, S)) == 3
    # every row at one profile, as the round record asks
    check_rows(acc, np.arange(n), rng.normal(size=m), S[:1].repeat(n, axis=0))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, family=st.sampled_from(["quadratic", "empirical", "separable"]),
       n=st.one_of(st.integers(1, VECTOR_ROWS - 1), st.integers(VECTOR_ROWS, 80)),
       k=st.integers(1, 12))
def test_a_shared_profile_row_equals_that_row_repeated(seed, family, n, k):
    """evaluate(idx, w, s[None, :]) is evaluate at s repeated once per idx,
    byte for byte in every column, and so are the strategy derivatives
    taken from it, in the loop form (n < VECTOR_ROWS) and the numpy form."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        sigma0 = float(rng.choice([0.0, 1e-6, 1.0]))
        acc = random_quadratic(rng, n, int(rng.integers(1, 6)), sigma0)
    elif family == "empirical":
        acc = random_empirical(rng, n)
    else:
        acc = SeparableAccuracy(k=rng.uniform(0.2, 1.5, n), q=float(rng.uniform(0.5, 2.0)),
                                alpha=1.0, w_bar=rng.normal(size=int(rng.integers(1, 4))))
    s_max = rng.uniform(0.5, 40.0, size=n)
    # contributions at the floor, at the ceiling and inside the box, with a
    # positive total so that sigma0 = 0 stays regular
    s = np.where(rng.random(n) < 0.3, 0.0, spread(rng, n) % s_max)
    s = np.where(rng.random(n) < 0.2, s_max, s)
    j = int(rng.integers(0, n))
    s[j] = s_max[j] / 2.0
    w = rng.normal(size=acc.dim) * 2.0
    idx = rng.integers(0, n, size=k)  # ids may repeat
    shared = acc.evaluate(idx, w, s[None, :])
    repeated = acc.evaluate(idx, w, s[None, :].repeat(k, axis=0))
    assert len(shared) == len(repeated)
    assert all(same(a, b) for a, b in zip(shared, repeated))

    agents = tuple(AgentSpec(id=i, s_max=float(s_max[i])) for i in range(n))
    payment = PaymentRule.linear(float(rng.uniform(0.0, 0.3))) if n >= 2 else PaymentRule.none()
    game = GameInstance(agents, acc, CostModel.linear(rng.uniform(0.0, 0.2, size=n)),
                        payment, acc.dim)
    rows = evaluate_profile(game, w, s)
    full = acc.evaluate(game.ids, w, s[None, :].repeat(n, axis=0))
    assert all(same(a, b) for a, b in zip(rows, full))
    assert same(strategy_derivatives(game, game.ids, s, rows[1]),
                strategy_derivatives(game, game.ids, s, full[1]))


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, family=st.sampled_from(["quadratic", "empirical", "separable"]),
       n=st.integers(1, 40), k=st.integers(1, 12))
def test_evaluate_rows_are_independent(seed, family, n, k):
    """Row r of evaluate depends only on idx[r], w and S[r]: any subset of
    the rows, a single one (the shared-row form) included, evaluates to
    exactly those rows of the full call, in every column."""
    rng = np.random.default_rng(seed)
    if family == "quadratic":
        acc = random_quadratic(rng, n, int(rng.integers(1, 6)),
                               float(rng.choice([0.0, 1e-6, 1.0])))
    elif family == "empirical":
        acc = random_empirical(rng, n)
    else:
        acc = SeparableAccuracy(k=rng.uniform(0.2, 1.5, n), q=float(rng.uniform(0.5, 2.0)),
                                alpha=1.0, w_bar=rng.normal(size=int(rng.integers(1, 4))))
    idx = rng.integers(0, n, size=k)  # ids may repeat
    S = spread(rng, (k, n))
    w = rng.normal(size=acc.dim) * 2.0
    full = acc.evaluate(idx, w, S)
    keep = np.flatnonzero(rng.random(k) < 0.5)
    for sel in (keep, rng.integers(0, k, size=1)):
        if len(sel):
            part = acc.evaluate(idx[sel], w, S[sel])
            assert len(part) == len(full)
            assert all(same(a, b[sel]) for a, b in zip(part, full))


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 40), k=st.integers(1, 8))
def test_quadratic_evaluate_singular_row_raises(seed, n, k):
    rng = np.random.default_rng(seed)
    acc = random_quadratic(rng, n, 2, 0.0)
    S = spread(rng, (k, n))
    S[int(rng.integers(0, k))] = 0.0
    with pytest.raises(ModelEvalError, match="singular denominator"):
        acc.evaluate(rng.integers(0, n, size=k), np.zeros(2), S)


@settings(max_examples=40, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5), k=st.integers(1, 8), zero_w=st.booleans())
def test_empirical_evaluate_matches_per_agent_methods(seed, n, k, zero_w):
    rng = np.random.default_rng(seed)
    acc = random_empirical(rng, n)
    # a zero model gives every class the same logit: all terms tie for the max
    w = np.zeros(acc.dim) if zero_w else rng.normal(size=acc.dim) * 2.0
    idx = rng.integers(0, n, size=k)
    out = check_rows(acc, idx, w, spread(rng, (k, n)))
    # the fourth column is the test loss itself, not r - value
    assert len(out) == 4 and out[3].shape == (k,)
    for r, i in enumerate(idx.tolist()):
        assert same(out[3][r], acc.test_loss(i, w))


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 50), cols=st.integers(1, 300),
       scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0, 1e300]), ties=st.booleans(),
       infinite=st.booleans())
def test_logsumexp_rows_matches_scipy_bit_for_bit(seed, rows, cols, scale, ties, infinite):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(rows, cols)) * scale
    if ties:
        logits = np.round(logits)  # repeated maxima in many rows
    if infinite:
        u = rng.random((rows, cols))
        logits[u < 0.1] = np.inf
        logits[u > 0.9] = -np.inf
        logits[rng.random(rows) < 0.2] = -np.inf  # rows with no finite term
    # the kernel is class-major: one column per row of logits
    class_major = np.ascontiguousarray(logits.T)
    with np.errstate(invalid="ignore"):
        top, shifted = _shifted_exp(class_major)
        expected = logsumexp(logits, axis=1)
    assert same(_logsumexp_rows(class_major, top, shifted), expected)


# ---------------------------------------------------------------------------
# The pool step against one worker per agent.


def step_game(rng, updater):
    if updater == "empirical":
        n = int(rng.integers(1, 4))
    elif rng.random() < 0.5:
        n = int(rng.integers(1, 7))
    else:  # the numpy form of the strategy derivatives
        n = int(rng.integers(VECTOR_ROWS, VECTOR_ROWS + 6))
    if updater == "empirical" or rng.random() < 0.25:
        acc = random_empirical(rng, n)
    else:
        acc = random_quadratic(rng, n, int(rng.integers(1, 4)), float(rng.choice([1e-6, 1.0])))
    s_max = rng.uniform(0.5, 40.0, size=n)
    agents = tuple(AgentSpec(id=i, s_max=float(s_max[i])) for i in range(n))
    payment = PaymentRule.linear(float(rng.uniform(0.0, 0.3))) if n >= 2 else PaymentRule.none()
    game = GameInstance(agents, acc, CostModel.linear(rng.uniform(0.0, 0.2, size=n)), payment, acc.dim)
    # contributions at the floor, at the ceiling and inside the box
    s = np.where(rng.random(n) < 0.3, 0.0, rng.uniform(0.0, 1.0, n) * s_max)
    s = np.where(rng.random(n) < 0.2, s_max, s)
    return game, s


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
@pytest.mark.parametrize("updater", ["analytic", "empirical"])
@pytest.mark.parametrize("phase", ["1", "2", "single"])
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS)
def test_pool_step_matches_per_agent_workers(phase, updater, w_grad_at, seed):
    rng = np.random.default_rng(seed)
    game, s = step_game(rng, updater)
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=5, updater=updater, w_grad_at=w_grad_at,
                    learn_rate=0.2)
    pool = LocalPool(game, cfg)
    workers = [AgentWorker(game, i, cfg) for i in range(game.n)]
    w = rng.normal(size=game.m)
    # two rounds, so the empirical updater's stored quotient is used too
    for t in range(2):
        s_next, grads = pool.step(t, phase, w, s)
        replies = [wk.step(t, phase, w, s) for wk in workers]
        if phase == "2":
            assert s_next is None
            assert all(s_i is None for s_i, _ in replies)
        else:
            assert all(s_i.shape == (1,) for s_i, _ in replies)
            assert same(s_next, np.concatenate([s_i for s_i, _ in replies]))
        if phase == "1":
            assert grads is None
            assert all(d_i is None for _, d_i in replies)
        else:
            assert all(d_i.shape == (1, game.m) for _, d_i in replies)
            assert same(grads, np.concatenate([d_i for _, d_i in replies]))
        if phase != "2":
            s = np.clip(s_next, 0.0, game.s_max)
        w = w + 0.1 * rng.normal(size=game.m)


def updated_profile_grads(game, w, s, s_next):
    """Every agent's gradient at s with its own entry replaced by s_next,
    from the full (n, n) profile: the reference for the pool step's
    updated-profile gradient."""
    S = np.tile(s, (game.n, 1))
    np.fill_diagonal(S, s_next)
    return game.accuracy.evaluate(game.ids, w, S)[2]


def spy_evaluate(mp, game):
    """Record each evaluate call's (idx, S) in the returned list."""
    calls = []
    original = type(game.accuracy).evaluate

    def spy(self, idx, w_in, S):
        calls.append((np.array(idx), np.array(S)))
        return original(self, idx, w_in, S)

    mp.setattr(type(game.accuracy), "evaluate", spy)
    return calls


def moved_profiles(s, ids, s_next):
    """The rows that re-evaluate the agents ids at s with their own entries
    replaced by s_next."""
    S = np.tile(s, (len(ids), 1))
    S[np.arange(len(ids)), ids] = s_next
    return S


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
@pytest.mark.parametrize("phase", ["1", "2", "single"])
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS)
def test_pool_step_reuses_the_record_rows(phase, w_grad_at, seed):
    """Given the round record's rows, the analytic pool step returns what it
    returns without them and evaluates nothing at (w, s) itself; the
    updated-profile gradient re-evaluates only the agents that moved, in
    one call, and equals the full (n, n) profile's bit for bit."""
    rng = np.random.default_rng(seed)
    game, s = step_game(rng, "analytic")
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=5, w_grad_at=w_grad_at)
    w = rng.normal(size=game.m)
    expected = LocalPool(game, cfg).step(0, phase, w, s)
    rows = evaluate_profile(game, w, s)
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_evaluate(mp, game)
        got = LocalPool(game, cfg).step(0, phase, w, s, rows)
    for a, b in zip(got, expected):
        assert (a is None) == (b is None)
        if a is not None:
            assert same(a, b)
    # only the gradient at the updated profile needs a call of its own
    if phase == "single" and w_grad_at == "updated":
        s_next, grads = got
        assert same(grads, updated_profile_grads(game, w, s, s_next))
        moved = np.flatnonzero(s_next.view(np.int64) != s.view(np.int64))
        if len(moved) == 0:
            assert calls == []
        else:
            [(idx, S)] = calls
            assert same(idx, moved)
            assert same(S, moved_profiles(s, moved, s_next[moved]))
    else:
        assert calls == []


@pytest.mark.parametrize("s,moved", [
    pytest.param([2.0, 2.0, 0.0, 2.0], [], id="none-moves"),
    pytest.param([2.0, 1.0, 0.0, 2.0], [1], id="one-moves"),
    # -0.0 + gamma * 0.0 is +0.0: equal in value, a move in bits
    pytest.param([2.0, 2.0, -0.0, 2.0], [2], id="signed-zero-moves"),
])
def test_updated_profile_gradient_evaluates_only_the_agents_that_moved(s, moved):
    """Agents pinned at the ceiling (derivative corrected to 0) or at the
    floor keep their record rows; a moving agent is evaluated alone, so one
    mover sends a single (1, n) row, the family's shared-row form."""
    game = quadratic_game(n=4, m=2, theta=(0.5, -1.0), sigma0=1.0, s_max=2.0,
                          cost_coeffs=(0.0, 0.0, 5.0, 0.0))
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=5)
    w, s = np.array([3.0, 1.0]), np.array(s)
    rows = evaluate_profile(game, w, s)
    given_grads = rows[2].copy()
    with pytest.MonkeyPatch.context() as mp:
        calls = spy_evaluate(mp, game)
        s_next, grads = LocalPool(game, cfg).step(0, "single", w, s, rows)
    assert same(grads, updated_profile_grads(game, w, s, s_next))
    assert same(rows[2], given_grads)  # the record's rows are left as given
    if not moved:
        assert calls == [] and same(grads, rows[2])
    else:
        [(idx, S)] = calls
        assert idx.tolist() == moved and S.shape == (1, game.n)
        assert same(S, moved_profiles(s, moved, s_next[moved]))


# ---------------------------------------------------------------------------
# The empirical step: no fused test-set pass of its own when given the
# record's rows, one per agent-round without them.


def empirical_config(w_grad_at):
    return RunConfig(gamma=0.5, eta=0.5, rounds=5, updater="empirical", w_grad_at=w_grad_at,
                     learn_rate=0.2)


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
@settings(max_examples=20, deadline=None)
@given(seed=SEEDS)
def test_empirical_step_gradients_are_evaluate_rows(w_grad_at, seed):
    rng = np.random.default_rng(seed)
    game, s = step_game(rng, "empirical")
    pool = LocalPool(game, empirical_config(w_grad_at))
    ids = np.arange(game.n)
    w = rng.normal(size=game.m)
    for t in range(2):
        s_next, grads = pool.step(t, "single", w, s)
        S = s[None, :].repeat(game.n, axis=0)
        if w_grad_at == "updated":
            S[ids, ids] = s_next
        assert same(grads, game.accuracy.evaluate(ids, w, S)[2])
        s = np.clip(s_next, 0.0, game.s_max)
        w = w + 0.1 * rng.normal(size=game.m)


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
def test_empirical_step_makes_one_fused_pass_per_agent(monkeypatch, w_grad_at):
    passes = Counter()
    for name in ("_cross_entropy_and_grad", "cross_entropy", "cross_entropy_grad"):
        def counted(*args, _name=name, _original=getattr(models, name)):
            passes[_name] += 1
            return _original(*args)

        monkeypatch.setattr(models, name, counted)
    rng = np.random.default_rng(11)
    game, _ = step_game(rng, "empirical")
    s = rng.uniform(0.5, 1.0, game.n) * game.s_max  # every agent trains on some rows
    cfg = empirical_config(w_grad_at)
    pool = LocalPool(game, cfg)
    workers = [AgentWorker(game, i, cfg) for i in range(game.n)]
    w = rng.normal(size=game.m)
    # per agent: the loss at the trained model and the training gradient;
    # the loss and gradient at w come from the record's rows ...
    given_rows = {"cross_entropy": game.n, "cross_entropy_grad": game.n}
    # ... or, for an agent stepped without them, from its own fused pass
    own_rows = {"_cross_entropy_and_grad": game.n, **given_rows}
    for t in range(3):
        rows = evaluate_profile(game, w, s)
        passes.clear()
        pool.step(t, "single", w, s, rows)
        assert passes == given_rows
        passes.clear()
        for wk in workers:
            wk.step(t, "single", w, s)
        assert passes == own_rows
        w = w + 0.1 * rng.normal(size=game.m)


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS)
def test_empirical_step_with_record_rows_matches_step_without(w_grad_at, seed):
    """Over several rounds, a pool given the record's rows and a pool that
    evaluates its own return the same replies and keep the same quotients."""
    rng = np.random.default_rng(seed)
    game, s = step_game(rng, "empirical")
    cfg = empirical_config(w_grad_at)
    with_rows, own = LocalPool(game, cfg), LocalPool(game, cfg)
    w = rng.normal(size=game.m)
    for t in range(4):
        got = with_rows.step(t, "single", w, s, evaluate_profile(game, w, s))
        expected = own.step(t, "single", w, s, None)
        for a, b in zip(got, expected):
            assert same(a, b)
        s = np.clip(got[0], 0.0, game.s_max)
        w = w + 0.1 * rng.normal(size=game.m)
    assert same(with_rows._last_quotient, own._last_quotient)


# ---------------------------------------------------------------------------
# The best-response scan against one utility evaluation per grid point.


def scalar_best_response(g, w, s, i, grid_points=201):
    """best_response with the grid scanned one _own_utility call at a time."""
    xs = np.linspace(0.0, g.agents[i].s_max, grid_points)

    def f(x):
        return _own_utility(g, i, w, s, x)

    vals = [f(x) for x in xs]
    best = 0
    for k in range(1, grid_points):
        if vals[k] > vals[best]:
            best = k
    x_ref, v_ref = _golden_max(
        f, float(xs[max(best - 1, 0)]), float(xs[min(best + 1, grid_points - 1)]), GOLDEN_XTOL
    )
    if v_ref > vals[best]:
        return x_ref, v_ref
    return float(xs[best]), vals[best]


def scan_game(rng):
    n = int(rng.integers(1, 30))
    sigma0 = float(rng.choice([0.0, 1e-6, 1.0]))
    acc = random_empirical(rng, n) if rng.random() < 0.2 else random_quadratic(
        rng, n, int(rng.integers(1, 4)), sigma0
    )
    s_max = rng.uniform(0.5, 5.0, size=n)
    if rng.random() < 0.5:
        cost = CostModel.linear(rng.uniform(0.0, 0.2, size=n))
    else:
        cost = CostModel.polynomial([tuple(rng.uniform(0.0, 0.1, size=2)) for _ in range(n)])
    payment = PaymentRule.linear(float(rng.uniform(0.0, 0.3))) if n >= 2 else PaymentRule.none()
    agents = tuple(AgentSpec(id=i, s_max=float(s_max[i])) for i in range(n))
    game = GameInstance(agents, acc, cost, payment, acc.dim)
    s = rng.uniform(0.0, 1.0, n) * s_max
    if sigma0 == 0.0 and rng.random() < 0.5:
        s[:] = 0.0  # the zero contribution is singular: it must score -inf
    return game, s


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, grid_points=st.sampled_from([3, 17, 201]))
def test_batched_best_response_matches_scalar_scan(seed, grid_points):
    rng = np.random.default_rng(seed)
    game, s = scan_game(rng)
    w = rng.normal(size=game.m)
    i = int(rng.integers(0, game.n))
    xs = np.linspace(0.0, game.agents[i].s_max, grid_points)
    assert same(_scan(game, i, w, s, xs), [_own_utility(game, i, w, s, x) for x in xs])
    x_b, v_b = best_response(game, w, s, i, grid_points)
    x_s, v_s = scalar_best_response(game, w, s, i, grid_points)
    assert same(x_b, x_s) and same(v_b, v_s)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, grid_points=st.sampled_from([3, 17, 201]))
def test_lockstep_certificate_matches_scalar_reference(seed, grid_points):
    """Every agent refined in lockstep (in blocks of grid_points agents)
    gives the best responses of its own scalar search, and certify_nash the
    regrets against one _own_utility call per agent; a -inf current utility
    is rejected, naming the first agent that has one."""
    rng = np.random.default_rng(seed)
    game, s = scan_game(rng)
    w = rng.normal(size=game.m)
    ref = [scalar_best_response(game, w, s, i, grid_points) for i in range(game.n)]
    x, v = best_response(game, w, s, game.ids, grid_points)
    assert same(x, [r[0] for r in ref]) and same(v, [r[1] for r in ref])
    per_id = [best_response(game, w, s, i, grid_points) for i in range(game.n)]
    assert same(x, [p[0] for p in per_id]) and same(v, [p[1] for p in per_id])
    current = [_own_utility(game, i, w, s, float(s[i])) for i in range(game.n)]
    if -inf in current:
        with pytest.raises(ConfigError, match=f"^agent {current.index(-inf)}'s utility"):
            certify_nash(game, w, s, 1e-6, grid_points)
        return
    cert = certify_nash(game, w, s, 1e-6, grid_points)
    assert same(cert.best_responses, [r[0] for r in ref])
    assert same(cert.regrets, [r[1] - u for r, u in zip(ref, current)])


class NaNWhere:
    """An accuracy model that reads NaN wherever bad(i, s_i) holds, and
    the wrapped model's accuracy elsewhere."""

    def __init__(self, inner, bad):
        self.inner, self.bad = inner, bad
        self.n_agents, self.dim = inner.n_agents, inner.dim

    def evaluate(self, idx, w, S):
        values, *rest = self.inner.evaluate(idx, w, S)
        S = np.broadcast_to(S, (len(idx), np.shape(S)[-1]))
        hit = [self.bad(i, float(s[i])) for i, s in zip(np.asarray(idx).tolist(), S)]
        return (np.where(hit, nan, values), *rest)

    def value(self, i, w, s):
        return nan if self.bad(i, float(s[i])) else self.inner.value(i, w, s)


def scalar_certify(game, w, s):
    """certify_nash's checks in the agent-by-agent order: agent i's best
    response, then its current utility."""
    for i in range(game.n):
        scalar_best_response(game, w, s, i)
        _own_utility(game, i, w, s, float(s[i]))


GRID = np.linspace(0.0, 2.0, 201)  # separable_game's grid: s_max = 2, 201 points


@pytest.mark.parametrize("s0, bad0, first", [
    pytest.param(
        1.0, lambda x: abs(x - 0.5) < 1e-6 and x not in GRID,
        "utility is NaN for agent 0 at s_i=0.49999", id="refine",
    ),
    pytest.param(
        1.005, lambda x: x == 1.005, "utility is NaN for agent 0 at s_i=1.005", id="current",
    ),
])
def test_the_lowest_failing_agent_raises_first(s0, bad0, first):
    """Agent 1 meets a NaN in its scan, at s_max, before agent 0 meets one
    late in its refine (near its optimum 0.5 but off the grid) or at its
    current contribution (1.005, off the grid): the lockstep raises agent
    0's error, as the agent-by-agent search does."""
    base = separable_game(n=2)

    def bad(i, x):
        return bad0(x) if i == 0 else x == 2.0

    game = GameInstance(base.agents, NaNWhere(base.accuracy, bad), base.cost, base.payment, base.m)
    w, s = np.zeros(game.m), np.array([s0, 1.0])
    with pytest.raises(NumericError, match="^utility is NaN for agent 1 at s_i=2.0$"):
        best_response(game, w, s, 1)
    with pytest.raises(NumericError) as reference:
        scalar_certify(game, w, s)
    assert str(reference.value).startswith(first)
    with pytest.raises(NumericError) as certify:
        certify_nash(game, w, s, 1e-6)
    assert str(certify.value) == str(reference.value)
    if s0 == 1.0:
        with pytest.raises(NumericError) as lockstep:
            best_response(game, w, s, game.ids)
        assert str(lockstep.value) == str(reference.value)


# ---------------------------------------------------------------------------
# Oracle calls per round: the record's one evaluate, which the step reuses,
# plus one at the updated profile when single rounds take the gradient there.

ORACLE_METHODS = ("evaluate", "value", "grad_w", "dsi")


@pytest.fixture
def oracle_calls(monkeypatch):
    """Each oracle call, as (method, t) with t the round of the pool step
    in progress, or None outside a step (the round record's calls)."""
    calls = []
    current = {"t": None}
    for name in ORACLE_METHODS:
        original = getattr(QuadraticAccuracy, name)

        def counted(self, *args, _name=name, _original=original):
            calls.append((_name, current["t"]))
            return _original(self, *args)

        monkeypatch.setattr(QuadraticAccuracy, name, counted)
    step = LocalPool.step

    def stepping(self, t, *args):
        current["t"] = t
        try:
            return step(self, t, *args)
        finally:
            current["t"] = None

    monkeypatch.setattr(LocalPool, "step", stepping)
    return calls


@pytest.mark.parametrize("algorithm,w_grad_at,phases,per_round", [
    pytest.param("upbred", "updated", {"single"}, 2, id="upbred-updated"),
    pytest.param("upbred", "current", {"single"}, 1, id="upbred-current"),
    pytest.param("2p-upbred", "updated", {"1", "2"}, 1, id="2p-upbred-updated"),
    pytest.param("fedavg-strategic", "updated", {"1", "2"}, 1, id="fedavg-strategic-updated"),
    pytest.param("fedavg", "updated", {"single"}, 1, id="fedavg-updated"),
])
def test_oracle_calls_per_round_do_not_grow_with_n(
    oracle_calls, algorithm, w_grad_at, phases, per_round
):
    for n in (5, 50):
        g = quadratic_game(
            n=n, m=3, theta=(0.8, -0.4, 0.3), sigma0=1.0, s_max=2.0,
            cost_coeffs=np.linspace(0.02, 0.1, n), payment=PaymentRule.linear(0.12),
        )
        cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, eps=1e-14, w_grad_at=w_grad_at)
        oracle_calls.clear()
        trace = run_dynamic(g, cfg, algorithm, s0=np.full(n, 0.5))
        assert trace.outcome == "MaxRounds"
        assert {rec.phase for rec in trace.records} == phases
        assert {name for name, _ in oracle_calls} == {"evaluate"}
        # one call per record, plus one for the round a two-phase handover
        # moves onto the ceiling, which is then recorded at the new profile
        record_calls = sum(t is None for _, t in oracle_calls)
        assert record_calls == len(trace.records) + (algorithm == "2p-upbred")
        # every round but the last steps; a step evaluates only at the
        # updated profile of a single round
        stepped = sorted({rec.t for rec in trace.records} - {trace.final.t})
        step_calls = Counter(t for _, t in oracle_calls if t is not None)
        assert sorted(step_calls.elements()) == stepped * (per_round - 1)


def test_certify_makes_one_oracle_call_per_refine_step(oracle_calls):
    """n scans, the two starting points, one call per golden-section step,
    the final midpoints and the current utilities: the refine's calls do
    not grow with n, and no call is a one-agent value."""
    n = 50
    g = quadratic_game(
        n=n, m=3, theta=(0.8, -0.4, 0.3), sigma0=1.0, s_max=np.linspace(1.0, 2.0, n),
        cost_coeffs=np.linspace(0.02, 0.1, n), payment=PaymentRule.linear(0.12),
    )
    rng = np.random.default_rng(0)
    certify_nash(g, rng.normal(size=3), rng.uniform(0.0, 1.0, n), 1e-6)
    h = float(g.s_max.max()) / 200
    steps = ceil(log(2.0 * h / GOLDEN_XTOL) / log((1.0 + sqrt(5.0)) / 2.0))
    names = Counter(name for name, _ in oracle_calls)
    assert set(names) == {"evaluate"}
    assert n + 4 <= names["evaluate"] <= n + 4 + steps


@pytest.mark.parametrize("algorithm", ["upbred", "2p-upbred", "fedavg-strategic", "fedavg"])
def test_one_strategy_derivative_per_recorded_round(monkeypatch, algorithm):
    """The handover, the record and the pool step share one
    strategy_derivatives call per round, in both of its forms."""
    calls = []
    original = core.strategy_derivatives

    def counted(*args):
        calls.append(len(args[1]))
        return original(*args)

    monkeypatch.setattr(core, "strategy_derivatives", counted)
    monkeypatch.setattr(dynamics, "strategy_derivatives", counted)
    for n in (5, 50):
        g = quadratic_game(
            n=n, m=3, theta=(0.8, -0.4, 0.3), sigma0=1.0, s_max=2.0,
            cost_coeffs=np.linspace(0.02, 0.1, n), payment=PaymentRule.linear(0.12),
        )
        cfg = RunConfig(gamma=0.5, eta=0.5, rounds=10, eps=1e-14)
        calls.clear()
        trace = run_dynamic(g, cfg, algorithm, s0=np.full(n, 0.5))
        assert trace.outcome == "MaxRounds" and len(trace.records) > 10
        assert calls == [n] * len(trace.records)


# ---------------------------------------------------------------------------
# A remote agent evaluates only its own row.


def test_remote_agent_evaluates_only_its_own_row(monkeypatch):
    calls = []
    original = QuadraticAccuracy.evaluate

    def spy(self, idx, w, S):
        calls.append((threading.get_ident(), np.asarray(idx).tolist()))
        return original(self, idx, w, S)

    monkeypatch.setattr(QuadraticAccuracy, "evaluate", spy)
    g = quadratic_game(
        n=3, m=2, theta=(1.0, 2.0), sigma0=1.0, s_max=5.0,
        cost_coeffs=(0.04, 0.02, 0.03), payment=PaymentRule.linear(0.05),
    )
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=20, eps=1e-12)
    fed = run_inprocess_federation(g, cfg, "upbred", s0=np.full(3, 1.0), timeout=10.0)
    assert fed.agent_status == [0, 0, 0]
    center = threading.get_ident()
    by_agent: dict[int, set] = {}
    for thread, idx in calls:
        if thread == center:
            continue
        assert len(idx) == 1, idx
        by_agent.setdefault(thread, set()).update(idx)
    assert sorted(ids for ids in map(tuple, by_agent.values())) == [(0,), (1,), (2,)]
    # the center's round record covers every agent in one call
    assert [0, 1, 2] in [idx for thread, idx in calls if thread == center]
