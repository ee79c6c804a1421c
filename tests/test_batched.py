"""The batched accuracy oracle and its three hot callers.

evaluate, the pool step and the best-response scan each agree bit for bit
with their per-agent forms; a round makes a fixed number of oracle calls,
and the pool step reuses the round record's rows; a remote agent evaluates
only its own row; the empirical step's gradients are evaluate rows, taken
from one fused test-set pass.
"""

import threading
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fedgame import models
from fedgame.analysis import GOLDEN_XTOL, _golden_max, _own_utility, _scan, best_response
from fedgame.core import (
    VECTOR_ROWS,
    AgentSpec,
    GameInstance,
    ModelEvalError,
    PaymentRule,
    evaluate_profile,
)
from fedgame.dynamics import AgentWorker, LocalPool, RunConfig, _clamp, run_dynamic
from fedgame.federation import run_inprocess_federation
from fedgame.models import (
    CostModel,
    EmpiricalAccuracy,
    QuadraticAccuracy,
    _logsumexp_rows,
    _shifted_exp,
    synth_dataset,
)

from conftest import quadratic_game

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
    values, dsi, grads = acc.evaluate(idx, w, S)
    assert values.shape == dsi.shape == (len(idx),)
    assert grads.shape == (len(idx), acc.dim)
    for r, i in enumerate(idx.tolist()):
        assert same(values[r], acc.value(i, w, S[r]))
        assert same(dsi[r], acc.dsi(i, w, S[r]))
        assert same(grads[r], acc.grad_w(i, w, S[r]))


@settings(max_examples=80, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 300), k=st.integers(1, 12),
       sigma0=st.sampled_from([0.0, 1e-6, 1.0]))
def test_quadratic_evaluate_matches_per_agent_methods(seed, n, k, sigma0):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 6))
    acc = random_quadratic(rng, n, m, sigma0)
    idx = rng.integers(0, n, size=k)  # ids may repeat
    S = spread(rng, (k, n))
    check_rows(acc, idx, rng.normal(size=m) * 3.0, S)
    # every row at one profile, as the round record asks
    check_rows(acc, np.arange(n), rng.normal(size=m), S[:1].repeat(n, axis=0))


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
    check_rows(acc, rng.integers(0, n, size=k), w, spread(rng, (k, n)))


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


@pytest.mark.parametrize("w_grad_at", ["updated", "current"])
@pytest.mark.parametrize("phase", ["1", "2", "single"])
@settings(max_examples=12, deadline=None)
@given(seed=SEEDS)
def test_pool_step_reuses_the_record_rows(phase, w_grad_at, seed):
    """Given the round record's rows, the analytic pool step returns what it
    returns without them and evaluates nothing at (w, s) itself."""
    rng = np.random.default_rng(seed)
    game, s = step_game(rng, "analytic")
    cfg = RunConfig(gamma=0.5, eta=0.5, rounds=5, w_grad_at=w_grad_at)
    w = rng.normal(size=game.m)
    expected = LocalPool(game, cfg).step(0, phase, w, s)
    rows = evaluate_profile(game, w, s)
    profiles = []
    original = type(game.accuracy).evaluate

    def spy(self, idx, w_in, S):
        profiles.append(np.array(S))
        return original(self, idx, w_in, S)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(type(game.accuracy), "evaluate", spy)
        got = LocalPool(game, cfg).step(0, phase, w, s, rows)
    for a, b in zip(got, expected):
        assert (a is None) == (b is None)
        if a is not None:
            assert same(a, b)
    # only the gradient at the updated profile needs a call of its own
    if phase == "single" and w_grad_at == "updated":
        updated = np.tile(s, (game.n, 1))
        np.fill_diagonal(updated, got[0])
        assert len(profiles) == 1 and same(profiles[0], updated)
    else:
        assert profiles == []


EDGE_FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, 2.0, np.nextafter(2.0, 3.0)]),
)


@settings(max_examples=200, deadline=None)
@given(xs=st.lists(st.tuples(EDGE_FLOATS, st.sampled_from([1.0, 2.0, 1e-300, 40.0])),
                   min_size=1, max_size=30))
def test_clamp_equals_python_min_max(xs):
    x = np.array([v for v, _ in xs])
    hi = np.array([h for _, h in xs])
    expected = [min(max(v, 0.0), h) for v, h in xs]
    assert same(_clamp(x, hi), expected)


# ---------------------------------------------------------------------------
# The empirical step: one fused test-set pass per agent-round.


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
    # per agent: the fused loss-and-gradient pass at w, the loss at the
    # trained model and the training gradient
    expected = {"_cross_entropy_and_grad": game.n, "cross_entropy": game.n,
                "cross_entropy_grad": game.n}
    for t in range(3):
        passes.clear()
        pool.step(t, "single", w, s)
        assert passes == expected
        passes.clear()
        for wk in workers:
            wk.step(t, "single", w, s)
        assert passes == expected
        w = w + 0.1 * rng.normal(size=game.m)


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
