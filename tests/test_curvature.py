"""Finite-difference curvature estimation against its per-point form.

estimate_matrices evaluates its stencils in batches: one evaluate call per
agent for G, one shared-row evaluate per distinct w point for G~, and one
evaluate per agent and w-variant for H and H~.  The reference below is the
per-point form it replaced, one scalar oracle call per stencil point in the
order the four blocks read them.  Both must give the same bytes, raise the
same error with the same text, and the batched form must stay within its
call count and profile size.

assumption_samples draws its points from _sobol, which builds scipy's
unscrambled Sobol sequence with numpy from the first 1111 dimensions of the
Joe-Kuo direction-number table, shipped with the package.  It must match
scipy.stats.qmc.Sobol byte for byte over those dimensions and refuse more;
importing the package and running `fedgame bounds` must not load
scipy.stats, and the CLI must give the same bytes with scipy not importable.
"""

import subprocess
import sys
import warnings
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame.analysis import FD_STEP, _sobol, assumption_samples, estimate_matrices
from fedgame.config import build_scenario, parse_scenario
from fedgame.core import (
    AgentSpec,
    ConfigError,
    GameInstance,
    ModelEvalError,
    NumericError,
    PaymentRule,
)
from fedgame.models import CostModel, QuadraticAccuracy
from fedgame.scenarios import builtin_names, builtin_text

from conftest import _own_utility, separable_game, src_env

SEEDS = st.integers(0, 2**32 - 1)


# ---------------------------------------------------------------------------
# The per-point reference.


def _second_difference(f, x, h, p, q):
    def f_at(dp, dq):
        y = x.copy()
        y[p] += dp
        y[q] += dq
        return f(y)

    hp, hq = h[p], h[q]
    if p == q:
        return (f_at(hp, 0.0) - 2.0 * f(x) + f_at(-hp, 0.0)) / hp**2
    return (f_at(hp, hq) - f_at(hp, -hq) - f_at(-hp, hq) + f_at(-hp, -hq)) / (4.0 * hp * hq)


def reference_matrices(g, w, s):
    """estimate_matrices with one scalar value call per stencil point."""
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= g.s_max):
        raise ConfigError("curvature estimation requires a strictly interior profile")
    n, m = g.n, g.m
    x = np.concatenate([w, s])
    h = np.array([FD_STEP * max(1.0, abs(v)) for v in x.tolist()])
    h[m:] = np.minimum(h[m:], np.minimum(s, g.s_max - s) / 2.0)
    if np.any(h[m:] <= 0.0):
        raise ConfigError("profile too close to the boundary for two-sided differences")

    def u(i):
        return lambda xv: _own_utility(g, i, xv[:m], xv[m:], float(xv[m + i]))

    def acc_sum(xv):
        wv, sv = xv[:m], xv[m:]
        return sum(g.accuracy.value(i, wv, sv) for i in range(n))

    d2 = _second_difference
    G = np.array([[d2(u(i), x, h, m + i, m + j) for j in range(n)] for i in range(n)])
    Gt = np.array([[d2(acc_sum, x, h, k, l) for l in range(m)] for k in range(m)]) / n
    H = np.array([[d2(u(i), x, h, k, m + i) for k in range(m)] for i in range(n)])
    Ht = np.array([[d2(acc_sum, x, h, k, m + j) for j in range(n)] for k in range(m)])

    for name, arr in (("G", G), ("G_tilde", Gt), ("H", H), ("H_tilde", Ht)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite entries in estimated {name}")
    return G, Gt, H, Ht


# ---------------------------------------------------------------------------
# Byte equality with the reference, call counts and profile sizes.


class Counting:
    """An accuracy family that counts its oracle calls and records the most
    rows any evaluate call was given."""

    def __init__(self, inner):
        self.inner = inner
        self.n_agents = inner.n_agents
        self.dim = inner.dim
        self.calls = Counter()
        self.rows = 0

    def evaluate(self, idx, w, S):
        self.calls["evaluate"] += 1
        self.rows = max(self.rows, np.shape(S)[0])
        return self.inner.evaluate(idx, w, S)

    def value(self, i, w, s):
        self.calls["value"] += 1
        return self.inner.value(i, w, s)


def check_against_reference(g, w, s):
    """The batched estimate has the reference's bytes, makes no value call,
    at most n + 2 m^2 + 1 + 2 m n evaluate calls, and hands evaluate no
    profile of more than 4 n rows."""
    counting = Counting(g.accuracy)
    batched = GameInstance(g.agents, counting, g.cost, g.payment, g.m)
    est = estimate_matrices(batched, w, s)
    got = (est.G, est.G_tilde, est.H, est.H_tilde)
    for name, a, b in zip(("G", "G_tilde", "H", "H_tilde"), got, reference_matrices(g, w, s)):
        assert a.shape == b.shape and a.tobytes() == b.tobytes(), name
    n, m = g.n, g.m
    assert counting.calls["value"] == 0
    assert counting.calls["evaluate"] <= n + 2 * m * m + 1 + 2 * m * n
    assert counting.rows <= 4 * n


def random_cost(rng, n, polynomial):
    if polynomial:
        return CostModel.polynomial(
            [tuple(rng.uniform(0.0, 0.1, size=int(rng.integers(1, 4)))) for _ in range(n)]
        )
    return CostModel.linear(rng.uniform(0.0, 0.2, size=n))


def interior(rng, s_max):
    return rng.uniform(0.05, 0.95, size=len(s_max)) * s_max


@settings(max_examples=40, deadline=None)
@given(
    seed=SEEDS,
    n=st.integers(2, 8),
    m=st.integers(1, 4),
    polynomial=st.booleans(),
    paid=st.booleans(),
)
def test_quadratic_matches_reference(seed, n, m, polynomial, paid):
    rng = np.random.default_rng(seed)
    acc = QuadraticAccuracy(
        theta=rng.normal(size=m), r=rng.normal(size=n), sigma0=float(rng.choice([1e-6, 1.0]))
    )
    s_max = rng.uniform(0.5, 5.0, size=n)
    agents = tuple(AgentSpec(id=i, s_max=float(s_max[i])) for i in range(n))
    payment = PaymentRule.linear(float(rng.uniform(0.0, 0.3))) if paid else PaymentRule.none()
    g = GameInstance(agents, acc, random_cost(rng, n, polynomial), payment, m)
    # |w| on both sides of 1, so the w steps take both branches of max(1, |v|)
    w = rng.normal(size=m) * 10.0 ** rng.uniform(-1.0, 1.0)
    check_against_reference(g, w, interior(rng, s_max))


@settings(max_examples=20, deadline=None)
@given(seed=SEEDS, n=st.integers(1, 5), m=st.integers(1, 3))
def test_separable_matches_reference(seed, n, m):
    rng = np.random.default_rng(seed)
    g = separable_game(n=n, m=m)
    check_against_reference(g, rng.normal(size=m), interior(rng, g.s_max))


def empirical_small():
    return build_scenario(parse_scenario(builtin_text("empirical-small"), [])).game


@settings(max_examples=8, deadline=None)
@given(seed=SEEDS)
def test_empirical_matches_reference(seed):
    rng = np.random.default_rng(seed)
    g = empirical_small()
    check_against_reference(g, rng.normal(size=g.m), interior(rng, g.s_max))


def test_quadratic_scenario_samples_match_reference():
    g = build_scenario(parse_scenario(builtin_text("quad5"), [])).game
    for w, s in assumption_samples(g, count=4):
        check_against_reference(g, w, s)


# ---------------------------------------------------------------------------
# Error parity: a failing stencil point raises what the per-point form raised.

W0 = np.array([0.3, -0.2])
S0 = np.array([0.7, 1.0, 1.3])


class RiggedAccuracy:
    """A quadratic family that fails where rig(i, w, s) says: "nan" gives a
    NaN accuracy, "error" a ModelEvalError naming the agent and the point.
    evaluate raises for the first failing row, as the contract asks."""

    def __init__(self, rig):
        self.base = QuadraticAccuracy(theta=np.array([0.8, -0.4]), r=np.ones(3), sigma0=1.0)
        self.rig = rig
        self.n_agents = 3
        self.dim = 2

    def value(self, i, w, s):
        w = np.asarray(w, dtype=float)
        s = np.asarray(s, dtype=float)
        kind = self.rig(i, w, s)
        if kind == "error":
            raise ModelEvalError(f"rigged: agent {i} at w={w.tolist()} s={s.tolist()}")
        v = self.base.value(i, w, s)
        return float("nan") if kind == "nan" else v

    def evaluate(self, idx, w, S):
        S = np.broadcast_to(S, (len(idx), np.shape(S)[-1]))
        values = np.array([self.value(i, w, s) for i, s in zip(np.asarray(idx).tolist(), S)])
        return values, np.zeros(len(values)), np.zeros((len(values), self.dim))


def rigged_game(rig):
    agents = tuple(AgentSpec(id=i, s_max=2.0) for i in range(3))
    cost = CostModel.linear([0.02, 0.04, 0.06])
    return GameInstance(agents, RiggedAccuracy(rig), cost, PaymentRule.linear(0.12), 2)


# Each case names a rig and the error it must end in.  The stencil steps at
# (W0, S0) are 1e-4 in w, s_0 and s_1 and 1.3e-4 in s_2.
RIGS = {
    # own utility NaN at G points of agents 1 and 2; agent 1 is read first,
    # and its first NaN is the (s_1 - h, s_2 + h) point
    "nan-at-G": (
        lambda i, w, s: "nan" if (
            (i == 1 and s[2] != S0[2] and s[1] < S0[1]) or (i == 2 and s[0] != S0[0])
        ) else None,
        NumericError, "utility is NaN for agent 1 at s_i=0.9999",
    ),
    # own utility NaN at H points of agent 1 (w_1 moved) and agent 2 (w_0
    # moved): H is read agent by agent, so agent 1's (+, +) point comes first
    "nan-at-H": (
        lambda i, w, s: "nan" if (
            (i == 1 and w[1] != W0[1] and s[1] != S0[1])
            or (i == 2 and w[0] != W0[0] and s[2] != S0[2])
        ) else None,
        NumericError, "utility is NaN for agent 1 at s_i=1.0001",
    ),
    # a G point only (two contributions moved): it scores -inf
    "error-at-G": (
        lambda i, w, s: "error" if (i == 0 and s[0] > S0[0] and s[1] > S0[1]) else None,
        NumericError, "non-finite entries in estimated G",
    ),
    # a G~ point only (two model coordinates moved): the sum propagates it,
    # agent 0's first
    "error-at-G_tilde": (
        lambda i, w, s: "error" if (w[0] > W0[0] and w[1] > W0[1]) else None,
        ModelEvalError, "rigged: agent 0 at w=[0.3001, -0.19990000000000002] s=[0.7, 1.0, 1.3]",
    ),
    # two H~ points that are no H point: (w_1 - h, s_0 + h) for agent 2 is
    # read before (w_1 - h, s_2 + h) for agent 0
    "error-at-H_tilde": (
        lambda i, w, s: "error" if (
            (i == 0 and w[1] < W0[1] and s[2] > S0[2])
            or (i == 2 and w[1] < W0[1] and s[0] > S0[0])
        ) else None,
        ModelEvalError, "rigged: agent 2 at w=[0.3, -0.2001] s=[0.7001, 1.0, 1.3]",
    ),
    # an H point: H scores it -inf, then the H~ sum propagates it
    "error-at-H": (
        lambda i, w, s: "error" if (i == 1 and w[0] > W0[0] and s[1] > S0[1]) else None,
        ModelEvalError, "rigged: agent 1 at w=[0.3001, -0.2] s=[0.7, 1.0001, 1.3]",
    ),
    # a NaN at an H point is raised before an error at an H~ point
    "nan-at-H-before-error-at-H_tilde": (
        lambda i, w, s: (
            "nan" if (i == 1 and w[1] != W0[1] and s[1] != S0[1])
            else "error" if (i == 0 and w[0] != W0[0] and s[2] != S0[2])
            else None
        ),
        NumericError, "utility is NaN for agent 1 at s_i=1.0001",
    ),
    # NaN accuracies at points that only the sums read
    "nan-at-G_tilde": (
        lambda i, w, s: "nan" if (i == 2 and w[0] != W0[0] and w[1] != W0[1]) else None,
        NumericError, "non-finite entries in estimated G_tilde",
    ),
    "nan-at-H_tilde": (
        lambda i, w, s: "nan" if (i == 0 and w[0] != W0[0] and s[1] != S0[1]) else None,
        NumericError, "non-finite entries in estimated H_tilde",
    ),
}


@pytest.mark.parametrize("case", sorted(RIGS))
def test_failing_point_raises_what_the_per_point_form_raised(case):
    rig, cls, text = RIGS[case]
    g = rigged_game(rig)
    with pytest.raises(cls) as ref:
        reference_matrices(g, W0, S0)
    with pytest.raises(cls) as got:
        estimate_matrices(g, W0, S0)
    assert str(got.value) == str(ref.value) == text


def test_unrigged_game_estimates_finite_blocks():
    # so each error above comes from its rig
    g = rigged_game(lambda i, w, s: None)
    est = estimate_matrices(g, W0, S0)
    assert all(np.isfinite(a).all() for a in (est.G, est.G_tilde, est.H, est.H_tilde))


# ---------------------------------------------------------------------------
# The Sobol points are scipy's, and neither the package nor `bounds` loads
# scipy.stats.


@pytest.mark.parametrize("count", [1, 3, 6, 64, 100])
@pytest.mark.parametrize("d", [1, 2, 3, 8, 230, 1111, 21201])
def test_sobol_matches_scipy_bit_for_bit(d, count):
    if d > 1111:  # past the shipped table, where scipy still has rows
        with pytest.raises(ConfigError, match=f"at most 1111 dimensions, got {d}$"):
            _sobol(d, count)
        return
    from scipy.stats import qmc

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # count is not a power of 2
        ref = qmc.Sobol(d=d, scramble=False).random(count)
    got = _sobol(d, count)
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert got.tobytes() == ref.tobytes()


@pytest.mark.parametrize("d, count, message", [
    (1112, 1, "Sobol points have at most 1111 dimensions, got 1112"),
    (2, 2**30 + 1, "at most 2**30 Sobol points can be drawn, got 1073741825"),
], ids=["too-many-dimensions", "too-many-points"])
def test_sobol_rejects_what_scipy_rejects(d, count, message):
    with pytest.raises(ConfigError) as got:
        _sobol(d, count)
    assert str(got.value) == message


@pytest.mark.parametrize("code", [
    "import sys, fedgame, fedgame.cli",
    "import sys; from fedgame import cli; cli.main(['bounds', '--config', 'quad5'])",
], ids=["import", "bounds"])
def test_import_leaves_scipy_stats_unloaded(tmp_path, code):
    code += "; print('scipy.stats' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code], env=src_env(), cwd=tmp_path,
        capture_output=True, text=True, check=True,
    )
    assert out.stdout.splitlines()[-1] == "False"


# numpy is the package's one runtime dependency: with every scipy import
# refused, the CLI gives the same bytes on every bundled scenario.

REFUSE_SCIPY = """
import sys
from importlib.abc import MetaPathFinder

class RefuseScipy(MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] == "scipy":
            raise ModuleNotFoundError(f"No module named {name!r}", name=name)

sys.meta_path.insert(0, RefuseScipy())
"""

CLI_ON_BUNDLED = """
import importlib.util, sys
from fedgame import cli, scenarios

for name in scenarios.builtin_names():
    for argv in (
        ["run", "--config", name, "--out", "out"],
        ["certify", "--config", name, "--trace", f"out/{name}.csv"],
        ["bounds", "--config", name, "--samples", "8", "--out", "out"],
    ):
        print(argv, "exit", cli.main(argv), flush=True)
try:
    importlib.util.find_spec("scipy")
except ModuleNotFoundError:
    print("scipy refused", file=sys.stderr)
"""


def test_cli_output_does_not_depend_on_scipy(tmp_path):
    results = {}
    for label, code in (("open", CLI_ON_BUNDLED), ("refused", REFUSE_SCIPY + CLI_ON_BUNDLED)):
        cwd = tmp_path / label
        cwd.mkdir()
        proc = subprocess.run(
            [sys.executable, "-c", code], env=src_env(), cwd=cwd,
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert ("scipy refused" in proc.stderr) == (label == "refused")
        results[label] = (proc.stdout, {p.name: p.read_bytes() for p in (cwd / "out").iterdir()})
    out, files = results["refused"]
    assert out.count("'run'") == out.count("'bounds'") == len(builtin_names()) == 6
    assert len(files) == 18
    assert results["refused"] == results["open"]
