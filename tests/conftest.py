"""Shared fixtures: the two-agent running example, a five-agent quadratic
instance, and a separable game with hand-computable curvature constants.

Also the references that only tests need: one agent's utility and a
scalar golden-section search, the closed-form curvature of the quadratic
family, the canonical scenario text that parse_scenario must read back
exactly, and a full federated run with every agent on a thread, joined to
the center by a socketpair."""

import configparser
import io
import os
import socket
import threading
from dataclasses import dataclass
from math import inf, isnan, sqrt
from pathlib import Path

import numpy as np
import pytest

from fedgame.analysis import Matrices
from fedgame.config import _FIELDS, ScenarioConfig, _applies
from fedgame.core import (
    AgentSpec,
    GameInstance,
    ModelEvalError,
    NumericError,
    PaymentRule,
    payment,
    sq_norm,
)
from fedgame.dynamics import RunConfig
from fedgame.federation import DEFAULT_TIMEOUT, SocketChannel, run_agent, serve_center
from fedgame.models import CostModel, QuadraticAccuracy

# (number, name, "PASS"/"FAIL") entries filled in by tests/test_acceptance.py
ACCEPTANCE_RESULTS: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.ensure_newline()
    terminalreporter.section("acceptance criteria")
    for num, name, status in sorted(ACCEPTANCE_RESULTS):
        terminalreporter.write_line(f"criterion {num:02d} {name}: {status}")


def src_env() -> dict:
    """This environment with the checkout's src/ first on PYTHONPATH, so a
    child interpreter imports the package under test also when pytest put
    src/ on its own sys.path only (the pythonpath setting in pyproject)."""
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


def quadratic_game(
    n,
    m,
    theta,
    sigma0,
    s_max,
    cost_coeffs,
    payment=None,
    r=1.0,
    initial_s=None,
):
    """Quadratic-family instance with linear costs."""
    s_max = np.broadcast_to(np.asarray(s_max, dtype=float), (n,))
    init = np.zeros(n) if initial_s is None else np.asarray(initial_s, dtype=float)
    agents = tuple(
        AgentSpec(id=i, s_max=float(s_max[i]), initial_s=float(init[i]))
        for i in range(n)
    )
    acc = QuadraticAccuracy(
        theta=np.asarray(theta, dtype=float),
        r=np.broadcast_to(np.asarray(r, dtype=float), (n,)),
        sigma0=sigma0,
    )
    cost = CostModel.linear(np.broadcast_to(np.asarray(cost_coeffs, dtype=float), (n,)))
    return GameInstance(
        agents=agents,
        accuracy=acc,
        cost=cost,
        payment=payment or PaymentRule.none(),
        m=m,
    )


@pytest.fixture
def example_game():
    """Two agents, two parameters, target (1, 2), no transfers."""
    return quadratic_game(
        n=2, m=2, theta=(1.0, 2.0), sigma0=0.0, s_max=5.0,
        cost_coeffs=(0.04, 0.02),
    )


@pytest.fixture
def example_game_paid():
    """Same instance with a linear transfer above the worst marginal cost."""
    return quadratic_game(
        n=2, m=2, theta=(1.0, 2.0), sigma0=0.0, s_max=5.0,
        cost_coeffs=(0.04, 0.02), payment=PaymentRule.linear(0.05),
    )


@pytest.fixture
def five_agent_game():
    """Interior curvature everywhere (sigma0 > 0), transfers above costs."""
    return quadratic_game(
        n=5, m=3, theta=(0.8, -0.4, 0.3), sigma0=1.0, s_max=2.0,
        cost_coeffs=(0.02, 0.04, 0.06, 0.08, 0.1),
        payment=PaymentRule.linear(0.12),
    )


class SeparableAccuracy:
    """a_i(w, s) = k_i s_i - (q/2) s_i^2 - (alpha/2) |w - w_bar|^2.

    Fully decoupled, so the curvature constants are exact:
    G = -q I, G_tilde = -alpha I, H = H_tilde = 0.
    """

    family = "separable"

    def __init__(self, k, q, alpha, w_bar):
        self.k = np.asarray(k, dtype=float)
        self.q = float(q)
        self.alpha = float(alpha)
        self.w_bar = np.asarray(w_bar, dtype=float)
        self.n_agents = len(self.k)
        self.dim = len(self.w_bar)

    def value(self, i, w, s):
        dw = np.asarray(w, dtype=float) - self.w_bar
        si = float(s[i])
        return float(
            self.k[i] * si - 0.5 * self.q * si**2 - 0.5 * self.alpha * dw @ dw
        )

    def dsi(self, i, w, s):
        return float(self.k[i] - self.q * float(s[i]))

    def grad_w(self, i, w, s):
        return -self.alpha * (np.asarray(w, dtype=float) - self.w_bar)

    def evaluate(self, idx, w, S):
        S = np.broadcast_to(S, (len(idx), np.shape(S)[-1]))  # a shared row repeats
        rows = [(self.value(i, w, s), self.dsi(i, w, s), self.grad_w(i, w, s))
                for i, s in zip(idx, S)]
        values, dsi, grads = zip(*rows)
        return np.array(values), np.array(dsi), np.array(grads)

    def manifest(self):
        return {
            "family": self.family,
            "k": [float(v) for v in self.k],
            "q": self.q,
            "alpha": self.alpha,
            "w_bar": [float(v) for v in self.w_bar],
        }


def separable_game(n=3, m=2, q=1.0, alpha=1.0, cost_coeff=0.1):
    """Known-constants game whose best responses sit strictly inside the box."""
    k = 0.6 + 0.3 * np.arange(n)
    acc = SeparableAccuracy(k=k, q=q, alpha=alpha, w_bar=np.linspace(0.3, -0.2, m))
    agents = tuple(AgentSpec(id=i, s_max=2.0, initial_s=0.0) for i in range(n))
    cost = CostModel.linear(np.full(n, cost_coeff))
    return GameInstance(
        agents=agents, accuracy=acc, cost=cost, payment=PaymentRule.none(), m=m
    )


@pytest.fixture
def known_constants_game():
    return separable_game()


# ---------------------------------------------------------------------------
# One agent's utility, one point at a time: the scalar reference for the
# batched best-response scan and refine.


def _own_utility(g: GameInstance, i: int, w: np.ndarray, s: np.ndarray, x: float) -> float:
    """Agent i's utility at contribution x, others fixed.

    A singular accuracy denominator is scored -inf (the correct limit for a
    maximizer to avoid); any NaN propagates as an error.
    """
    trial = np.array(s, dtype=float)
    trial[i] = x
    try:
        a = g.accuracy.value(i, w, trial)
    except ModelEvalError:
        return -inf
    u = a - g.cost.value(i, x) + payment(g.payment, trial, i)
    if isnan(u):
        raise NumericError(f"utility is NaN for agent {i} at s_i={x}")
    return u


def _golden_max(f, lo: float, hi: float, xtol: float) -> tuple[float, float]:
    """Golden-section maximization; ties resolve toward the left endpoint."""
    invphi = (sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > xtol:
        if fc >= fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


# ---------------------------------------------------------------------------
# Closed-form curvature of the quadratic family.


def cost_second_deriv(cost: CostModel, i: int, s_i: float) -> float:
    """c_i''(s_i)."""
    if cost.kind == "linear":
        return 0.0
    s_i = max(s_i, 0.0)
    return float(
        sum(k * (k + 1) * c * s_i ** (k - 1) for k, c in enumerate(cost.coeffs[i]) if k >= 1)
    )


def quadratic_matrices(g: GameInstance, w: np.ndarray, s: np.ndarray) -> Matrices:
    """Closed-form curvature blocks for the quadratic accuracy family.

    With D = |w - theta|^2 and sigma = sigma0 + sum(s):
    G_ij = -2 D / sigma^3 - [i=j] c_i''(s_i), G_tilde = -(2/sigma) I,
    H_ik = 2 (w - theta)_k / sigma^2, H_tilde = n H^T-pattern (every column j
    carries the same 2 n (w - theta) / sigma^2 vector).
    """
    acc = g.accuracy
    theta = np.asarray(acc.theta, dtype=float)
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    sigma = acc.sigma0 + float(np.sum(s))
    if sigma <= 0.0:
        raise ModelEvalError("singular denominator in closed-form curvature")
    diff = w - theta
    D = sq_norm(diff)
    n, m = g.n, g.m
    G = np.full((n, n), -2.0 * D / sigma**3)
    for i in range(n):
        G[i, i] -= cost_second_deriv(g.cost, i, float(s[i]))
    Gt = (-2.0 / sigma) * np.eye(m)
    H = np.tile(2.0 * diff / sigma**2, (n, 1))
    Ht = np.tile((2.0 * n / sigma**2) * diff.reshape(m, 1), (1, n))
    return Matrices(G=G, G_tilde=Gt, H=H, H_tilde=Ht)


# ---------------------------------------------------------------------------
# Canonical scenario text.


def _render(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, str):
        return value
    if isinstance(value, (int, float)):
        return repr(value)
    if value and isinstance(value[0], tuple):
        return ";".join(_render(group) for group in value)
    return ",".join(_render(v) for v in value)


def render_scenario(cfg: ScenarioConfig) -> str:
    """Canonical INI text; every key that applies appears explicitly, so
    parse_scenario(render_scenario(cfg)) must give cfg back."""
    parser = configparser.ConfigParser(interpolation=None)
    values = vars(cfg)
    for f in _FIELDS:
        if _applies(f, values):
            sec = f.metadata["section"]
            if not parser.has_section(sec):
                parser.add_section(sec)
            parser[sec][f.name] = _render(values[f.name])
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Federation in one process.


def channel_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process endpoints."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


@dataclass
class InProcessRun:
    trace: object
    agent_status: list[int]


def run_inprocess_federation(
    g: GameInstance,
    cfg: RunConfig,
    algorithm: str,
    w0: np.ndarray | None = None,
    s0: np.ndarray | None = None,
    timeout: float = DEFAULT_TIMEOUT,
) -> InProcessRun:
    """Full protocol run with every agent on its own thread, each joined to
    the center by a channel_pair(); every end is closed on return."""
    center_ends, agent_ends = zip(*(channel_pair() for _ in range(g.n)))
    status = [None] * g.n

    def agent_main(i: int) -> None:
        try:
            status[i] = run_agent(g, i, cfg, agent_ends[i], timeout=timeout)
        except Exception:
            status[i] = 2

    threads = [threading.Thread(target=agent_main, args=(i,), daemon=True) for i in range(g.n)]
    for th in threads:
        th.start()
    try:
        trace = serve_center(g, cfg, algorithm, center_ends, w0, s0, timeout)
    finally:
        for th in threads:
            th.join(timeout=10.0)
        for ch in agent_ends:  # serve_center has closed the center ends
            ch.close()
    return InProcessRun(trace=trace, agent_status=[x if x is not None else 2 for x in status])
