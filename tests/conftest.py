"""Shared fixtures: the two-agent running example, a five-agent quadratic
instance, and a separable game with hand-computable curvature constants."""

import os
from pathlib import Path

import numpy as np
import pytest

from fedgame.core import AgentSpec, GameInstance, PaymentRule
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
