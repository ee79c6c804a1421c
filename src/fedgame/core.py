"""Domain types and evaluation primitives for the data-contribution game.

An instance couples n agents (each choosing a contribution level s_i inside a
box [0, s_i_max]) with a center that maintains a shared parameter vector w.
Agent utility is accuracy minus cost plus an optional transfer payment; social
welfare sums accuracies only, so transfers cancel out of the planner's view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from math import isfinite
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from .models import AccuracyModel, CostModel

# Absolute tolerance for comparisons against box bounds.
BOUND_TOL = 1e-12

# Row count from which strategy_derivatives takes its numpy form: below it
# numpy's fixed per-call cost (about 12 us for the whole form) exceeds the
# loop's (about 0.6 us a row).
VECTOR_ROWS = 20


class GameError(Exception):
    """Base class for errors raised by this package."""


class ConfigError(GameError):
    """Invalid configuration or violated precondition."""


class NumericError(GameError):
    """A non-finite value appeared during evaluation."""


class ModelEvalError(GameError):
    """An accuracy model could not be evaluated (e.g. singular denominator)."""


class FederationError(GameError):
    """A remote agent failed the protocol: timeout, disconnect, bad frame."""


@dataclass(frozen=True)
class PaymentRule:
    """Transfer scheme applied on top of accuracy and cost.

    kind "none" disables transfers.  kind "linear" pays agent i
    beta * (s_i - mean of the other agents' contributions), which sums to
    zero over agents by construction and therefore never injects or burns
    value.  Linear transfers need at least two agents.
    """

    kind: str = "none"
    beta: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in ("none", "linear"):
            raise ConfigError(f"unknown payment rule {self.kind!r}")
        if not np.isfinite(self.beta) or self.beta < 0.0:
            raise ConfigError("beta must be finite and nonnegative")
        if self.kind == "none" and self.beta != 0.0:
            raise ConfigError("payment rule 'none' cannot carry a beta")

    @classmethod
    def none(cls) -> "PaymentRule":
        return cls("none", 0.0)

    @classmethod
    def linear(cls, beta: float) -> "PaymentRule":
        return cls("linear", float(beta))


@dataclass(frozen=True)
class AgentSpec:
    """Static description of one agent: identity, box bound, starting point."""

    id: int
    s_max: float
    initial_s: float = 0.0

    def __post_init__(self) -> None:
        if self.id < 0:
            raise ConfigError("agent ids must be nonnegative")
        if not np.isfinite(self.s_max) or self.s_max <= 0.0:
            raise ConfigError(f"agent {self.id}: s_max must be positive")
        if not (-BOUND_TOL <= self.initial_s <= self.s_max + BOUND_TOL):
            raise ConfigError(f"agent {self.id}: initial_s outside [0, s_max]")


@dataclass(frozen=True, eq=False)
class GameInstance:
    """One complete game: agents, shared accuracy family, costs, transfers."""

    agents: tuple[AgentSpec, ...]
    accuracy: "AccuracyModel"
    cost: "CostModel"
    payment: PaymentRule
    m: int
    # read-only arrays built once from agents
    ids: np.ndarray = field(init=False, repr=False)
    s_max: np.ndarray = field(init=False, repr=False)
    initial_s: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        n = len(self.agents)
        if n < 1:
            raise ConfigError("need at least one agent")
        if self.m < 1:
            raise ConfigError("parameter dimension m must be >= 1")
        if tuple(a.id for a in self.agents) != tuple(range(n)):
            raise ConfigError("agent ids must be 0..n-1 in order")
        if self.accuracy.n_agents != n:
            raise ConfigError("accuracy model agent count does not match n")
        if self.accuracy.dim != self.m:
            raise ConfigError("accuracy model parameter dimension does not match m")
        if self.cost.n_agents != n:
            raise ConfigError("cost model agent count does not match n")
        if self.payment.kind == "linear" and n < 2:
            raise ConfigError("linear transfers require at least two agents")
        for name, arr in (
            ("ids", np.arange(n, dtype=np.intp)),
            ("s_max", np.array([a.s_max for a in self.agents], dtype=float)),
            ("initial_s", np.array([a.initial_s for a in self.agents], dtype=float)),
        ):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n(self) -> int:
        return len(self.agents)


@dataclass(frozen=True)
class UtilityReport:
    """Per-agent breakdown; utility is the exact sum of the stored parts."""

    accuracy: float
    cost: float
    payment: float
    utility: float


def _as_profile(s: np.ndarray | list | tuple) -> np.ndarray:
    arr = np.asarray(s, dtype=float)
    if arr.ndim != 1:
        raise ConfigError("strategy profile must be a 1-d vector")
    return arr


def _transfer(beta: float, n: int, x, total):
    """Linear transfer to a contribution x when all n contributions sum to
    total: beta * (x - (total - x) / (n - 1)).  Works on floats and arrays."""
    return beta * (x - (total - x) / (n - 1))


def payment(rule: PaymentRule, s: np.ndarray, i: int) -> float:
    """Transfer to agent i under `rule` at profile s.

    Linear rule: beta * (s_i - sum_{j != i} s_j / (n - 1)).
    """
    s = _as_profile(s)
    n = s.shape[0]
    if not 0 <= i < n:
        raise ConfigError(f"agent index {i} out of range for n={n}")
    if rule.kind == "none":
        return 0.0
    if n < 2:
        raise ConfigError("linear transfers require at least two agents")
    return _transfer(rule.beta, n, float(s[i]), float(np.add.reduce(s)))


def payment_vector(rule: PaymentRule, s: np.ndarray) -> np.ndarray:
    """Transfers to every agent at profile s; entry i equals payment(rule, s, i)."""
    s = _as_profile(s)
    n = s.shape[0]
    if rule.kind == "none":
        return np.zeros(n)
    if n < 2:
        raise ConfigError("linear transfers require at least two agents")
    return _transfer(rule.beta, n, s, float(s.sum()))


def utility(g: GameInstance, i: int, w: np.ndarray, s: np.ndarray) -> UtilityReport:
    """Accuracy, cost, payment and their signed sum for agent i at (w, s)."""
    s = _as_profile(s)
    if not 0 <= i < g.n:
        raise ConfigError(f"agent index {i} out of range for n={g.n}")
    acc = g.accuracy.value(i, w, s)
    cost = g.cost.value(i, float(s[i]))
    pay = payment(g.payment, s, i)
    rep = UtilityReport(acc, cost, pay, acc - cost + pay)
    if not isfinite(rep.utility):
        raise NumericError(f"non-finite utility for agent {i}")
    return rep


def utilities_given(
    g: GameInstance, idx: np.ndarray, S: np.ndarray, accuracies: np.ndarray
) -> np.ndarray:
    """Utility of agent idx[r] at profile S[r] for every row r, given its
    accuracy there, accuracies[r] (a row of a batched oracle call): entry r
    equals utility(g, idx[r], w, S[r]).utility at the w of that call."""
    x = S[np.arange(len(idx)), idx]
    if g.payment.kind == "none":
        pay = np.zeros(len(idx))
    else:
        pay = _transfer(g.payment.beta, g.n, x, S.sum(axis=1))
    return accuracies - g.cost.values(idx, x) + pay


def evaluate_profile(
    g: GameInstance, w: np.ndarray, s: np.ndarray
) -> tuple[np.ndarray, ...]:
    """(values, dsi, grad_w) of every agent at (w, s), followed by any column
    the family appends (see AccuracyModel): one batched oracle call, whose
    agents all share the profile row s."""
    s = _as_profile(s)
    return g.accuracy.evaluate(g.ids, w, s[None, :])


def _left_sum(a: np.ndarray):
    """Sum along axis 0 in the order `total = 0.0; total += a[k]` adds.

    On a C-contiguous (n, m) array with m >= 2, np.add.reduce along axis 0
    runs its inner loop over the m columns and adds the rows one after the
    other, left to right, without cumsum's (n, m) prefix array.  On 1-D
    input, a single column or any other layout, axis 0 becomes the inner
    loop, which numpy sums pairwise; cumsum accumulates strictly left to
    right in every layout.  Adding 0.0 turns the -0.0 that a sum starting
    from a[0] can end on into the +0.0 a sum starting from 0.0 gives, and
    leaves every other value as it is.
    """
    if a.ndim == 2 and a.shape[1] >= 2 and a.flags.c_contiguous:
        return np.add.reduce(a, axis=0) + 0.0
    return np.cumsum(a, axis=0)[-1] + 0.0


def sq_norm(x) -> float:
    """x raveled and dotted with itself, as numpy computes a norm: sqrt of it is
    np.linalg.norm(x) bit for bit, and sq_norm(d) is d @ d for a contiguous d."""
    x = np.asarray(x, dtype=float).ravel(order="K")
    return float(x.dot(x))


def social_welfare(g: GameInstance, w: np.ndarray, s: np.ndarray) -> float:
    """Sum of accuracies over agents.  Costs and transfers are excluded."""
    return float(_left_sum(evaluate_profile(g, w, s)[0]))


def strategy_derivatives(
    g: GameInstance, idx: np.ndarray, s: np.ndarray, dsi: np.ndarray
) -> np.ndarray:
    """Boundary-corrected derivative of each agent idx[r]'s utility in its
    own contribution at profile s, given its accuracy slope dsi[r].

    d u_i / d s_i = d a_i / d s_i - c_i'(s_i) + beta, forced to zero when it
    points out of the box (negative at s_i = 0 or positive at s_i = s_i_max).
    Linear costs at VECTOR_ROWS rows or more take a numpy form.  Polynomial
    costs and fewer rows (a remote agent steps one) take a loop over Python
    floats: numpy's power can differ from libm pow in the last bit, and a
    few rows would pay numpy's per-call overhead many times over.  Both
    forms give the same bits, and a row that fails (a non-finite derivative,
    or a contribution below zero) raises from the loop, so either form names
    the same first failing agent.
    """
    beta = g.payment.beta
    idx = np.asarray(idx, dtype=np.intp)
    if len(idx) >= VECTOR_ROWS and g.cost.kind == "linear":
        x = np.asarray(s, dtype=float)[idx]
        d = np.asarray(dsi, dtype=float) - g.cost.slopes[idx] + beta
        if np.isfinite(d).all() and not (x < -BOUND_TOL).any():
            out_lo = (d < 0.0) & (np.abs(x) <= BOUND_TOL)
            out_hi = (d > 0.0) & (np.abs(x - g.s_max[idx]) <= BOUND_TOL)
            return np.where(out_lo | out_hi, 0.0, d)
    out = []
    for i, slope in zip(idx.tolist(), np.asarray(dsi).tolist()):
        s_i = float(s[i])
        d = slope - g.cost.deriv(i, s_i) + beta
        if not isfinite(d):
            raise NumericError(f"non-finite strategy derivative for agent {i}")
        if d < 0.0 and abs(s_i) <= BOUND_TOL:
            d = 0.0
        elif d > 0.0 and abs(s_i - g.agents[i].s_max) <= BOUND_TOL:
            d = 0.0
        out.append(d)
    return np.array(out)


def strategy_gradient(g: GameInstance, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Boundary-corrected strategy update direction, one entry per agent."""
    s = _as_profile(s)
    return strategy_derivatives(g, g.ids, s, evaluate_profile(g, w, s)[1])


def _mean_gradient(g: GameInstance, grads: np.ndarray) -> np.ndarray:
    """Mean of the agents' accuracy gradients in w (rows of grads, in id order)."""
    out = _left_sum(grads) / g.n
    if not np.isfinite(out).all():
        raise NumericError("non-finite welfare gradient")
    return out


def welfare_gradient(g: GameInstance, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Mean over agents of the accuracy gradient in w."""
    return _mean_gradient(g, evaluate_profile(g, w, s)[2])


def clamp_profile(s_raw: np.ndarray, g: GameInstance) -> np.ndarray:
    """Project a raw profile back onto the contribution box."""
    s_raw = _as_profile(s_raw)
    if s_raw.shape[0] != g.n:
        raise ConfigError("profile length does not match agent count")
    return np.clip(s_raw, 0.0, g.s_max)
