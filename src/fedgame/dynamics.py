"""Contribution dynamics, each run as a schedule of phases by one round loop.

A dynamic is a list of Phase stages.  Every round the loop records the state
(w, s) at its start, asks the agents for their step and moves s, w or both
with their replies.  A stage says which of the two it moves, what ends it and
how many updates it may take.  The four dynamics in ALGORITHMS:

* upbred: a single stage in which agents ascend their boundary-corrected
  utility derivative while the center ascends mean accuracy, until both
  directions fall below eps in norm.
* 2p-upbred: contributions climb to the box ceiling at the frozen start
  model, then the center trains on full contributions.
* fedavg-strategic: contributions move at the frozen start model until no
  agent gains by moving, then the center trains with them frozen.
* fedavg: mechanism-free baseline; the center trains with contributions
  pinned at the ceiling and transfers removed.

All of them share the per-round agent computation.  Each round evaluates
its state once: the oracle rows evaluate_profile(g, w, s) and the agents'
strategy derivatives there, which the handover, the round record and the
step all read.  A pool object hides where agents live.  Its contract is

    pool.step(t, phase, w, s, rows, derivatives) -> (s_next, grads)

with rows = evaluate_profile(g, w, s) and derivatives = strategy_derivatives
at rows, both of which the round record has already computed, and the
replies in id order: s_next, shape (n,), the next contributions, inside
[0, s_max], and grads, shape (n, m), the agents' accuracy gradients in w;
a part the phase does not move is None.  LocalPool steps a set of agents
in process, every agent by default, and reuses what it is given: the
analytic step the derivatives and the gradients, the empirical step the
gradients and the test losses the empirical family appends; it clamps
s_next to [0, s_max] and takes an updated-profile gradient there,
re-evaluating only the agents whose contribution changed and keeping the
given gradient rows of the rest, which have the same bits.  A remote agent
runs an AgentWorker, the LocalPool of its one id, which is given neither
and evaluates its own row and derivative; the federation module's
RemotePool passes on the agents' replies as reported, in the same arrays,
except that it clamps s_next, whose entries come from other processes, and
ignores rows and derivatives.  The round loop takes s_next as it is.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import ceil, isfinite, log, sqrt
from typing import Callable, Sequence

import numpy as np

from .core import (
    BOUND_TOL,
    ConfigError,
    FederationError,
    GameInstance,
    ModelEvalError,
    NumericError,
    PaymentRule,
    UtilityReport,
    _left_sum,
    _mean_gradient,
    clamp_profile,
    evaluate_profile,
    payment_vector,
    sq_norm,
    strategy_derivatives,
)
from .traceio import game_manifest, instance_digest

UPDATERS = ("analytic", "empirical")
W_GRAD_CHOICES = ("updated", "current")
ALGORITHMS = ("upbred", "2p-upbred", "fedavg", "fedavg-strategic")

# Guard for the difference-quotient denominator in the empirical updater.
QUOTIENT_DS_MIN = 1e-9


@dataclass(frozen=True)
class RunConfig:
    """Step sizes, horizons and tolerances for one run.

    rounds bounds the simultaneous loop (or the training phase of the
    two-phase dynamics); phase1_cap bounds the contribution phase and
    defaults to ten times the predicted phase length when that is
    computable, at most 10^5, and to 10^5 otherwise.
    """

    gamma: float
    eta: float
    rounds: int
    eps: float = 1e-6
    eps_s: float = 1e-9
    phase1_cap: int | None = None
    seed: int = 0
    updater: str = "analytic"
    w_grad_at: str = "updated"
    learn_rate: float = 0.1

    def __post_init__(self) -> None:
        for name in ("gamma", "eta", "eps", "eps_s", "learn_rate"):
            v = getattr(self, name)
            if not np.isfinite(v) or v <= 0.0:
                raise ConfigError(f"{name} must be finite and positive")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.phase1_cap is not None and self.phase1_cap < 1:
            raise ConfigError("phase1_cap must be >= 1 when given")
        if self.updater not in UPDATERS:
            raise ConfigError(f"unknown updater {self.updater!r}")
        if self.w_grad_at not in W_GRAD_CHOICES:
            raise ConfigError(f"unknown w_grad_at {self.w_grad_at!r}")


@dataclass(frozen=True)
class RoundRecord:
    """State snapshot at the start of round t, before that round's update.

    The per-agent columns hold entry i for agent i: accuracy, cost, payment
    and utility = accuracy - cost + payment.
    """

    t: int
    phase: str  # "1", "2" or "single"
    s: np.ndarray
    w: np.ndarray
    accuracies: np.ndarray
    costs: np.ndarray
    payments: np.ndarray
    utilities: np.ndarray
    welfare: float
    g_norm: float
    gt_norm: float

    @property
    def reports(self) -> tuple[UtilityReport, ...]:
        """The per-agent columns as one UtilityReport per agent."""
        return tuple(
            UtilityReport(*parts)
            for parts in zip(
                self.accuracies.tolist(), self.costs.tolist(),
                self.payments.tolist(), self.utilities.tolist(),
            )
        )


@dataclass
class Trace:
    """A run's outcome and round records.  records holds every record, or
    none when the run handed each to a sink instead; final (the last record)
    and rounds_recorded are set either way, None and 0 when no round was
    recorded."""

    config: RunConfig
    instance: dict
    records: list[RoundRecord]
    outcome: str  # "Converged", "MaxRounds" or "Error"
    error: str | None = None
    final: RoundRecord | None = None
    rounds_recorded: int = 0


class LocalPool:
    """Round computations for the agents in ids (default: every agent),
    each using only its own data; see the module docstring for the step
    contract, whose rows follow the order of ids.

    One batched oracle call covers the whole set.  The pool keeps the small
    amount of state the numerical contribution updater needs (each agent's
    previous contribution and last difference quotient); analytic updates
    are stateless.
    """

    def __init__(
        self, game: GameInstance, cfg: RunConfig, ids: Sequence[int] | None = None
    ) -> None:
        if cfg.updater == "empirical" and not hasattr(game.accuracy, "local_training_step"):
            raise ConfigError("the empirical updater requires the empirical accuracy family")
        self.game = game
        self.ids = np.array(game.ids if ids is None else ids, dtype=np.intp)
        self.cfg = cfg
        self._id_list = self.ids.tolist()
        self._s_hi = game.s_max[self.ids]
        self._prev_s: list[float | None] = [None] * len(self.ids)
        self._last_quotient = [0.0] * len(self.ids)

    def _updated_grads(
        self, w: np.ndarray, s: np.ndarray, s_next: np.ndarray, grads: np.ndarray
    ) -> np.ndarray:
        """Each agent's w-gradient at s with its own entry replaced by
        s_next[r], given grads, the rows at s.  An agent whose s_next[r] has
        the bits of s[ids[r]] keeps its row of grads, which the shared-row
        contract makes bit for bit its re-evaluated row; the others (a zero
        that changes sign among them) are evaluated in one call."""
        moved = np.flatnonzero(s_next.view(np.int64) != s[self.ids].view(np.int64))
        if len(moved) == 0:
            return grads
        ids = self.ids[moved]
        S = s[None, :].repeat(len(moved), axis=0)
        S[np.arange(len(moved)), ids] = s_next[moved]
        grads = grads.copy()
        grads[moved] = self.game.accuracy.evaluate(ids, w, S)[2]
        return grads

    def _empirical_step(
        self, w: np.ndarray, s: np.ndarray, rows: tuple
    ) -> tuple[np.ndarray, np.ndarray]:
        """Difference-quotient contributions and each agent's w-gradient.
        The test loss at w and the gradient are the oracle rows' fourth and
        third columns; the family's gradient ignores s, so it serves either
        w_grad_at."""
        g = self.game
        out = []
        s_hi = self._s_hi.tolist()
        for r, (i, loss_before) in enumerate(zip(self._id_list, rows[3].tolist())):
            s_i = float(s[i])
            trained = g.accuracy.local_training_step(i, w, s_i, self.cfg.learn_rate)
            # no previous contribution yet: a zero step makes the quotient fall back
            s_prev = s_i if self._prev_s[r] is None else self._prev_s[r]
            nxt, self._last_quotient[r] = empirical_strategy_update(
                s_prev, s_i, loss_before, g.accuracy.test_loss(i, trained),
                g.cost.deriv(i, s_i), g.payment.beta, s_hi[r], self._last_quotient[r],
            )
            self._prev_s[r] = s_i
            out.append(nxt)
        return np.array(out), rows[2]

    def _checked(self, grads: np.ndarray) -> np.ndarray:
        if not np.isfinite(grads).all():
            bad = ~np.isfinite(grads).all(axis=1)
            raise NumericError(f"non-finite local gradient for agent {self.ids[np.argmax(bad)]}")
        return grads

    def step(
        self,
        t: int,
        phase: str,
        w: np.ndarray,
        s: np.ndarray,
        rows: tuple | None = None,
        derivatives: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """Phase "1" moves contributions, "2" returns gradients, "single"
        does both; the gradient is taken at the updated or the current
        profile as cfg.w_grad_at says.  rows, when given, are the set's
        oracle rows at (w, s) and stand in for evaluating them again, for
        either updater; derivatives, given with rows, are the set's
        strategy_derivatives at them and stand in for the analytic step's.
        Without them the step computes its own.  At the updated profile
        only the agents whose contribution changed are evaluated again, in
        one call, and none when no agent moved."""
        if phase not in ("1", "2", "single"):
            raise ConfigError(f"unknown round phase {phase!r}")
        w = np.asarray(w, dtype=float)
        s = np.asarray(s, dtype=float)
        if rows is None:
            # one profile row that every agent shares
            rows, derivatives = self.game.accuracy.evaluate(self.ids, w, s[None, :]), None
        if phase == "single" and self.cfg.updater == "empirical":
            s_next, grads = self._empirical_step(w, s, rows)
            return s_next, self._checked(grads)
        s_next = grads = None
        if phase != "2":
            if derivatives is None:
                derivatives = strategy_derivatives(self.game, self.ids, s, rows[1])
            s_next = np.clip(s[self.ids] + self.cfg.gamma * derivatives, 0.0, self._s_hi)
        if phase != "1":
            grads = rows[2]
            if phase == "single" and self.cfg.w_grad_at == "updated":
                grads = self._updated_grads(w, s, s_next, grads)
            grads = self._checked(grads)
        return s_next, grads


class AgentWorker(LocalPool):
    """The pool of one agent, as a remote agent runs it."""

    def __init__(self, game: GameInstance, agent_id: int, cfg: RunConfig) -> None:
        if not 0 <= agent_id < game.n:
            raise ConfigError(f"agent id {agent_id} out of range")
        super().__init__(game, cfg, (agent_id,))
        self.i = agent_id


class _Round:
    """One round's state (w, s) and what its handover, record and step
    share: rows = evaluate_profile(g, w, s), computed at once, and the
    agents' strategy derivatives at rows, computed once, on first use."""

    def __init__(self, g: GameInstance, w: np.ndarray, s: np.ndarray) -> None:
        self.g, self.w, self.s = g, w, s
        self.rows = evaluate_profile(g, w, s)
        self.gv: np.ndarray | None = None

    def derivatives(self) -> np.ndarray:
        if self.gv is None:
            self.gv = strategy_derivatives(self.g, self.g.ids, self.s, self.rows[1])
        return self.gv

    def record(self, t: int, phase: str) -> RoundRecord:
        """The record of (w, s).  utilities adds each agent's parts as
        utility() does; a non-finite one fails before derivatives are taken."""
        g, s = self.g, self.s
        values, _, grads = self.rows[:3]
        costs = g.cost.values(g.ids, s)
        pays = payment_vector(g.payment, s)
        utilities = values - costs + pays
        bad = ~np.isfinite(utilities)
        if bad.any():
            raise NumericError(f"non-finite utility for agent {int(np.argmax(bad))}")
        gv = self.derivatives()
        return RoundRecord(
            t=t,
            phase=phase,
            s=np.array(s),
            w=np.array(self.w),
            accuracies=values,
            costs=costs,
            payments=pays,
            utilities=utilities,
            welfare=float(_left_sum(values)),
            g_norm=sqrt(sq_norm(gv)),
            gt_norm=sqrt(sq_norm(_mean_gradient(g, grads))),
        )


def _init_state(
    g: GameInstance, w0: np.ndarray | None, s0: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    w = np.zeros(g.m) if w0 is None else np.array(w0, dtype=float)
    s = g.initial_s if s0 is None else np.array(s0, dtype=float)
    if w.shape != (g.m,):
        raise ConfigError("w0 has the wrong dimension")
    if s.shape != (g.n,):
        raise ConfigError("s0 has the wrong dimension")
    if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
        raise ConfigError("initial state must be finite")
    if np.any(s < -BOUND_TOL) or np.any(s > g.s_max + BOUND_TOL):
        raise ConfigError("s0 outside the contribution box")
    return w, clamp_profile(s, g)


def predicted_phase1_rounds(
    g: GameInstance, cfg: RunConfig, s0: np.ndarray
) -> int | None:
    """Phase-one round bound kappa from profile s0, or None when undefined.

    kappa = max_i ceil((s_max_i - s0_i) / (gamma * (beta - c_i'(s_max_i)))),
    the number of steps of size gamma times the worst-case margin each agent
    needs.  It is defined for a linear transfer rule whose level beta exceeds
    every agent's marginal cost at the ceiling.
    """
    if g.payment.kind != "linear":
        return None
    margins = g.payment.beta - np.array([g.cost.deriv(i, a.s_max) for i, a in enumerate(g.agents)])
    if np.any(margins <= 0.0):
        return None
    gaps = np.maximum(g.s_max - np.asarray(s0, dtype=float), 0.0)
    return int(max(_ceil_guarded(gap / (cfg.gamma * d)) for gap, d in zip(gaps, margins)))


@dataclass(frozen=True)
class Phase:
    """One stage of a dynamic: what it moves, what ends it, how long it runs.

    label is the phase recorded in the trace; sent is the phase the agents
    are asked to compute, which also fixes what moves: the pool's
    step(t, sent, w, s, rows, derivatives) returns (s_next, grads), with
    s_next None for "2" and grads None for "1", and "single" moves both.
    s becomes s_next and w moves by eta times the mean of the grads rows,
    summed in id order.  The round's state is a _Round:
    its rows and strategy derivatives are computed once and read by the
    handover, the record and the step alike.  Each round of the stage, in
    this order:

    * handover(round), when set, runs before the round is recorded.  A
      profile it returns ends the stage; the next stage starts from that
      profile at the same round t, so that round is recorded under the next
      label (reusing the round's rows and derivatives when the profile is
      the round's own).
    * converged(record), when set, ends the stage as Converged.
    * Once cap updates are done the stage ends as MaxRounds, or, when
      lagging is set, the run fails with a cap error whose tail is
      lagging(round), naming the agent that kept the stage going.
    * When lagging is set, a step that leaves every contribution's bits
      unchanged fails the run at once with the same tail: only s moves in
      such a stage and its step is deterministic, so the profile is a fixed
      point that the handover can no longer pass.

    The run's outcome is how its last stage ended.
    """

    label: str
    sent: str
    cap: int
    handover: Callable[[_Round], np.ndarray | None] | None = None
    converged: Callable[[RoundRecord], bool] | None = None
    lagging: Callable[[_Round], str] | None = None


_NON_FINITE = {
    "single": "non-finite joint state",
    "1": "non-finite contribution profile",
    "2": "non-finite model parameters",
}


def _schedule(g: GameInstance, cfg: RunConfig, algorithm: str, s0: np.ndarray) -> list[Phase]:
    """The stages of `algorithm` on game g, starting from profile s0."""
    eps = cfg.eps
    if algorithm == "upbred":
        return [
            Phase("single", "single", cfg.rounds,
                  converged=lambda rec: rec.g_norm < eps and rec.gt_norm < eps)
        ]
    training = Phase("2", "2", cfg.rounds, converged=lambda rec: rec.gt_norm < eps)
    if algorithm == "fedavg":
        return [replace(training, label="single")]

    if algorithm == "2p-upbred":
        def handover(rnd):
            # snap exactly onto the ceiling once within tolerance
            return g.s_max if float(np.max(g.s_max - rnd.s)) <= cfg.eps_s else None

        def lagging(rnd):
            gaps = g.s_max - rnd.s
            k = int(np.argmax(gaps))
            return f"agent {k} is not increasing (gap {gaps[k]:.6g})"

    else:  # fedavg-strategic: stop once no agent has a positive derivative
        def handover(rnd):
            return rnd.s if rnd.derivatives().max() <= eps else None

        def lagging(rnd):
            gv = rnd.derivatives()
            k = int(np.argmax(gv))
            return f"agent {k} still improving (derivative {gv[k]:.6g})"

    cap = cfg.phase1_cap
    if cap is None:
        kappa = predicted_phase1_rounds(g, cfg, s0)
        cap = 100_000 if kappa is None else min(max(10 * kappa, 1), 100_000)
    contribution = Phase("1", "1", cap, handover=handover, lagging=lagging)
    return [contribution, training]


def _run_phases(
    g: GameInstance,
    cfg: RunConfig,
    phases: Sequence[Phase],
    w: np.ndarray,
    s: np.ndarray,
    pool,
    sink: Callable[[RoundRecord], None] | None = None,
) -> Trace:
    """The one round loop.  t counts rounds across stages; a stage's cap
    counts only the updates made within it.  Each record goes to sink when
    one is given, else to the trace's records; the loop itself keeps only
    the last."""
    records: list[RoundRecord] = []
    keep = records.append if sink is None else sink
    final, count = None, 0
    outcome, err = "MaxRounds", None
    t = 0
    rnd = None  # the current (w, s) as a _Round, built once per round
    try:
        for ph in phases:
            outcome, updates = "MaxRounds", 0
            while True:
                if rnd is None:
                    rnd = _Round(g, w, s)
                if ph.handover is not None:
                    s_next = ph.handover(rnd)
                    if s_next is not None:
                        if s_next is not s:
                            rnd = None
                        s = s_next
                        break
                rec = rnd.record(t, ph.label)
                keep(rec)
                final, count = rec, count + 1
                if ph.converged is not None and ph.converged(rec):
                    outcome = "Converged"
                    break
                if updates >= ph.cap:
                    if ph.lagging is None:
                        break
                    raise NumericError(
                        f"contribution phase exceeded its cap of {ph.cap} rounds; "
                        f"{ph.lagging(rnd)}"
                    )
                s_next, grads = pool.step(t, ph.sent, w, s, rnd.rows, rnd.derivatives())
                if ph.sent != "2":
                    if ph.lagging is not None and s_next.tobytes() == s.tobytes():
                        raise NumericError(
                            f"contribution phase stalled at a fixed point; {ph.lagging(rnd)}"
                        )
                    s = s_next
                if ph.sent != "1":
                    w = w + cfg.eta * (_left_sum(grads) / g.n)
                if not (np.all(np.isfinite(w)) and np.all(np.isfinite(s))):
                    raise NumericError(_NON_FINITE[ph.sent])
                rnd = None
                t += 1
                updates += 1
    except (NumericError, ModelEvalError, FederationError) as exc:
        outcome, err = "Error", f"round {t}: {exc}"
    instance = {**game_manifest(g), "digest": instance_digest(g)}
    return Trace(cfg, instance, records, outcome, err, final, count)


def run_dynamic(
    g: GameInstance,
    cfg: RunConfig,
    algorithm: str,
    w0: np.ndarray | None = None,
    s0: np.ndarray | None = None,
    pool=None,
    strict: bool = True,
    sink: Callable[[RoundRecord], None] | None = None,
) -> Trace:
    """Run one of ALGORITHMS from (w0, s0) and return its trace.

    sink, when given, receives each round record as it is made, and the
    trace keeps none of them but the last (see Trace).

    2p-upbred requires a linear transfer rule.  With strict=True the transfer
    level must exceed every agent's marginal cost at the ceiling, which
    guarantees the first phase finishes; strict=False allows exploratory
    sub-threshold runs, which end with an Error outcome when the cap is hit.
    fedavg ignores s0: it runs on a transfer-free copy of g with
    contributions pinned at the ceiling.
    """
    if algorithm not in ALGORITHMS:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    if algorithm == "2p-upbred":
        if g.payment.kind != "linear":
            raise ConfigError("two-phase dynamic requires a linear transfer rule")
        zeta = g.cost.max_deriv(g.s_max)
        if strict and g.payment.beta <= zeta:
            raise ConfigError(
                f"two-phase precondition failed: beta={g.payment.beta} must exceed "
                f"the largest marginal cost at the ceiling ({zeta})"
            )
    if algorithm == "fedavg":
        g = replace(g, payment=PaymentRule.none())
        w, _ = _init_state(g, w0, None)
        s = g.s_max
    else:
        w, s = _init_state(g, w0, s0)
    pool = pool if pool is not None else LocalPool(g, cfg)
    return _run_phases(g, cfg, _schedule(g, cfg, algorithm, s), w, s, pool, sink)


def empirical_strategy_update(
    s_prev: float,
    s_curr: float,
    loss_prev: float,
    loss_curr: float,
    marginal_cost: float,
    beta: float,
    s_max: float,
    last_quotient: float,
) -> tuple[float, float]:
    """The difference-quotient contribution update of one agent.

    next = clamp(curr - (loss_curr - loss_prev)/(curr - prev)
                 - marginal_cost + beta, 0, s_max).
    A denominator below 1e-9 in magnitude, or a non-finite quotient, falls
    back to last_quotient (zero before any quotient exists).  Returns (next
    contribution, quotient used).
    """
    ds = s_curr - s_prev
    quotient = last_quotient if abs(ds) < QUOTIENT_DS_MIN else (loss_curr - loss_prev) / ds
    if not isfinite(quotient):
        quotient = last_quotient
    return min(max(s_curr - quotient - marginal_cost + beta, 0.0), s_max), quotient


# ---------------------------------------------------------------------------
# Convergence-rate arithmetic.


def contraction_factor(
    gamma: float,
    eta: float,
    n: int,
    m: int,
    L: float,
    L_tilde: float,
    lam: float,
    lam_tilde: float,
    P: float,
    P_tilde: float,
) -> tuple[float, float, float]:
    """Per-round contraction factors (W1, W2, W) of the joint update norms.

    W1 = sqrt(1 + gamma^2 n^2 L^2 - 2 gamma lam) + P_tilde * gamma
    W2 = sqrt(1 + eta^2 m^2 L_tilde^2 - 2 eta lam_tilde) + P * eta
    W  = max(W1, W2)
    """
    try:
        a = 1.0 + gamma**2 * n**2 * L**2 - 2.0 * gamma * lam
        b = 1.0 + eta**2 * m**2 * L_tilde**2 - 2.0 * eta * lam_tilde
    except OverflowError:
        raise NumericError("contraction radicand overflows for these constants") from None
    if a < 0.0 or b < 0.0:
        raise NumericError("contraction radicand negative for these step sizes")
    w1 = sqrt(a) + P_tilde * gamma
    w2 = sqrt(b) + P * eta
    if not (isfinite(w1) and isfinite(w2)):  # an infinite or nan radicand included
        raise NumericError("contraction radicand overflows for these constants")
    return w1, w2, max(w1, w2)


def iteration_bound_T0(E: float, eps: float, W: float) -> int:
    """Rounds needed to shrink an initial update norm E below eps at rate W."""
    if eps <= 0.0 or not np.isfinite(eps):
        raise ConfigError("eps must be finite and positive")
    if E < 0.0:
        raise ConfigError("E must be nonnegative")
    if E <= eps:
        return 0
    if W >= 1.0:
        raise NumericError(f"no contraction: W={W} >= 1")
    if W <= 0.0:
        return 1
    return _ceil_guarded(log(E / eps) / log(1.0 / W))


def check_smoothness(M: float, nu: float) -> None:
    """The smoothness M and strong convexity nu behind both training-phase
    bounds: M finite and 0 < nu <= M."""
    if not (isfinite(M) and 0.0 < nu <= M):
        raise ConfigError(f"need 0 < nu <= M with M finite, got M={M}, nu={nu}")


def iteration_bounds_two_phase(
    g: GameInstance,
    cfg: RunConfig,
    s0: np.ndarray,
    f0: float,
    M: float,
    nu: float,
) -> tuple[int, int]:
    """(kappa, T0): phase-one round bound and training-phase round bound.

    kappa is predicted_phase1_rounds(g, cfg, s0).  T0 bounds gradient descent
    with step 1/M on an M-smooth, nu-strongly convex objective from value gap
    f0 to the optimum down to cfg.eps.
    """
    kappa = predicted_phase1_rounds(g, cfg, s0)
    if kappa is None:
        raise ConfigError(
            "phase-one bound needs a linear transfer rule whose level exceeds "
            f"every marginal cost at the ceiling (largest {g.cost.max_deriv(g.s_max)})"
        )
    check_smoothness(M, nu)
    # the value gap contracts by 1 - nu/M per step; nu == M is one exact step
    return kappa, iteration_bound_T0(max(f0, 0.0), cfg.eps, 1.0 - nu / M)


def corollary_bound(w0_dist: float, eps: float, M: float, nu: float) -> int:
    """Iterate-distance analogue of T0 for gradient descent with step
    2/(M + nu): rounds to bring |w0 - w_opt| below eps."""
    if eps <= 0.0:
        raise ConfigError("eps must be positive")
    check_smoothness(M, nu)
    if w0_dist <= eps:
        return 0
    q = nu / M
    # the distance contracts by (1 - q)/(1 + q) per step; nu == M is one exact step
    return iteration_bound_T0(w0_dist, eps, (1.0 - q) / (1.0 + q))


def _ceil_guarded(x: float) -> int:
    """Ceiling with protection against float dust just above an integer."""
    nearest = round(x)
    if abs(x - nearest) <= 1e-9 * max(1.0, abs(x)):
        return int(nearest)
    return int(ceil(x))
