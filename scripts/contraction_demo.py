"""Contraction factor versus observed decay on a game with known curvature.

Estimates the curvature constants by finite differences, certifies claimed
concavity levels, picks step sizes from the feasible region and compares
the predicted per-round factor W and round bound T0 with the actual run.
"""

import argparse
import sys

import numpy as np

from fedgame.analysis import (
    assumption_samples,
    check_assumption1,
    contraction_diagnostic,
    feasible_steps,
)
from fedgame.core import AgentSpec, ConfigError, GameInstance, PaymentRule, \
    strategy_gradient, welfare_gradient
from fedgame.dynamics import RunConfig, contraction_factor, iteration_bound_T0, run_dynamic
from fedgame.models import CostModel


class SeparableAccuracy:
    """a_i = k_i s_i - (q/2) s_i^2 - (alpha/2) |w - w_bar|^2, so the four
    curvature blocks are constant: G = -qI, G~ = -alpha I, H = H~ = 0."""

    def __init__(self, k, q, alpha, w_bar):
        self.k = np.asarray(k, dtype=float)
        self.q = float(q)
        self.alpha = float(alpha)
        self.w_bar = np.asarray(w_bar, dtype=float)
        self.dim = len(self.w_bar)

    @property
    def n_agents(self):
        return len(self.k)

    def value(self, i, w, s):
        dw = np.asarray(w) - self.w_bar
        si = float(np.asarray(s)[i])
        return float(self.k[i] * si - 0.5 * self.q * si**2 - 0.5 * self.alpha * dw @ dw)

    def dsi(self, i, w, s):
        return float(self.k[i] - self.q * float(np.asarray(s)[i]))

    def grad_w(self, i, w, s):
        return -self.alpha * (np.asarray(w, dtype=float) - self.w_bar)

    def evaluate(self, idx, w, S):
        """Row r: agent idx[r] at (w, S[r]), or at the one row of S that every
        agent shares, one per-agent call at a time."""
        S = np.broadcast_to(S, (len(idx), np.shape(S)[-1]))
        rows = [(self.value(i, w, s), self.dsi(i, w, s), self.grad_w(i, w, s))
                for i, s in zip(idx, S)]
        values, dsi, grads = zip(*rows)
        return np.array(values), np.array(dsi), np.array(grads)

    def manifest(self):
        return {"family": "separable", "k": self.k.tolist(), "q": self.q,
                "alpha": self.alpha, "w_bar": self.w_bar.tolist()}


def build_game(n=3, m=2):
    k = 0.6 + 0.3 * np.arange(n)
    acc = SeparableAccuracy(k, 1.0, 1.0, np.linspace(0.3, -0.2, m))
    agents = tuple(AgentSpec(id=i, s_max=2.0, initial_s=0.0) for i in range(n))
    return GameInstance(agents=agents, accuracy=acc,
                        cost=CostModel.linear(np.full(n, 0.1)),
                        payment=PaymentRule.none(), m=m)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--lam", type=float, default=0.9,
                    help="claimed concavity level (true value is 1)")
    ap.add_argument("--eps", type=float, default=1e-6)
    args = ap.parse_args()

    g = build_game()
    samples = assumption_samples(g, count=32, w_radius=1.0)
    est = check_assumption1(samples, g, lam=args.lam, lam_tilde=args.lam)
    print(f"claimed lam = lam~ = {args.lam}: "
          f"certified={est.nsd_strategy and est.nsd_params}")
    print(f"estimated constants: lam={est.lam:.4f} lam~={est.lam_tilde:.4f} "
          f"L={est.L:.4f} L~={est.L_tilde:.4f} P={est.P:.2e} P~={est.P_tilde:.2e}")

    region = feasible_steps(g.n, g.m, est.L, est.L_tilde, args.lam, args.lam,
                            est.P, est.P_tilde)
    gamma, eta = region.gamma_max, region.eta_max
    _, _, W = contraction_factor(gamma, eta, g.n, g.m, est.L, est.L_tilde,
                                 args.lam, args.lam, est.P, est.P_tilde)

    w0 = g.accuracy.w_bar + 0.5
    s0 = 0.25 * g.s_max
    E0 = float(np.linalg.norm(strategy_gradient(g, w0, s0))
               + np.linalg.norm(welfare_gradient(g, w0, s0)))
    T0 = iteration_bound_T0(E0, args.eps, W)
    print(f"steps gamma={gamma:.4f} eta={eta:.4f}; predicted W={W:.6f}, T0={T0}")

    trace = run_dynamic(g, RunConfig(gamma=gamma, eta=eta, rounds=T0, eps=args.eps),
                        "upbred", w0, s0)
    report = contraction_diagnostic([(r.g_norm, r.gt_norm, r.t) for r in trace.records])
    print(f"run: outcome={trace.outcome} rounds={trace.final.t} "
          f"observed max ratio={report.max_ratio:.6f} "
          f"(bound holds: {report.max_ratio <= W + 1e-6})")


if __name__ == "__main__":
    try:
        main()
    except ConfigError as exc:  # bad input: one line and exit 1, as the CLI does
        sys.exit(f"error: {exc}")
