"""Equilibrium certification and curvature diagnostics.

Certification is deliberately independent of any gradient machinery: each
agent's best response is found by a uniform scan plus golden-section
refinement of its own utility, so a certificate does not inherit assumptions
from the dynamics under test.  Each agent's scan is one batched oracle call;
the refine runs all agents in lockstep, one batched oracle call per
golden-section step, and every value has the bits of its one-agent form.

The curvature constants are measured at unscrambled Sobol points, which
_sobol builds with numpy from the Joe-Kuo direction numbers (Joe and Kuo,
"Constructing Sobol sequences with better two-dimensional projections", SIAM
J. Sci. Comput. 30, 2008).  The package ships their first 1111 dimensions in
sobol_directions.npz, taken from scipy's copy of the table (BSD-3-Clause).
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from math import inf, isfinite, sqrt

import numpy as np

from .core import (
    BOUND_TOL,
    ConfigError,
    GameInstance,
    ModelEvalError,
    NumericError,
    _left_sum,
    social_welfare,
    sq_norm,
    utilities_given,
    welfare_gradient,
)

GOLDEN_XTOL = 1e-8
INVPHI = (sqrt(5.0) - 1.0) / 2.0
NSD_TOL = 1e-9
# assumption_samples keeps contributions this fraction of s_max off each edge
INTERIOR_MARGIN = 0.05
# estimate_matrices steps each coordinate v by FD_STEP * max(1, |v|)
FD_STEP = 1e-4
# compute_w_opt stops once the welfare gradient norm falls below this
W_OPT_TOL = 1e-6
W_OPT_MAX_ITERS = 10000
# _sobol's points are k / 2**SOBOL_BITS, as scipy.stats.qmc.Sobol's by default
SOBOL_BITS = 30


def best_response(
    g: GameInstance,
    w: np.ndarray,
    s: np.ndarray,
    idx,
    grid_points: int = 201,
) -> tuple:
    """(argmax, max) of agent idx's utility over its contribution interval,
    others fixed; for an array of agent ids, the arrays of both.

    Each agent's grid is scanned in one oracle call.  The golden-section
    refine then runs every agent in lockstep, in blocks of at most
    grid_points agents: each step evaluates the one new point of every
    agent still wider than GOLDEN_XTOL, and narrower than a step before, in
    one call, and ties resolve toward the left endpoint.  A point whose
    accuracy cannot be evaluated scores -inf; the first NaN raises
    NumericError, for the first agent in idx that meets one, at its first
    NaN in the order scan, refine, final point.
    """
    if grid_points < 3:
        raise ConfigError("grid_points must be >= 3")
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    ids = np.atleast_1d(np.asarray(idx, dtype=np.intp))
    x = np.empty(len(ids))
    v = np.empty(len(ids))
    for lo in range(0, len(ids), grid_points):
        block = slice(lo, lo + grid_points)
        x[block], v[block] = _best_responses(g, w, s, ids[block], grid_points)
    if np.ndim(idx) == 0:
        return float(x[0]), float(v[0])
    return x, v


def _best_responses(
    g: GameInstance, w: np.ndarray, s: np.ndarray, ids: np.ndarray, grid_points: int
) -> tuple[np.ndarray, np.ndarray]:
    """best_response for one block of agents; an agent that meets a NaN
    leaves the lockstep, and the first one's error is raised at the end."""
    k = len(ids)
    errors: dict[int, NumericError] = {}  # block row -> its agent's first NaN
    x_grid = np.zeros(k)
    v_grid = np.zeros(k)
    a = np.zeros(k)
    b = np.zeros(k)
    for r, i in enumerate(ids.tolist()):
        xs = np.linspace(0.0, g.agents[i].s_max, grid_points)
        try:
            vals = _scan(g, i, w, s, xs)
        except NumericError as err:
            errors[r] = err
            continue
        best = int(np.argmax(vals))  # first maximum: ties keep the smaller contribution
        x_grid[r], v_grid[r] = xs[best], vals[best]
        a[r], b[r] = xs[max(best - 1, 0)], xs[min(best + 1, grid_points - 1)]
    alive = np.ones(k, dtype=bool)
    alive[list(errors)] = False

    def score(rows: np.ndarray, x: np.ndarray) -> np.ndarray:
        """The utility of each block row in rows at its own contribution x."""
        if len(rows) == 0:
            return np.empty(0)
        u = _utilities_at(g, ids[rows], w, s, x)
        for p in np.flatnonzero(np.isnan(u)).tolist():
            r = int(rows[p])
            errors[r] = NumericError(f"utility is NaN for agent {ids[r]} at s_i={float(x[p])}")
            alive[r] = False
        return u

    # The refine runs on the rows in the lockstep, which are dropped as they
    # finish or fail; x_mid takes each row's midpoint as it leaves.  A row
    # whose interval did not shrink in a step also leaves: where one ulp of
    # s_i exceeds GOLDEN_XTOL, the interval can stop shrinking above it.
    rows = np.flatnonzero(alive)
    a, b = a[rows], b[rows]
    c = b - INVPHI * (b - a)
    d = a + INVPHI * (b - a)
    fc = score(rows, c)
    fd = np.full(len(rows), np.nan)
    on = alive[rows]
    fd[on] = score(rows[on], d[on])
    x_mid = np.zeros(k)
    width = np.full(len(rows), inf)
    while True:
        span = b - a
        on = alive[rows] & (span > GOLDEN_XTOL) & (span < width)
        if not on.all():
            x_mid[rows] = 0.5 * (a + b)
            rows, a, b, c, d, fc, fd = rows[on], a[on], b[on], c[on], d[on], fc[on], fd[on]
            span = span[on]
        if len(rows) == 0:
            break
        width = span
        # ties keep the left part, [a, d]; otherwise [c, b]
        left = fc >= fd
        a, b = np.where(left, a, c), np.where(left, d, b)
        kept, f_kept = np.where(left, c, d), np.where(left, fc, fd)
        step = INVPHI * (b - a)
        x = np.where(left, b - step, a + step)
        fx = score(rows, x)
        c, d = np.where(left, x, kept), np.where(left, kept, x)
        fc, fd = np.where(left, fx, f_kept), np.where(left, f_kept, fx)
    rows = np.flatnonzero(alive)
    v_mid = np.full(k, -inf)
    v_mid[rows] = score(rows, x_mid[rows])
    if errors:
        raise errors[min(errors)]
    better = v_mid > v_grid
    return np.where(better, x_mid, x_grid), np.where(better, v_mid, v_grid)


def _scan(g: GameInstance, i: int, w: np.ndarray, s: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """Agent i's utility at every contribution in xs, others fixed, from one
    batched oracle call."""
    trials = s[None, :].repeat(len(xs), axis=0)
    trials[:, i] = xs
    return _own_utilities(g, i, w, trials)


def _utilities_at(g: GameInstance, ids: np.ndarray, w: np.ndarray, s: np.ndarray, x) -> np.ndarray:
    """Utility of agent ids[r] at s with its own contribution set to x[r],
    for every r, from one batched oracle call: a row whose accuracy cannot
    be evaluated scores -inf, and a NaN is returned as it is."""
    S = s[None, :].repeat(len(ids), axis=0)
    S[np.arange(len(ids)), ids] = x
    return utilities_given(g, ids, S, _accuracies(g, ids, w, S)[0])


def _accuracies(
    g: GameInstance, idx: np.ndarray, w: np.ndarray, S: np.ndarray
) -> tuple[np.ndarray, dict[int, ModelEvalError]]:
    """Accuracy of agent idx[r] at (w, S[r]) for every row r, from one
    batched oracle call, and the rows that could not be evaluated.

    A row that cannot be evaluated makes the batch raise; the rows are then
    evaluated one at a time, so that only a failing row scores -inf, and
    its error is returned under its row number.
    """
    try:
        return g.accuracy.evaluate(idx, w, S)[0], {}
    except ModelEvalError:
        pass
    values = np.empty(len(idx))
    errors = {}
    for r, i in enumerate(idx.tolist()):
        try:
            values[r] = g.accuracy.value(i, w, S[r])
        except ModelEvalError as err:
            values[r], errors[r] = -inf, err
    return values, errors


def _own_utilities(g: GameInstance, i: int, w: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Agent i's utility at every profile row of S: a row whose accuracy
    cannot be evaluated scores -inf, and the first NaN raises."""
    idx = np.full(len(S), i)
    u = utilities_given(g, idx, S, _accuracies(g, idx, w, S)[0])
    nan = np.isnan(u)
    if nan.any():
        raise NumericError(f"utility is NaN for agent {i} at s_i={float(S[np.argmax(nan), i])}")
    return u


@dataclass(frozen=True)
class EquilibriumCertificate:
    verdict: str  # "Certified" or "Refuted"
    eps: float
    regrets: tuple[float, ...]
    best_responses: tuple[float, ...]
    worst_agent: int
    worst_gain: float

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    def as_dict(self) -> dict:
        return {
            "verdict": self.verdict,
            "eps": self.eps,
            "regrets": list(self.regrets),
            "best_responses": list(self.best_responses),
            "worst_agent": self.worst_agent,
            "worst_gain": self.worst_gain,
        }


def certify_nash(
    g: GameInstance,
    w: np.ndarray,
    s: np.ndarray,
    eps: float,
    grid_points: int = 201,
) -> EquilibriumCertificate:
    """Per-agent regret check: profile is an eps-equilibrium iff no agent can
    gain more than eps by unilaterally moving its own contribution.  w must
    be finite of shape (m,), and s finite of shape (n,) inside the box;
    anything else raises ConfigError."""
    if not np.isfinite(eps) or eps <= 0.0:
        raise ConfigError("certification tolerance must be finite and positive")
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    for name, vec, size in (("w", w, g.m), ("s", s, g.n)):
        if vec.shape != (size,):
            raise ConfigError(f"{name} must have shape ({size},), got {vec.shape}")
        if not np.all(np.isfinite(vec)):
            raise ConfigError(f"{name} must be finite")
    if np.any(s < -BOUND_TOL) or np.any(s > g.s_max + BOUND_TOL):
        raise ConfigError("profile lies outside the contribution box")
    # every current utility from one call; a -inf one leaves no regret to measure
    u_cur = _utilities_at(g, g.ids, w, s, s)
    singular = np.flatnonzero(u_cur == -inf)
    if len(singular):
        raise ConfigError(
            f"agent {singular[0]}'s utility at this profile is -inf, so its regret is undefined"
        )
    # errors keep the agent-by-agent order: agent i's best response, then its current utility
    nan = np.flatnonzero(np.isnan(u_cur))
    upto = nan[0] + 1 if len(nan) else g.n
    brs, u_br = best_response(g, w, s, g.ids[:upto], grid_points)
    if len(nan):
        raise NumericError(f"utility is NaN for agent {nan[0]} at s_i={float(s[nan[0]])}")
    regrets = (u_br - u_cur).tolist()
    worst = int(np.argmax(regrets))
    verdict = "Certified" if all(r <= eps for r in regrets) else "Refuted"
    return EquilibriumCertificate(
        verdict=verdict,
        eps=eps,
        regrets=tuple(regrets),
        best_responses=tuple(brs.tolist()),
        worst_agent=worst,
        worst_gain=float(regrets[worst]),
    )


# ---------------------------------------------------------------------------
# Curvature estimation by central differences.


@dataclass(frozen=True)
class Matrices:
    """Second-derivative blocks of the game at one interior point.

    G: own-utility curvature in contributions (n x n rows d^2 u_i / ds_i ds_j)
    G_tilde: mean-accuracy Hessian in the model (m x m)
    H: d^2 u_i / dw_k ds_i (n x m)
    H_tilde: d^2 (sum_i a_i) / ds_j dw_k (m x n)
    """

    G: np.ndarray
    G_tilde: np.ndarray
    H: np.ndarray
    H_tilde: np.ndarray


def _stencil(h: np.ndarray, p: int, q: int) -> list:
    """The points of the central second difference in coordinates p and q
    with steps h, in the order _second_difference takes their values: the
    3-point form when p == q, the 4-point mixed form otherwise.  A point is
    a shift (p, dp, q, dq) of the centre, or None for the centre itself."""
    hp, hq = h[p], h[q]
    if p == q:
        return [(p, hp, p, 0.0), None, (p, -hp, p, 0.0)]
    return [(p, hp, q, hq), (p, hp, q, -hq), (p, -hp, q, hq), (p, -hp, q, -hq)]


def _shifted(x: np.ndarray, shifts: list) -> np.ndarray:
    """One row per shift (p, dp, q, dq): x with x[p] += dp, then x[q] += dq."""
    Y = np.repeat(x[None, :], len(shifts), axis=0)
    for y, shift in zip(Y, shifts):
        if shift is not None:
            p, dp, q, dq = shift
            y[p] += dp
            y[q] += dq
    return Y


def _second_difference(f: np.ndarray, hp, hq):
    """Central second differences from the values f at _stencil's points,
    which run along f's last axis: three for the pure form, four for the
    mixed one.  The pure form's hp must be a scalar, whose ** 2 is libm's
    pow; numpy squares an array as hp * hp, which differs in the last bit
    about once in a thousand.  Non-finite results pass through, for the
    caller's finite check."""
    with np.errstate(invalid="ignore", over="ignore"):
        if f.shape[-1] == 3:
            return (f[..., 0] - 2.0 * f[..., 1] + f[..., 2]) / hp**2
        return (f[..., 0] - f[..., 1] - f[..., 2] + f[..., 3]) / (4.0 * hp * hq)


def estimate_matrices(g: GameInstance, w: np.ndarray, s: np.ndarray) -> Matrices:
    """Central-difference estimates of the four curvature blocks.

    The profile must be strictly interior; steps in contribution coordinates
    shrink as needed so that every stencil point stays inside the box
    (one-sided differences are out of scope).  The stencils go to the
    oracle in batches, n + 2 m^2 + 1 + 2 m n calls in all, none with more
    than 4 n profile rows; every stencil value has the bits of its own
    scalar evaluation, and a failing point raises what the blocks, read
    one point at a time in the order G, G~, H, H~, would raise.
    """
    w = np.asarray(w, dtype=float)
    s = np.asarray(s, dtype=float)
    if np.any(s <= 0.0) or np.any(s >= g.s_max):
        raise ConfigError("curvature estimation requires a strictly interior profile")
    n, m = g.n, g.m
    hw = np.array([FD_STEP * max(1.0, abs(v)) for v in w.tolist()])
    hs = np.array([FD_STEP * max(1.0, abs(v)) for v in s.tolist()])
    hs = np.minimum(hs, np.minimum(s, g.s_max - s) / 2.0)
    if np.any(hs <= 0.0):
        raise ConfigError("profile too close to the boundary for two-sided differences")

    # G: agent i's own utility at the stencils of every (s_i, s_j), from one
    # call of 4n - 1 rows (the (s_i, s_i) stencil has three points)
    G = np.empty((n, n))
    for i in range(n):
        shifts = [pt for j in range(n) for pt in _stencil(hs, i, j)]
        u = _own_utilities(g, i, w, _shifted(s, shifts))
        G[i, :i] = _second_difference(u[: 4 * i].reshape(i, 4), hs[i], hs[:i])
        G[i, i] = _second_difference(u[4 * i : 4 * i + 3], hs[i], hs[i])
        G[i, i + 1 :] = _second_difference(u[4 * i + 3 :].reshape(-1, 4), hs[i], hs[i + 1 :])

    # G~: summed accuracy at each distinct point of the (w_k, w_l) stencils,
    # one shared-row call each, in the order the stencils first read them;
    # the (k, l) and (l, k) stencils have the same points, to the bit
    sums: dict[bytes, float] = {}

    def summed(y: np.ndarray) -> float:
        key = y.tobytes()
        if key not in sums:
            sums[key] = social_welfare(g, y, s)
        return sums[key]

    Gt = np.empty((m, m))
    for k in range(m):
        for l in range(m):
            f = np.array([summed(y) for y in _shifted(w, _stencil(hw, k, l))])
            Gt[k, l] = _second_difference(f, hw[k], hw[l])
    Gt /= n

    # H and H~ read the same points (w +- h_k e_k, s +- h_j e_j).  For each
    # of the 2m model points, one call per agent over the 2n contribution
    # points: agent i's rows with s_i moved give H, and the accuracies
    # summed over agents, left to right, give H~.
    S = np.repeat(s[None, :], 2 * n, axis=0)  # rows s + h_j e_j, s - h_j e_j
    own = np.repeat(g.ids, 2)
    rows = np.arange(2 * n)
    S[rows, own] += np.stack([hs, -hs], axis=1).ravel()
    U = np.empty((n, m, 4))  # U[i, k]: agent i's utility at the (w_k, s_i) stencil
    T = np.empty((m, n, 4))  # T[k, j]: summed accuracy at the (w_k, s_j) stencil
    failed = []  # ((k, j, point, agent), error) for each point that raised
    for k in range(m):
        for a, dk in enumerate((hw[k], -hw[k])):
            wk = w.copy()
            wk[k] += dk
            acc = np.empty((n, 2 * n))
            for i in range(n):
                acc[i], errors = _accuracies(g, np.full(2 * n, i), wk, S)
                failed += [((k, r // 2, 2 * a + r % 2, i), e) for r, e in errors.items()]
            T[k, :, 2 * a : 2 * a + 2] = _left_sum(acc).reshape(n, 2)
            U[:, k, 2 * a : 2 * a + 2] = utilities_given(g, own, S, acc[own, rows]).reshape(n, 2)
    # H reads its points before H~ does: a NaN utility first, then an error
    nan = np.isnan(U)
    if nan.any():
        i, k, c = np.unravel_index(np.argmax(nan), U.shape)
        raise NumericError(f"utility is NaN for agent {i} at s_i={float(S[2 * i + c % 2, i])}")
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    H = _second_difference(U, hw[None, :], hs[:, None])
    Ht = _second_difference(T, hw[:, None], hs[None, :])

    for name, arr in (("G", G), ("G_tilde", Gt), ("H", H), ("H_tilde", Ht)):
        if not np.all(np.isfinite(arr)):
            raise NumericError(f"non-finite entries in estimated {name}")
    return Matrices(G=G, G_tilde=Gt, H=H, H_tilde=Ht)


def assumption_samples(
    g: GameInstance, count: int = 64, w_radius: float = 1.0
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Deterministic low-discrepancy sample of interior (w, s) points.

    Contributions are mapped into [margin, s_max - margin] per agent so all
    points admit two-sided difference stencils; w lies in the cube of half
    side w_radius around the origin.
    """
    if count < 1:
        raise ConfigError("sample count must be >= 1")
    if not (isfinite(w_radius) and w_radius >= 0.0):
        raise ConfigError("w_radius must be finite and >= 0")
    n = g.n
    pts = _sobol(n + g.m, count)
    lo, hi = INTERIOR_MARGIN * g.s_max, (1.0 - INTERIOR_MARGIN) * g.s_max
    S = lo + pts[:, :n] * (hi - lo)
    W = 0.0 + (2.0 * pts[:, n:] - 1.0) * w_radius  # 0.0 +: no -0.0 at w_radius 0
    return list(zip(W, S))


@functools.cache
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """The shipped direction-number table (poly, vinit), read once per
    process."""
    with np.load(os.path.join(os.path.dirname(__file__), "sobol_directions.npz")) as table:
        poly, vinit = table["poly"], table["vinit"]
    poly.flags.writeable = vinit.flags.writeable = False  # shared by every call
    return poly, vinit


def _sobol(d: int, count: int) -> np.ndarray:
    """The first count points of the d-dimensional unscrambled Sobol
    sequence, bit for bit those of scipy.stats.qmc.Sobol(d, scramble=False).

    Each dimension's direction numbers past its table entries follow the
    Bratley-Fox recurrence of its primitive polynomial, built for all
    dimensions of one degree at once; point i is the XOR of the direction
    numbers picked by the Gray code of i, so point 0 is the origin.
    """
    if count > 2**SOBOL_BITS:
        raise ConfigError(f"at most 2**{SOBOL_BITS} Sobol points can be drawn, got {count}")
    poly, vinit = _sobol_table()
    if d > len(poly):
        raise ConfigError(f"Sobol points have at most {len(poly)} dimensions, got {d}")
    poly, vinit = poly[:d], vinit[:d]
    degree = np.frexp(poly)[1] - 1  # of each primitive polynomial
    v = np.ones((d, SOBOL_BITS), dtype=np.int64)  # row 0 (poly 1) is all ones
    for m in range(1, int(degree.max()) + 1):
        rows = np.flatnonzero(degree == m)
        v[rows, :m] = vinit[rows, :m]
        k = np.arange(m)
        coef = ((poly[rows, None] >> (m - 1 - k)) & 1) << (k + 1)  # a_k 2^(k+1)
        for j in range(m, SOBOL_BITS):
            terms = v[rows[:, None], j - 1 - k] * coef
            v[rows, j] = v[rows, j - m] ^ np.bitwise_xor.reduce(terms, axis=1)
    v <<= np.arange(SOBOL_BITS - 1, -1, -1)  # direction number j: v_j / 2**(j + 1)
    i = np.arange(count)
    gray = i ^ (i >> 1)
    x = np.zeros((count, d), dtype=np.int64)
    for b in range(int(count - 1).bit_length()):
        x ^= ((gray >> b) & 1)[:, None] * v[:, b]
    return x * 2.0**-SOBOL_BITS


@dataclass(frozen=True)
class AssumptionEstimates:
    lam: float
    lam_tilde: float
    L: float
    L_tilde: float
    P: float
    P_tilde: float
    sample_count: int
    nsd_strategy: bool  # G + lam I negative semidefinite on all samples
    nsd_params: bool

    @property
    def certified(self) -> bool:
        return self.nsd_strategy and self.nsd_params

    def as_dict(self) -> dict:
        return {
            "lambda": self.lam,
            "lambda_tilde": self.lam_tilde,
            "L": self.L,
            "L_tilde": self.L_tilde,
            "P": self.P,
            "P_tilde": self.P_tilde,
            "sample_count": self.sample_count,
            "nsd_strategy": self.nsd_strategy,
            "nsd_params": self.nsd_params,
            "certified": self.certified,
        }


def _sym_max_eig(a: np.ndarray) -> float:
    sym = 0.5 * (a + a.T)
    return float(np.max(np.linalg.eigvalsh(sym)))


def check_assumption1(
    samples,
    g: GameInstance,
    lam: float = 0.0,
    lam_tilde: float = 0.0,
) -> AssumptionEstimates:
    """Estimate curvature constants over a point sample and test the claimed
    strong-concavity levels against the symmetric parts of G and G_tilde."""
    samples = list(samples)
    if not samples:
        raise ConfigError("need at least one sample point")
    if not (isfinite(lam) and isfinite(lam_tilde) and lam >= 0.0 and lam_tilde >= 0.0):
        raise ConfigError("concavity levels must be finite and nonnegative")
    lam_est = inf
    lamt_est = inf
    L = Lt = P = Pt = 0.0
    nsd_s = nsd_p = True
    for wv, sv in samples:
        est = estimate_matrices(g, wv, sv)
        top = _sym_max_eig(est.G)
        topt = _sym_max_eig(est.G_tilde)
        lam_est = min(lam_est, -top)
        lamt_est = min(lamt_est, -topt)
        nsd_s = nsd_s and (top + lam <= NSD_TOL)
        nsd_p = nsd_p and (topt + lam_tilde <= NSD_TOL)
        L = max(L, float(np.max(np.abs(est.G))))
        Lt = max(Lt, float(np.max(np.abs(est.G_tilde))))
        P = max(P, float(np.linalg.norm(est.H, 2)))
        Pt = max(Pt, float(np.linalg.norm(est.H_tilde, 2)))
    return AssumptionEstimates(
        lam=max(lam_est, 0.0),
        lam_tilde=max(lamt_est, 0.0),
        L=L,
        L_tilde=Lt,
        P=P,
        P_tilde=Pt,
        sample_count=len(samples),
        nsd_strategy=nsd_s,
        nsd_params=nsd_p,
    )


@dataclass(frozen=True)
class FeasibleStepRegion:
    gamma_max: float
    eta_max: float
    gamma_ok: bool  # lam strictly dominates the coupling term P_tilde
    eta_ok: bool

    @property
    def empty(self) -> bool:
        return not (self.gamma_ok and self.eta_ok and self.gamma_max > 0.0 and self.eta_max > 0.0)

    def as_dict(self) -> dict:
        return {
            "gamma_max": self.gamma_max,
            "eta_max": self.eta_max,
            "gamma_ok": self.gamma_ok,
            "eta_ok": self.eta_ok,
            "empty": self.empty,
        }


def _axis_step_cap(dim: int, L: float, lam: float, coupling: float) -> float:
    """min over {1, 1/coupling, 2 lam/(dim L)^2 ... } with zero-denominator
    terms dropped; callers guarantee lam > coupling."""
    terms = [1.0]
    if coupling > 0.0:
        terms.append(1.0 / coupling)
    try:
        d2 = float(dim) ** 2 * L**2
        denom = d2 - coupling**2
    except OverflowError:
        raise NumericError("step-size cap overflows for these constants") from None
    if d2 > 0.0:
        terms.append(2.0 * lam / d2)
    if denom != 0.0:
        terms.append((lam - coupling) / denom)
    return min(terms)


def feasible_steps(
    n: int,
    m: int,
    L: float,
    L_tilde: float,
    lam: float,
    lam_tilde: float,
    P: float,
    P_tilde: float,
) -> FeasibleStepRegion:
    """Largest step sizes for which the joint update provably contracts.

    The contribution step cap needs lam > P_tilde and the training step cap
    needs lam_tilde > P; otherwise the corresponding axis (and therefore the
    whole region) is flagged empty.
    """
    for name, v in (
        ("L", L), ("L_tilde", L_tilde), ("lam", lam), ("lam_tilde", lam_tilde),
        ("P", P), ("P_tilde", P_tilde),
    ):
        if v < 0.0 or not np.isfinite(v):
            raise ConfigError(f"{name} must be finite and nonnegative")
    if n < 1 or m < 1:
        raise ConfigError("need n >= 1 and m >= 1")
    gamma_ok = lam > P_tilde
    eta_ok = lam_tilde > P
    gamma_max = _axis_step_cap(n, L, lam, P_tilde) if gamma_ok else 0.0
    eta_max = _axis_step_cap(m, L_tilde, lam_tilde, P) if eta_ok else 0.0
    if gamma_max <= 0.0:
        gamma_ok, gamma_max = False, 0.0
    if eta_max <= 0.0:
        eta_ok, eta_max = False, 0.0
    return FeasibleStepRegion(gamma_max, eta_max, gamma_ok, eta_ok)


# ---------------------------------------------------------------------------
# Welfare benchmark and trace diagnostics.


@dataclass(frozen=True)
class WelfareOptResult:
    w_opt: np.ndarray
    welfare: float
    grad_norm: float
    iterations: int
    converged: bool


def compute_w_opt(g: GameInstance) -> WelfareOptResult:
    """Benchmark model: gradient ascent on welfare at full contributions,
    with backtracking line search, started from the zero model."""
    s = g.s_max
    w = np.zeros(g.m)
    lr = 1.0
    f = social_welfare(g, w, s)
    it = 0
    converged = False
    while it < W_OPT_MAX_ITERS:
        grad = g.n * welfare_gradient(g, w, s)  # welfare gradient, not the mean
        gn = sqrt(sq_norm(grad))
        if gn < W_OPT_TOL:
            converged = True
            break
        for _ in range(60):
            trial = w + lr * grad
            try:
                f_trial = social_welfare(g, trial, s)
            except ModelEvalError:
                f_trial = -inf
            if f_trial >= f + 1e-4 * lr * gn**2:
                w, f = trial, f_trial
                lr = min(lr * 2.0, 1e6)
                break
            lr *= 0.5
        else:
            break  # step underflow: treat current point as the answer
        it += 1
    grad = g.n * welfare_gradient(g, w, s)
    return WelfareOptResult(
        w_opt=w,
        welfare=f,
        grad_norm=sqrt(sq_norm(grad)),
        iterations=it,
        converged=converged or sqrt(sq_norm(grad)) < W_OPT_TOL,
    )


@dataclass(frozen=True)
class ContractionReport:
    ratios: np.ndarray  # per-round combined-norm ratios, skipped rounds omitted
    rounds: np.ndarray  # round index of each ratio's numerator
    max_ratio: float
    geo_mean: float


DENOM_FLOOR = 1e-14


def contraction_diagnostic(norms) -> ContractionReport:
    """Empirical per-round contraction of |g| + |g_tilde| along a trace,
    given as an iterable of (g_norm, gt_norm, t) triples; rounds whose
    denominator falls below 1e-14 are skipped to avoid noise blowups.
    """
    seq = [(float(a), float(b), int(t)) for a, b, t in norms]
    if len(seq) < 2:
        raise ConfigError("contraction diagnostic needs at least two recorded rounds")
    combined = [a + b for a, b, _ in seq]
    ratios, rounds = [], []
    for k in range(1, len(seq)):
        if combined[k - 1] < DENOM_FLOOR:
            continue
        ratios.append(combined[k] / combined[k - 1])
        rounds.append(seq[k][2])
    arr = np.array(ratios)  # may be empty: a fixed-point trace has no usable rounds
    positive = arr[arr > 0.0]
    geo = float(np.exp(np.mean(np.log(positive)))) if len(positive) else 0.0
    return ContractionReport(
        ratios=arr,
        rounds=np.array(rounds, dtype=int),
        max_ratio=float(np.max(arr)) if len(arr) else 0.0,
        geo_mean=geo,
    )
