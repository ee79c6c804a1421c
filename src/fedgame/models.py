"""Accuracy families and cost models.

Two accuracy families are provided: a closed-form quadratic bowl whose
precision grows with total contribution, and an empirical family that scores
a linear classifier on per-agent synthetic test sets.  Cost models are convex
with zero cost at zero contribution.

The empirical family's cross-entropy kernel works class-major: the logits
are held as a (classes, rows) array, and the sums over classes add in the
order numpy's pairwise sum adds one (rows, classes) row (see _class_sum),
so every result is bit for bit that of the row-major layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Protocol

import numpy as np

from .core import BOUND_TOL, ConfigError, ModelEvalError


class AccuracyModel(Protocol):
    """Shared accuracy family with per-agent parameters inside.

    evaluate(idx, w, S) is the batched oracle: row r of each of its first
    three results belongs to agent idx[r] at model w and profile S[r] (an
    array of shape (len(idx), n)), and gives that agent's accuracy, the
    accuracy's slope in the agent's own contribution, and its gradient in w
    (shape (len(idx), m)).  Row r depends only on idx[r], w and S[r], so
    evaluating a subset of the rows gives exactly those rows of the full
    call.  S may also be a single row, shape (1, n), that every idx shares,
    as when all agents are evaluated at one profile; the results are then
    bit for bit those of that row repeated len(idx) times.
    A family may append more columns; callers read the first three.  The
    empirical family appends a fourth, losses: the test loss whose
    r_i - loss is the accuracy, so that the difference-quotient step need
    not run the test-set pass again (r_i - accuracy does not always give
    back the loss's bits).  A row whose accuracy cannot be evaluated raises
    ModelEvalError.  value, dsi and grad_w return what the one-row case
    returns, bit for bit.
    """

    @property
    def n_agents(self) -> int: ...

    @property
    def dim(self) -> int: ...

    def evaluate(
        self, idx: np.ndarray, w: np.ndarray, S: np.ndarray
    ) -> tuple[np.ndarray, ...]: ...

    def value(self, i: int, w: np.ndarray, s: np.ndarray) -> float: ...

    def grad_w(self, i: int, w: np.ndarray, s: np.ndarray) -> np.ndarray: ...

    def dsi(self, i: int, w: np.ndarray, s: np.ndarray) -> float: ...

    def manifest(self) -> dict: ...


# Python's float ** 2 raises OverflowError where numpy would give inf, and
# dividing by a square that underflows to 0 raises ZeroDivisionError
_SLOPE_OVERFLOW = "slope overflows: (sigma0 + sum(s)) ** 2 is out of float range"


@dataclass(frozen=True, eq=False)
class QuadraticAccuracy:
    """a_i(w, s) = r_i - |w - theta|^2 / (sigma0 + sum(s)).

    The bowl target theta is shared; r_i shifts agent i's ceiling.  sigma0
    regularises the denominator away from zero; instances that set it to 0
    must keep total contribution positive wherever they evaluate.
    """

    theta: np.ndarray
    r: np.ndarray
    sigma0: float = 1e-6

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", np.asarray(self.theta, dtype=float))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if self.theta.ndim != 1 or self.r.ndim != 1:
            raise ConfigError("theta and r must be 1-d vectors")
        if self.sigma0 < 0.0:
            raise ConfigError("sigma0 must be nonnegative")

    @property
    def n_agents(self) -> int:
        return int(self.r.shape[0])

    @property
    def dim(self) -> int:
        return int(self.theta.shape[0])

    def evaluate(
        self, idx: np.ndarray, w: np.ndarray, S: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        S = np.asarray(S, dtype=float)
        w = np.asarray(w, dtype=float)
        idx = np.asarray(idx, dtype=np.intp)
        sq = self._sq_dist(w)
        if S.shape[0] == 1:
            # one profile shared by every row: one denominator, one slope and
            # one gradient row, whatever the number of agents
            d = self._denom(S)
            return (
                self.r[idx] - sq / d,
                np.array([self._slope(sq, d)]).repeat(len(idx)),
                (2.0 * (self.theta - w) / d)[None, :].repeat(len(idx), axis=0),
            )
        # row sums along the contiguous axis add in the same order as np.sum
        # of one profile, so every row matches its one-row evaluation
        denom = self.sigma0 + S.sum(axis=1)
        if (denom <= 0.0).any():
            raise ModelEvalError("singular denominator: sigma0 + sum(s) <= 0")
        values = self.r[idx] - sq / denom
        try:
            # Python's d ** 2 (libm pow) is not always d * d; keep its bits
            dsi = np.array([sq / d ** 2 for d in denom.tolist()])
        except (OverflowError, ZeroDivisionError):
            raise ModelEvalError(_SLOPE_OVERFLOW) from None
        grads = (2.0 * (self.theta - w)) / denom[:, None]
        return values, dsi, grads

    # The per-agent forms compute only the output they return: every step of
    # a best response's golden-section refine makes one value call.
    # np.add.reduce is the reduction ndarray.sum runs, minus its Python wrapper.
    def _denom(self, s: np.ndarray) -> float:
        d = self.sigma0 + float(np.add.reduce(np.asarray(s), axis=None))
        if d <= 0.0:
            raise ModelEvalError("singular denominator: sigma0 + sum(s) <= 0")
        return d

    def _sq_dist(self, w: np.ndarray) -> float:
        diff = np.asarray(w, dtype=float) - self.theta
        return float(diff @ diff)

    def value(self, i: int, w: np.ndarray, s: np.ndarray) -> float:
        return float(self.r[i]) - self._sq_dist(w) / self._denom(s)

    def grad_w(self, i: int, w: np.ndarray, s: np.ndarray) -> np.ndarray:
        return 2.0 * (self.theta - np.asarray(w, dtype=float)) / self._denom(s)

    def dsi(self, i: int, w: np.ndarray, s: np.ndarray) -> float:
        return self._slope(self._sq_dist(w), self._denom(s))

    @staticmethod
    def _slope(sq: float, d: float) -> float:
        try:
            return sq / d ** 2
        except (OverflowError, ZeroDivisionError):
            raise ModelEvalError(_SLOPE_OVERFLOW) from None

    def manifest(self) -> dict:
        return {
            "family": "quadratic",
            "theta": [float(x) for x in self.theta],
            "r": [float(x) for x in self.r],
            "sigma0": float(self.sigma0),
        }


@dataclass(frozen=True, eq=False)
class CostModel:
    """Convex per-agent contribution costs with c_i(0) = 0.

    kind "linear": c_i(s) = coeff_i * s; slopes holds the coeff_i as an
    array (read-only), for the vector forms.
    kind "polynomial": c_i(s) = sum_k coeffs_i[k] * s^(k+1) with all
    coefficients nonnegative, hence convex and nondecreasing on s >= 0.
    """

    kind: str
    coeffs: tuple

    def __post_init__(self) -> None:
        if self.kind not in ("linear", "polynomial"):
            raise ConfigError(f"unknown cost kind {self.kind!r}")
        if self.kind == "linear":
            vals = tuple(float(c) for c in self.coeffs)
            if any(c < 0.0 or not np.isfinite(c) for c in vals):
                raise ConfigError("linear cost coefficients must be finite and >= 0")
            object.__setattr__(self, "coeffs", vals)
            slopes = np.array(vals, dtype=float)
            slopes.setflags(write=False)
            object.__setattr__(self, "slopes", slopes)
        else:
            groups = tuple(tuple(float(c) for c in grp) for grp in self.coeffs)
            for grp in groups:
                if not grp:
                    raise ConfigError("polynomial cost needs at least one coefficient")
                if any(c < 0.0 or not np.isfinite(c) for c in grp):
                    raise ConfigError("polynomial cost coefficients must be finite and >= 0")
            object.__setattr__(self, "coeffs", groups)

    @classmethod
    def linear(cls, coeffs) -> "CostModel":
        return cls("linear", tuple(float(c) for c in np.atleast_1d(coeffs)))

    @classmethod
    def polynomial(cls, per_agent_coeffs) -> "CostModel":
        return cls("polynomial", tuple(tuple(g) for g in per_agent_coeffs))

    @property
    def n_agents(self) -> int:
        return len(self.coeffs)

    def value(self, i: int, s_i: float) -> float:
        if s_i < -BOUND_TOL:
            raise ConfigError("contribution below zero in cost evaluation")
        s_i = max(s_i, 0.0)
        if self.kind == "linear":
            return self.coeffs[i] * s_i
        return float(sum(c * s_i ** (k + 1) for k, c in enumerate(self.coeffs[i])))

    def deriv(self, i: int, s_i: float) -> float:
        if s_i < -BOUND_TOL:
            raise ConfigError("contribution below zero in cost derivative")
        s_i = max(s_i, 0.0)
        if self.kind == "linear":
            return float(self.coeffs[i])
        return float(sum((k + 1) * c * s_i ** k for k, c in enumerate(self.coeffs[i])))

    def values(self, idx, x: np.ndarray) -> np.ndarray:
        """c_{idx[r]}(x[r]) for every r: the vector form of value."""
        x = np.asarray(x, dtype=float)
        if self.kind != "linear":
            return np.array([self.value(int(i), float(v)) for i, v in zip(idx, x)])
        if (x < -BOUND_TOL).any():
            raise ConfigError("contribution below zero in cost evaluation")
        # np.where, unlike np.maximum, keeps max(-0.0, 0.0) == -0.0 as in value
        return self.slopes[np.asarray(idx, dtype=np.intp)] * np.where(x < 0.0, 0.0, x)

    def max_deriv(self, s_max: np.ndarray) -> float:
        """Largest marginal cost over the box; derivatives are nondecreasing."""
        return max(self.deriv(i, float(s_max[i])) for i in range(self.n_agents))

    def manifest(self) -> dict:
        return {"kind": self.kind, "coeffs": [list(np.atleast_1d(c)) for c in self.coeffs]}


# ---------------------------------------------------------------------------
# Synthetic datasets and the empirical accuracy family.


@dataclass(frozen=True, eq=False)
class SyntheticDataset:
    """Feature matrix plus integer labels for one agent."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "features", np.asarray(self.features, dtype=float))
        object.__setattr__(self, "labels", np.asarray(self.labels, dtype=int))
        if self.features.ndim != 2:
            raise ConfigError("features must be a 2-d array")
        if self.labels.shape != (self.features.shape[0],):
            raise ConfigError("labels must match the number of rows")

    @property
    def size(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_features(self) -> int:
        return int(self.features.shape[1])


def synth_dataset(
    seed: int,
    n_agents: int,
    train_sizes,
    test_size: int,
    n_features: int,
    n_classes: int,
    separation: float = 3.0,
) -> tuple[list[SyntheticDataset], list[SyntheticDataset]]:
    """Draw per-agent Gaussian class blobs, identical distribution across agents.

    Class means are fixed unit directions scaled by `separation`; samples are
    unit-variance Gaussians around them.  Everything is deterministic in the
    seed: the same arguments always regenerate bit-identical arrays.
    """
    if n_classes < 2:
        raise ConfigError("need at least two classes")
    if n_features < 1 or test_size < 1:
        raise ConfigError("n_features and test_size must be positive")
    sizes = [int(t) for t in np.atleast_1d(train_sizes)]
    if len(sizes) == 1:
        sizes = sizes * n_agents
    if len(sizes) != n_agents or any(t < 1 for t in sizes):
        raise ConfigError("bad per-agent train sizes")

    children = np.random.SeedSequence(seed).spawn(1 + n_agents)
    mean_rng = np.random.default_rng(children[0])
    directions = mean_rng.normal(size=(n_classes, n_features))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    means = separation * directions

    def draw(rng: np.random.Generator, count: int) -> SyntheticDataset:
        labels = rng.integers(0, n_classes, size=count)
        feats = means[labels] + rng.normal(size=(count, n_features))
        return SyntheticDataset(feats, labels)

    train, test = [], []
    for i in range(n_agents):
        child = np.random.default_rng(children[1 + i])
        train.append(draw(child, sizes[i]))
        test.append(draw(child, test_size))
    return train, test


def _as_weight_matrix(w: np.ndarray, n_classes: int, n_features: int) -> np.ndarray:
    w = np.asarray(w, dtype=float)
    if w.shape != (n_classes * n_features,):
        raise ConfigError("parameter vector length must be classes * features")
    return w.reshape(n_classes, n_features)


# The cross-entropy kernel.  After the gemm the logits are copied once to a
# C-contiguous (classes, rows) array, so every per-example reduction runs
# along axis 0 over whole contiguous rows, not along a few-wide inner axis.
# Maxima, tie counts, exp and the label gather do not depend on the layout;
# every sum whose order does goes through _class_sum.


def _logits(w: np.ndarray, ds: SyntheticDataset, n_classes: int) -> np.ndarray:
    """Class-major logits: entry [k, j] is class k's logit for example j."""
    W = _as_weight_matrix(w, n_classes, ds.n_features)
    return np.ascontiguousarray((ds.features @ W.T).T)


def _class_sum(x: np.ndarray) -> np.ndarray:
    """Sum over the classes (axis 0) of a class-major array, bit for bit
    numpy's sum of one row of the row-major layout.  Below 8 classes that
    sum adds left to right, as the reduction along axis 0 does (numpy also
    adds the result to +0.0, which only changes an all -0.0 sum; the terms
    summed here are never -0.0); from 8 on its pairwise order is kept by
    summing the row-major copy itself."""
    if x.shape[0] < 8:
        return np.add.reduce(x, axis=0)
    return np.ascontiguousarray(x.T).sum(axis=1)


def _shifted_exp(logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-example maxima and exp(logits - maximum), class-major."""
    top = logits.max(axis=0)
    return top, np.exp(logits - top)


def _logsumexp_rows(logits: np.ndarray, top: np.ndarray, shifted: np.ndarray) -> np.ndarray:
    """Log-sum-exp of each example's logits (a column of the class-major
    array), bit for bit what scipy.special.logsumexp returns over a row of
    the row-major one: the maximal terms are split out, the rest summed,
    divided by the number of maxima and passed through log1p, and a
    non-finite result is replaced by the direct log(sum(exp))."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        is_top = logits == top
        ties = is_top.sum(axis=0, dtype=float)
        rest = _class_sum(np.where(is_top, 0.0, shifted))
        rest = np.where(rest == 0.0, rest, rest / ties)
        out = np.log1p(rest) + np.log(ties) + top
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(_class_sum(np.exp(logits))), out)
    return out


def _mean_loss(logits: np.ndarray, lse: np.ndarray, ds: SyntheticDataset) -> float:
    picked = logits[ds.labels, np.arange(ds.size)]
    return float(np.mean(lse - picked))


def _loss_grad(shifted: np.ndarray, ds: SyntheticDataset) -> np.ndarray:
    """Gradient of the mean cross-entropy; overwrites shifted.  The gemm
    takes the probabilities row-major, as (rows, classes).T @ features:
    the same product from the class-major array rounds differently."""
    probs = shifted
    probs /= _class_sum(probs)
    probs[ds.labels, np.arange(ds.size)] -= 1.0
    grad = np.ascontiguousarray(probs.T).T @ ds.features / ds.size
    return grad.reshape(-1)


def cross_entropy(w: np.ndarray, ds: SyntheticDataset, n_classes: int) -> float:
    """Mean cross-entropy of the linear classifier logits = W x on `ds`."""
    logits = _logits(w, ds, n_classes)
    top, shifted = _shifted_exp(logits)
    return _mean_loss(logits, _logsumexp_rows(logits, top, shifted), ds)


def cross_entropy_grad(w: np.ndarray, ds: SyntheticDataset, n_classes: int) -> np.ndarray:
    _, shifted = _shifted_exp(_logits(w, ds, n_classes))
    return _loss_grad(shifted, ds)


def _cross_entropy_and_grad(
    w: np.ndarray, ds: SyntheticDataset, n_classes: int
) -> tuple[float, np.ndarray]:
    """cross_entropy and cross_entropy_grad from one forward pass."""
    logits = _logits(w, ds, n_classes)
    top, shifted = _shifted_exp(logits)
    loss = _mean_loss(logits, _logsumexp_rows(logits, top, shifted), ds)
    return loss, _loss_grad(shifted, ds)


@dataclass(frozen=True, eq=False)
class EmpiricalAccuracy:
    """a_i(w, s) = r_i - test cross-entropy of a linear classifier.

    The test loss does not depend on s, so the own-contribution derivative of
    this family is defined as zero; contribution sensitivity comes from the
    numerical difference-quotient updater in the dynamics module instead.
    Agent i trains on the first ceil(s_i) rows of its train set.
    """

    train_sets: tuple[SyntheticDataset, ...]
    test_sets: tuple[SyntheticDataset, ...]
    r: np.ndarray
    n_classes: int
    data_seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "train_sets", tuple(self.train_sets))
        object.__setattr__(self, "test_sets", tuple(self.test_sets))
        object.__setattr__(self, "r", np.asarray(self.r, dtype=float))
        if len(self.train_sets) != len(self.test_sets):
            raise ConfigError("need one test set per train set")
        if self.r.shape != (len(self.train_sets),):
            raise ConfigError("r must have one entry per agent")
        if self.n_classes < 2:
            raise ConfigError("need at least two classes")

    @property
    def n_agents(self) -> int:
        return len(self.train_sets)

    @property
    def n_features(self) -> int:
        return self.train_sets[0].n_features

    @property
    def dim(self) -> int:
        return self.n_classes * self.n_features

    def evaluate(
        self, idx: np.ndarray, w: np.ndarray, S: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(values, dsi, grads, losses): the protocol's three columns plus
        each row's test loss, the exact loss the value subtracts from r."""
        # the test loss ignores s: one fused pass per distinct agent
        ids, rows = np.unique(np.asarray(idx, dtype=np.intp), return_inverse=True)
        losses = np.empty(len(ids))
        grads = np.empty((len(ids), self.dim))
        for k, i in enumerate(ids.tolist()):
            losses[k], grad = _cross_entropy_and_grad(w, self.test_sets[i], self.n_classes)
            grads[k] = -grad
        values = self.r[ids] - losses
        return values[rows], np.zeros(len(rows)), grads[rows], losses[rows]

    def value(self, i: int, w: np.ndarray, s: np.ndarray) -> float:
        return float(self.r[i]) - cross_entropy(w, self.test_sets[i], self.n_classes)

    def grad_w(self, i: int, w: np.ndarray, s: np.ndarray) -> np.ndarray:
        return -cross_entropy_grad(w, self.test_sets[i], self.n_classes)

    def dsi(self, i: int, w: np.ndarray, s: np.ndarray) -> float:
        return 0.0

    def test_loss(self, i: int, w: np.ndarray) -> float:
        return cross_entropy(w, self.test_sets[i], self.n_classes)

    def local_training_step(
        self, i: int, w: np.ndarray, s_i: float, learn_rate: float
    ) -> np.ndarray:
        """Parameters after one gradient-descent step on the first ceil(s_i)
        train rows; w unchanged when s_i rounds up to no rows."""
        count = int(ceil(max(s_i, 0.0)))
        if count == 0:
            return np.array(w, dtype=float)
        full = self.train_sets[i]
        count = min(count, full.size)
        prefix = SyntheticDataset(full.features[:count], full.labels[:count])
        grad = cross_entropy_grad(w, prefix, self.n_classes)
        return np.asarray(w, dtype=float) - learn_rate * grad

    def manifest(self) -> dict:
        return {
            "family": "empirical",
            "classes": int(self.n_classes),
            "features": int(self.n_features),
            "data_seed": int(self.data_seed),
            "train_sizes": [ds.size for ds in self.train_sets],
            "test_sizes": [ds.size for ds in self.test_sets],
            "r": [float(x) for x in self.r],
        }
