"""The class-major cross-entropy kernel against the row-major kernel it replaced.

The reference below is the row-major kernel as it stood before the layout
change (its argument checks and docstrings left out).  Every public result
of the new kernel must equal it bit for bit, at every class count (numpy's
pairwise sum changes its order at 8 and at 128 terms), with tied, huge and
infinite logits, and at as many rows and features as the benchmark runs
(past 128 rows numpy's mean adds in pairwise blocks).
"""

from math import ceil

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgame.models import (
    EmpiricalAccuracy,
    SyntheticDataset,
    _class_sum,
    _cross_entropy_and_grad,
    cross_entropy,
    cross_entropy_grad,
)

SEEDS = st.integers(0, 2**32 - 1)
# both sides of each switch of numpy's pairwise sum
CLASSES = st.one_of(st.integers(2, 9), st.integers(8, 128), st.integers(120, 300))
# up to empirical-n20's 2,000 test rows and 8 features, and past them
ROWS = st.one_of(st.integers(1, 60), st.integers(1, 3000))
FEATURES = st.integers(1, 8)


def same(a, b) -> bool:
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# The row-major reference.


def _ref_logits(w, ds, n_classes):
    return ds.features @ np.asarray(w, dtype=float).reshape(n_classes, ds.n_features).T


def _ref_shifted_exp(logits):
    top = logits.max(axis=1, keepdims=True)
    return top, np.exp(logits - top)


def _ref_logsumexp_rows(logits, top, shifted):
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        is_top = logits == top
        ties = is_top.sum(axis=1, keepdims=True, dtype=float)
        rest = np.where(is_top, 0.0, shifted).sum(axis=1, keepdims=True)
        rest = np.where(rest == 0.0, rest, rest / ties)
        out = (np.log1p(rest) + np.log(ties) + top)[:, 0]
        bad = ~np.isfinite(out)
        if bad.any():
            out = np.where(bad, np.log(np.exp(logits).sum(axis=1)), out)
    return out


def _ref_mean_loss(logits, lse, ds):
    picked = logits[np.arange(ds.size), ds.labels]
    return float(np.mean(lse - picked))


def _ref_loss_grad(shifted, ds):
    probs = shifted
    probs /= probs.sum(axis=1, keepdims=True)
    probs[np.arange(ds.size), ds.labels] -= 1.0
    grad = probs.T @ ds.features / ds.size
    return grad.reshape(-1)


def ref_cross_entropy(w, ds, n_classes):
    logits = _ref_logits(w, ds, n_classes)
    top, shifted = _ref_shifted_exp(logits)
    return _ref_mean_loss(logits, _ref_logsumexp_rows(logits, top, shifted), ds)


def ref_cross_entropy_grad(w, ds, n_classes):
    _, shifted = _ref_shifted_exp(_ref_logits(w, ds, n_classes))
    return _ref_loss_grad(shifted, ds)


def ref_local_training_step(acc, i, w, s_i, learn_rate):
    count = int(ceil(max(s_i, 0.0)))
    if count == 0:
        return np.array(w, dtype=float)
    full = acc.train_sets[i]
    count = min(count, full.size)
    prefix = SyntheticDataset(full.features[:count], full.labels[:count])
    return np.asarray(w, dtype=float) - learn_rate * ref_cross_entropy_grad(w, prefix, acc.n_classes)


# ---------------------------------------------------------------------------


def random_model(rng, classes, features, scale, ties):
    w = rng.normal(size=classes * features) * scale
    if ties:
        w = np.round(w)  # a few distinct weights: many examples tie for the max
        w[rng.random(w.shape) < 0.5] = 0.0
    return w


@settings(max_examples=150, deadline=None)
@given(seed=SEEDS, rows=ROWS, classes=CLASSES, features=FEATURES,
       scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0, 1e300]), ties=st.booleans())
# one past numpy's 128-element pairwise block, and empirical-n20's test set
@example(seed=0, rows=129, classes=4, features=8, scale=1.0, ties=False)
@example(seed=1, rows=2000, classes=4, features=8, scale=1.0, ties=False)
@example(seed=2, rows=2000, classes=130, features=8, scale=30.0, ties=True)
def test_kernel_matches_row_major_reference(seed, rows, classes, features, scale, ties):
    rng = np.random.default_rng(seed)
    features_in = rng.normal(size=(rows, features))
    labels_in = rng.integers(0, classes, size=rows)
    ds = SyntheticDataset(features_in, labels_in)
    # the flat label index is the dataset's own, read-only; the caller's
    # arrays stay writable
    assert same(ds.label_index, labels_in * rows + np.arange(rows))
    assert not ds.label_index.flags.writeable
    assert features_in.flags.writeable and labels_in.flags.writeable
    w = random_model(rng, classes, features, scale, ties)
    with np.errstate(all="ignore"):  # scale 1e300 overflows the logits to +-inf
        loss = cross_entropy(w, ds, classes)
        grad = cross_entropy_grad(w, ds, classes)
        fused = _cross_entropy_and_grad(w, ds, classes)
        ref_loss = ref_cross_entropy(w, ds, classes)
        ref_grad = ref_cross_entropy_grad(w, ds, classes)
    assert same(loss, ref_loss)
    assert same(grad, ref_grad)
    assert same(fused[0], ref_loss) and same(fused[1], ref_grad)


@settings(max_examples=60, deadline=None)
@given(seed=SEEDS, classes=CLASSES, features=FEATURES, train=ROWS,
       s_i=st.floats(0.0, 3100.0), learn_rate=st.sampled_from([0.05, 0.25, 1.0]))
@example(seed=0, classes=4, features=8, train=2000, s_i=129.0, learn_rate=0.25)
@example(seed=1, classes=4, features=8, train=2000, s_i=1999.5, learn_rate=0.25)
def test_local_training_step_matches_row_major_reference(
    seed, classes, features, train, s_i, learn_rate
):
    rng = np.random.default_rng(seed)
    sets = [
        SyntheticDataset(rng.normal(size=(size, features)), rng.integers(0, classes, size=size))
        for size in (train, 1)
    ]
    acc = EmpiricalAccuracy(sets[:1], sets[1:], np.zeros(1), classes)
    w = rng.normal(size=acc.dim) * 2.0
    assert same(
        acc.local_training_step(0, w, s_i, learn_rate),
        ref_local_training_step(acc, 0, w, s_i, learn_rate),
    )


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 30), classes=st.integers(1, 300))
def test_class_sum_adds_as_numpy_sums_a_row(seed, rows, classes):
    rng = np.random.default_rng(seed)
    # positive terms over six orders of magnitude: the order shows in the last bits
    x = rng.random((rows, classes)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, classes))
    assert same(_class_sum(np.ascontiguousarray(x.T)), x.sum(axis=1))
