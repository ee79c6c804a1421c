"""The class-major cross-entropy kernel against the row-major kernel it replaced.

The reference below is the row-major kernel as it stood before the layout
change (its argument checks and docstrings left out).  Every public result
of the new kernel must equal it bit for bit, at every class count (numpy's
pairwise sum changes its order at 8 and at 128 terms), with tied, huge and
infinite logits, and at as many rows and features as the benchmark runs
(past 128 rows numpy's mean adds in pairwise blocks).
"""

import threading
from math import ceil, inf, nan

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from fedgame.models import (
    EmpiricalAccuracy,
    SyntheticDataset,
    _class_sum,
    _cross_entropy_and_grad,
    _logsumexp_rows,
    _shifted_exp,
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


# Crafted logits, class-major: one column per example.
CRAFTED = {
    "one-maximum-each": [[1.0, -2.0, 0.25], [0.5, 3.0, 0.0], [-1.0, 2.5, 0.5]],
    "ties-in-some": [[1.0, 2.0, 0.0], [1.0, 1.0, 0.0], [0.5, 2.0, 0.0]],
    # two maxima in the first example and none in the NaN one: the count of
    # maxima equals the number of examples although not every example has one
    "nan-maximum-hides-a-tie": [[1.0, nan], [1.0, 0.0], [0.5, 0.2]],
    "infinite": [[inf, -inf, 1.0, inf], [0.0, -inf, -inf, inf], [-inf, 2.0, -inf, 1.0]],
    "all-minus-inf": [[-inf, -inf], [-inf, -inf], [-inf, -inf]],
}


@pytest.mark.parametrize("logits", CRAFTED.values(), ids=CRAFTED.keys())
@pytest.mark.parametrize("pad", [1, 8])  # -inf classes below: 4 to 11 classes in all
def test_logsumexp_rows_on_crafted_logits(logits, pad):
    logits = np.array(logits)
    logits = np.vstack([logits, np.full((pad, logits.shape[1]), -inf)])
    with np.errstate(invalid="ignore"):  # inf - inf in the shift, as in the kernel
        top, shifted = _shifted_exp(logits)
        row_top, row_shifted = _ref_shifted_exp(logits.T)
        expected = logsumexp(logits.T, axis=1)
    got = _logsumexp_rows(logits, top, shifted)
    assert same(got, _ref_logsumexp_rows(logits.T, row_top, row_shifted))
    assert same(got, expected)


@settings(max_examples=100, deadline=None)
@given(seed=SEEDS, rows=st.integers(1, 30), classes=st.integers(1, 300))
def test_class_sum_adds_as_numpy_sums_a_row(seed, rows, classes):
    rng = np.random.default_rng(seed)
    # positive terms over six orders of magnitude: the order shows in the last bits
    x = rng.random((rows, classes)) * 10.0 ** rng.uniform(-3.0, 3.0, (rows, classes))
    assert same(_class_sum(np.ascontiguousarray(x.T)), x.sum(axis=1))


# ---------------------------------------------------------------------------
# The per-agent train prefix that local_training_step keeps.


def training_instance(seed, sizes, classes=4, features=3):
    rng = np.random.default_rng(seed)
    sets = [
        SyntheticDataset(rng.normal(size=(size, features)), rng.integers(0, classes, size=size))
        for size in sizes
    ]
    return rng, EmpiricalAccuracy(sets, sets, np.zeros(len(sets)), classes)


# ceil(s_i) stays, changes, returns to an earlier count, reaches 0 and
# passes the train size (50 rows)
CONTRIBUTIONS = [10.2, 10.7, 11.0, 12.5, 11.0, 0.0, -0.3, 3.0, 49.5, 50.0, 51.0, 1e154, 11.0, 10.1]


def test_training_steps_keep_one_prefix_and_match_the_reference():
    rng, acc = training_instance(0, [50])
    w = rng.normal(size=acc.dim)
    for s_i in CONTRIBUTIONS:
        before = acc._prefixes[0]
        step = acc.local_training_step(0, w, s_i, 0.25)
        assert same(step, ref_local_training_step(acc, 0, w, s_i, 0.25))
        if before is not None and ceil(s_i) == before.size:
            assert acc._prefixes[0] is before  # same count: nothing rebuilt
        w = step
    # at 11 rows the prefix's rows are views of the train set itself
    assert acc._prefixes[0].size == 11
    assert np.shares_memory(acc._prefixes[0].features, acc.train_sets[0].features)


def test_agents_stepping_in_threads_on_one_instance():
    rng, acc = training_instance(1, [60, 40])
    # few counts, so that an agent reading the other's prefix would often
    # find one of the size it wants
    contributions = rng.choice([2.5, 3.0, 7.0, 45.0], size=(2, 300))
    w0 = rng.normal(size=acc.dim)
    expected = [[ref_local_training_step(acc, i, w0, s, 0.1) for s in contributions[i]]
                for i in range(2)]
    got = [[], []]
    step = threading.Barrier(2)  # the two agents take each step together

    def agent(i):
        for s in contributions[i]:
            step.wait()
            got[i].append(acc.local_training_step(i, w0, s, 0.1))

    threads = [threading.Thread(target=agent, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    for i in range(2):
        assert all(same(a, b) for a, b in zip(got[i], expected[i], strict=True))
