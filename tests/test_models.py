"""Accuracy families, cost models, synthetic data."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame.core import ConfigError, ModelEvalError
from fedgame.models import (
    CostModel,
    EmpiricalAccuracy,
    QuadraticAccuracy,
    SyntheticDataset,
    cross_entropy,
    cross_entropy_grad,
    synth_dataset,
)

from conftest import cost_second_deriv


def test_quadratic_value_and_derivatives():
    acc = QuadraticAccuracy(theta=np.array([1.0, 2.0]), r=np.array([1.0, 1.0]), sigma0=0.0)
    w = np.array([0.5, 1.5])
    s = np.array([0.0, 5.0])
    assert acc.value(0, w, s) == pytest.approx(1.0 - 0.5 / 5.0, abs=1e-15)
    assert acc.grad_w(0, w, s) == pytest.approx([0.2, 0.2])
    assert acc.dsi(0, w, s) == pytest.approx(0.5 / 25.0)


def test_quadratic_matches_finite_differences():
    acc = QuadraticAccuracy(theta=np.array([0.3, -0.7, 0.1]), r=np.array([2.0]), sigma0=0.5)
    rng = np.random.default_rng(5)
    w = rng.normal(size=3)
    s = np.array([1.7])
    h = 1e-6
    for j in range(3):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        fd = (acc.value(0, up, s) - acc.value(0, dn, s)) / (2 * h)
        assert acc.grad_w(0, w, s)[j] == pytest.approx(fd, rel=1e-7)
    fd_s = (acc.value(0, w, s + h) - acc.value(0, w, s - h)) / (2 * h)
    assert acc.dsi(0, w, s) == pytest.approx(fd_s, rel=1e-7)


def test_quadratic_singular_denominator():
    acc = QuadraticAccuracy(theta=np.array([1.0]), r=np.array([1.0]), sigma0=0.0)
    with pytest.raises(ModelEvalError):
        acc.value(0, np.array([0.0]), np.array([0.0]))


def test_quadratic_slope_overflow_is_a_model_error():
    # Python's float ** 2 raises OverflowError where the square leaves the float range
    acc = QuadraticAccuracy(theta=np.array([1.0]), r=np.array([1.0, 1.0]), sigma0=1.0)
    w = np.array([0.0])
    S = np.array([[1e300, 1.0], [2.0, 3.0]])
    with pytest.raises(ModelEvalError, match="slope overflows"):
        acc.dsi(0, w, S[0])
    with pytest.raises(ModelEvalError, match="slope overflows"):
        acc.evaluate(np.array([0, 1]), w, S[:1])  # one shared row
    with pytest.raises(ModelEvalError, match="slope overflows"):
        acc.evaluate(np.array([0, 1]), w, S)  # one row per agent
    assert acc.value(0, w, S[0]) == 1.0 - 1.0 / (1.0 + 1e300 + 1.0)


def test_quadratic_rejects_negative_sigma0():
    with pytest.raises(ConfigError):
        QuadraticAccuracy(theta=np.array([1.0]), r=np.array([1.0]), sigma0=-1.0)


def test_cost_linear():
    cost = CostModel.linear([0.5, 2.0])
    assert cost.value(0, 3.0) == pytest.approx(1.5)
    assert cost.deriv(1, 10.0) == pytest.approx(2.0)
    assert cost_second_deriv(cost, 0, 1.0) == 0.0
    assert cost.value(0, 0.0) == 0.0
    assert cost.max_deriv(np.array([5.0, 5.0])) == pytest.approx(2.0)


def test_cost_polynomial():
    # c(s) = 0.5 s + 0.25 s^2  ->  c' = 0.5 + 0.5 s, c'' = 0.5
    cost = CostModel.polynomial([(0.5, 0.25)])
    assert cost.value(0, 2.0) == pytest.approx(2.0)
    assert cost.deriv(0, 2.0) == pytest.approx(1.5)
    assert cost_second_deriv(cost, 0, 2.0) == pytest.approx(0.5)
    assert cost.value(0, 0.0) == 0.0


def test_cost_rejects_negative_coefficients():
    with pytest.raises(ConfigError):
        CostModel.linear([-0.1])
    with pytest.raises(ConfigError):
        CostModel.polynomial([(0.1, -0.2)])
    with pytest.raises(ConfigError):
        CostModel.polynomial([()])


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.floats(min_value=0.0, max_value=5.0), min_size=1, max_size=4),
    st.floats(min_value=0.0, max_value=10.0),
)
def test_cost_polynomial_derivative_matches_fd(coeffs, s):
    cost = CostModel.polynomial([tuple(coeffs)])
    h = 1e-6
    lo = max(s - h, 0.0)
    fd = (cost.value(0, s + h) - cost.value(0, lo)) / (s + h - lo)
    assert cost.deriv(0, s) == pytest.approx(fd, rel=1e-3, abs=1e-4)


def test_synth_dataset_deterministic():
    a_train, a_test = synth_dataset(42, 3, [5, 6, 7], 10, 2, 2)
    b_train, b_test = synth_dataset(42, 3, [5, 6, 7], 10, 2, 2)
    for x, y in zip(a_train + a_test, b_train + b_test):
        assert np.array_equal(x.features, y.features)
        assert np.array_equal(x.labels, y.labels)
    c_train, _ = synth_dataset(43, 3, [5, 6, 7], 10, 2, 2)
    assert not np.array_equal(a_train[0].features, c_train[0].features)


def test_synth_dataset_shapes_and_labels():
    train, test = synth_dataset(0, 2, [4, 9], 12, 3, 4)
    assert [ds.size for ds in train] == [4, 9]
    assert [ds.size for ds in test] == [12, 12]
    assert all(ds.n_features == 3 for ds in train + test)
    for ds in train + test:
        assert ds.labels.min() >= 0 and ds.labels.max() < 4


def test_synth_dataset_scalar_train_size_broadcasts():
    train, _ = synth_dataset(0, 3, 6, 5, 2, 2)
    assert [ds.size for ds in train] == [6, 6, 6]


def test_synth_dataset_separation_scales_class_means():
    # same seed, doubled separation: labels and noise repeat, so each row
    # shifts by exactly one class-mean vector of norm `separation`
    near, _ = synth_dataset(7, 1, [50], 1, 2, 2, separation=3.0)
    far, _ = synth_dataset(7, 1, [50], 1, 2, 2, separation=6.0)
    assert np.array_equal(near[0].labels, far[0].labels)
    shift = np.linalg.norm(far[0].features - near[0].features, axis=1)
    assert shift == pytest.approx(np.full(50, 3.0))


def test_cross_entropy_against_direct_formula():
    rng = np.random.default_rng(3)
    ds = SyntheticDataset(rng.normal(size=(6, 2)), rng.integers(0, 3, size=6))
    w = rng.normal(size=6)  # 3 classes x 2 features
    wm = w.reshape(3, 2)
    total = 0.0
    for x, y in zip(ds.features, ds.labels):
        logits = wm @ x
        total += np.log(np.sum(np.exp(logits))) - logits[y]
    assert cross_entropy(w, ds, 3) == pytest.approx(total / 6)


def test_cross_entropy_uniform_logits():
    ds = SyntheticDataset(np.array([[1.0, 2.0]]), np.array([0]))
    assert cross_entropy(np.zeros(4), ds, 2) == pytest.approx(np.log(2.0))


def test_cross_entropy_grad_matches_fd():
    rng = np.random.default_rng(9)
    ds = SyntheticDataset(rng.normal(size=(5, 3)), rng.integers(0, 2, size=5))
    w = rng.normal(size=6)
    grad = cross_entropy_grad(w, ds, 2)
    h = 1e-6
    for j in range(6):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        fd = (cross_entropy(up, ds, 2) - cross_entropy(dn, ds, 2)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def _toy_empirical(n=2, seed=1):
    train, test = synth_dataset(seed, n, 20, 15, 2, 2)
    r = np.full(n, np.log(2))
    return EmpiricalAccuracy(train_sets=train, test_sets=test, r=r, n_classes=2, data_seed=seed)


def test_empirical_dim_and_zero_point():
    acc = _toy_empirical()
    assert acc.dim == 4
    # offset ln(classes) makes the uniform classifier score exactly zero
    assert acc.value(0, np.zeros(4), np.array([5.0, 5.0])) == pytest.approx(0.0)
    assert acc.dsi(0, np.zeros(4), np.array([5.0, 5.0])) == 0.0


def test_empirical_grad_matches_fd():
    acc = _toy_empirical()
    rng = np.random.default_rng(4)
    w = rng.normal(size=4) * 0.3
    s = np.array([5.0, 5.0])
    grad = acc.grad_w(1, w, s)
    h = 1e-6
    for j in range(4):
        up, dn = w.copy(), w.copy()
        up[j] += h
        dn[j] -= h
        fd = (acc.value(1, up, s) - acc.value(1, dn, s)) / (2 * h)
        assert grad[j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


def test_local_training_step_uses_prefix():
    acc = _toy_empirical()
    w = np.zeros(4)
    step_small = acc.local_training_step(0, w, 3.2, 0.5)
    full = acc.train_sets[0]
    prefix = SyntheticDataset(full.features[:4], full.labels[:4])
    expected = w - 0.5 * cross_entropy_grad(w, prefix, 2)
    assert step_small == pytest.approx(expected)
    # ceil(3.2) = 4 rows: the same step as s = 4, not as s = 3
    assert np.array_equal(step_small, acc.local_training_step(0, w, 4.0, 0.5))
    assert not np.array_equal(step_small, acc.local_training_step(0, w, 3.0, 0.5))


def test_local_training_step_degenerate_at_zero():
    acc = _toy_empirical()
    w = np.ones(4)
    assert np.array_equal(acc.local_training_step(0, w, 0.0, 0.5), w)


def test_local_training_step_caps_at_train_size():
    acc = _toy_empirical()
    size = acc.train_sets[0].size
    capped = acc.local_training_step(0, np.zeros(4), 10_000.0, 0.1)
    assert np.array_equal(capped, acc.local_training_step(0, np.zeros(4), float(size), 0.1))


def test_local_training_step_reduces_train_loss():
    acc = _toy_empirical(seed=8)
    w = np.zeros(4)
    before = cross_entropy(w, acc.train_sets[0], 2)
    after_w = acc.local_training_step(0, w, 20.0, 0.2)
    after = cross_entropy(after_w, acc.train_sets[0], 2)
    assert after < before


def test_manifests_describe_families():
    quad = QuadraticAccuracy(theta=np.array([1.0]), r=np.array([1.0, 1.0]), sigma0=0.5)
    assert quad.manifest()["family"] == "quadratic"
    emp = _toy_empirical()
    man = emp.manifest()
    assert man["family"] == "empirical"
    assert man["train_sizes"] == [20, 20]
    cost = CostModel.linear([0.1])
    assert cost.manifest()["kind"] == "linear"
