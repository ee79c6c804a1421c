"""Scenario parsing, canonical rendering, deterministic building."""

import configparser
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame.config import build_scenario, parse_scenario
from fedgame.core import ConfigError
from fedgame.dynamics import RunConfig
from fedgame.scenarios import builtin_names, builtin_text

from conftest import render_scenario

MINIMAL_QUADRATIC = """
[instance]
n = 2
m = 2
theta = 1.0, 2.0
cost_coeffs = 0.04, 0.02
"""

EMPIRICAL = """
[instance]
n = 3
accuracy = empirical
features = 2
classes = 3
s_max = 20.0
cost_coeffs = 0.001
payment = linear
beta = 0.01

[run]
algorithm = upbred
updater = empirical
seed = 4
"""


def test_parse_minimal_quadratic_defaults():
    cfg = parse_scenario(MINIMAL_QUADRATIC)
    assert cfg.n == 2 and cfg.m == 2
    assert cfg.accuracy == "quadratic"
    assert cfg.theta == (1.0, 2.0)
    assert cfg.r == (1.0, 1.0)  # family default, broadcast per agent
    assert cfg.s_max == (1.0, 1.0)
    assert cfg.cost_coeffs == (0.04, 0.02)
    assert cfg.payment == "none" and cfg.beta == 0.0
    assert cfg.algorithm == "upbred"
    assert cfg.gamma == 0.5 and cfg.eta == 0.25
    assert cfg.w0 == "zeros" and cfg.s0 == "random"
    assert cfg.formats == ("csv", "json")


def test_parse_empirical_derives_m():
    cfg = parse_scenario(EMPIRICAL)
    assert cfg.m == 6  # classes * features
    assert cfg.r == pytest.approx((np.log(3.0),) * 3)
    assert cfg.data_seed is None
    assert cfg.updater == "empirical"


def test_round_trip_is_identity():
    for text in (MINIMAL_QUADRATIC, EMPIRICAL):
        cfg = parse_scenario(text)
        assert parse_scenario(render_scenario(cfg)) == cfg


@pytest.mark.parametrize("name", builtin_names())
def test_bundled_scenarios_round_trip(name):
    cfg = parse_scenario(builtin_text(name))
    assert parse_scenario(render_scenario(cfg)) == cfg


def test_keys_that_do_not_apply_hold_none():
    quadratic = parse_scenario(MINIMAL_QUADRATIC)
    assert quadratic.features is None and quadratic.test_size is None
    assert quadratic.cost_scale is None
    empirical = parse_scenario(EMPIRICAL)
    assert empirical.theta is None and empirical.sigma0 is None
    assert "theta" not in render_scenario(empirical)


def test_round_trip_preserves_exact_floats():
    cfg = parse_scenario(
        MINIMAL_QUADRATIC, ["run.gamma=0.30000000000000004", "run.eps=1e-7"]
    )
    back = parse_scenario(render_scenario(cfg))
    assert back.gamma == cfg.gamma
    assert back.eps == 1e-7


def test_unknown_section_and_key_rejected():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC + "\n[misc]\nx = 1\n")
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC + "\nspeed = 9\n")


def test_family_specific_keys_are_fenced():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC + "\nclasses = 2\n")
    bad_empirical = EMPIRICAL.replace("features = 2", "features = 2\ntheta = 1.0")
    with pytest.raises(ConfigError):
        parse_scenario(bad_empirical)


def test_quadratic_requires_m_and_theta():
    with pytest.raises(ConfigError):
        parse_scenario("[instance]\nn = 2\ntheta = 1.0\ncost_coeffs = 0.1\n")
    with pytest.raises(ConfigError):
        parse_scenario("[instance]\nn = 2\nm = 1\ncost_coeffs = 0.1\n")


def test_empirical_m_must_match_when_given():
    with pytest.raises(ConfigError):
        parse_scenario(EMPIRICAL, ["instance.m=5"])
    cfg = parse_scenario(EMPIRICAL, ["instance.m=6"])
    assert cfg.m == 6


def test_payment_validation():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["instance.beta=0.5"])  # payment none
    with pytest.raises(ConfigError):
        parse_scenario(
            "[instance]\nn = 1\nm = 1\ntheta = 0.0\ncost_coeffs = 0.1\n"
            "payment = linear\nbeta = 0.1\n"
        )


def test_scalar_broadcast():
    cfg = parse_scenario(MINIMAL_QUADRATIC, ["instance.s_max=4.0"])
    assert cfg.s_max == (4.0, 4.0)
    cfg = parse_scenario(MINIMAL_QUADRATIC, ["instance.s_max=4.0,6.0"])
    assert cfg.s_max == (4.0, 6.0)
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["instance.s_max=4.0,6.0,8.0"])


def test_polynomial_cost_groups():
    cfg = parse_scenario(
        MINIMAL_QUADRATIC,
        ["instance.cost=polynomial", "instance.cost_coeffs=0.1,0.2;0.3"],
    )
    assert cfg.cost_coeffs == ((0.1, 0.2), (0.3,))
    # one group broadcasts to all agents
    cfg = parse_scenario(
        MINIMAL_QUADRATIC,
        ["instance.cost=polynomial", "instance.cost_coeffs=0.1,0.2"],
    )
    assert cfg.cost_coeffs == ((0.1, 0.2), (0.1, 0.2))


def test_random_linear_cost_keys():
    cfg = parse_scenario(
        "[instance]\nn = 2\nm = 1\ntheta = 0.5\ncost = random-linear\ncost_scale = 0.2\n"
    )
    assert cfg.cost == "random-linear" and cfg.cost_scale == 0.2
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["instance.cost_scale=0.2"])


def test_empirical_updater_requires_empirical_family():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["run.updater=empirical"])


def test_eps_must_be_finite():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["run.eps=inf"])
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["run.eps=0"])


def test_override_format_validation():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["gamma=0.1"])
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["run.velocity=0.1"])


def test_s0_box_check():
    with pytest.raises(ConfigError):
        parse_scenario(MINIMAL_QUADRATIC, ["init.s0=0.5,1.5"])  # s_max is 1.0
    cfg = parse_scenario(MINIMAL_QUADRATIC, ["init.s0=0.5,1.0"])
    assert cfg.s0 == (0.5, 1.0)


def test_build_scenario_deterministic():
    text = MINIMAL_QUADRATIC + "\n[init]\nw0 = random\ns0 = random\n"
    a = build_scenario(parse_scenario(text, ["run.seed=9"]))
    b = build_scenario(parse_scenario(text, ["run.seed=9"]))
    c = build_scenario(parse_scenario(text, ["run.seed=10"]))
    assert np.array_equal(a.w0, b.w0) and np.array_equal(a.s0, b.s0)
    assert not np.array_equal(a.w0, c.w0)


def test_build_scenario_random_pieces_in_range():
    text = (
        "[instance]\nn = 4\nm = 2\ntheta = 0.1, -0.2\ncost = random-linear\n"
        "cost_scale = 0.3\ns_max = 2.0\n\n[init]\nw0 = random\nw0_scale = 0.5\n"
        "s0 = random\ns0_lo = 0.25\ns0_hi = 0.75\n"
    )
    built = build_scenario(parse_scenario(text, ["run.seed=3"]))
    coeffs = np.array(built.game.cost.coeffs)
    assert np.all(coeffs >= 0.0) and np.all(coeffs <= 0.3)
    assert np.all(built.s0 >= 0.25 * 2.0) and np.all(built.s0 <= 0.75 * 2.0)
    # agent starting points are recorded on the instance itself too
    assert built.game.initial_s == pytest.approx(built.s0)


def test_build_scenario_explicit_vectors():
    text = MINIMAL_QUADRATIC + "\n[init]\nw0 = 0.1, 0.2\ns0 = 0.3, 0.4\n"
    built = build_scenario(parse_scenario(text, ["instance.s_max=5.0"]))
    assert built.w0 == pytest.approx([0.1, 0.2])
    assert built.s0 == pytest.approx([0.3, 0.4])


def test_build_empirical_uses_run_seed_for_data_by_default():
    a = build_scenario(parse_scenario(EMPIRICAL))
    b = build_scenario(parse_scenario(EMPIRICAL, ["instance.data_seed=4"]))
    # run.seed is 4, so pinning data_seed=4 reproduces the same datasets
    fa = a.game.accuracy.train_sets[0].features
    fb = b.game.accuracy.train_sets[0].features
    assert np.array_equal(fa, fb)
    c = build_scenario(parse_scenario(EMPIRICAL, ["instance.data_seed=5"]))
    assert not np.array_equal(fa, c.game.accuracy.train_sets[0].features)


def test_build_empirical_train_sizes_cover_s_max():
    built = build_scenario(parse_scenario(EMPIRICAL))
    assert all(ds.size == 20 for ds in built.game.accuracy.train_sets)


@settings(max_examples=40, deadline=None)
@given(
    st.integers(min_value=1, max_value=6),
    st.floats(min_value=0.05, max_value=0.95, allow_nan=False),
    st.integers(min_value=0, max_value=10_000),
    st.sampled_from(["upbred", "2p-upbred", "fedavg", "fedavg-strategic"]),
)
def test_round_trip_property(n, gamma, seed, algorithm):
    payment = "linear" if n >= 2 else "none"
    beta = 0.05 if n >= 2 else 0.0
    text = (
        f"[instance]\nn = {n}\nm = 2\ntheta = 0.5, -1.5\ncost_coeffs = 0.01\n"
        f"payment = {payment}\nbeta = {beta}\n\n"
        f"[run]\ngamma = {gamma!r}\nseed = {seed}\nalgorithm = {algorithm}\n"
    )
    cfg = parse_scenario(text)
    assert parse_scenario(render_scenario(cfg)) == cfg


NO_COST = "[instance]\nn = 2\nm = 2\ntheta = 1.0, 2.0\n"
ONE_AGENT_PAID = (
    "[instance]\nn = 1\nm = 1\ntheta = 0.0\ncost_coeffs = 0.1\n"
    "payment = linear\nbeta = 0.1\n"
)

# One row per rejection rule: (base text, overrides, text the message must
# name).  Where one key is at fault the message names it as section.key.
REJECTIONS = {
    "float-list": (MINIMAL_QUADRATIC, ["instance.theta=1.0,abc"], "instance.theta"),
    "broadcast-length": (MINIMAL_QUADRATIC, ["instance.s_max=1,2,3"], "instance.s_max"),
    "not-a-number": (MINIMAL_QUADRATIC, ["run.gamma=abc"], "run.gamma"),
    "not-finite": (MINIMAL_QUADRATIC, ["run.eps=inf"], "run.eps"),
    "not-positive": (MINIMAL_QUADRATIC, ["run.eta=0"], "run.eta"),
    "negative": (MINIMAL_QUADRATIC, ["instance.beta=-1"], "instance.beta"),
    "not-an-integer": (MINIMAL_QUADRATIC, ["run.rounds=1.5"], "run.rounds"),
    "syntax": ("[instance\nn = 2\n", [], "syntax error"),
    "unknown-section": (MINIMAL_QUADRATIC + "\n[misc]\nx = 1\n", [], "[misc]"),
    "unknown-key": (MINIMAL_QUADRATIC + "speed = 9\n", [], "instance.speed"),
    "override-without-value": (MINIMAL_QUADRATIC, ["run.gamma"], "run.gamma"),
    "override-without-section": (MINIMAL_QUADRATIC, ["gamma=0.1"], "gamma=0.1"),
    "override-unknown-key": (MINIMAL_QUADRATIC, ["run.velocity=0.1"], "run.velocity"),
    "missing-instance": ("[run]\nseed = 1\n", [], "instance"),
    "n-missing": ("[instance]\nm = 1\ntheta = 0.0\ncost_coeffs = 0.1\n", [], "instance.n"),
    "n-below-one": (MINIMAL_QUADRATIC, ["instance.n=0"], "instance.n"),
    "unknown-accuracy": (MINIMAL_QUADRATIC, ["instance.accuracy=linear"], "instance.accuracy"),
    "empirical-key-on-quadratic": (MINIMAL_QUADRATIC, ["instance.classes=3"], "instance.classes"),
    "m-missing": ("[instance]\nn = 2\ntheta = 1.0\ncost_coeffs = 0.1\n", [], "instance.m"),
    "theta-missing": ("[instance]\nn = 2\nm = 1\ncost_coeffs = 0.1\n", [], "instance.theta"),
    "theta-length": (MINIMAL_QUADRATIC, ["instance.theta=1.0"], "instance.theta"),
    "quadratic-key-on-empirical": (EMPIRICAL, ["instance.sigma0=1.0"], "instance.sigma0"),
    "features-below-one": (EMPIRICAL, ["instance.features=0"], "instance.features"),
    "classes-below-two": (EMPIRICAL, ["instance.classes=1"], "instance.classes"),
    "m-conflicts": (EMPIRICAL, ["instance.m=5"], "instance.m"),
    "test-size-below-one": (EMPIRICAL, ["instance.test_size=0"], "instance.test_size"),
    "m-below-one": (MINIMAL_QUADRATIC, ["instance.m=0"], "instance.m"),
    "s-max-not-positive": (MINIMAL_QUADRATIC, ["instance.s_max=0.0"], "instance.s_max"),
    "unknown-cost": (MINIMAL_QUADRATIC, ["instance.cost=cubic"], "instance.cost"),
    "coeffs-with-random-costs": (
        MINIMAL_QUADRATIC, ["instance.cost=random-linear"], "instance.cost_coeffs"
    ),
    "scale-with-explicit-costs": (MINIMAL_QUADRATIC, ["instance.cost_scale=0.2"], "instance.cost_scale"),
    "coeffs-missing": (NO_COST, [], "instance.cost_coeffs"),
    "polynomial-groups": (
        MINIMAL_QUADRATIC,
        ["instance.cost=polynomial", "instance.cost_coeffs=0.1;0.2;0.3"],
        "instance.cost_coeffs",
    ),
    "unknown-payment": (MINIMAL_QUADRATIC, ["instance.payment=quadratic"], "instance.payment"),
    "beta-without-payment": (MINIMAL_QUADRATIC, ["instance.beta=0.5"], "instance.beta"),
    "transfers-need-two-agents": (ONE_AGENT_PAID, [], "instance.payment"),
    "unknown-algorithm": (MINIMAL_QUADRATIC, ["run.algorithm=sgd"], "run.algorithm"),
    "rounds-negative": (MINIMAL_QUADRATIC, ["run.rounds=-1"], "run.rounds"),
    "phase1-cap-below-one": (MINIMAL_QUADRATIC, ["run.phase1_cap=0"], "run.phase1_cap"),
    "unknown-updater": (MINIMAL_QUADRATIC, ["run.updater=newton"], "run.updater"),
    "empirical-updater-on-quadratic": (MINIMAL_QUADRATIC, ["run.updater=empirical"], "run.updater"),
    "unknown-w-grad-at": (MINIMAL_QUADRATIC, ["run.w_grad_at=later"], "run.w_grad_at"),
    "w0-length": (MINIMAL_QUADRATIC, ["init.w0=1.0"], "init.w0"),
    "s0-outside-box": (MINIMAL_QUADRATIC, ["init.s0=0.5,1.5"], "init.s0"),
    "s0-lo-above-hi": (MINIMAL_QUADRATIC, ["init.s0_lo=0.9", "init.s0_hi=0.1"], "init.s0_lo"),
    "unknown-format": (MINIMAL_QUADRATIC, ["output.formats=csv,xml"], "output.formats"),
    # a non-finite entry in any float list
    "r-infinite": (MINIMAL_QUADRATIC, ["instance.r=inf"], "instance.r"),
    "r-minus-infinite": (MINIMAL_QUADRATIC, ["instance.r=1.0,-inf"], "instance.r"),
    "theta-nan": (MINIMAL_QUADRATIC, ["instance.theta=nan,0"], "instance.theta"),
    "s-max-infinite": (MINIMAL_QUADRATIC, ["instance.s_max=inf"], "instance.s_max"),
    "coeffs-nan": (MINIMAL_QUADRATIC, ["instance.cost_coeffs=nan"], "instance.cost_coeffs"),
    "polynomial-coeffs-infinite": (
        MINIMAL_QUADRATIC,
        ["instance.cost=polynomial", "instance.cost_coeffs=0.1,inf"],
        "instance.cost_coeffs",
    ),
    "w0-infinite": (MINIMAL_QUADRATIC, ["init.w0=inf,0"], "init.w0"),
    "s0-nan": (MINIMAL_QUADRATIC, ["init.s0=nan"], "init.s0"),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_rejection_names_the_offending_key(case):
    text, overrides, named = REJECTIONS[case]
    with pytest.raises(ConfigError) as info:
        parse_scenario(text, overrides)
    assert named in str(info.value)


def test_run_section_keys_are_run_config_fields_plus_algorithm():
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(render_scenario(parse_scenario(MINIMAL_QUADRATIC)))
    assert set(parser["run"]) == {f.name for f in fields(RunConfig)} | {"algorithm"}
