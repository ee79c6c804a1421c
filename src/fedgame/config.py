"""Scenario files: INI schema and typed parsing.

The scenario format has four sections: [instance] (the game), [run] (the
dynamic and its knobs), [init] (starting point) and [output].  Each
ScenarioConfig field declares one key: its section, its default text, the
reader that types and bounds it, and for family- or cost-specific keys the
earlier key and values under which it applies.  Parsing is one loop over
those fields.  Unknown sections or keys, and keys that do not apply, are
rejected rather than ignored so typos cannot silently change an experiment.

All run randomness (random cost draws, random starting points, dataset
synthesis) flows from the single [run] seed.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field, fields
from math import ceil, isfinite

import numpy as np

from .core import AgentSpec, ConfigError, GameInstance, PaymentRule
from .dynamics import ALGORITHMS, RunConfig, UPDATERS, W_GRAD_CHOICES
from .models import CostModel, EmpiricalAccuracy, QuadraticAccuracy, synth_dataset

ACCURACY_FAMILIES = ("quadratic", "empirical")
COST_KINDS = ("linear", "polynomial", "random-linear")
PAYMENT_KINDS = ("none", "linear")
EMPIRICAL_MAX_ROWS = 10**6

# A reader is called as read(raw, name, got): raw is the key's stripped text
# (its default text when the key is absent; None when it has no default),
# name is "section.key" for messages, and got holds the values of the keys
# declared before it.  It returns the typed value or raises ConfigError.


def _need(raw: str | None, name: str) -> str:
    if raw is None:
        raise ConfigError(f"{name} is required")
    return raw


def _int(lo: int | None = None):
    def read(raw, name, got):
        try:
            v = int(_need(raw, name))
        except ValueError:
            raise ConfigError(f"{name} must be an integer, got {raw!r}") from None
        if lo is not None and v < lo:
            raise ConfigError(f"{name} must be >= {lo}")
        return v

    return read


def _float(positive: bool = False):
    """A finite number, positive or else nonnegative."""

    def read(raw, name, got):
        try:
            v = float(_need(raw, name))
        except ValueError:
            raise ConfigError(f"{name} must be a number, got {raw!r}") from None
        if not isfinite(v):
            raise ConfigError(f"{name} must be finite, got {raw!r}")
        if v < 0.0 or (positive and v == 0.0):
            raise ConfigError(f"{name} must be {'positive' if positive else 'nonnegative'}")
        return v

    return read


def _optional(read):
    """`read`, or None for the text "none"."""
    return lambda raw, name, got: None if raw == "none" else read(raw, name, got)


def _choice(options: tuple[str, ...]):
    def read(raw, name, got):
        if raw not in options:
            raise ConfigError(f"unknown {name} {raw!r}; expected one of {', '.join(options)}")
        return raw

    return read


def _text(raw, name, got):
    return raw


def _floats(raw: str, name: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(tok) for tok in raw.split(","))
    except ValueError as exc:
        raise ConfigError(f"{name}: bad float list {raw!r}: {exc}") from None
    if not all(map(isfinite, vals)):
        raise ConfigError(f"{name} entries must be finite, got {raw!r}")
    return vals


def _broadcast(vals: tuple, name: str, got) -> tuple:
    """One entry per agent; a single entry stands for all of them."""
    n = got["n"]
    if len(vals) == 1:
        return vals * n
    if len(vals) != n:
        raise ConfigError(f"{name} needs 1 or {n} entries, got {len(vals)}")
    return vals


def _per_agent(raw, name, got):
    return _broadcast(_floats(_need(raw, name), name), name, got)


def _per_parameter(raw, name, got):
    vals = _floats(_need(raw, name), name)
    if len(vals) != got["m"]:
        raise ConfigError(f"{name} needs {got['m']} entries, got {len(vals)}")
    return vals


def _read_m(raw, name, got):
    """Required for the quadratic family; classes * features for the
    empirical one, which an explicit value must match."""
    if got["accuracy"] == "quadratic":
        return _int(lo=1)(raw, name, got)
    m = got["features"] * got["classes"]
    if raw is not None and _int()(raw, name, got) != m:
        raise ConfigError(f"{name}={raw} conflicts with classes*features={m}")
    return m


def _read_r(raw, name, got):
    """Per-agent accuracy ceilings; absent, 1 for the quadratic family and
    log(classes) for the empirical one."""
    if raw is None and got["accuracy"] == "empirical":
        return (float(np.log(got["classes"])),) * got["n"]
    return _per_agent("1.0" if raw is None else raw, name, got)


def _read_s_max(raw, name, got):
    s_max = _per_agent(raw, name, got)
    if any(v <= 0.0 for v in s_max):
        raise ConfigError(f"{name} entries must be positive")
    # an empirical agent draws and holds ceil(s_max) training rows
    if got["accuracy"] == "empirical" and any(v > EMPIRICAL_MAX_ROWS for v in s_max):
        raise ConfigError(f"{name} entries must be <= {EMPIRICAL_MAX_ROWS} for empirical accuracy")
    return s_max


def _read_cost_coeffs(raw, name, got):
    """Per-agent slopes for linear costs; for polynomial costs one
    comma-separated group per agent, groups separated by ';'."""
    if got["cost"] == "linear":
        return _per_agent(raw, name, got)
    groups = tuple(_floats(g, name) for g in _need(raw, name).split(";"))
    return _broadcast(groups, name, got)


def _read_w0(raw, name, got):
    return raw if raw in ("zeros", "random") else _per_parameter(raw, name, got)


def _read_s0(raw, name, got):
    if raw == "random":
        return raw
    s0 = _per_agent(raw, name, got)
    for v, hi in zip(s0, got["s_max"]):
        if v < 0.0 or v > hi:
            raise ConfigError(f"{name} outside the contribution box")
    return s0


def _key(section: str, default: str | None, read, when: tuple | None = None):
    """Declare one scenario key.  `when` = (earlier key, values) limits the
    key to scenarios where that key takes one of those values; elsewhere it
    must be absent and its field holds None."""
    return field(metadata={"section": section, "default": default, "read": read, "when": when})


_QUADRATIC = ("accuracy", ("quadratic",))
_EMPIRICAL = ("accuracy", ("empirical",))


@dataclass(frozen=True, kw_only=True)
class ScenarioConfig:
    """Typed, fully resolved scenario.  Vector-valued fields are per-agent
    tuples even when the file used scalar broadcast shorthand.  Fields are
    in parsing order: a reader may look at any field above it."""

    n: int = _key("instance", None, _int(lo=1))
    accuracy: str = _key("instance", "quadratic", _choice(ACCURACY_FAMILIES))
    features: int | None = _key("instance", "2", _int(lo=1), _EMPIRICAL)
    classes: int | None = _key("instance", "2", _int(lo=2), _EMPIRICAL)
    m: int = _key("instance", None, _read_m)
    theta: tuple[float, ...] | None = _key("instance", None, _per_parameter, _QUADRATIC)
    sigma0: float | None = _key("instance", "1e-06", _float(), _QUADRATIC)
    separation: float | None = _key("instance", "3.0", _float(positive=True), _EMPIRICAL)
    test_size: int | None = _key("instance", "200", _int(lo=1), _EMPIRICAL)
    data_seed: int | None = _key("instance", "none", _optional(_int()), _EMPIRICAL)
    r: tuple[float, ...] = _key("instance", None, _read_r)
    s_max: tuple[float, ...] = _key("instance", "1.0", _read_s_max)
    cost: str = _key("instance", "linear", _choice(COST_KINDS))
    cost_coeffs: tuple | None = _key(
        "instance", None, _read_cost_coeffs, ("cost", ("linear", "polynomial"))
    )
    cost_scale: float | None = _key(
        "instance", "0.1", _float(positive=True), ("cost", ("random-linear",))
    )
    payment: str = _key("instance", "none", _choice(PAYMENT_KINDS))
    beta: float = _key("instance", "0.0", _float())
    # [run]: the algorithm plus one key per RunConfig field
    algorithm: str = _key("run", "upbred", _choice(ALGORITHMS))
    gamma: float = _key("run", "0.5", _float(positive=True))
    eta: float = _key("run", "0.25", _float(positive=True))
    rounds: int = _key("run", "1000", _int(lo=0))
    eps: float = _key("run", "1e-06", _float(positive=True))
    eps_s: float = _key("run", "1e-09", _float(positive=True))
    phase1_cap: int | None = _key("run", "none", _optional(_int(lo=1)))
    seed: int = _key("run", "0", _int())
    updater: str = _key("run", "analytic", _choice(UPDATERS))
    w_grad_at: str = _key("run", "updated", _choice(W_GRAD_CHOICES))
    learn_rate: float = _key("run", "0.1", _float(positive=True))
    w0: tuple[float, ...] | str = _key("init", "zeros", _read_w0)
    w0_scale: float = _key("init", "1.0", _float(positive=True))
    s0: tuple[float, ...] | str = _key("init", "random", _read_s0)
    s0_lo: float = _key("init", repr(1.0 / 3.0), _float())
    s0_hi: float = _key("init", repr(2.0 / 3.0), _float())
    out_dir: str = _key("output", "out", _text)


_FIELDS = fields(ScenarioConfig)
_SECTION_OF = {f.name: f.metadata["section"] for f in _FIELDS}


def _applies(f, values: dict) -> bool:
    when = f.metadata["when"]
    return when is None or values[when[0]] in when[1]


def parse_scenario(text: str, overrides: list[str] | None = None) -> ScenarioConfig:
    """Parse scenario text, apply section.key=value overrides, validate
    everything."""
    parser = configparser.ConfigParser(strict=True, interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from None
    given: dict[str, str] = {}  # key names are unique across sections
    for sec in parser.sections():
        if sec not in _SECTION_OF.values():
            raise ConfigError(f"unknown section [{sec}]")
        for key, value in parser.items(sec, raw=True):
            if _SECTION_OF.get(key) != sec:
                raise ConfigError(f"unknown key {sec}.{key}")
            given[key] = value
    for ov in overrides or []:
        dotted, eq, value = ov.partition("=")
        sec, dot, key = dotted.partition(".")
        if not (eq and dot):
            raise ConfigError(f"override must look like section.key=value: {ov!r}")
        sec, key = sec.strip(), key.strip()
        if _SECTION_OF.get(key) != sec:
            raise ConfigError(f"unknown override target {sec}.{key}")
        given[key] = value

    got: dict = {}
    for f in _FIELDS:
        meta, raw = f.metadata, given.get(f.name)
        name = f"{meta['section']}.{f.name}"
        if not _applies(f, got):
            if raw is not None:
                key, values = meta["when"]
                raise ConfigError(
                    f"{name} only applies when {meta['section']}.{key} is {' or '.join(values)}"
                )
            got[f.name] = None
            continue
        got[f.name] = meta["read"](meta["default"] if raw is None else raw.strip(), name, got)
    cfg = ScenarioConfig(**got)

    if cfg.payment == "none" and cfg.beta != 0.0:
        raise ConfigError("instance.beta must be 0 when instance.payment = none")
    if cfg.payment == "linear" and cfg.n < 2:
        raise ConfigError("instance.payment = linear needs instance.n >= 2")
    if cfg.updater == "empirical" and cfg.accuracy != "empirical":
        raise ConfigError("run.updater = empirical requires instance.accuracy = empirical")
    if not cfg.s0_lo <= cfg.s0_hi <= 1.0:
        raise ConfigError("need 0 <= init.s0_lo <= init.s0_hi <= 1")
    return cfg


@dataclass
class BuiltScenario:
    game: GameInstance
    run: RunConfig
    algorithm: str
    w0: np.ndarray
    s0: np.ndarray
    cfg: ScenarioConfig


def build_scenario(cfg: ScenarioConfig) -> BuiltScenario:
    """Materialize a scenario: RNG children are drawn from the run seed in a
    fixed order (costs, then w0, then s0) so adding randomness in one place
    never shifts another."""
    k_cost, k_w0, k_s0 = np.random.SeedSequence(cfg.seed).spawn(3)

    if cfg.cost == "linear":
        cost = CostModel.linear(cfg.cost_coeffs)
    elif cfg.cost == "polynomial":
        cost = CostModel.polynomial(cfg.cost_coeffs)
    else:
        draws = np.random.default_rng(k_cost).uniform(0.0, 1.0, cfg.n) * cfg.cost_scale
        cost = CostModel.linear(draws)

    if cfg.accuracy == "quadratic":
        accuracy = QuadraticAccuracy(np.array(cfg.theta), np.array(cfg.r), cfg.sigma0)
    else:
        data_seed = cfg.seed if cfg.data_seed is None else cfg.data_seed
        try:
            train, test = synth_dataset(
                data_seed, cfg.n, [int(ceil(v)) for v in cfg.s_max], cfg.test_size,
                cfg.features, cfg.classes, cfg.separation,
            )
        except MemoryError as exc:
            raise ConfigError(
                "the empirical datasets do not fit in memory; lower instance.test_size, "
                f"features, classes or s_max ({exc})"
            ) from None
        accuracy = EmpiricalAccuracy(train, test, np.array(cfg.r), cfg.classes, data_seed)

    if isinstance(cfg.w0, str) and cfg.w0 == "zeros":
        w0 = np.zeros(cfg.m)
    elif isinstance(cfg.w0, str):
        w0 = np.random.default_rng(k_w0).standard_normal(cfg.m) * cfg.w0_scale
    else:
        w0 = np.array(cfg.w0, dtype=float)

    s_max = np.array(cfg.s_max)
    if isinstance(cfg.s0, str):
        frac = np.random.default_rng(k_s0).uniform(cfg.s0_lo, cfg.s0_hi, cfg.n)
        s0 = frac * s_max
    else:
        s0 = np.array(cfg.s0, dtype=float)

    payment = PaymentRule.linear(cfg.beta) if cfg.payment == "linear" else PaymentRule.none()
    agents = tuple(
        AgentSpec(i, float(s_max[i]), float(s0[i])) for i in range(cfg.n)
    )
    game = GameInstance(agents=agents, accuracy=accuracy, cost=cost, payment=payment, m=cfg.m)
    run = RunConfig(**{f.name: getattr(cfg, f.name) for f in fields(RunConfig)})
    return BuiltScenario(game=game, run=run, algorithm=cfg.algorithm, w0=w0, s0=s0, cfg=cfg)
