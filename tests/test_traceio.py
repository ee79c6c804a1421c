"""Digest stability, trace CSV round trips, run manifests."""

import json
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame.core import ConfigError, PaymentRule
from fedgame.dynamics import RunConfig, Trace, run_dynamic
from fedgame.traceio import (
    fmt_float,
    game_manifest,
    instance_digest,
    read_trace_csv,
    run_manifest,
    trace_columns,
    trace_csv_text,
    write_run_manifest,
    write_trace_csv,
)

from conftest import quadratic_game


def small_trace(example_game):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=50, eps=0.3)
    return run_dynamic(
        example_game, cfg, "upbred", np.array([0.35, 1.35]), np.array([0.004, 4.996])
    )


@settings(max_examples=300, deadline=None)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_fmt_float_round_trips_exactly(x):
    assert float(fmt_float(x)) == x or (x == 0.0 and float(fmt_float(x)) == 0.0)


def test_game_manifest_fields(example_game_paid):
    man = game_manifest(example_game_paid)
    assert man["n"] == 2 and man["m"] == 2
    assert man["payment"] == {"kind": "linear", "beta": 0.05}
    assert man["accuracy"]["family"] == "quadratic"
    assert [a["id"] for a in man["agents"]] == [0, 1]


def test_instance_digest_stable_and_sensitive(example_game, example_game_paid):
    assert instance_digest(example_game) == instance_digest(example_game)
    assert instance_digest(example_game) != instance_digest(example_game_paid)
    tweaked = quadratic_game(2, 2, (1.0, 2.0), 0.0, 5.0, (0.04, 0.021))
    assert instance_digest(example_game) != instance_digest(tweaked)


def test_trace_columns_layout():
    assert trace_columns(2, 3) == [
        "t", "phase", "s_0", "s_1", "w_0", "w_1", "w_2",
        "u_0", "u_1", "p_0", "p_1", "welfare", "g_norm", "gt_norm",
    ]


def test_trace_csv_round_trip(tmp_path, example_game):
    trace = small_trace(example_game)
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    table = read_trace_csv(path)
    assert table.rounds == len(trace.records)
    for k, rec in enumerate(trace.records):
        assert table.t[k] == rec.t
        assert table.phase[k] == rec.phase
        # repr round trip: parsed floats are bit-identical
        assert np.array_equal(table.s[k], rec.s)
        assert np.array_equal(table.w[k], rec.w)
        assert table.welfare[k] == rec.welfare
        assert table.g_norm[k] == rec.g_norm
        assert table.gt_norm[k] == rec.gt_norm
        assert np.array_equal(table.u[k], [r.utility for r in rec.reports])
        assert np.array_equal(table.p[k], [r.payment for r in rec.reports])


def test_trace_csv_text_deterministic(example_game):
    a = trace_csv_text(small_trace(example_game))
    b = trace_csv_text(small_trace(example_game))
    assert a == b
    assert a.endswith("\n")
    assert "\r" not in a


def test_empty_trace_rejected(example_game, tmp_path):
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=1)
    empty = Trace(cfg, {}, [], "Error", "round 0: boom")
    with pytest.raises(ConfigError):
        trace_csv_text(empty)
    for write in (write_trace_csv, write_run_manifest):
        path = tmp_path / write.__name__
        with pytest.raises(ConfigError, match="^cannot serialize an empty trace$"):
            write(empty, path)
        assert not path.exists()  # serialized before the file is opened


def test_read_trace_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)
    path.write_text("")
    with pytest.raises(ConfigError):
        read_trace_csv(path)
    path.write_text("t,phase,s_0,w_0,u_0,p_0,welfare,g_norm,gt_norm\n")
    with pytest.raises(ConfigError):
        read_trace_csv(path)


def test_run_manifest_contents(tmp_path, example_game):
    trace = small_trace(example_game)
    man = run_manifest(trace, config_text="[instance]\nn = 2\n")
    assert man["outcome"] == "Converged"
    assert man["error"] is None
    assert man["rounds_recorded"] == 3
    assert man["final"]["t"] == 2
    assert man["final"]["s"] == [0.0, 5.0]
    assert man["instance"]["digest"] == instance_digest(example_game)
    assert len(man["config_sha256"]) == 64
    path = tmp_path / "run.json"
    write_run_manifest(trace, path, "[instance]\nn = 2\n")
    loaded = json.loads(path.read_text())
    assert loaded["final"]["welfare"] == trace.final.welfare


def test_manifest_extra_fields(example_game):
    trace = small_trace(example_game)
    man = run_manifest(trace, extra={"note": "x"})
    assert man["note"] == "x"
    assert "config_sha256" not in man


def test_manifest_run_record_is_every_run_config_field(example_game):
    trace = small_trace(example_game)
    run = run_manifest(trace)["run"]
    assert list(run) == [f.name for f in fields(RunConfig)]
    assert run == {f.name: getattr(trace.config, f.name) for f in fields(RunConfig)}
