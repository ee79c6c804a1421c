"""Wire codec, handshake, round barrier, transport equivalence."""

import json
import socket
import threading
import time
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fedgame import federation
from fedgame.core import AgentSpec, ConfigError, FederationError, GameInstance, PaymentRule
from fedgame.dynamics import RunConfig, run_dynamic
from fedgame.federation import (
    DecodeError,
    MAX_FRAME_BYTES,
    PROTOCOL_VERSION,
    RemotePool,
    accept_agents,
    connect_agent,
    decode_frame,
    derive_run_id,
    encode_frame,
    open_listener,
    run_agent,
    send_frame,
    serve_center,
)
from fedgame.models import CostModel, QuadraticAccuracy
from fedgame.traceio import instance_digest, trace_csv_text

import conftest
from conftest import channel_pair, run_inprocess_federation


def cfg_for(rounds=50, **kw):
    return RunConfig(gamma=0.25, eta=0.25, rounds=rounds, eps=0.3, **kw)


def example_start():
    return np.array([0.35, 1.35]), np.array([0.004, 4.996])


# ---------------------------------------------------------------------------
# Codec.


def test_frame_round_trip():
    payload = {"run_id": "abc", "t": 3, "w": [0.1, -2.5e-7], "s": [1.0]}
    data = encode_frame("broadcast", payload)
    assert data.endswith(b"\n")
    ftype, back = decode_frame(data)
    assert ftype == "broadcast"
    assert back == payload


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(("hello", "broadcast", "report", "bye", "error")),
    st.dictionaries(
        st.text(min_size=1, max_size=8),
        st.one_of(
            st.integers(min_value=-(2**40), max_value=2**40),
            st.floats(allow_nan=False, allow_infinity=False),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=4),
            st.text(max_size=12),
        ),
        max_size=5,
    ),
)
def test_frame_round_trip_property(ftype, payload):
    back_type, back = decode_frame(encode_frame(ftype, payload))
    assert back_type == ftype
    assert back == payload


def test_encode_rejects_bad_frames():
    with pytest.raises(ConfigError):
        encode_frame("ping", {})
    with pytest.raises(FederationError):
        encode_frame("report", {"x": float("nan")})
    with pytest.raises(FederationError):
        encode_frame("report", {"x": "y" * MAX_FRAME_BYTES})


def test_decode_rejects_malformed_lines():
    with pytest.raises(DecodeError):
        decode_frame(b"")
    with pytest.raises(DecodeError):
        decode_frame(b"   \n")
    with pytest.raises(DecodeError):
        decode_frame(b"\xff\xfe{}\n")
    with pytest.raises(DecodeError):
        decode_frame(b"{not json}\n")
    with pytest.raises(DecodeError):
        decode_frame(b"[1,2,3]\n")
    with pytest.raises(DecodeError):
        decode_frame(b'{"type":"ping","payload":{}}\n')
    with pytest.raises(DecodeError):
        decode_frame(b'{"type":"report"}\n')
    with pytest.raises(DecodeError):
        decode_frame(b'{"type":"report","payload":7}\n')
    with pytest.raises(DecodeError):
        decode_frame(b"x" * (MAX_FRAME_BYTES + 1))
    # an integer literal longer than Python converts (4300 digits)
    with pytest.raises(DecodeError):
        decode_frame(b'{"type":"report","payload":{"t":' + b"1" * 5000 + b"}}\n")


def test_decode_rejects_nonfinite_numbers():
    for token in (b"NaN", b"Infinity", b"-Infinity"):
        line = b'{"type":"report","payload":{"x":' + token + b"}}\n"
        with pytest.raises(DecodeError):
            decode_frame(line)


def test_decode_error_carries_offset():
    bad = b'{"type":"report","payload":{"x":}}\n'
    with pytest.raises(DecodeError) as err:
        decode_frame(bad)
    assert err.value.offset == bad.index(b"}}")


@pytest.fixture
def pipe():
    """channel_pair() for one test; every end it made is closed afterwards."""
    ends = []

    def make():
        pair = channel_pair()
        ends.extend(pair)
        return pair

    yield make
    for ch in ends:
        ch.close()


def test_channel_eof_is_sticky(pipe):
    a, b = pipe()
    a.send_bytes(b"one\n")
    assert b.recv_line() == b"one\n"
    a.close()
    assert b.recv_line() == b""
    assert b.recv_line() == b""  # still EOF on the next read
    assert a.recv_line() == b""  # a closed end reads as EOF too
    with pytest.raises(FederationError):
        a.send_bytes(b"late\n")
    with pytest.raises(FederationError):
        b.send_bytes(b"to nobody\n")


def test_derive_run_id_sensitivity(example_game):
    cfg = cfg_for()
    base = derive_run_id(example_game, cfg, "upbred")
    assert len(base) == 32 and base == derive_run_id(example_game, cfg, "upbred")
    assert base != derive_run_id(example_game, cfg, "fedavg")
    assert base != derive_run_id(example_game, cfg_for(seed=1), "upbred")


def test_derive_run_id_covers_every_run_parameter(example_game):
    cfg = cfg_for()
    changed = {
        "gamma": 0.5, "eta": 0.5, "rounds": 51, "eps": 0.2, "eps_s": 1e-8,
        "phase1_cap": 5, "seed": 1, "updater": "empirical", "w_grad_at": "current",
        "learn_rate": 0.2,
    }
    assert set(changed) == {f.name for f in fields(RunConfig)}
    base = derive_run_id(example_game, cfg, "upbred")
    for name, value in changed.items():
        assert derive_run_id(example_game, replace(cfg, **{name: value}), "upbred") != base, name


# ---------------------------------------------------------------------------
# Center-side handshake and barrier, driven over hand-held channels.


def hello_payload(g, agent_id, over=None):
    payload = {
        "protocol_version": PROTOCOL_VERSION,
        "agent_id": agent_id,
        "digest": instance_digest(g),
    }
    payload.update(over or {})
    return payload


def manual_pool(pipe, g, algorithm="upbred", timeout=2.0, cfg=None):
    cfg = cfg or cfg_for()
    centers, agents = [], []
    for _ in range(g.n):
        c, a = pipe()
        centers.append(c)
        agents.append(a)
    return RemotePool(g, cfg, algorithm, centers, timeout=timeout), agents


def test_handshake_accepts_and_acks(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game)
    try:
        for i, ch in enumerate(agents):
            send_frame(ch, "hello", hello_payload(example_game, i))
        pool.handshake()
        for ch in agents:
            ftype, ack = decode_frame(ch.recv_line())
            assert ftype == "hello"
            assert ack["run_id"] == pool.run_id
            assert ack["n"] == 2 and ack["m"] == 2
    finally:
        pool.close(ok=False)


@pytest.mark.parametrize(
    "override, message_part",
    [
        ({"protocol_version": 99}, "protocol version"),
        ({"digest": "0" * 64}, "digest mismatch"),
        ({"agent_id": 7}, "bad agent id"),
        ({"agent_id": "zero"}, "bad agent id"),
    ],
)
def test_handshake_rejects_bad_hello(example_game, override, message_part, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        send_frame(agents[0], "hello", hello_payload(example_game, 0, override))
        with pytest.raises(FederationError, match=message_part):
            pool.handshake()
        ftype, payload = decode_frame(agents[0].recv_line())
        assert ftype == "error"
    finally:
        pool.close(ok=False)


def test_handshake_rejects_duplicate_agent(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        send_frame(agents[0], "hello", hello_payload(example_game, 0))
        send_frame(agents[1], "hello", hello_payload(example_game, 0))
        with pytest.raises(FederationError, match="duplicate hello"):
            pool.handshake()
    finally:
        pool.close(ok=False)


def test_handshake_refuses_a_second_hello_on_one_connection(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        send_frame(agents[0], "hello", hello_payload(example_game, 0))
        send_frame(agents[0], "hello", hello_payload(example_game, 1))
        send_frame(agents[1], "hello", hello_payload(example_game, 0))
        # whichever of the last two hellos the center reads first is refused
        with pytest.raises(FederationError, match="duplicate hello"):
            pool.handshake()
    finally:
        pool.close(ok=False)


def test_handshake_times_out_without_hello(example_game, pipe):
    pool, _agents = manual_pool(pipe, example_game, timeout=0.2)
    try:
        with pytest.raises(FederationError, match="timeout waiting for hello"):
            pool.handshake()
    finally:
        pool.close(ok=False)


def complete_handshake(pool, agents, g):
    for i, ch in enumerate(agents):
        send_frame(ch, "hello", hello_payload(g, i))
    pool.handshake()
    for ch in agents:
        decode_frame(ch.recv_line())  # consume the ack


def test_step_drops_stale_reports_and_keeps_waiting(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=2.0)
    try:
        complete_handshake(pool, agents, example_game)
        good = {"run_id": pool.run_id, "t": 0, "agent_id": 0, "s_next": 1.0}
        stale = {"run_id": "deadbeef", "t": 0, "agent_id": 0, "s_next": 9.0}
        send_frame(agents[0], "report", stale)
        send_frame(agents[0], "report", good)
        send_frame(agents[1], "report", {"run_id": pool.run_id, "t": 0, "agent_id": 1, "s_next": 2.0})
        s_next, grads = pool.step(0, "1", np.zeros(2), np.zeros(2))
        assert s_next.tolist() == [1.0, 2.0]
        assert grads is None
        # agent 0 saw: broadcast, then the drop notice for its stale report
        ftype, _ = decode_frame(agents[0].recv_line())
        assert ftype == "broadcast"
        ftype, payload = decode_frame(agents[0].recv_line())
        assert ftype == "error" and "mismatch" in payload["message"]
    finally:
        pool.close(ok=False)


def test_step_rejects_misclaimed_identity(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        complete_handshake(pool, agents, example_game)
        send_frame(agents[0], "report", {"run_id": pool.run_id, "t": 0, "agent_id": 1, "s_next": 1.0})
        with pytest.raises(FederationError, match="claiming id"):
            pool.step(0, "1", np.zeros(2), np.zeros(2))
    finally:
        pool.close(ok=False)


def test_step_validates_phase_contract(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        complete_handshake(pool, agents, example_game)
        # gradient-only round must not carry s_next
        send_frame(
            agents[0], "report",
            {"run_id": pool.run_id, "t": 0, "agent_id": 0, "s_next": 1.0, "d": [0.0, 0.0]},
        )
        with pytest.raises(FederationError, match="unexpected s_next"):
            pool.step(0, "2", np.zeros(2), np.zeros(2))
    finally:
        pool.close(ok=False)


# Reports whose numbers are not finite doubles: JSON true decodes to a bool,
# and an exponent past the double range to an infinite float.
BAD_REPORTS = {
    "overflowed-s_next": ("1e400", "[0.0, 0.0]"),
    "overflowed-gradient": ("0.5", "[0.0, -1e999]"),
    "boolean-s_next": ("true", "[0.0, 0.0]"),
}
BAD_REPORT_TIMEOUT = 5.0


def scripted_peer(g, channel, agent_id, s_next, d):
    """An agent that answers every broadcast with s_next and d written
    verbatim into the report; it returns at bye or end of stream."""
    send_frame(channel, "hello", hello_payload(g, agent_id))
    ftype, ack_in = decode_frame(channel.recv_line(BAD_REPORT_TIMEOUT))
    assert ftype == "hello"
    while True:
        line = channel.recv_line(BAD_REPORT_TIMEOUT)
        if line == b"":
            return
        ftype, payload = decode_frame(line)
        if ftype != "broadcast":
            return
        head = json.dumps({"run_id": ack_in["run_id"], "t": payload["t"], "agent_id": agent_id})
        channel.send_bytes(
            f'{{"type":"report","payload":{{{head[1:-1]},"s_next":{s_next},"d":{d}}}}}\n'.encode()
        )


@pytest.mark.parametrize("case", sorted(BAD_REPORTS))
def test_center_rejects_non_finite_or_boolean_report_numbers(example_game, case, pipe):
    s_next, d = BAD_REPORTS[case]
    cfg = cfg_for()
    centers, agents = zip(*(pipe() for _ in range(2)))
    status = {}
    honest = threading.Thread(
        target=lambda: status.setdefault(
            0, run_agent(example_game, 0, cfg, agents[0], timeout=BAD_REPORT_TIMEOUT)
        ),
        daemon=True,
    )
    peer = threading.Thread(
        target=scripted_peer, args=(example_game, agents[1], 1, s_next, d), daemon=True
    )
    honest.start()
    peer.start()
    w0, s0 = example_start()
    started = time.monotonic()
    trace = serve_center(
        example_game, cfg, "upbred", list(centers), w0, s0, timeout=BAD_REPORT_TIMEOUT
    )
    assert time.monotonic() - started < BAD_REPORT_TIMEOUT
    assert trace.outcome == "Error"
    assert trace.error.startswith("round 0: agent 1: report"), trace.error
    assert len(trace.records) == 1
    honest.join(timeout=BAD_REPORT_TIMEOUT)
    peer.join(timeout=BAD_REPORT_TIMEOUT)
    assert not honest.is_alive() and not peer.is_alive()
    assert status[0] == 1  # the center's bye said the run was aborted


def test_step_times_out_and_names_missing_agents(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=0.3)
    try:
        complete_handshake(pool, agents, example_game)
        send_frame(agents[0], "report", {"run_id": pool.run_id, "t": 0, "agent_id": 0, "s_next": 1.0})
        with pytest.raises(FederationError, match=r"no report from agent\(s\) \[1\]"):
            pool.step(0, "1", np.zeros(2), np.zeros(2))
    finally:
        pool.close(ok=False)


def test_step_fails_on_disconnect(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        complete_handshake(pool, agents, example_game)
        agents[1].close()
        with pytest.raises(FederationError, match="disconnected"):
            pool.step(0, "1", np.zeros(2), np.zeros(2))
    finally:
        pool.close(ok=False)


def test_serve_names_the_agent_that_hangs_up(example_game, pipe):
    cfg = cfg_for()
    centers, agents = zip(*(pipe() for _ in range(2)))
    honest = threading.Thread(
        target=run_agent, args=(example_game, 0, cfg, agents[0]), kwargs={"timeout": 5.0},
        daemon=True,
    )
    honest.start()
    send_frame(agents[1], "hello", hello_payload(example_game, 1))

    def hang_up():
        decode_frame(agents[1].recv_line(5.0))  # the ack
        agents[1].close()

    peer = threading.Thread(target=hang_up, daemon=True)
    peer.start()
    w0, s0 = example_start()
    trace = serve_center(example_game, cfg, "upbred", list(centers), w0, s0, timeout=5.0)
    honest.join(timeout=5.0)
    peer.join(timeout=5.0)
    assert trace.outcome == "Error"
    assert trace.error.startswith("round 0: agent 1 disconnected"), trace.error


def test_step_fails_on_agent_error_frame(example_game, pipe):
    pool, agents = manual_pool(pipe, example_game, timeout=1.0)
    try:
        complete_handshake(pool, agents, example_game)
        send_frame(agents[0], "error", {"message": "local blowup"})
        with pytest.raises(FederationError, match="local blowup"):
            pool.step(0, "1", np.zeros(2), np.zeros(2))
    finally:
        pool.close(ok=False)


# Every exit of the center's wait names the peer: "connection k" before its
# hello was accepted, "agent i" after.  Each ends at once, well within the
# timeout.
EXIT_TIMEOUT = 2.0


BEFORE_HELLO = {
    "closed": (lambda ch: ch.close(), r"^connection 0 disconnected$"),
    "error-frame": (
        lambda ch: send_frame(ch, "error", {"message": "no thanks"}),
        r"^connection 0 reported an error: no thanks$",
    ),
    "report": (
        lambda ch: send_frame(ch, "report", {"run_id": "x", "t": 0, "agent_id": 0}),
        r"^connection 0 sent report before hello$",
    ),
}


@pytest.mark.parametrize("case", sorted(BEFORE_HELLO))
def test_handshake_exit_before_hello_names_the_connection(example_game, pipe, case):
    act, message = BEFORE_HELLO[case]
    pool, agents = manual_pool(pipe, example_game, timeout=EXIT_TIMEOUT)
    try:
        started = time.monotonic()
        act(agents[0])
        with pytest.raises(FederationError, match=message):
            pool.handshake()
        assert time.monotonic() - started < EXIT_TIMEOUT
        if case == "report":
            ftype, payload = decode_frame(agents[0].recv_line(EXIT_TIMEOUT))
            assert (ftype, payload) == ("error", {"message": "expected hello"})
    finally:
        pool.close(ok=False)


def _report_twice(pool, ch):
    for _ in range(2):
        send_frame(ch, "report", {"run_id": pool.run_id, "t": 0, "agent_id": 0, "s_next": 1.0})


MID_ROUND = {
    "malformed": (
        lambda pool, ch: ch.send_bytes(b"{not json}\n"),
        r"^agent 0 channel failed: bad JSON: .* \(byte offset 1\)$",
    ),
    "unexpected-type": (
        lambda pool, ch: send_frame(ch, "hello", hello_payload(pool.game, 0)),
        r"^agent 0 sent unexpected hello$",
    ),
    "duplicate-report": (_report_twice, r"^agent 0 sent a duplicate report$"),
}


@pytest.mark.parametrize("case", sorted(MID_ROUND))
def test_step_exit_mid_round_names_the_agent(example_game, pipe, case):
    act, message = MID_ROUND[case]
    pool, agents = manual_pool(pipe, example_game, timeout=EXIT_TIMEOUT)
    try:
        complete_handshake(pool, agents, example_game)
        act(pool, agents[0])
        started = time.monotonic()
        with pytest.raises(FederationError, match=message):
            pool.step(0, "1", np.zeros(2), np.zeros(2))
        assert time.monotonic() - started < EXIT_TIMEOUT
    finally:
        pool.close(ok=False)


# ---------------------------------------------------------------------------
# Agent loop, driven from a hand-held center endpoint.


def start_agent(pipe, g, agent_id, cfg, notify=None):
    center_end, agent_end = pipe()
    result = {}

    def main():
        result["status"] = run_agent(g, agent_id, cfg, agent_end, notify=notify)

    th = threading.Thread(target=main, daemon=True)
    th.start()
    ftype, hello = decode_frame(center_end.recv_line())
    assert ftype == "hello"
    assert hello["agent_id"] == agent_id
    assert hello["digest"] == instance_digest(g)
    return center_end, th, result


def ack(center_end, run_id="run0", n=2, m=2):
    send_frame(
        center_end, "hello",
        {"protocol_version": PROTOCOL_VERSION, "run_id": run_id, "n": n, "m": m},
    )


def test_agent_answers_each_phase(example_game, pipe):
    center, th, result = start_agent(pipe, example_game, 1, cfg_for())
    ack(center)
    w, s = example_start()
    base = {"run_id": "run0", "w": list(w), "s": list(s)}

    send_frame(center, "broadcast", {**base, "t": 0, "phase": "1"})
    _, rep = decode_frame(center.recv_line())
    assert set(rep) == {"run_id", "t", "agent_id", "s_next"}

    send_frame(center, "broadcast", {**base, "t": 1, "phase": "2"})
    _, rep = decode_frame(center.recv_line())
    assert set(rep) == {"run_id", "t", "agent_id", "d"}
    assert len(rep["d"]) == 2

    send_frame(center, "broadcast", {**base, "t": 2, "phase": "single"})
    _, rep = decode_frame(center.recv_line())
    assert set(rep) == {"run_id", "t", "agent_id", "s_next", "d"}

    send_frame(center, "bye", {"reason": "done"})
    th.join(timeout=5.0)
    assert result["status"] == 0


def test_agent_rejects_out_of_order_rounds(example_game, pipe):
    center, th, result = start_agent(pipe, example_game, 0, cfg_for())
    ack(center)
    w, s = example_start()
    base = {"run_id": "run0", "w": list(w), "s": list(s), "phase": "1"}
    send_frame(center, "broadcast", {**base, "t": 5})
    decode_frame(center.recv_line())
    send_frame(center, "broadcast", {**base, "t": 5})  # repeat, not newer
    ftype, payload = decode_frame(center.recv_line())
    th.join(timeout=5.0)
    assert ftype == "error" and "out-of-order" in payload["message"]
    assert result["status"] == 1


def test_agent_rejects_run_id_switch(example_game, pipe):
    center, th, result = start_agent(pipe, example_game, 0, cfg_for())
    ack(center, run_id="run0")
    w, s = example_start()
    send_frame(
        center, "broadcast",
        {"run_id": "other", "t": 0, "phase": "1", "w": list(w), "s": list(s)},
    )
    ftype, payload = decode_frame(center.recv_line())
    th.join(timeout=5.0)
    assert ftype == "error" and "run_id" in payload["message"]
    assert result["status"] == 1


def test_agent_rejects_malformed_broadcast(example_game, pipe):
    center, th, result = start_agent(pipe, example_game, 0, cfg_for())
    ack(center)
    send_frame(
        center, "broadcast",
        {"run_id": "run0", "t": 0, "phase": "1", "w": [0.0], "s": [0.0, 0.0]},
    )
    ftype, _ = decode_frame(center.recv_line())
    th.join(timeout=5.0)
    assert ftype == "error"
    assert result["status"] == 1


def test_agent_stops_cleanly_on_error_frame(example_game, pipe):
    center, th, result = start_agent(pipe, example_game, 0, cfg_for())
    send_frame(center, "error", {"message": "rejected"})
    th.join(timeout=5.0)
    assert result["status"] == 1


def test_agent_notify_carries_rejection_reason(example_game, pipe):
    seen = []
    center, th, result = start_agent(pipe, example_game, 0, cfg_for(), notify=seen.append)
    send_frame(center, "error", {"message": "duplicate agent_id"})
    th.join(timeout=5.0)
    assert result["status"] == 1
    assert seen == ["center rejected hello: duplicate agent_id"]


def test_agent_notify_explains_early_shutdown(example_game, pipe):
    seen = []
    center, th, result = start_agent(pipe, example_game, 0, cfg_for(), notify=seen.append)
    send_frame(center, "bye", {"reason": "aborted"})
    th.join(timeout=5.0)
    assert result["status"] == 1
    assert seen == ["center shut down before the run started"]


def test_agent_flags_aborted_bye_after_ack(example_game, pipe):
    seen = []
    center, th, result = start_agent(pipe, example_game, 0, cfg_for(), notify=seen.append)
    ack(center)
    send_frame(center, "bye", {"reason": "aborted"})
    th.join(timeout=5.0)
    assert result["status"] == 1
    assert seen == ["center aborted the run"]


CLOSE = None
GARBAGE = b"{not a frame\n"
ACK = encode_frame(
    "hello", {"protocol_version": PROTOCOL_VERSION, "run_id": "run0", "n": 2, "m": 2}
)
# What a scripted center sends after the agent's hello (CLOSE closes its end),
# the agent's note, and the text of the error frame the agent sends back
# (None where it sends none).
AGENT_EXITS = {
    "closed-during-handshake": ([CLOSE], "connection closed during handshake", None),
    "malformed-handshake": ([GARBAGE], "malformed handshake", "malformed handshake"),
    "non-hello-ack": (
        [encode_frame("broadcast", {"t": 0})], "expected hello acceptance", "expected hello"
    ),
    "closed-by-center": ([ACK, CLOSE], "connection closed by center", None),
    "malformed-broadcast": ([ACK, GARBAGE], "malformed broadcast", "malformed broadcast"),
    "center-error": (
        [ACK, encode_frame("error", {"message": "boom"})], "center reported an error: boom", None
    ),
    "unexpected-frame": ([ACK, ACK], "unexpected frame hello", "unexpected frame hello"),
}
# Broadcasts whose w or s hold something other than finite numbers.
for _case, _field in {
    "boolean-w": '"w":[true,0.0],"s":[0.5,0.5]',
    "overflowed-w": '"w":[1e400,0.0],"s":[0.5,0.5]',
    "overflowed-s": '"w":[0.0,0.0],"s":[0.5,-1e999]',
    "string-s": '"w":[0.0,0.0],"s":[0.5,"0.5"]',
    "huge-integer-s": '"w":[0.0,0.0],"s":[0.5,1' + "0" * 400 + "]",
}.items():
    AGENT_EXITS[f"broadcast-{_case}"] = (
        [ACK, ('{"type":"broadcast","payload":{"run_id":"run0","t":0,"phase":"1",'
               + _field + "}}\n").encode()],
        "malformed broadcast fields", "malformed broadcast fields",
    )
AGENT_EXIT_TIMEOUT = 2.0


@pytest.mark.parametrize("case", sorted(AGENT_EXITS))
def test_agent_exits_on_bad_center_frames(example_game, case, pipe):
    script, note, error = AGENT_EXITS[case]
    notes = []
    center, th, result = start_agent(pipe, example_game, 0, cfg_for(), notify=notes.append)
    for item in script:
        if item is CLOSE:
            center.close()
        else:
            center.send_bytes(item)
    th.join(timeout=AGENT_EXIT_TIMEOUT)
    assert not th.is_alive()
    assert result["status"] == 1
    assert len(notes) == 1 and notes[0].startswith(note), notes
    if error is not None:
        ftype, payload = decode_frame(center.recv_line(AGENT_EXIT_TIMEOUT))
        assert ftype == "error" and error in payload["message"]


def test_agent_exits_when_the_center_has_hung_up(example_game, pipe):
    center, agent_end = pipe()
    center.close()
    notes = []
    status = run_agent(example_game, 0, cfg_for(), agent_end, notify=notes.append, timeout=1.0)
    assert status == 1
    assert len(notes) == 1 and notes[0].startswith("sending hello to the center"), notes


# ---------------------------------------------------------------------------
# End-to-end transports.


def test_inprocess_federation_matches_local(example_game):
    cfg = cfg_for()
    w0, s0 = example_start()
    local = run_dynamic(example_game, cfg, "upbred", w0, s0)
    fed = run_inprocess_federation(example_game, cfg, "upbred", w0, s0, timeout=10.0)
    assert fed.agent_status == [0, 0]
    assert trace_csv_text(fed.trace) == trace_csv_text(local)


def test_inprocess_two_phase_matches_local(example_game_paid):
    cfg = RunConfig(gamma=0.5, eta=5.0, rounds=200)
    w0 = np.zeros(2)
    s0 = np.array([2.5, 2.5])
    local = run_dynamic(example_game_paid, cfg, "2p-upbred", w0, s0)
    fed = run_inprocess_federation(example_game_paid, cfg, "2p-upbred", w0, s0, timeout=10.0)
    assert fed.agent_status == [0, 0]
    assert trace_csv_text(fed.trace) == trace_csv_text(local)


def test_inprocess_stalled_contribution_phase_matches_local(example_game_paid):
    # the center compares the profile's bits, so the stall ends a federated
    # run in the same round and with the same error as a local one
    cfg = RunConfig(gamma=1e-300, eta=5.0, rounds=200)
    w0, s0 = np.zeros(2), np.array([2.5, 2.5])
    local = run_dynamic(example_game_paid, cfg, "2p-upbred", w0, s0)
    assert local.error.startswith("round 0: contribution phase stalled at a fixed point; ")
    fed = run_inprocess_federation(example_game_paid, cfg, "2p-upbred", w0, s0, timeout=10.0)
    assert fed.trace.error == local.error
    assert trace_csv_text(fed.trace) == trace_csv_text(local)


@pytest.mark.parametrize("algorithm, eps, outcome", [
    ("upbred", 0.3, "Converged"),
    ("upbred", 1e-14, "Error"),  # agent 1's step fails, as in the test below
    ("2p-upbred", 0.3, ConfigError),  # no linear transfer: the center raises
], ids=["converged", "agent-failure", "center-raises"])
def test_inprocess_federation_closes_every_end(example_game, monkeypatch, algorithm, eps, outcome):
    ends = []

    def recorded_pair():
        pair = channel_pair()
        ends.extend(pair)
        return pair

    monkeypatch.setattr(conftest, "channel_pair", recorded_pair)
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=3000, eps=eps)
    args = (example_game, cfg, algorithm, *example_start())
    if outcome is ConfigError:
        with pytest.raises(ConfigError):
            run_inprocess_federation(*args, timeout=10.0)
    else:
        assert run_inprocess_federation(*args, timeout=10.0).trace.outcome == outcome
    assert len(ends) == 2 * example_game.n
    assert all(ch._sock.fileno() == -1 and ch._file.closed for ch in ends)


def test_agent_step_failure_ends_run_promptly(example_game):
    # with eps this small both contributions shrink to zero after about a
    # thousand rounds, and agent 1's gradient at the emptied pool is singular
    cfg = RunConfig(gamma=0.25, eta=0.25, rounds=3000, eps=1e-14)
    w0, s0 = example_start()
    local = run_dynamic(example_game, cfg, "upbred", w0, s0)
    assert "singular denominator" in local.error
    started = time.monotonic()
    fed = run_inprocess_federation(example_game, cfg, "upbred", w0, s0)
    assert time.monotonic() - started < 5.0  # well inside the default timeout
    assert fed.trace.outcome == "Error"
    assert trace_csv_text(fed.trace) == trace_csv_text(local)
    assert "agent 1" in fed.trace.error
    assert "singular denominator" in fed.trace.error
    assert all(status != 0 for status in fed.agent_status)


def test_tcp_federation_matches_local(example_game):
    cfg = cfg_for()
    w0, s0 = example_start()
    local = run_dynamic(example_game, cfg, "upbred", w0, s0)

    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    result = {}

    def center_main():
        channels = accept_agents(listener, example_game.n, timeout=10.0)
        result["trace"] = serve_center(
            example_game, cfg, "upbred", channels, w0, s0, timeout=10.0
        )

    center = threading.Thread(target=center_main, daemon=True)
    center.start()
    agent_threads = [
        threading.Thread(
            target=connect_agent,
            args=(example_game, i, cfg, "127.0.0.1", port),
            kwargs={"timeout": 10.0},
            daemon=True,
        )
        for i in range(example_game.n)
    ]
    for th in agent_threads:
        th.start()
    for th in agent_threads:
        th.join(timeout=15.0)
    center.join(timeout=15.0)
    listener.close()
    assert trace_csv_text(result["trace"]) == trace_csv_text(local)


def test_accept_agents_times_out():
    listener = open_listener("127.0.0.1", 0)
    try:
        with pytest.raises(FederationError, match="only 0 of 1"):
            accept_agents(listener, 1, timeout=0.3)
        # the wait is the time left, not a whole polling tick
        start = time.monotonic()
        with pytest.raises(FederationError, match="only 0 of 1"):
            accept_agents(listener, 1, timeout=0.05)
        assert time.monotonic() - start < 0.5
    finally:
        listener.close()


def outcome_within(fn, seconds=1.0):
    """(finished, exception) of fn run on a daemon thread for at most
    `seconds`.  A deadline of NaN or infinity never passes, so a call that
    does not check its timeout is left waiting on the thread and reads as
    not finished, rather than hanging the test."""
    raised = []

    def target():
        try:
            fn()
        except BaseException as exc:
            raised.append(exc)

    th = threading.Thread(target=target, daemon=True)
    th.start()
    th.join(seconds)
    return not th.is_alive(), (raised[0] if raised else None)


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0], ids=["nan", "inf", "zero"])
@pytest.mark.parametrize("entry", [
    "accept_agents", "RemotePool", "serve_center", "run_agent", "connect_agent",
])
def test_bad_timeout_raises_before_any_wait(example_game, pipe, entry, timeout):
    cfg = cfg_for()
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    calls = {
        "accept_agents": lambda: accept_agents(listener, 1, timeout=timeout),
        "RemotePool": lambda: manual_pool(pipe, example_game, timeout=timeout),
        "serve_center": lambda: serve_center(
            example_game, cfg, "upbred", [pipe()[0] for _ in range(example_game.n)],
            timeout=timeout,
        ),
        "run_agent": lambda: run_agent(example_game, 0, cfg, pipe()[1], timeout=timeout),
        # the listener never accepts: a connect that went ahead would hang
        "connect_agent": lambda: connect_agent(
            example_game, 0, cfg, "127.0.0.1", port, timeout=timeout
        ),
    }
    try:
        finished, exc = outcome_within(calls[entry])
        assert finished
        assert isinstance(exc, ConfigError), exc
        assert str(exc) == f"timeout must be finite and > 0, got {timeout!r}"
    finally:
        listener.close()


def test_connect_agent_unreachable(example_game):
    # grab an ephemeral port and close it so nothing listens there
    probe = socket.socket()
    probe.bind(("127.0.0.1", 0))
    port = probe.getsockname()[1]
    probe.close()
    with pytest.raises(FederationError, match="cannot reach center"):
        connect_agent(example_game, 0, cfg_for(), "127.0.0.1", port, timeout=0.5)


# ---------------------------------------------------------------------------
# A center that goes quiet: the agent gives up within its timeout.

STALL_TIMEOUT = 0.5
STALL_SLACK = 2.0


def test_agent_gives_up_when_center_stalls_after_hello(example_game, pipe):
    notes = []
    center_end, agent_end = pipe()
    result = {}

    def main():
        result["status"] = run_agent(
            example_game, 0, cfg_for(), agent_end, notify=notes.append, timeout=STALL_TIMEOUT
        )

    start = time.monotonic()
    th = threading.Thread(target=main, daemon=True)
    th.start()
    ftype, _ = decode_frame(center_end.recv_line())
    assert ftype == "hello"
    ack(center_end)
    th.join(timeout=STALL_TIMEOUT + STALL_SLACK)
    assert not th.is_alive()
    assert time.monotonic() - start <= STALL_TIMEOUT + STALL_SLACK
    assert result["status"] != 0
    assert any("stalled" in msg for msg in notes), notes
    # the agent also tells the center why it left
    ftype, payload = decode_frame(center_end.recv_line())
    assert ftype == "error" and "stalled" in payload["message"]


def test_agent_gives_up_when_center_never_acknowledges(example_game, pipe):
    notes = []
    center_end, agent_end = pipe()
    start = time.monotonic()
    status = run_agent(
        example_game, 1, cfg_for(), agent_end, notify=notes.append, timeout=STALL_TIMEOUT
    )
    assert status != 0
    assert time.monotonic() - start <= STALL_TIMEOUT + STALL_SLACK
    assert any("stalled" in msg for msg in notes), notes


def test_tcp_agent_gives_up_when_center_stalls_after_hello(example_game):
    listener = open_listener("127.0.0.1", 0)
    port = listener.getsockname()[1]
    notes = []
    result = {}

    def agent_main():
        result["status"] = connect_agent(
            example_game, 0, cfg_for(), "127.0.0.1", port,
            timeout=STALL_TIMEOUT, notify=notes.append,
        )

    start = time.monotonic()
    th = threading.Thread(target=agent_main, daemon=True)
    th.start()
    try:
        (channel,) = accept_agents(listener, 1, timeout=5.0)
        ftype, _ = decode_frame(channel.recv_line())
        assert ftype == "hello"
        ack(channel)
        th.join(timeout=STALL_TIMEOUT + STALL_SLACK)
        assert not th.is_alive()
        assert time.monotonic() - start <= STALL_TIMEOUT + STALL_SLACK
        assert result["status"] != 0
        assert any("stalled" in msg for msg in notes), notes
        channel.close()
    finally:
        listener.close()


SEND_TIMEOUT = 0.5


@pytest.mark.xfail(strict=True, reason="RemotePool sends with sendall, which no timeout bounds")
def test_broadcast_to_an_agent_that_stops_reading_ends_within_the_timeout():
    center_sock, agent_sock = socket.socketpair()
    buffered = (
        center_sock.getsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF)
        + agent_sock.getsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF)
    )
    center, agent = federation.SocketChannel(center_sock), federation.SocketChannel(agent_sock)
    # each entry of w encodes as 18 or more bytes: the broadcast overfills both buffers
    m = buffered // 4
    g = GameInstance(
        agents=(AgentSpec(id=0, s_max=1.0, initial_s=0.5),),
        accuracy=QuadraticAccuracy(theta=np.zeros(m), r=np.ones(1), sigma0=1.0),
        cost=CostModel.linear([0.01]),
        payment=PaymentRule.none(),
        m=m,
    )
    pool = RemotePool(g, cfg_for(), "upbred", [center], timeout=SEND_TIMEOUT)
    raised = []

    def step():
        try:
            pool.step(0, "single", np.full(m, 1.0 / 3.0), np.array([0.5]))
        except FederationError as exc:
            raised.append(exc)

    th = threading.Thread(target=step, daemon=True)
    try:
        send_frame(agent, "hello", hello_payload(g, 0))
        pool.handshake()
        th.start()  # the agent never reads again
        th.join(SEND_TIMEOUT + STALL_SLACK)
        finished = not th.is_alive()
    finally:
        agent.close()  # a send still blocked fails now, and the step ends
        if th.is_alive():
            th.join(5.0)
        pool.close(ok=False)
    assert finished, "the broadcast is still blocked in its send"
    assert raised
