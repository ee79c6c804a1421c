"""Center/agent round protocol over interchangeable transports.

Frames are single-line UTF-8 JSON objects {"type": ..., "payload": ...} with
type in {hello, broadcast, report, bye, error}.  Floats ride as JSON numbers
in shortest round-trip decimal, so a remote run reproduces the in-process
arithmetic bit for bit.  Every transport is a stream socket behind one
channel class: a socketpair for in-process runs and tests, TCP between
processes.

Protocol per run:
  agent -> center   hello {protocol_version, agent_id, digest}
  center -> agent   hello {protocol_version, run_id, n, m}   (acceptance)
  center -> agent   broadcast {run_id, t, phase, w, s}       (each round)
  agent -> center   report {run_id, t, agent_id, s_next?, d?}
  center -> agent   bye {reason}
Either side may send error {message} and drop the connection.  The center
holds a round barrier: it never broadcasts round t+1 before holding all n
reports for round t; a missing report after the timeout aborts the run.
An agent that receives nothing from the center for the same timeout gives
up with a nonzero status.
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import threading
import time
from dataclasses import asdict, dataclass
from math import isfinite

import numpy as np

from .core import ConfigError, FederationError, GameError, GameInstance
from .dynamics import AgentWorker, RunConfig, run_dynamic
from .traceio import instance_digest

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
FRAME_TYPES = ("hello", "broadcast", "report", "bye", "error")
DEFAULT_TIMEOUT = 30.0


class DecodeError(FederationError):
    """Malformed wire data; offset is the byte position when known."""

    def __init__(self, message: str, offset: int = 0) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


# Built once: json.dumps and json.loads with options build a new encoder or
# decoder on every call, which costs about as much as the coding of a
# round's frame itself.
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False)


def encode_frame(ftype: str, payload: dict) -> bytes:
    if ftype not in FRAME_TYPES:
        raise ConfigError(f"unknown frame type {ftype!r}")
    try:
        body = _ENCODER.encode({"type": ftype, "payload": payload})
    except ValueError as exc:
        raise FederationError(f"unencodable frame payload: {exc}") from None
    data = (body + "\n").encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FederationError(f"frame too large: {len(data)} bytes")
    return data


def _reject_constant(token: str):
    raise DecodeError(f"non-finite number {token!r} in frame")


_DECODER = json.JSONDecoder(parse_constant=_reject_constant)


def _finite(x) -> float | None:
    """x as a float when it is a finite JSON number, else None.  JSON true
    and false decode to bool, a subclass of int; a number beyond the double
    range decodes to an infinite float or, written as an integer, to an int
    that float() cannot convert."""
    if type(x) is float:
        return x if isfinite(x) else None
    if type(x) is int:
        try:
            return float(x)
        except OverflowError:
            return None
    return None


def _finite_list(x, length: int) -> list[float] | None:
    """x as `length` floats when it is a JSON list of finite numbers, else None."""
    if not isinstance(x, list) or len(x) != length:
        return None
    out = [_finite(v) for v in x]
    return None if None in out else out


def decode_frame(line: bytes) -> tuple[str, dict]:
    if len(line) > MAX_FRAME_BYTES:
        raise DecodeError("frame exceeds 16 MiB", 0)
    if not line.strip():
        raise DecodeError("empty frame", 0)
    try:
        text = line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DecodeError(f"bad UTF-8: {exc.reason}", exc.start) from None
    try:
        obj = _DECODER.decode(text)
    except json.JSONDecodeError as exc:
        raise DecodeError(f"bad JSON: {exc.msg}", exc.pos) from None
    except ValueError as exc:  # an integer literal past int's digit limit
        raise DecodeError(f"bad JSON: {exc}", 0) from None
    if not isinstance(obj, dict):
        raise DecodeError("frame is not a JSON object", 0)
    ftype = obj.get("type")
    if ftype not in FRAME_TYPES:
        raise DecodeError(f"unknown frame type {ftype!r}", 0)
    payload = obj.get("payload")
    if not isinstance(payload, dict):
        raise DecodeError("missing payload object", 0)
    return ftype, payload


# ---------------------------------------------------------------------------
# Channels: blocking byte-line endpoints.


class SocketChannel:
    """Line-framed endpoint of a stream socket."""

    def __init__(self, sock: socket.socket) -> None:
        self._sock = sock
        self._sock.settimeout(None)
        self._timeout: float | None = None
        self._file = sock.makefile("rb")

    def send_bytes(self, data: bytes) -> None:
        try:
            self._sock.sendall(data)
        except OSError as exc:
            raise FederationError(f"socket send failed: {exc}") from None

    def recv_line(self, timeout: float | None = None) -> bytes:
        """Next frame line, b"" at EOF; FederationError when timeout
        seconds pass without one (None waits forever).  The timeout also
        bounds later sends."""
        if timeout != self._timeout:
            self._sock.settimeout(timeout)
            self._timeout = timeout
        try:
            line = self._file.readline(MAX_FRAME_BYTES + 2)
        except TimeoutError:
            raise FederationError(f"stalled: no frame received within {timeout}s") from None
        except (OSError, ValueError):  # ValueError: this end was closed
            return b""
        if len(line) > MAX_FRAME_BYTES:
            raise DecodeError("frame exceeds 16 MiB", 0)
        return line

    def close(self) -> None:
        # shutdown first: it forces a reader blocked in readline to see EOF
        # and drop the buffer lock that _file.close() must acquire
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self._file.close()
        except OSError:
            pass
        self._sock.close()


def channel_pair() -> tuple[SocketChannel, SocketChannel]:
    """Two connected in-process endpoints."""
    a, b = socket.socketpair()
    return SocketChannel(a), SocketChannel(b)


def send_frame(channel, ftype: str, payload: dict) -> None:
    channel.send_bytes(encode_frame(ftype, payload))


def _best_effort(channel, ftype: str, payload: dict) -> None:
    try:
        send_frame(channel, ftype, payload)
    except (FederationError, OSError):
        pass


def derive_run_id(g: GameInstance, cfg: RunConfig, algorithm: str) -> str:
    blob = json.dumps(
        {"digest": instance_digest(g), "algorithm": algorithm, **asdict(cfg)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Center side.


class RemotePool:
    """Drop-in replacement for dynamics.LocalPool backed by agent channels.

    One reader thread per channel feeds a single queue; step() implements the
    round barrier by waiting until every agent's report for round t arrived,
    and returns the reports as the pool contract's (s_next, grads) arrays.
    """

    def __init__(
        self,
        game: GameInstance,
        cfg: RunConfig,
        algorithm: str,
        channels,
        timeout: float = DEFAULT_TIMEOUT,
    ) -> None:
        if len(channels) != game.n:
            raise ConfigError(f"need exactly {game.n} agent channels, got {len(channels)}")
        self.game = game
        self.cfg = cfg
        self.timeout = timeout
        self.run_id = derive_run_id(game, cfg, algorithm)
        self.digest = instance_digest(game)
        self._channels = list(channels)
        self._by_agent: dict[int, object] = {}
        self._queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._done = False

    # reader threads tag frames with the channel index; agent identity is
    # established by the hello handshake.
    def _reader(self, idx: int, channel) -> None:
        while True:
            try:
                line = channel.recv_line()
            except FederationError as exc:
                self._queue.put((idx, "fail", str(exc)))
                return
            if line == b"":
                self._queue.put((idx, "closed", ""))
                return
            try:
                frame = decode_frame(line)
            except DecodeError as exc:
                self._queue.put((idx, "fail", str(exc)))
                return
            self._queue.put((idx, "frame", frame))

    def _get(self, deadline: float):
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            raise queue.Empty
        return self._queue.get(timeout=remaining)

    def handshake(self) -> None:
        for idx, ch in enumerate(self._channels):
            th = threading.Thread(target=self._reader, args=(idx, ch), daemon=True)
            th.start()
            self._threads.append(th)
        deadline = time.monotonic() + self.timeout
        pending = set(range(len(self._channels)))
        chan_agent: dict[int, int] = {}
        while pending:
            try:
                idx, kind, item = self._get(deadline)
            except queue.Empty:
                raise FederationError(
                    f"timeout waiting for hello on {len(pending)} connection(s)"
                ) from None
            ch = self._channels[idx]
            if kind != "frame":
                raise FederationError(f"connection {idx} failed before hello: {item}")
            ftype, payload = item
            if ftype == "error":
                raise FederationError(f"connection {idx} sent error: {payload.get('message')}")
            if ftype != "hello":
                _best_effort(ch, "error", {"message": "expected hello"})
                raise FederationError(f"connection {idx} sent {ftype} before hello")
            if payload.get("protocol_version") != PROTOCOL_VERSION:
                _best_effort(ch, "error", {"message": "unsupported protocol version"})
                raise FederationError(
                    f"connection {idx}: protocol version {payload.get('protocol_version')!r}"
                )
            if payload.get("digest") != self.digest:
                _best_effort(ch, "error", {"message": "instance digest mismatch"})
                raise FederationError(f"connection {idx}: instance digest mismatch")
            aid = payload.get("agent_id")
            if not isinstance(aid, int) or not 0 <= aid < self.game.n:
                _best_effort(ch, "error", {"message": "agent_id out of range"})
                raise FederationError(f"connection {idx}: bad agent id {aid!r}")
            if aid in self._by_agent:
                _best_effort(ch, "error", {"message": "duplicate agent_id"})
                raise FederationError(f"duplicate hello for agent {aid}")
            self._by_agent[aid] = ch
            chan_agent[idx] = aid
            pending.discard(idx)
        self._chan_agent = chan_agent
        ack = {
            "protocol_version": PROTOCOL_VERSION,
            "run_id": self.run_id,
            "n": self.game.n,
            "m": self.game.m,
        }
        self._send_all("hello", ack)

    def _send_all(self, ftype: str, payload: dict) -> None:
        """Send one frame to every agent in id order; a failed send names
        the agent."""
        data = encode_frame(ftype, payload)
        for aid in sorted(self._by_agent):
            try:
                self._by_agent[aid].send_bytes(data)
            except FederationError as exc:
                raise FederationError(f"agent {aid} disconnected: {exc}") from None

    def _parse_report(
        self, phase: str, payload: dict
    ) -> tuple[float | None, list[float] | None]:
        """(s_next, d) of a report, each None where the phase has none."""
        aid = payload.get("agent_id")
        s_next = payload.get("s_next")
        d = payload.get("d")
        if phase in ("1", "single"):
            s_next = _finite(s_next)
            if s_next is None:
                raise FederationError(
                    f"agent {aid}: report s_next {payload.get('s_next')!r} is not a finite "
                    f"number in phase {phase}"
                )
        elif s_next is not None:
            raise FederationError(f"agent {aid}: unexpected s_next in phase 2")
        if phase in ("2", "single"):
            d = _finite_list(d, self.game.m)
            if d is None:
                raise FederationError(
                    f"agent {aid}: report gradient is not {self.game.m} finite numbers"
                )
        elif d is not None:
            raise FederationError(f"agent {aid}: unexpected gradient in phase 1")
        return s_next, d

    def step(
        self, t: int, phase: str, w: np.ndarray, s: np.ndarray, rows: tuple | None = None
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """One round over the transport.  rows are not used: the agents
        evaluate their own."""
        self._send_all("broadcast", {
            "run_id": self.run_id,
            "t": int(t),
            "phase": phase,
            "w": [float(v) for v in w],
            "s": [float(v) for v in s],
        })
        n = self.game.n
        s_next = None if phase == "2" else np.empty(n)
        grads = None if phase == "1" else np.empty((n, self.game.m))
        got: set[int] = set()
        deadline = time.monotonic() + self.timeout
        while len(got) < n:
            try:
                idx, kind, item = self._get(deadline)
            except queue.Empty:
                missing = sorted(set(range(n)) - got)
                raise FederationError(
                    f"no report from agent(s) {missing} within {self.timeout}s"
                ) from None
            aid = self._chan_agent.get(idx)
            if kind == "closed":
                raise FederationError(f"agent {aid} disconnected")
            if kind == "fail":
                raise FederationError(f"agent {aid} channel failed at round {t}: {item}")
            ftype, payload_in = item
            if ftype == "error":
                raise FederationError(
                    f"agent {aid} reported an error: {payload_in.get('message')}"
                )
            if ftype != "report":
                raise FederationError(f"agent {aid} sent unexpected {ftype}")
            if payload_in.get("run_id") != self.run_id or payload_in.get("t") != t:
                # stale or foreign report: tell the agent and keep waiting
                _best_effort(
                    self._by_agent[aid], "error",
                    {"message": f"dropped report with run_id/t mismatch at round {t}"},
                )
                continue
            if payload_in.get("agent_id") != aid:
                raise FederationError(
                    f"agent {aid} sent report claiming id {payload_in.get('agent_id')}"
                )
            if aid in got:
                raise FederationError(f"agent {aid} sent a duplicate report for round {t}")
            s_i, d_i = self._parse_report(phase, payload_in)
            if s_next is not None:
                s_next[aid] = s_i
            if grads is not None:
                grads[aid] = d_i
            got.add(aid)
        return s_next, grads

    def close(self, ok: bool = True) -> None:
        if self._done:
            return
        self._done = True
        for ch in self._channels:
            _best_effort(ch, "bye", {"reason": "done" if ok else "aborted"})
        for ch in self._channels:
            try:
                ch.close()
            except OSError:
                pass
        for th in self._threads:
            th.join(timeout=5.0)


def serve_center(
    g: GameInstance,
    cfg: RunConfig,
    algorithm: str,
    channels,
    w0: np.ndarray | None = None,
    s0: np.ndarray | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    strict: bool = True,
):
    """Run the selected dynamic with remote agents; returns the Trace.

    The closing bye tells the agents the run was aborted when it ended in
    an Error outcome.
    """
    pool = RemotePool(g, cfg, algorithm, channels, timeout)
    try:
        pool.handshake()
        trace = run_dynamic(g, cfg, algorithm, w0=w0, s0=s0, pool=pool, strict=strict)
    except BaseException:
        pool.close(ok=False)
        raise
    pool.close(ok=trace.outcome != "Error")
    return trace


# ---------------------------------------------------------------------------
# Agent side.


def run_agent(
    g: GameInstance,
    agent_id: int,
    cfg: RunConfig,
    channel,
    notify=None,
    timeout: float = DEFAULT_TIMEOUT,
) -> int:
    """Agent loop: handshake, answer broadcasts, exit on bye.  Returns a
    process-style status: 0 clean, nonzero on a protocol failure, an aborted
    run, a center that sends nothing for timeout seconds or hangs up, or a
    failure of the agent's own computation, which it also reports to the
    center in an error frame.  notify, if given, is called with a one-line
    reason on every failure path."""
    note = notify if notify is not None else lambda msg: None
    worker = AgentWorker(g, agent_id, cfg)

    def receive() -> bytes | None:
        try:
            return channel.recv_line(timeout)
        except FederationError as exc:
            _best_effort(channel, "error", {"message": f"agent {agent_id}: {exc}"})
            note(f"waiting for the center: {exc}")
            return None

    def send(ftype: str, payload: dict) -> bool:
        try:
            send_frame(channel, ftype, payload)
        except FederationError as exc:
            note(f"sending {ftype} to the center: {exc}")
            return False
        return True

    hello = {
        "protocol_version": PROTOCOL_VERSION,
        "agent_id": agent_id,
        "digest": instance_digest(g),
    }
    if not send("hello", hello):
        return 1
    line = receive()
    if line is None:
        return 1
    if line == b"":
        note("connection closed during handshake")
        return 1
    try:
        ftype, payload = decode_frame(line)
    except DecodeError:
        _best_effort(channel, "error", {"message": "malformed handshake"})
        note("malformed handshake from center")
        return 1
    if ftype == "error":
        note(f"center rejected hello: {payload.get('message', '')}")
        return 1
    if ftype == "bye":
        note("center shut down before the run started")
        return 1
    if ftype != "hello":
        _best_effort(channel, "error", {"message": "expected hello acceptance"})
        note(f"expected hello acceptance, got {ftype}")
        return 1
    run_id = payload.get("run_id")
    last_t: int | None = None
    while True:
        line = receive()
        if line is None:
            return 1
        if line == b"":
            note("connection closed by center")
            return 1
        try:
            ftype, payload = decode_frame(line)
        except DecodeError as exc:
            _best_effort(channel, "error", {"message": f"malformed broadcast: {exc}"})
            note(f"malformed broadcast: {exc}")
            return 1
        if ftype == "bye":
            if payload.get("reason") == "aborted":
                note("center aborted the run")
                return 1
            return 0
        if ftype == "error":
            note(f"center reported an error: {payload.get('message', '')}")
            return 1
        if ftype != "broadcast":
            _best_effort(channel, "error", {"message": f"unexpected frame {ftype}"})
            note(f"unexpected frame {ftype}")
            return 1
        t = payload.get("t")
        phase = payload.get("phase")
        w = _finite_list(payload.get("w"), g.m)
        s = _finite_list(payload.get("s"), g.n)
        if payload.get("run_id") != run_id:
            _best_effort(channel, "error", {"message": "broadcast run_id mismatch"})
            note("broadcast run_id mismatch")
            return 1
        if not isinstance(t, int) or (last_t is not None and t <= last_t):
            _best_effort(channel, "error", {"message": "out-of-order broadcast"})
            note("out-of-order broadcast")
            return 1
        if phase not in ("1", "2", "single") or w is None or s is None:
            _best_effort(channel, "error", {"message": "malformed broadcast fields"})
            note("malformed broadcast fields")
            return 1
        try:
            s_next, grads = worker.step(t, phase, np.array(w), np.array(s))
        except GameError as exc:
            message = f"agent {agent_id} failed at round {t}: {exc}"
            _best_effort(channel, "error", {"message": message})
            note(message)
            return 1
        report = {"run_id": run_id, "t": t, "agent_id": agent_id}
        if s_next is not None:
            report["s_next"] = float(s_next[0])
        if grads is not None:
            report["d"] = grads[0].tolist()
        if not send("report", report):
            return 1
        last_t = t


# ---------------------------------------------------------------------------
# Transport helpers.


@dataclass
class InProcessRun:
    trace: object
    agent_status: list[int]


def run_inprocess_federation(
    g: GameInstance,
    cfg: RunConfig,
    algorithm: str,
    w0: np.ndarray | None = None,
    s0: np.ndarray | None = None,
    timeout: float = DEFAULT_TIMEOUT,
    strict: bool = True,
) -> InProcessRun:
    """Full protocol run with every agent on its own thread, each joined to
    the center by a socketpair; every end is closed on return."""
    center_ends, agent_ends = zip(*(channel_pair() for _ in range(g.n)))
    status = [None] * g.n

    def agent_main(i: int) -> None:
        try:
            status[i] = run_agent(g, i, cfg, agent_ends[i], timeout=timeout)
        except Exception:
            status[i] = 2

    threads = [threading.Thread(target=agent_main, args=(i,), daemon=True) for i in range(g.n)]
    for th in threads:
        th.start()
    try:
        trace = serve_center(g, cfg, algorithm, center_ends, w0, s0, timeout, strict)
    finally:
        for th in threads:
            th.join(timeout=10.0)
        for ch in agent_ends:  # serve_center has closed the center ends
            ch.close()
    return InProcessRun(trace=trace, agent_status=[x if x is not None else 2 for x in status])


def open_listener(host: str, port: int) -> socket.socket:
    srv = socket.create_server((host, port))
    srv.listen(64)
    return srv


def accept_agents(listener: socket.socket, count: int, timeout: float = DEFAULT_TIMEOUT):
    """Accept exactly `count` connections before the per-round protocol starts."""
    channels = []
    deadline = time.monotonic() + timeout
    listener.settimeout(1.0)
    while len(channels) < count:
        if time.monotonic() > deadline:
            for ch in channels:
                ch.close()
            raise FederationError(
                f"timeout: only {len(channels)} of {count} agents connected"
            )
        try:
            sock, _addr = listener.accept()
        except socket.timeout:
            continue
        channels.append(SocketChannel(sock))
    return channels


def connect_agent(
    g: GameInstance,
    agent_id: int,
    cfg: RunConfig,
    host: str,
    port: int,
    timeout: float = DEFAULT_TIMEOUT,
    notify=None,
) -> int:
    """run_agent over TCP; timeout bounds the connect and every wait for the
    center."""
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise FederationError(f"cannot reach center at {host}:{port}: {exc}") from None
    channel = SocketChannel(sock)
    try:
        return run_agent(g, agent_id, cfg, channel, notify=notify, timeout=timeout)
    finally:
        channel.close()
