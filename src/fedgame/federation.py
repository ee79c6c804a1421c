"""Center/agent round protocol over interchangeable transports.

Frames are single-line UTF-8 JSON objects {"type": ..., "payload": ...} with
type in {hello, broadcast, report, bye, error}.  Floats ride as JSON numbers
in shortest round-trip decimal, so a remote run reproduces the in-process
arithmetic bit for bit.  Every transport is a connected stream socket
behind one channel class: TCP between processes, or a socketpair when both
ends live in one process.

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
up with a nonzero status.  Every entry point that takes a timeout raises
ConfigError, before it opens or waits on anything, unless the timeout is
finite and > 0.
"""

from __future__ import annotations

import hashlib
import json
import queue
import socket
import threading
import time
from dataclasses import asdict
from math import isfinite

import numpy as np

from .core import ConfigError, FederationError, GameError, GameInstance
from .dynamics import AgentWorker, RunConfig, run_dynamic
from .traceio import canonical_json, instance_digest

PROTOCOL_VERSION = 1
MAX_FRAME_BYTES = 16 * 1024 * 1024
FRAME_TYPES = ("hello", "broadcast", "report", "bye", "error")
DEFAULT_TIMEOUT = 30.0


class DecodeError(FederationError):
    """Malformed wire data; offset is the byte position when known."""

    def __init__(self, message: str, offset: int = 0) -> None:
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


def encode_frame(ftype: str, payload: dict) -> bytes:
    if ftype not in FRAME_TYPES:
        raise ConfigError(f"unknown frame type {ftype!r}")
    try:
        body = canonical_json({"type": ftype, "payload": payload})
    except ValueError as exc:
        raise FederationError(f"unencodable frame payload: {exc}") from None
    data = (body + "\n").encode("utf-8")
    if len(data) > MAX_FRAME_BYTES:
        raise FederationError(f"frame too large: {len(data)} bytes")
    return data


def _reject_constant(token: str):
    raise DecodeError(f"non-finite number {token!r} in frame")


# Built once: json.loads with options builds a new decoder on every call.
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


def send_frame(channel, ftype: str, payload: dict) -> None:
    channel.send_bytes(encode_frame(ftype, payload))


def check_timeout(timeout: float, name: str = "timeout") -> float:
    """timeout itself when it is finite and > 0, else ConfigError: a NaN
    deadline is never passed, so a wait on it would never end."""
    if not (isfinite(timeout) and timeout > 0.0):
        raise ConfigError(f"{name} must be finite and > 0, got {timeout!r}")
    return timeout


def _best_effort(channel, ftype: str, payload: dict) -> None:
    try:
        send_frame(channel, ftype, payload)
    except (FederationError, OSError):
        pass


def derive_run_id(g: GameInstance, cfg: RunConfig, algorithm: str) -> str:
    blob = canonical_json({"digest": instance_digest(g), "algorithm": algorithm, **asdict(cfg)})
    return hashlib.sha256(blob.encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Center side.


class RemotePool:
    """Drop-in replacement for dynamics.LocalPool backed by agent channels.

    One reader thread per channel feeds a single queue.  Every wait on it
    goes through _next, which owns every exit of the center: the deadline,
    a channel that closes or fails, and an error frame from the peer.
    handshake() accepts one hello per channel; step() broadcasts (w, s),
    holds the round barrier until every agent's report for round t arrived,
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
        self.timeout = check_timeout(timeout)
        if len(channels) != game.n:
            raise ConfigError(f"need exactly {game.n} agent channels, got {len(channels)}")
        self.game = game
        self.run_id = derive_run_id(game, cfg, algorithm)
        self.digest = instance_digest(game)
        self._channels = list(channels)
        self._agent: dict[int, int] = {}  # channel index -> agent id, set by its hello
        self._queue: queue.Queue = queue.Queue()
        self._threads: list[threading.Thread] = []
        self._done = False

    def _reader(self, idx: int, channel) -> None:
        """Queue (idx, frame) for each frame, then (idx, None) at end of
        stream or (idx, exc) when the channel fails or a frame does not
        decode."""
        try:
            line = channel.recv_line()
            while line:
                self._queue.put((idx, decode_frame(line)))
                line = channel.recv_line()
            self._queue.put((idx, None))
        except FederationError as exc:
            self._queue.put((idx, exc))

    def _next(self, deadline: float, late) -> tuple[int, str, dict]:
        """Next (idx, ftype, payload) from any channel.  Raises late() once
        deadline has passed, queued frames or not, and names the peer when
        its channel closes or fails or it sends an error frame."""
        remaining = deadline - time.monotonic()
        try:
            if remaining <= 0.0:
                raise queue.Empty
            idx, item = self._queue.get(timeout=remaining)
        except queue.Empty:
            raise late() from None
        if isinstance(item, tuple) and item[0] != "error":
            return idx, item[0], item[1]
        aid = self._agent.get(idx)
        who = f"connection {idx}" if aid is None else f"agent {aid}"
        if item is None:
            raise FederationError(f"{who} disconnected")
        if isinstance(item, FederationError):
            raise FederationError(f"{who} channel failed: {item}")
        raise FederationError(f"{who} reported an error: {item[1].get('message')}")

    def _refuse(self, idx: int, tell: str, error: str) -> FederationError:
        """FederationError(error) to raise, after sending the peer on channel
        idx an error frame with message tell, best effort."""
        _best_effort(self._channels[idx], "error", {"message": tell})
        return FederationError(error)

    def handshake(self) -> None:
        for idx, ch in enumerate(self._channels):
            th = threading.Thread(target=self._reader, args=(idx, ch), daemon=True)
            th.start()
            self._threads.append(th)
        n = self.game.n
        deadline = time.monotonic() + self.timeout

        def late():
            pending = n - len(self._agent)
            return FederationError(f"timeout waiting for hello on {pending} connection(s)")

        while len(self._agent) < n:
            idx, ftype, hello = self._next(deadline, late)
            conn, aid = f"connection {idx}", hello.get("agent_id")
            if ftype != "hello":
                raise self._refuse(idx, "expected hello", f"{conn} sent {ftype} before hello")
            if hello.get("protocol_version") != PROTOCOL_VERSION:
                raise self._refuse(
                    idx, "unsupported protocol version",
                    f"{conn}: protocol version {hello.get('protocol_version')!r}",
                )
            if hello.get("digest") != self.digest:
                tell = "instance digest mismatch"
                raise self._refuse(idx, tell, f"{conn}: {tell}")
            if not isinstance(aid, int) or not 0 <= aid < n:
                raise self._refuse(idx, "agent_id out of range", f"{conn}: bad agent id {aid!r}")
            if idx in self._agent or aid in self._agent.values():
                raise self._refuse(idx, "duplicate agent_id", f"duplicate hello for agent {aid}")
            self._agent[idx] = aid
        self._send_all("hello", {
            "protocol_version": PROTOCOL_VERSION,
            "run_id": self.run_id,
            "n": n,
            "m": self.game.m,
        })

    def _send_all(self, ftype: str, payload: dict) -> None:
        """Send one frame to every agent in id order; a failed send names
        the agent."""
        data = encode_frame(ftype, payload)
        for idx in sorted(self._agent, key=self._agent.get):
            try:
                self._channels[idx].send_bytes(data)
            except FederationError as exc:
                raise FederationError(f"agent {self._agent[idx]} disconnected: {exc}") from None

    def step(
        self,
        t: int,
        phase: str,
        w: np.ndarray,
        s: np.ndarray,
        rows: tuple | None = None,
        derivatives: np.ndarray | None = None,
    ) -> tuple[np.ndarray | None, np.ndarray | None]:
        """One round over the transport.  rows and derivatives are not used:
        the agents evaluate their own."""
        self._send_all("broadcast", {
            "run_id": self.run_id,
            "t": int(t),
            "phase": phase,
            "w": [float(v) for v in w],
            "s": [float(v) for v in s],
        })
        n, m = self.game.n, self.game.m
        s_next = None if phase == "2" else np.empty(n)
        grads = None if phase == "1" else np.empty((n, m))
        got: set[int] = set()
        deadline = time.monotonic() + self.timeout

        def late():
            missing = sorted(set(range(n)) - got)
            return FederationError(f"no report from agent(s) {missing} within {self.timeout}s")

        while len(got) < n:
            idx, ftype, report = self._next(deadline, late)
            aid = self._agent[idx]
            if ftype != "report":
                raise FederationError(f"agent {aid} sent unexpected {ftype}")
            if report.get("run_id") != self.run_id or report.get("t") != t:
                # stale or foreign report: tell the agent and keep waiting
                _best_effort(
                    self._channels[idx], "error",
                    {"message": f"dropped report with run_id/t mismatch at round {t}"},
                )
                continue
            claimed, s_raw, d_raw = report.get("agent_id"), report.get("s_next"), report.get("d")
            if claimed != aid:
                raise FederationError(f"agent {aid} sent report claiming id {claimed}")
            if aid in got:
                raise FederationError(f"agent {aid} sent a duplicate report")
            if s_next is not None:
                s_i = _finite(s_raw)
                if s_i is None:
                    raise FederationError(
                        f"agent {aid}: report s_next {s_raw!r} is not a finite number "
                        f"in phase {phase}"
                    )
                s_next[aid] = s_i
            elif s_raw is not None:
                raise FederationError(f"agent {aid}: unexpected s_next in phase 2")
            if grads is not None:
                d = _finite_list(d_raw, m)
                if d is None:
                    raise FederationError(f"agent {aid}: report gradient is not {m} finite numbers")
                grads[aid] = d
            elif d_raw is not None:
                raise FederationError(f"agent {aid}: unexpected gradient in phase 1")
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
):
    """Run the selected dynamic with remote agents; returns the Trace.

    The closing bye tells the agents the run was aborted when it ended in
    an Error outcome.
    """
    pool = RemotePool(g, cfg, algorithm, channels, timeout)
    try:
        pool.handshake()
        trace = run_dynamic(g, cfg, algorithm, w0=w0, s0=s0, pool=pool)
    except BaseException:
        pool.close(ok=False)
        raise
    pool.close(ok=trace.outcome != "Error")
    return trace


# ---------------------------------------------------------------------------
# Agent side.


class _AgentExit(Exception):
    """Ends run_agent with status 1: note is the reason passed to notify,
    and tell, when set, the message of the error frame the agent first
    sends the center, best effort."""

    def __init__(self, note: str, tell: str | None = None) -> None:
        super().__init__(note)
        self.note = note
        self.tell = tell


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
    check_timeout(timeout)
    worker = AgentWorker(g, agent_id, cfg)

    def receive(closed: str) -> bytes:  # closed: the note for EOF
        try:
            line = channel.recv_line(timeout)
        except FederationError as exc:
            raise _AgentExit(f"waiting for the center: {exc}", f"agent {agent_id}: {exc}") from None
        if line == b"":
            raise _AgentExit(closed)
        return line

    def send(ftype: str, payload: dict) -> None:
        try:
            send_frame(channel, ftype, payload)
        except FederationError as exc:
            raise _AgentExit(f"sending {ftype} to the center: {exc}") from None

    try:
        send("hello", {
            "protocol_version": PROTOCOL_VERSION,
            "agent_id": agent_id,
            "digest": instance_digest(g),
        })
        line = receive("connection closed during handshake")
        try:
            ftype, payload = decode_frame(line)
        except DecodeError:
            raise _AgentExit("malformed handshake from center", "malformed handshake") from None
        if ftype == "error":
            raise _AgentExit(f"center rejected hello: {payload.get('message', '')}")
        if ftype == "bye":
            raise _AgentExit("center shut down before the run started")
        if ftype != "hello":
            raise _AgentExit(f"expected hello acceptance, got {ftype}", "expected hello acceptance")
        run_id = payload.get("run_id")
        last_t: int | None = None
        while True:
            line = receive("connection closed by center")
            try:
                ftype, payload = decode_frame(line)
            except DecodeError as exc:
                message = f"malformed broadcast: {exc}"
                raise _AgentExit(message, message) from None
            if ftype == "bye":
                if payload.get("reason") == "aborted":
                    raise _AgentExit("center aborted the run")
                return 0
            if ftype == "error":
                raise _AgentExit(f"center reported an error: {payload.get('message', '')}")
            if ftype != "broadcast":
                raise _AgentExit(f"unexpected frame {ftype}", f"unexpected frame {ftype}")
            t = payload.get("t")
            phase = payload.get("phase")
            w = _finite_list(payload.get("w"), g.m)
            s = _finite_list(payload.get("s"), g.n)
            if payload.get("run_id") != run_id:
                raise _AgentExit("broadcast run_id mismatch", "broadcast run_id mismatch")
            if not isinstance(t, int) or (last_t is not None and t <= last_t):
                raise _AgentExit("out-of-order broadcast", "out-of-order broadcast")
            if phase not in ("1", "2", "single") or w is None or s is None:
                raise _AgentExit("malformed broadcast fields", "malformed broadcast fields")
            try:
                s_next, grads = worker.step(t, phase, np.array(w), np.array(s))
            except GameError as exc:
                message = f"agent {agent_id} failed at round {t}: {exc}"
                raise _AgentExit(message, message) from None
            report = {"run_id": run_id, "t": t, "agent_id": agent_id}
            if s_next is not None:
                report["s_next"] = float(s_next[0])
            if grads is not None:
                report["d"] = grads[0].tolist()
            send("report", report)
            last_t = t
    except _AgentExit as exc:
        if exc.tell is not None:
            _best_effort(channel, "error", {"message": exc.tell})
        if notify is not None:
            notify(exc.note)
        return 1


# ---------------------------------------------------------------------------
# Transport helpers.


def open_listener(host: str, port: int) -> socket.socket:
    srv = socket.create_server((host, port))
    srv.listen(64)
    return srv


def accept_agents(listener: socket.socket, count: int, timeout: float = DEFAULT_TIMEOUT):
    """Accept exactly `count` connections, each waiting at most the time left."""
    channels = []
    deadline = time.monotonic() + check_timeout(timeout)
    while len(channels) < count:
        remaining = deadline - time.monotonic()
        if remaining <= 0.0:
            for ch in channels:
                ch.close()
            raise FederationError(
                f"timeout: only {len(channels)} of {count} agents connected"
            )
        listener.settimeout(remaining)
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
    check_timeout(timeout)
    try:
        sock = socket.create_connection((host, port), timeout=timeout)
    except OSError as exc:
        raise FederationError(f"cannot reach center at {host}:{port}: {exc}") from None
    channel = SocketChannel(sock)
    try:
        return run_agent(g, agent_id, cfg, channel, notify=notify, timeout=timeout)
    finally:
        channel.close()
