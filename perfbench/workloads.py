"""The four workloads: set-up, one timed pass, and the checks on its outputs.

Every call into fedgame goes through a module attribute (`dynamics.run_dynamic`,
not an imported name) so the wrappers in hooks.py see it.  A pass returns
what the checks need; the worker stops the pass clock before checking.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import os
import select
import subprocess
import time

import numpy as np

from fedgame import analysis, cli, config, dynamics, federation, scenarios, traceio

# quad-n200: n and m large enough that the O(n^2) round record and the
# best-response scan dominate; eps = 1e-12 keeps every run at the full
# round count whatever the seed draws.
QUAD_N, QUAD_M, QUAD_ROUNDS = 200, 30, 150
QUAD_THETA = tuple(((k % 7) - 3) / 4.0 for k in range(QUAD_M))
QUAD_SIGMA0, QUAD_R, QUAD_BETA = 1.0, 1.0, 0.12
CERTIFY_EPS = 1e-6

EMP_ROUNDS = 25
FED_SCENARIO, FED_RECORDS = "example1-fas", 5249
CLI_SCENARIO = "quad5"
CLI_BETAS, CLI_REPLICATES = "0.11,0.12,0.15,0.2", 5
CLI_EXPECTED_EXIT = {"sweep": 0, "run": 0, "certify": 0, "bounds": 3, "diagnose": 0}

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden.json")
GOLDEN_SEED = 0


def quad_config_text(seed: int) -> str:
    theta = ",".join(repr(v) for v in QUAD_THETA)
    return f"""[instance]
n = {QUAD_N}
m = {QUAD_M}
accuracy = quadratic
theta = {theta}
sigma0 = {QUAD_SIGMA0!r}
r = {QUAD_R!r}
s_max = 2.0
cost = random-linear
cost_scale = 0.1
payment = linear
beta = {QUAD_BETA!r}

[run]
algorithm = upbred
gamma = 0.5
eta = 0.5
rounds = {QUAD_ROUNDS}
eps = 1e-12
seed = {seed}

[init]
w0 = zeros
s0 = random
"""


def empirical_config_text(seed: int) -> str:
    return f"""[instance]
n = 20
accuracy = empirical
features = 8
classes = 4
test_size = 2000
data_seed = {seed}
s_max = 2000.0
cost = linear
cost_coeffs = 0.002
payment = linear
beta = 0.01

[run]
algorithm = upbred
updater = empirical
gamma = 0.5
eta = 0.5
learn_rate = 0.25
rounds = {EMP_ROUNDS}
eps = 1e-6

[init]
w0 = zeros
s0 = random
"""


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


class Gate:
    """Correctness checks; each one is an attempted operation."""

    def __init__(self) -> None:
        self.results: list[dict] = []

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append({"name": name, "ok": bool(ok), "detail": detail})
        return bool(ok)


def read_line(proc, timeout: float) -> str | None:
    """One line from a child's stdout, or None if none arrives in time."""
    ready, _, _ = select.select([proc.stdout], [], [], timeout)
    if not ready:
        return None
    return proc.stdout.readline()


class Workload:
    name = ""

    def __init__(self, seed: int, tracer, outdir: str, child=None) -> None:
        self.seed = seed
        self.tracer = tracer
        self.outdir = outdir
        self.child = child
        self.digests: dict[str, str] | None = None

    def setup(self) -> None:
        raise NotImplementedError

    def probe_tail(self) -> None:
        """Set-up work that only the set-up probe times (fed: the handshake)."""

    def finish_probe(self, gate: Gate) -> None:
        """Undo probe_tail after the probe's clock has stopped."""

    def run_pass(self, k: int, traced: bool) -> dict:
        raise NotImplementedError

    def check_pass(self, k: int, out: dict, gate: Gate) -> dict:
        raise NotImplementedError

    def finish(self, gate: Gate) -> dict:
        golden_check(self.name, self.seed, self.digests, gate)
        return {}

    def close(self) -> None:
        pass

    def _same_digests(self, k: int, digests: dict[str, str], gate: Gate) -> None:
        if self.digests is None:
            self.digests = digests
        else:
            gate.check(f"pass {k}: outputs identical to pass 0", digests == self.digests)


def golden_check(name: str, seed: int, digests, gate: Gate) -> None:
    with open(GOLDEN_PATH) as fh:
        golden = json.load(fh)
    entry = golden["digests"].get(name)
    if entry is None or digests is None:
        gate.check(f"golden digests recorded for {name}", False)
        return
    if entry["seed"] is not None and seed != entry["seed"]:
        return
    for fname, want in sorted(entry["files"].items()):
        got = digests.get(fname)
        gate.check(f"golden sha256 of {fname}", got == want, f"got {got}, want {want}")


class QuadN200(Workload):
    name = "quad-n200"

    def setup(self) -> None:
        self.text = quad_config_text(self.seed)
        self.built = config.build_scenario(config.parse_scenario(self.text))

    def run_pass(self, k: int, traced: bool) -> dict:
        b = self.built
        trace = dynamics.run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)
        csv_path = os.path.join(self.outdir, f"{self.name}.csv")
        traceio.write_trace_csv(trace, csv_path)
        traceio.write_run_manifest(
            trace, os.path.join(self.outdir, f"{self.name}.json"), self.text,
            extra={"algorithm": b.algorithm},
        )
        with self.tracer.span("bench.certify"):
            cert = analysis.certify_nash(b.game, trace.final.w, trace.final.s, CERTIFY_EPS)
        return {"trace": trace, "csv": csv_path, "cert": cert}

    def check_pass(self, k: int, out: dict, gate: Gate) -> dict:
        trace, cert = out["trace"], out["cert"]
        final = trace.final
        gate.check(
            f"pass {k}: MaxRounds at t={QUAD_ROUNDS}",
            trace.outcome == "MaxRounds" and final.t == QUAD_ROUNDS,
            f"{trace.outcome} at t={final.t}",
        )
        s, w = np.asarray(final.s), np.asarray(final.w)
        dist2 = float(np.sum((w - np.asarray(QUAD_THETA)) ** 2))
        welfare = QUAD_N * QUAD_R - QUAD_N * dist2 / (QUAD_SIGMA0 + float(np.sum(s)))
        gate.check(
            f"pass {k}: final welfare matches the closed form",
            abs(final.welfare - welfare) <= 1e-9 * max(1.0, abs(welfare)),
            f"{final.welfare!r} vs {welfare!r}",
        )
        pay_sum = sum(rep.payment for rep in final.reports)
        gate.check(
            f"pass {k}: payments sum to zero",
            abs(pay_sum) <= 1e-9 * QUAD_BETA * float(np.sum(np.abs(s))),
            f"sum {pay_sum!r}",
        )
        gate.check(f"pass {k}: final profile certified", cert.certified, cert.verdict)
        self._same_digests(k, {f"{self.name}.csv": sha256_file(out["csv"])}, gate)
        return {}


class EmpiricalN20(Workload):
    name = "empirical-n20"

    def setup(self) -> None:
        self.built = config.build_scenario(config.parse_scenario(empirical_config_text(self.seed)))

    def run_pass(self, k: int, traced: bool) -> dict:
        b = self.built
        return {"trace": dynamics.run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)}

    def check_pass(self, k: int, out: dict, gate: Gate) -> dict:
        trace = out["trace"]
        gate.check(
            f"pass {k}: MaxRounds at t={EMP_ROUNDS}",
            trace.outcome == "MaxRounds" and trace.final.t == EMP_ROUNDS,
            f"{trace.outcome} at t={trace.final.t}",
        )
        self._same_digests(k, {f"{self.name}.csv": sha256_text(traceio.trace_csv_text(trace))}, gate)
        return {}


class CountingChannel:
    """Channel wrapper counting frames and bytes at the center's socket."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.frames_in = self.bytes_in = self.frames_out = self.bytes_out = 0

    def send_bytes(self, data: bytes) -> None:
        self.frames_out += 1
        self.bytes_out += len(data)
        self.inner.send_bytes(data)

    def recv_line(self) -> bytes:
        line = self.inner.recv_line()
        if line:
            self.frames_in += 1
            self.bytes_in += len(line)
        return line

    def close(self) -> None:
        self.inner.close()


class FedTcpN2(Workload):
    """Center in this process; both agents in one child process (agents.py)."""

    name = "fed-tcp-n2"
    CHILD_TIMEOUT = 60.0

    def setup(self) -> None:
        self.text = scenarios.builtin_text(FED_SCENARIO)
        self.built = config.build_scenario(config.parse_scenario(self.text))
        self.listener = federation.open_listener("127.0.0.1", 0)
        self._tell(f"port {self.listener.getsockname()[1]}")

    def _tell(self, line: str) -> None:
        self.child.stdin.write(line + "\n")
        self.child.stdin.flush()

    def _accept(self, traced: bool):
        channels = federation.accept_agents(self.listener, self.built.game.n)
        return [CountingChannel(ch) for ch in channels] if traced else channels

    def _agent_report(self) -> dict:
        line = read_line(self.child, self.CHILD_TIMEOUT)
        if not line:  # stalled or gone: no later pass can use this child
            self.child.kill()
            self.child.wait()
            return {"status": None, "agent_step_s": 0.0}
        return json.loads(line)

    def probe_tail(self) -> None:
        b = self.built
        self._tell("go 0")
        pool = federation.RemotePool(b.game, b.run, b.algorithm, self._accept(False))
        pool.handshake()
        self.probe_pool = pool

    def finish_probe(self, gate: Gate) -> None:
        self.probe_pool.close()
        status = self._agent_report()["status"]
        gate.check("probe: both agents exit 0 after the handshake", status == [0, 0], str(status))

    def run_pass(self, k: int, traced: bool) -> dict:
        b = self.built
        self._tell(f"go {int(traced)}")
        channels = self._accept(traced)
        with self.tracer.span("federation.serve:serve_center"):
            trace = federation.serve_center(b.game, b.run, b.algorithm, channels, b.w0, b.s0)
        return {"trace": trace, "channels": channels}

    def check_pass(self, k: int, out: dict, gate: Gate) -> dict:
        trace = out["trace"]
        report = self._agent_report()
        gate.check(f"pass {k}: both agents exit 0", report["status"] == [0, 0], str(report["status"]))
        gate.check(
            f"pass {k}: Converged with {FED_RECORDS} recorded rounds",
            trace.outcome == "Converged" and len(trace.records) == FED_RECORDS,
            f"{trace.outcome} with {len(trace.records)}",
        )
        text = traceio.trace_csv_text(trace)
        if self.digests is None:
            self.first_csv = text
        self._same_digests(k, {f"{self.name}.csv": sha256_text(text)}, gate)
        extra = {"agent_step_s": report["agent_step_s"]}
        if isinstance(out["channels"][0], CountingChannel):
            for key in ("frames_in", "bytes_in", "frames_out", "bytes_out"):
                extra[key] = sum(getattr(ch, key) for ch in out["channels"])
        return extra

    def finish(self, gate: Gate) -> dict:
        b = self.built
        start = time.perf_counter()
        local = dynamics.run_dynamic(b.game, b.run, b.algorithm, b.w0, b.s0)
        local_s = time.perf_counter() - start
        gate.check(
            "TCP trace byte-identical to the LocalPool trace",
            getattr(self, "first_csv", None) == traceio.trace_csv_text(local),
        )
        super().finish(gate)
        return {"local_run_s": local_s}

    def close(self) -> None:
        listener = getattr(self, "listener", None)
        if listener is not None:
            listener.close()
        if self.child is not None and self.child.poll() is None:
            try:
                self._tell("quit")
                self.child.wait(timeout=10.0)
            except (OSError, ValueError, subprocess.TimeoutExpired):
                self.child.kill()
                self.child.wait()


class CliQuad5(Workload):
    name = "cli-quad5"

    def setup(self) -> None:
        self.built = config.build_scenario(config.parse_scenario(scenarios.builtin_text(CLI_SCENARIO)))

    def _commands(self, d: str) -> list[tuple[str, list[str]]]:
        seed = ["--seed", str(self.seed)]
        csv_path = os.path.join(d, f"{CLI_SCENARIO}.csv")
        return [
            ("sweep", ["sweep", "--config", CLI_SCENARIO, "--axis", "beta", "--values", CLI_BETAS,
                       "--replicates", str(CLI_REPLICATES), *seed, "--out", d]),
            ("run", ["run", "--config", CLI_SCENARIO, *seed, "--out", d]),
            ("certify", ["certify", "--config", CLI_SCENARIO, *seed, "--trace", csv_path]),
            ("bounds", ["bounds", "--config", CLI_SCENARIO, *seed]),
            ("diagnose", ["diagnose", "--trace", csv_path, "--out", d]),
        ]

    def run_pass(self, k: int, traced: bool) -> dict:
        d = os.path.join(self.outdir, f"pass{k}")
        os.makedirs(d, exist_ok=True)
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for cmd, argv in self._commands(d):
                with self.tracer.span(f"cli.{cmd}:main"):
                    codes[cmd] = cli.main(argv)
        return {"dir": d, "codes": codes}

    def check_pass(self, k: int, out: dict, gate: Gate) -> dict:
        d = out["dir"]
        for cmd, want in CLI_EXPECTED_EXIT.items():
            got = out["codes"].get(cmd)
            gate.check(f"pass {k}: {cmd} exits {want}", got == want, f"exit {got}")
        sweep_path = os.path.join(d, f"{CLI_SCENARIO}.sweep.csv")
        digests = {}
        if gate.check(f"pass {k}: sweep CSV written", os.path.exists(sweep_path)):
            with open(sweep_path, newline="") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            want = len(CLI_BETAS.split(",")) * CLI_REPLICATES
            gate.check(f"pass {k}: sweep has {want} rows", len(body) == want, str(len(body)))
            outcome = header.index("outcome")
            for row in body:
                gate.check(f"pass {k}: sweep beta={row[1]} rep {row[2]} Converged",
                           row[outcome] == "Converged", row[outcome])
            wall = header.index("wall_time_s")
            timing_free = "\n".join(",".join(r[:wall] + r[wall + 1:]) for r in rows)
            digests[f"{CLI_SCENARIO}.sweep.csv (without wall_time_s)"] = sha256_text(timing_free)
        for fname in (f"{CLI_SCENARIO}.csv", f"{CLI_SCENARIO}.ratios.csv"):
            path = os.path.join(d, fname)
            digests[fname] = sha256_file(path) if os.path.exists(path) else "missing"
        self._same_digests(k, digests, gate)
        return {}


WORKLOADS = {cls.name: cls for cls in (QuadN200, EmpiricalN20, FedTcpN2, CliQuad5)}
