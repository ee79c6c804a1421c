"""Serialization: instance digests, trace CSV files, run manifests.

Floats are rendered with repr() (shortest round-tripping form) so that
written artifacts reproduce the in-memory doubles bit for bit when parsed
back.  The instance digest is a sha256 over a canonical JSON encoding and is
what federated agents compare during the handshake.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfigError, GameInstance


def _canon_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def fmt_float(x: float) -> str:
    return repr(float(x))


def game_manifest(g: GameInstance) -> dict:
    """Plain-data description of a game instance, canonical ordering."""
    return {
        "n": g.n,
        "m": g.m,
        "agents": [
            {"id": a.id, "s_max": a.s_max, "initial_s": a.initial_s} for a in g.agents
        ],
        "accuracy": g.accuracy.manifest(),
        "cost": g.cost.manifest(),
        "payment": {"kind": g.payment.kind, "beta": g.payment.beta},
    }


def instance_digest(g: GameInstance) -> str:
    return hashlib.sha256(_canon_json(game_manifest(g)).encode()).hexdigest()


def trace_columns(n: int, m: int) -> list[str]:
    cols = ["t", "phase"]
    cols += [f"s_{i}" for i in range(n)]
    cols += [f"w_{k}" for k in range(m)]
    cols += [f"u_{i}" for i in range(n)]
    cols += [f"p_{i}" for i in range(n)]
    cols += ["welfare", "g_norm", "gt_norm"]
    return cols


def _records(trace) -> list:
    if not trace.records:
        raise ConfigError("cannot serialize an empty trace")
    return trace.records


def trace_csv_text(trace) -> str:
    """Render a trace as CSV, one row per recorded round.  No field needs
    quoting: column names, phase labels and float reprs hold no comma,
    quote or line break, so the fields are joined as they are."""
    records = _records(trace)
    n, m = len(records[0].s), len(records[0].w)
    lines = [",".join(trace_columns(n, m))]
    for rec in records:
        floats = [*rec.s.tolist(), *rec.w.tolist(), *rec.utilities.tolist(), *rec.payments.tolist()]
        scalars = (rec.welfare, rec.g_norm, rec.gt_norm)
        fields = [str(rec.t), rec.phase, *map(repr, floats), *map(fmt_float, scalars)]
        lines.append(",".join(fields))
    lines.append("")
    return "\n".join(lines)


def write_trace_csv(trace, path) -> None:
    text = trace_csv_text(trace)  # before opening: a trace that fails leaves no file
    with open(path, "w", newline="") as fh:
        fh.write(text)


@dataclass
class TraceTable:
    """Column view of a parsed trace CSV."""

    t: np.ndarray
    phase: list[str]
    s: np.ndarray  # rounds x n
    w: np.ndarray  # rounds x m
    u: np.ndarray
    p: np.ndarray
    welfare: np.ndarray
    g_norm: np.ndarray
    gt_norm: np.ndarray

    @property
    def rounds(self) -> int:
        return len(self.t)


def read_trace_csv(path) -> TraceTable:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ConfigError(f"empty trace file: {path}") from None
        rows = list(reader)
    n = sum(1 for c in header if c.startswith("s_"))
    m = sum(1 for c in header if c.startswith("w_"))
    if not rows:
        raise ConfigError(f"trace file has no data rows: {path}")
    if header != trace_columns(n, m):
        raise ConfigError(f"unrecognized trace header in {path}")
    t = np.array([int(r[0]) for r in rows])
    phase = [r[1] for r in rows]
    data = np.array([[float(v) for v in r[2:]] for r in rows])
    return TraceTable(
        t=t,
        phase=phase,
        s=data[:, :n],
        w=data[:, n : n + m],
        u=data[:, n + m : 2 * n + m],
        p=data[:, 2 * n + m : 3 * n + m],
        welfare=data[:, 3 * n + m],
        g_norm=data[:, 3 * n + m + 1],
        gt_norm=data[:, 3 * n + m + 2],
    )


def run_manifest(trace, config_text: str | None = None, extra: dict | None = None) -> dict:
    """Reproducibility record for one finished run."""
    final = _records(trace)[-1]
    info = {
        "instance": trace.instance,
        "run": asdict(trace.config),
        "outcome": trace.outcome,
        "error": trace.error,
        "rounds_recorded": len(trace.records),
        "final": {
            "t": final.t,
            "phase": final.phase,
            "s": [float(v) for v in final.s],
            "w": [float(v) for v in final.w],
            "welfare": final.welfare,
            "g_norm": final.g_norm,
            "gt_norm": final.gt_norm,
        },
    }
    if config_text is not None:
        info["config_sha256"] = hashlib.sha256(config_text.encode()).hexdigest()
    if extra:
        info.update(extra)
    return info


def write_run_manifest(trace, path, config_text: str | None = None, extra: dict | None = None) -> None:
    text = json.dumps(run_manifest(trace, config_text, extra), indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
