"""Serialization: every file, document and frame fedgame writes.

Floats are rendered with repr() (shortest round-tripping form) so that
written artifacts reproduce the in-memory doubles bit for bit when parsed
back.  All JSON is strict (no NaN or Infinity): compact canonical JSON for
frames, the run_id and the instance digest, which federated agents compare
during the handshake; indented documents for everything else.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .core import ConfigError, GameInstance, NumericError

# Built once: json.dumps with options builds a new encoder on every call,
# which costs about as much as the coding of a round's frame itself.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":"), allow_nan=False).encode
_DOCUMENT = json.JSONEncoder(sort_keys=True, indent=2, allow_nan=False)


def document_text(doc: dict, what: str) -> str:
    """doc as an indented JSON document; NumericError naming `what` when
    doc holds a NaN or an infinity."""
    try:
        return _DOCUMENT.encode(doc) + "\n"
    except ValueError as exc:
        raise NumericError(f"{what} is not strict JSON: {exc}") from None


def table_csv_text(rows: list[list[str]]) -> str:
    """A CSV table of string fields, header row first, "\n"-terminated,
    quoted where needed."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def write_file(path, text: str) -> None:
    """Write text to path whole or not at all, creating its directory: a
    temporary file next to path replaces it in one rename, or is removed.
    There is no fsync, so a power loss can still lose the new bytes."""
    path = os.fspath(path)
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp, "x", encoding="utf-8", newline="")
    try:
        with fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


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
    return hashlib.sha256(canonical_json(game_manifest(g)).encode()).hexdigest()


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
    write_file(path, trace_csv_text(trace))


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
    write_file(path, document_text(run_manifest(trace, config_text, extra), "run manifest"))
