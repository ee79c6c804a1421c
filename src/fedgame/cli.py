"""Command-line front end.

Commands: run, sweep, certify, bounds, diagnose, serve, agent.
Exit codes: 0 success/Certified, 1 validation error, 2 runtime error,
3 Refuted / empty feasibility region.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from math import isfinite, sqrt

import numpy as np

from . import analysis, federation, scenarios, traceio
from .config import BuiltScenario, build_scenario, parse_scenario
from .core import (
    ConfigError,
    GameError,
    NumericError,
    evaluate_profile,
    sq_norm,
    strategy_gradient,
    welfare_gradient,
)
from .dynamics import (
    contraction_factor,
    corollary_bound,
    iteration_bound_T0,
    iteration_bounds_two_phase,
    run_dynamic,
)
from .models import QuadraticAccuracy

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RUNTIME = 2
EXIT_REFUTED = 3

# The six curvature constants of `bounds`, as AssumptionEstimates and the
# step-size functions name them; each has a flag, see _flag.
CONSTANTS = ("lam", "lam_tilde", "L", "L_tilde", "P", "P_tilde")


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def _load_config_text(name_or_path: str) -> tuple[str, str]:
    """Returns (text, stem).  Filesystem paths win over bundled names."""
    if os.path.isfile(name_or_path):
        with open(name_or_path) as fh:
            text = fh.read()
        stem = os.path.splitext(os.path.basename(name_or_path))[0]
        return text, stem
    text = scenarios.builtin_text(name_or_path)
    stem = name_or_path[:-4] if name_or_path.endswith(".cfg") else name_or_path
    return text, stem


def _overrides(args) -> list[str]:
    ovs = list(args.set or [])
    if getattr(args, "seed", None) is not None:
        ovs.append(f"run.seed={args.seed}")
    return ovs


def _built(args) -> tuple[BuiltScenario, str, str]:
    text, stem = _load_config_text(args.config)
    cfg = parse_scenario(text, _overrides(args))
    return build_scenario(cfg), text, stem


def _parse_hostport(value: str) -> tuple[str, int]:
    host, sep, port = value.rpartition(":")
    if not sep or not host:
        raise ConfigError(f"expected host:port, got {value!r}")
    try:
        return host, int(port)
    except ValueError:
        raise ConfigError(f"bad port in {value!r}") from None


def _summary_line(trace) -> str:
    msg = f"outcome={trace.outcome}"
    final = trace.final
    if final is not None:
        msg += (
            f" rounds={final.t} "
            f"welfare={final.welfare!r} g_norm={final.g_norm!r} gt_norm={final.gt_norm!r}"
        )
    if trace.error:
        msg += f" error={trace.error!r}"
    return msg


def _write_run(args, built: BuiltScenario, text: str, stem: str, run) -> int:
    """Run run(sink) -> trace with each round record streamed into the trace
    CSV, then write the manifest and print the summary.  The trace keeps
    only its final record, so memory does not grow with the round count.
    A run that fails before its first record writes no file, and the CSV
    is renamed into place only after the manifest has been rendered, so
    an exception before that leaves no file either."""
    out = args.out or built.cfg.out_dir
    csv_path, json_path = (os.path.join(out, f"{stem}.{ext}") for ext in ("csv", "json"))
    with traceio.trace_csv_sink(csv_path) as sink:
        trace = run(sink)
        written = [] if trace.final is None else [csv_path, json_path]
        if written:
            manifest = traceio.run_manifest(trace, text, extra={"algorithm": built.algorithm})
            manifest_text = traceio.document_text(manifest, "run manifest")
    if written:
        traceio.write_file(json_path, manifest_text)
    print(_summary_line(trace))
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK if trace.outcome != "Error" else EXIT_RUNTIME


def cmd_run(args) -> int:
    built, text, stem = _built(args)
    return _write_run(args, built, text, stem, lambda sink: run_dynamic(
        built.game, built.run, built.algorithm, built.w0, built.s0, sink=sink,
    ))


def cmd_serve(args) -> int:
    federation.check_timeout(args.timeout, "--timeout")
    built, text, stem = _built(args)
    host, port = _parse_hostport(args.listen)
    listener = federation.open_listener(host, port)
    actual = listener.getsockname()[1]
    # flush so a piped supervisor can read the port before we block in accept
    print(f"listening on {host}:{actual}, waiting for {built.game.n} agent(s)", flush=True)
    try:
        channels = federation.accept_agents(listener, built.game.n, args.timeout)
    finally:
        listener.close()
    return _write_run(args, built, text, stem, lambda sink: federation.serve_center(
        built.game, built.run, built.algorithm, channels,
        built.w0, built.s0, timeout=args.timeout, sink=sink,
    ))


def cmd_agent(args) -> int:
    federation.check_timeout(args.timeout, "--timeout")
    built, _text, _stem = _built(args)
    host, port = _parse_hostport(args.connect)
    status = federation.connect_agent(
        built.game, args.agent_id, built.run, host, port, timeout=args.timeout,
        notify=lambda msg: print(f"error: {msg}", file=sys.stderr),
    )
    return EXIT_OK if status == 0 else EXIT_RUNTIME


def cmd_sweep(args) -> int:
    text, stem = _load_config_text(args.config)
    base_overrides = _overrides(args)
    base_cfg = parse_scenario(text, base_overrides)  # fail fast on bad config
    axis = args.axis
    raw_values = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    if not raw_values:
        raise ConfigError("sweep needs a nonempty --values list")
    parse = int if axis in ("agents", "seed") else float
    values = []
    for tok in raw_values:
        try:
            values.append(parse(tok))
        except ValueError:
            raise ConfigError(f"bad --values entry {tok!r} for axis {axis}") from None
    if parse is float and not all(isfinite(v) for v in values):
        raise ConfigError("sweep values must be finite")
    if args.replicates < 1:
        raise ConfigError("--replicates must be >= 1")

    rows = []
    for value in values:
        for rep in range(args.replicates):
            seed = (value + rep) if axis == "seed" else (base_cfg.seed + rep)
            ovs = list(base_overrides)
            if axis == "beta":
                ovs.append(f"instance.beta={value!r}")
            elif axis == "agents":
                ovs.append(f"instance.n={value}")
            ovs.append(f"run.seed={seed}")
            started = time.perf_counter()
            outcome, welfare, total_s, rounds, error = "Error", "", "", "", ""
            try:
                built = build_scenario(parse_scenario(text, ovs))
                trace = run_dynamic(
                    built.game, built.run, built.algorithm,
                    built.w0, built.s0, strict=False,
                    sink=lambda rec: None,  # a row reads only the final record
                )
                outcome = trace.outcome
                final = trace.final
                if final is not None:
                    welfare = repr(final.welfare)
                    total_s = repr(float(np.sum(final.s)))
                    rounds = str(final.t)
                if trace.error:
                    error = trace.error
            except GameError as exc:
                error = str(exc)
            wall = time.perf_counter() - started
            rows.append(
                [axis, repr(value), str(rep), outcome, welfare, total_s, rounds,
                 repr(wall), error]
            )

    path = os.path.join(args.out or base_cfg.out_dir, f"{stem}.sweep.csv")
    header = ["axis", "value", "replicate", "outcome", "welfare", "total_s",
              "rounds", "wall_time_s", "error"]
    traceio.write_file(path, traceio.table_csv_text([header, *rows]))
    print(f"wrote {path} ({len(rows)} rows)")
    return EXIT_OK


def _vector_arg(raw: str, length: int, what: str) -> np.ndarray:
    try:
        vec = np.array([float(tok) for tok in raw.split(",")])
    except ValueError:
        raise ConfigError(f"bad {what}: {raw!r}") from None
    if len(vec) != length:
        raise ConfigError(f"{what} needs {length} entries, got {len(vec)}")
    return vec


def _emit(doc: dict, what: str, out: str | None, name: str) -> None:
    """Print doc as strict JSON and, given an out directory, write it there."""
    text = traceio.document_text(doc, what)
    sys.stdout.write(text)
    if out:
        path = os.path.join(out, name)
        traceio.write_file(path, text)
        print(f"wrote {path}", file=sys.stderr)


def cmd_certify(args) -> int:
    if not isfinite(args.eps) or args.eps <= 0.0:
        raise ConfigError("--eps must be finite and positive")
    built, _text, stem = _built(args)
    if args.trace:
        if args.w or args.s:
            raise ConfigError("give either --trace or --w/--s, not both")
        table = traceio.read_trace_csv(args.trace)
        w = table.w[-1]
        s = table.s[-1]
    else:
        if not (args.w and args.s):
            raise ConfigError("certify needs --trace or both --w and --s")
        w = _vector_arg(args.w, built.game.m, "--w")
        s = _vector_arg(args.s, built.game.n, "--s")
    cert = analysis.certify_nash(built.game, w, s, args.eps, args.grid)
    doc = cert.as_dict()
    doc["w"] = [float(v) for v in w]
    doc["s"] = [float(v) for v in s]
    _emit(doc, "certificate", args.out, f"{stem}.certificate.json")
    return EXIT_OK if cert.certified else EXIT_REFUTED


def cmd_bounds(args) -> int:
    built, _text, stem = _built(args)
    g = built.game
    cfg = built.run
    M, nu = args.M, args.nu
    if M is None:
        if nu is not None:
            raise ConfigError("--nu requires --M")
        if isinstance(g.accuracy, QuadraticAccuracy):
            M = nu = 2.0 / (g.accuracy.sigma0 + float(np.sum(g.s_max)))
    elif nu is None:
        nu = M
    doc: dict = {"n": g.n, "m": g.m, "gamma": cfg.gamma, "eta": cfg.eta, "eps": cfg.eps,
                 "M": M, "nu": nu}

    consts = {name: getattr(args, name) for name in CONSTANTS}
    explicit = any(v is not None for v in consts.values())
    doc["constants_source"] = "explicit" if explicit else "estimated"
    if explicit:
        missing = [_flag(k) for k, v in consts.items() if v is None]
        if missing:
            raise ConfigError(f"explicit constants require {', '.join(missing)}")
    else:
        samples = analysis.assumption_samples(g, count=args.samples, w_radius=args.w_radius)
        with np.errstate(over="ignore", invalid="ignore"):
            at_origin = np.isfinite(evaluate_profile(g, np.zeros(g.m), samples[0][1])[0]).all()
            finite = all(np.isfinite(evaluate_profile(g, w, s)[0]).all() for w, s in samples)
            # a central second difference doubles a sum of n accuracies, at
            # points up to one step (relative, at |w_k| >= 1) further out in w
            reach = 1.0 + analysis.FD_STEP
            stencil = all(np.isfinite(2.0 * g.n * evaluate_profile(g, reach * w, s)[0]).all()
                          for w, s in samples)
        if not at_origin:
            raise ConfigError("the instance's accuracy is not finite at w = 0")
        if not finite:
            raise ConfigError(
                f"--w-radius {args.w_radius!r} reaches parameters where the accuracy "
                "is not finite"
            )
        if not stencil:
            raise ConfigError(
                f"--w-radius {args.w_radius!r} reaches parameters where central "
                "differences of the accuracy overflow"
            )
        est = analysis.check_assumption1(samples, g)
        consts = {name: getattr(est, name) for name in CONSTANTS}
        doc["estimates"] = est.as_dict()
    doc["constants"] = {k.replace("lam", "lambda"): v for k, v in consts.items()}  # JSON keys

    region = analysis.feasible_steps(g.n, g.m, **consts)
    doc["feasible_steps"] = region.as_dict()
    # exit 0 says only that the region is not empty; this says that the
    # configured steps lie in it (gamma_ok and eta_ok compare constants)
    doc["steps_in_region"] = (not region.empty and 0.0 < cfg.gamma <= region.gamma_max
                              and 0.0 < cfg.eta <= region.eta_max)

    with np.errstate(over="ignore"):
        E = sqrt(sq_norm(strategy_gradient(g, built.w0, built.s0))) + sqrt(
            sq_norm(welfare_gradient(g, built.w0, built.s0))
        )
    if not isfinite(E):
        raise NumericError(f"initial update norm E is not finite ({E!r})")
    doc["E"] = E
    try:
        w1, w2, W = contraction_factor(cfg.gamma, cfg.eta, g.n, g.m, **consts)
        doc["W"] = {"W1": w1, "W2": w2, "W": W}
        doc["T0"] = iteration_bound_T0(E, cfg.eps, W) if W < 1.0 else None
    except GameError as exc:
        doc["W"] = None
        doc["T0"] = None
        doc["W_note"] = str(exc)

    doc["kappa"] = doc["T0_two_phase"] = doc["T0_corollary"] = None
    if M is not None:
        # corollary_bound checks M and nu, so a bad pair exits 1; a bound
        # that cannot be computed is null with a note, as W is
        opt = analysis.compute_w_opt(g)
        try:
            doc["T0_corollary"] = corollary_bound(
                sqrt(sq_norm(built.w0 - opt.w_opt)), cfg.eps, M, nu
            )
        except NumericError as exc:
            doc["T0_corollary_note"] = str(exc)
        f0 = (opt.welfare - analysis.social_welfare(g, built.w0, g.s_max)) / g.n
        try:
            doc["kappa"], doc["T0_two_phase"] = iteration_bounds_two_phase(
                g, cfg, built.s0, f0, M, nu
            )
        except ConfigError:
            pass  # with M, nu and eps valid: no kappa for this transfer rule
        except NumericError as exc:
            doc["T0_two_phase_note"] = str(exc)

    _emit(doc, "bounds document", args.out, f"{stem}.bounds.json")
    return EXIT_REFUTED if region.empty else EXIT_OK


def cmd_diagnose(args) -> int:
    table = traceio.read_trace_csv(args.trace)
    try:
        report = analysis.contraction_diagnostic(
            list(zip(table.g_norm, table.gt_norm, table.t))
        )
        ratios = list(zip(report.rounds, report.ratios))
        max_ratio = report.max_ratio if len(report.ratios) else None
    except ConfigError:
        ratios, max_ratio = [], None

    out = args.out or os.path.dirname(args.trace) or "."
    stem = os.path.splitext(os.path.basename(args.trace))[0]
    path = os.path.join(out, f"{stem}.ratios.csv")
    rows = [[str(int(t)), repr(float(ratio))] for t, ratio in ratios]
    traceio.write_file(path, traceio.table_csv_text([["t", "ratio"], *rows]))

    final = table.rounds - 1
    print(f"rounds={table.rounds} final_t={int(table.t[final])} "
          f"max_ratio={'n/a' if max_ratio is None else repr(max_ratio)}")
    print(f"wrote {path}")
    print(f"{'agent':>5} {'s_i':>12} {'payment':>12} {'utility':>12}")
    order = np.argsort(table.s[final], kind="stable")
    for i in order:
        print(
            f"{i:>5} {table.s[final][i]:>12.6g} "
            f"{table.p[final][i]:>12.6g} {table.u[final][i]:>12.6g}"
        )
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, out: bool = True) -> None:
    p.add_argument("--config", required=True,
                   help="scenario file path or bundled name")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help="override a config entry (repeatable)")
    p.add_argument("--seed", type=int, help="override run.seed")
    if out:
        p.add_argument("--out", help="output directory (default from config)")


def _add_timeout(p: argparse.ArgumentParser) -> None:
    p.add_argument("--timeout", type=float, default=federation.DEFAULT_TIMEOUT,
                   help="per-round protocol timeout in seconds")


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1, not argparse's 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="fedgame",
        description="Incentive-aware federated data-contribution games: "
                    "dynamics, certification, bounds, federation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="run a scenario and write trace files")
    _add_common(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("sweep", help="run a grid of values with replicates")
    _add_common(p)
    p.add_argument("--axis", choices=("beta", "agents", "seed"), required=True)
    p.add_argument("--values", required=True, help="comma-separated axis values")
    p.add_argument("--replicates", type=int, default=10)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("certify", help="equilibrium certificate for a profile")
    _add_common(p)
    p.add_argument("--trace", help="trace CSV; certifies its final round")
    p.add_argument("--w", help="explicit model parameters, comma-separated")
    p.add_argument("--s", help="explicit contribution profile, comma-separated")
    p.add_argument("--eps", type=float, default=1e-6)
    p.add_argument("--grid", type=int, default=201)
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("bounds", help="step-size region and iteration bounds")
    _add_common(p)
    p.add_argument("--samples", type=int, default=64)
    p.add_argument("--w-radius", type=float, default=1.0)
    for name in CONSTANTS + ("M", "nu"):
        p.add_argument(_flag(name), type=float, default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("diagnose", help="contraction ratios and final-round table")
    p.add_argument("--trace", required=True)
    p.add_argument("--out", help="directory for the ratio CSV")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("serve", help="run as the center for remote agents")
    _add_common(p)
    p.add_argument("--listen", metavar="HOST:PORT", required=True,
                   help="address to accept the agents on")
    _add_timeout(p)
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("agent", help="join a center as one agent")
    _add_common(p, out=False)
    p.add_argument("--connect", metavar="HOST:PORT", required=True,
                   help="address of the center")
    p.add_argument("--agent-id", type=int, required=True, help="this agent's id")
    _add_timeout(p)
    p.set_defaults(func=cmd_agent)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (GameError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
