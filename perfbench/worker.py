"""One measured run of one workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --result out.json [--probe]

With --probe it only sets up (and, for fed-tcp-n2, accepts both agents and
completes the handshake), which is one sample of setup_s.  Otherwise it
repeats the workload's pass until S seconds have gone by, checks every
pass's outputs outside the timed region, and writes the pass timings, the
per-layer numbers (--trace 1) and the check results to the result file.

With --trace 1 passes alternate: even passes carry only the coarse run and
round clocks, odd passes the full set of wrappers.  The per-layer numbers
come from the odd passes, the tracing overhead from comparing the two.
PYTHONPATH must point at the fedgame sources; run.py sets it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

from tracer import SETUP_PASS, Tracer, group, summarize

HERE = os.path.dirname(os.path.abspath(__file__))
CHECKS = -2  # pass id for spans recorded while checking; never summarized


def spawn_agents(cpu: int) -> subprocess.Popen:
    """Start the agents' process; it imports fedgame on any CPU, then joins `cpu`."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "agents.py"), str(cpu)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, bufsize=1,
    )


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if len(values) else 0.0


def pass_clocks(spans, fed: bool) -> dict:
    """run_s, round periods and pool-step durations of one pass."""
    runs = {sp[0] for sp in spans if sp[2].startswith("dynamics.run:")}
    starts: dict[int, list[float]] = {}
    steps = []
    for sid, parent, name, start, end, _p in spans:
        if name.startswith("dynamics.step:") and parent in runs:
            starts.setdefault(parent, []).append(start)
            steps.append(end - start)
    periods = []
    for seq in starts.values():
        seq.sort()
        periods += [b - a for a, b in zip(seq, seq[1:])]
    run_group = "federation.serve" if fed else "dynamics.run"
    run_s = sum(sp[4] - sp[3] for sp in spans if sp[2].split(":", 1)[0] == run_group)
    return {"run_s": run_s, "periods": periods, "steps": steps}


def layer_metrics(setup_stats, traced, untraced, import_s, finish_extra, fed) -> dict:
    """Per-layer numbers: means over traced passes, tails over untraced ones."""

    def avg(fn, passes=traced):
        vals = [fn(p) for p in passes]
        return statistics.fmean(vals) if vals else 0.0

    def incl(prefix):
        return avg(lambda p: group(p["stats"], prefix, "incl_s"))

    def calls(prefix):
        return avg(lambda p: group(p["stats"], prefix, "calls"))

    def self_s(prefix):
        return avg(lambda p: group(p["stats"], prefix, "self_s"))

    def extra(key):
        return avg(lambda p: p["extra"].get(key, 0))

    def counter(key):
        return avg(lambda p: p["counters"].get(key, 0))

    def in_setup(prefix):
        return group(setup_stats, prefix, "incl_s")

    periods = [x for p in untraced for x in p["clocks"]["periods"]]
    rtts = [x for p in untraced for x in p["clocks"]["steps"]] if fed else []
    remote = "dynamics.step:RemotePool.step"
    wait = avg(lambda p: p["stats"].get(remote, {"incl_s": 0.0})["incl_s"]
               - group(p["stats"], "federation.encode", "incl_s")
               - group(p["stats"], "federation.decode", "incl_s")
               - p["extra"].get("agent_step_s", 0.0)) if fed else 0.0
    local_s = finish_extra.get("local_run_s", 0.0)
    total_u = avg(lambda p: p["total_s"], untraced)
    total_t = avg(lambda p: p["total_s"], traced)
    return {
        "setup.import_s": import_s,
        "config.parse_s": in_setup("config.parse") + incl("config.parse"),
        "config.build_s": in_setup("config.build") + incl("config.build"),
        "models.synth_dataset_s": in_setup("models.synth") + incl("models.synth"),
        "models.oracle_calls": calls("models.oracle"),
        "models.oracle_self_s": self_s("models.oracle"),
        "models.ce_calls": calls("models.ce"),
        "models.ce_self_s": self_s("models.ce"),
        "core.calls": calls("core"),
        "core.self_s": self_s("core"),
        "dynamics.rounds": calls("dynamics.step"),
        "dynamics.step_s": incl("dynamics.step"),
        "dynamics.between_steps_s": avg(
            lambda p: group(p["stats"], "dynamics.run", "incl_s")
            - group(p["stats"], "dynamics.step", "incl_s")
        ),
        "dynamics.round_ms_p99": 1e3 * percentile(periods, 99),
        "federation.rtt_ms_p50": 1e3 * percentile(rtts, 50),
        "federation.rtt_ms_p99": 1e3 * percentile(rtts, 99),
        "federation.frames_in": extra("frames_in"),
        "federation.frames_out": extra("frames_out"),
        "federation.bytes_in": extra("bytes_in"),
        "federation.bytes_out": extra("bytes_out"),
        "federation.encode_s": incl("federation.encode"),
        "federation.decode_s": incl("federation.decode"),
        "federation.agent_step_s": extra("agent_step_s"),
        "federation.wait_s": wait,
        "federation.handshake_s": incl("federation.handshake"),
        "federation.local_run_s": local_s,
        "federation.tcp_over_local": (
            avg(lambda p: p["clocks"]["run_s"], untraced) / local_s if local_s else 0.0
        ),
        "analysis.certify_s": incl("analysis.certify"),
        "analysis.best_response_calls": calls("analysis.best_response"),
        "analysis.best_response_s": incl("analysis.best_response"),
        "analysis.estimate_matrices_calls": calls("analysis.estimate_matrices"),
        "analysis.estimate_matrices_s": incl("analysis.estimate_matrices"),
        "analysis.compute_w_opt_s": incl("analysis.compute_w_opt"),
        "analysis.w_opt_iters": counter("analysis.w_opt_iters"),
        "traceio.write_s": incl("traceio.write"),
        "traceio.bytes_written": counter("traceio.bytes_written"),
        "traceio.read_s": incl("traceio.read"),
        "cli.sweep_s": incl("cli.sweep"),
        "cli.run_s": incl("cli.run"),
        "cli.certify_s": incl("cli.certify"),
        "cli.bounds_s": incl("cli.bounds"),
        "cli.diagnose_s": incl("cli.diagnose"),
        "trace.total_s": total_t,
        "trace.untraced_total_s": total_u,
        "trace.overhead_ratio": total_t / total_u if total_u else 0.0,
    }


def save_spans(tracer: Tracer, path: str) -> None:
    import numpy as np

    names = sorted({sp[2] for sp in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    cols = list(zip(*tracer.spans)) if tracer.spans else [()] * 6
    np.savez(
        path,
        names=np.array(names),
        id=np.array(cols[0], dtype=np.int64),
        parent=np.array(cols[1], dtype=np.int64),
        name=np.array([code[n] for n in cols[2]], dtype=np.int32),
        start=np.array(cols[3], dtype=float),
        end=np.array(cols[4], dtype=float),
        pass_id=np.array(cols[5], dtype=np.int32),
    )


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--result", required=True)
    ap.add_argument("--outdir", required=True)
    args = ap.parse_args()
    fed = args.workload == "fed-tcp-n2"

    # One CPU for the whole workload.  In fed-tcp-n2 the center and the agents
    # share it: waking a thread on the other vCPU of a virtual machine added a
    # host-dependent tail (round p99 5-9 ms against 0.5-0.8 ms on one CPU).
    cpu = min(os.sched_getaffinity(0))
    tracer = Tracer()
    child = spawn_agents(cpu) if fed else None
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    import fedgame  # noqa: F401  (timed: part of setup_s)

    import_s = time.perf_counter() - start
    import hooks
    import numpy as np
    import scipy
    import workloads

    workdir = os.path.join(args.outdir, f"work-{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    gate = workloads.Gate()
    wl = workloads.WORKLOADS[args.workload](args.seed, tracer, workdir, child)
    result: dict = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "import_s": import_s, "numpy": np.__version__, "scipy": scipy.__version__,
        "fedgame_path": os.path.dirname(fedgame.__file__),
    }
    try:
        if args.probe:
            wl.setup()
            wl.probe_tail()
            result["setup_s"] = time.perf_counter() - start
            wl.finish_probe(gate)
        else:
            (hooks.install_full if args.trace else hooks.install_coarse)(tracer)
            wl.setup()
            result["setup_s"] = time.perf_counter() - start
            tracer.restore()
            run_passes(args, wl, tracer, gate, hooks, result, import_s, fed)
    finally:
        tracer.restore()
        wl.close()
        shutil.rmtree(workdir, ignore_errors=True)
    result["checks"] = gate.results
    if args.trace and not args.probe:
        save_spans(tracer, os.path.join(args.outdir, f"spans-{args.workload}.npz"))
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return 0


def run_passes(args, wl, tracer, gate, hooks, result, import_s, fed) -> None:
    passes = []
    began = time.perf_counter()
    k = 0
    installed = None
    while True:
        traced = bool(args.trace) and k % 2 == 1
        if installed != traced:
            tracer.restore()
            (hooks.install_full if traced else hooks.install_coarse)(tracer)
            installed = traced
        tracer.pass_id = k
        start = time.perf_counter()
        try:
            out = wl.run_pass(k, traced)
        except Exception as exc:  # a failing pass is a failed operation, not a crash
            gate.check(f"pass {k} completed", False, repr(exc))
            break
        total_s = time.perf_counter() - start
        tracer.pass_id = CHECKS
        extra = wl.check_pass(k, out, gate)
        del out  # every pass starts from the same live heap
        passes.append({"k": k, "traced": traced, "total_s": total_s, "extra": extra})
        k += 1
        enough = k >= (2 if args.trace else 1)
        if enough and time.perf_counter() - began >= args.seconds:
            break
    tracer.restore()
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    finish_extra = wl.finish(gate)

    by_pass: dict[int, list] = {}
    for sp in tracer.spans:
        by_pass.setdefault(sp[5], []).append(sp)
    for p in passes:
        spans = by_pass.get(p["k"], [])
        p["clocks"] = pass_clocks(spans, fed)
        summary = summarize(spans, tracer.counters, p["k"])
        p["stats"], p["counters"] = summary["spans"], summary["counters"]
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]

    # Mean over passes: pass times here vary with the host from pass to pass;
    # over eight 20 s runs the mean spread half as much as the median.
    def mean(values):
        return statistics.fmean(values) if values else None

    periods = [x for p in untraced for x in p["clocks"]["periods"]]
    result["e2e"] = {
        "total_s": mean([p["total_s"] for p in untraced]),
        "run_s": mean([p["clocks"]["run_s"] for p in untraced]),
        "round_ms_p50": 1e3 * statistics.median(periods) if periods else None,
        "peak_rss_mb": result["peak_rss_mb"],
    }
    result["info"] = {
        "passes": len(untraced),
        "traced_passes": len(traced),
        "round_samples": len(periods),
        "certify_s": mean([group(p["stats"], "bench.certify", "incl_s")
                           + group(p["stats"], "cli.certify", "incl_s") for p in untraced]),
        "bounds_s": mean([group(p["stats"], "cli.bounds", "incl_s") for p in untraced]),
        "digests": wl.digests,
    }
    if args.trace:
        setup_stats = summarize(by_pass.get(SETUP_PASS, []), tracer.counters, SETUP_PASS)["spans"]
        result["layers"] = layer_metrics(setup_stats, traced, untraced, import_s, finish_extra, fed)
    result["passes"] = [
        {"k": p["k"], "traced": p["traced"], "total_s": p["total_s"],
         "run_s": p["clocks"]["run_s"], "extra": p["extra"]}
        for p in passes
    ]


if __name__ == "__main__":
    sys.exit(main())
