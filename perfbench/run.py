"""fedgame benchmark: one run of one workload, from the root of a checkout.

    python3 perfbench/run.py --workload quad-n200 --seed 0 --seconds 20 --trace 0

Workloads: quad-n200, empirical-n20, fed-tcp-n2, cli-quad5 (see README.md).
With --trace 0 it prints every end-to-end metric, with --trace 1 every
per-layer metric, then as its last line one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.

Every timed run starts fresh interpreters: --trace 0 first runs
SETUP_PROBES set-up probes (setup_s is their median), then one worker that
repeats the workload for --seconds and checks its outputs.  Each child gets
a wall-clock deadline; a child still alive when it expires is killed with
its whole process group and counts as a failed operation.  fedgame is
imported from ./src of the checkout; without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import glob
import importlib.util
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUTDIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("quad-n200", "empirical-n20", "fed-tcp-n2", "cli-quad5")
SETUP_PROBES = 3
RUN_LIMIT_S = 170.0  # the whole run, probes included, ends before this
PROBE_LIMIT_S = 40.0



def declared_metrics() -> tuple[dict, dict]:
    """Units of the end-to-end and per-layer metrics, as BENCHMARK.json names them."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    # one BLAS thread: two cores are shared by the center and the agents
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def read_text(path: str) -> str | None:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return None


def describe_environment() -> dict:
    cpu_model = None
    info = read_text("/proc/cpuinfo") or ""
    for line in info.splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for idx in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        caches.append("L{} {} {}".format(
            read_text(os.path.join(idx, "level")), read_text(os.path.join(idx, "type")),
            read_text(os.path.join(idx, "size")),
        ))
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "caches": caches,
        "blas_threads": 1,
        "loadavg_at_start": list(os.getloadavg()),
    }


def run_child(argv: list[str], limit: float) -> tuple[bool, str]:
    """Run a child in its own process group; kill the group at the deadline."""
    proc = subprocess.Popen(
        argv, cwd=ROOT, env=child_env(), stdout=sys.stderr, stderr=sys.stderr,
        start_new_session=True,
    )
    timed_out = False
    try:
        proc.wait(timeout=max(limit, 1.0))
    except subprocess.TimeoutExpired:
        timed_out = True
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # also reaps the agents' child
        except ProcessLookupError:
            pass
        proc.wait()
    if timed_out:
        return False, f"killed after its {limit:.0f} s deadline"
    return proc.returncode == 0, f"exit {proc.returncode}"


def worker(args, result_path: str, probe: bool, limit: float) -> tuple[dict | None, str]:
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--result", result_path, "--outdir", OUTDIR,
    ]
    if probe:
        argv.append("--probe")
    if os.path.exists(result_path):
        os.remove(result_path)
    ok, why = run_child(argv, limit)
    if not ok or not os.path.exists(result_path):
        return None, why
    with open(result_path) as fh:
        return json.load(fh), why


def warm_bytecode() -> None:
    """Compile fedgame once so every probe measures the same import."""
    pyc = importlib.util.cache_from_source(os.path.join(SRC, "fedgame", "cli.py"))
    if not os.path.exists(pyc):
        run_child([sys.executable, "-c", "import fedgame"], PROBE_LIMIT_S)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "fedgame", "__init__.py")):
        print(f"error: no fedgame sources under {SRC}", file=sys.stderr)
        return 2

    began = time.monotonic()
    env = describe_environment()
    os.makedirs(OUTDIR, exist_ok=True)
    warm_bytecode()
    ops: list[tuple[str, bool, str]] = []
    setups = []
    if not args.trace:
        for i in range(SETUP_PROBES):
            res, why = worker(args, os.path.join(OUTDIR, f"probe-{args.workload}.json"), True,
                              min(PROBE_LIMIT_S, RUN_LIMIT_S - 60.0 - (time.monotonic() - began)))
            ops.append((f"set-up probe {i}", res is not None, why))
            if res is not None:
                setups.append(res["setup_s"])
                ops += [(c["name"], c["ok"], c["detail"]) for c in res["checks"]]
    limit = RUN_LIMIT_S - (time.monotonic() - began)
    res, why = worker(args, os.path.join(OUTDIR, f"result-{args.workload}.json"), False, limit)
    ops.append(("worker run", res is not None, why))

    e2e_units, layer_units = declared_metrics()
    units = layer_units if args.trace else e2e_units
    metrics: dict[str, dict] = {}
    if res is not None:
        ops += [(c["name"], c["ok"], c["detail"]) for c in res["checks"]]
        here = os.path.realpath(os.path.join(SRC, "fedgame"))
        ops.append(("fedgame imported from ./src", os.path.realpath(res["fedgame_path"]) == here,
                    res["fedgame_path"]))
        env.update(numpy=res["numpy"], scipy=res["scipy"], seed=args.seed)
        if args.trace:
            values = res["layers"]
        else:
            values = dict(res["e2e"], setup_s=statistics.median(setups) if setups else None)
        for name, unit in units.items():
            if values.get(name) is not None:
                metrics[name] = {"value": values[name], "unit": unit}
    missing = sorted(set(units) - set(metrics))
    ops.append(("every declared metric measured", not missing, f"missing {missing}"))
    failed = [op for op in ops if not op[1]]
    correct = not failed

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"({time.monotonic() - began:.1f} s wall)")
    if res is not None:
        info = res["info"]
        print(f"  passes {info['passes']} untraced + {info['traced_passes']} traced, "
              f"round samples {info['round_samples']}, set-up samples {len(setups)}")
        for name, m in metrics.items():
            print(f"  {name:34s} {m['value']!r} {m['unit']}")
        if info["certify_s"]:
            print(f"  {'certify_s':34s} {info['certify_s']!r} s  (mean per pass)")
        if info["bounds_s"]:
            print(f"  {'bounds_s':34s} {info['bounds_s']!r} s  (mean per pass)")
        for fname, digest in sorted((info["digests"] or {}).items()):
            print(f"  sha256 {fname}: {digest}")
    print(f"  failed_ratio {len(failed)}/{len(ops)}")
    for name, _ok, detail in failed:
        print(f"  FAILED {name}: {detail}")
    print("env " + json.dumps(env, sort_keys=True))
    print(json.dumps({
        "correct": correct, "attempted": len(ops), "failed": len(failed), "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
