"""Both agents of the fed-tcp-n2 workload: one process, two threads, two
loopback connections to the center.

Reads commands from stdin: `port N` once, then `go T` per run (T = 1 times
the agents' steps) and `quit`.  After each run it prints one JSON line with
both exit statuses and the seconds spent inside AgentWorker.step.

Run by the benchmark worker:  python3 perfbench/agents.py CPU
After importing fedgame it pins itself to CPU, the center's CPU.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time

from fedgame import config, dynamics, federation, scenarios
from fedgame.core import FederationError

SCENARIO = "example1-fas"


def timed_step(step, spent: dict):
    def wrapper(self, *args, **kwargs):
        start = time.perf_counter()
        try:
            return step(self, *args, **kwargs)
        finally:
            spent[self.i] = spent.get(self.i, 0.0) + time.perf_counter() - start

    return wrapper


def serve_run(built, port: int, timed: bool) -> dict:
    status = [2] * built.game.n
    spent: dict[int, float] = {}
    original = dynamics.AgentWorker.step
    if timed:
        dynamics.AgentWorker.step = timed_step(original, spent)

    def agent(i: int) -> None:
        try:
            status[i] = federation.connect_agent(
                built.game, i, built.run, "127.0.0.1", port
            )
        except FederationError:
            status[i] = 2

    threads = [threading.Thread(target=agent, args=(i,)) for i in range(built.game.n)]
    try:
        for th in threads:
            th.start()
        for th in threads:
            th.join()
    finally:
        dynamics.AgentWorker.step = original
    return {"status": status, "agent_step_s": sum(spent.values())}


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    built = config.build_scenario(config.parse_scenario(scenarios.builtin_text(SCENARIO)))
    port = None
    for line in sys.stdin:
        cmd = line.split()
        if not cmd or cmd[0] == "quit":
            break
        if cmd[0] == "port":
            port = int(cmd[1])
        elif cmd[0] == "go" and port is not None:
            print(json.dumps(serve_run(built, port, cmd[1] == "1")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
