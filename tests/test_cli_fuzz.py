"""CLI fuzz: every command ends in exit 0-3 with strict JSON and whole files.

Each example calls fedgame.cli.main in process, on a bundled scenario, with
`--set` overrides drawn from extreme values (0, +-1e-300, 1e154, 1e300, inf,
nan) at the right length or a wrong one.  Whatever the inputs, the command
must return one of the documented exit codes without an escaping exception;
a JSON document on stdout and every file it leaves behind must parse
strictly (no NaN, no Infinity) or read back as a trace; and no temporary
file may remain.  No example listens or connects, so none starts a thread
or a process.

Each failure this finds is fixed and pinned with an @example below.
"""

import contextlib
import csv
import io
import json
import os
import tempfile
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fedgame.cli import main
from fedgame.traceio import read_trace_csv

# (n, m) of each bundled scenario
SCENARIOS = {
    "quad5": (5, 3),
    "quad5-certified": (5, 3),
    "example1-upbred": (2, 2),
    "example1-2p": (2, 2),
    "example1-fas": (2, 2),
    "empirical-small": (3, 4),
}
KEYS = (
    "instance.beta", "instance.s_max", "instance.theta", "instance.sigma0", "instance.r",
    "instance.cost_coeffs", "instance.separation", "run.gamma", "run.eta", "run.eps",
    "run.eps_s", "run.learn_rate", "init.w0", "init.s0",
)
EXTREMES = ("0", "1e-300", "-1e-300", "1e154", "1e300", "inf", "nan")
COMMANDS = ("run", "certify", "bounds", "sweep", "diagnose")
# keeps a run short whatever the draw; the fuzz is after the inputs, not the horizon
SHORT = ("--set", "run.rounds=50", "--set", "run.phase1_cap=200")
SECONDS_PER_EXAMPLE = 10.0


def _values(length):
    """A comma list of one extreme value: a scalar, the right length, or a wrong one."""
    return st.tuples(st.sampled_from(EXTREMES), st.sampled_from((1, length, 7))).map(
        lambda vc: ",".join([vc[0]] * vc[1])
    )


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(COMMANDS))
    scenario = draw(st.sampled_from(sorted(SCENARIOS)))
    n, m = SCENARIOS[scenario]
    sets = []
    for key in draw(st.lists(st.sampled_from(KEYS), max_size=2, unique=True)):
        sets += ["--set", f"{key}={draw(_values(max(n, m)))}"]
    extra = []
    if command == "certify":
        extra = [f"--w={draw(_values(m))}", f"--s={draw(_values(n))}", "--grid", "21"]
    return command, scenario, sets, extra


def _argv(command, scenario, sets, extra, out):
    common = ["--config", scenario, *sets, "--out", out]
    if command == "run":
        return [["run", *common, *SHORT]]
    if command == "certify":
        return [["certify", *common, *extra]]
    if command == "bounds":
        return [["bounds", *common, "--samples", "4", *extra]]
    if command == "sweep":
        return [["sweep", *common, *SHORT, "--axis", "beta", "--values", "0,0.05",
                 "--replicates", "1"]]
    trace = os.path.join(out, f"{scenario}.csv")
    return [["run", *common, *SHORT], ["diagnose", "--trace", trace, "--out", out]]


def _reject_constant(token):
    raise AssertionError(f"not strict JSON: {token}")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _check_file(path):
    name = os.path.basename(path)
    assert not name.endswith(".tmp"), f"temporary file left behind: {name}"
    with open(path, newline="") as fh:
        text = fh.read()
    if name.endswith(".json"):
        _strict_json(text)
    elif name.endswith((".sweep.csv", ".ratios.csv")):
        rows = list(csv.reader(io.StringIO(text)))
        assert rows and all(len(r) == len(rows[0]) for r in rows), name
    else:
        assert name.endswith(".csv"), name
        assert read_trace_csv(path).rounds >= 1


# numpy warns when an extreme input overflows; the exit and the output are what count
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(invocations())
# training bounds that do not contract: null with notes, still strict JSON
@example(("bounds", "quad5", [], ["--M", "1e300", "--nu", "1e-300"]))
# the slope's square underflows to 0: a ZeroDivisionError traceback
@example(("run", "example1-2p", ["--set", "init.s0=1e-300"], []))
# 1e154 training rows to draw: a ValueError traceback from numpy
@example(("run", "empirical-small", ["--set", "instance.s_max=1e154"], []))
def test_every_command_ends_cleanly_with_strict_output(invocation):
    command, scenario, sets, extra = invocation
    with tempfile.TemporaryDirectory() as out:
        for argv in _argv(command, scenario, sets, extra, out):
            stdout, stderr = io.StringIO(), io.StringIO()
            started = time.monotonic()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = main(argv)
            assert time.monotonic() - started < SECONDS_PER_EXAMPLE, argv
            assert code in (0, 1, 2, 3), argv
            if argv[0] in ("certify", "bounds") and stdout.getvalue():
                _strict_json(stdout.getvalue())
            if code == 1:  # a validation error is one line
                assert stderr.getvalue().startswith("error: "), argv
                assert stderr.getvalue().count("\n") == 1, argv
        for name in os.listdir(out):
            _check_file(os.path.join(out, name))
