"""Command-line interface: exit codes, files written, stdout shape."""

import errno
import json
import os
import socket
import subprocess
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from fedgame import analysis, cli, dynamics, traceio
from fedgame.cli import main
from fedgame.traceio import read_trace_csv

from conftest import src_env


def run_cli(*argv):
    return main(list(argv))


def test_run_writes_trace_and_manifest(tmp_path, capsys):
    out = str(tmp_path)
    code = run_cli("run", "--config", "example1-upbred", "--out", out)
    captured = capsys.readouterr()
    assert code == 0
    assert "outcome=Converged" in captured.out
    csv_path = tmp_path / "example1-upbred.csv"
    json_path = tmp_path / "example1-upbred.json"
    assert f"wrote {csv_path}" in captured.out
    assert csv_path.is_file() and json_path.is_file()

    table = read_trace_csv(str(csv_path))
    assert table.rounds == 3
    assert table.s[-1][0] == 0.0 and table.s[-1][1] == 5.0

    manifest = json.loads(json_path.read_text())
    assert manifest["outcome"] == "Converged"
    assert manifest["rounds_recorded"] == 3
    assert manifest["algorithm"] == "upbred"
    assert len(manifest["config_sha256"]) == 64


def test_run_is_reproducible(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert run_cli("run", "--config", "quad5", "--out", str(out)) == 0
    assert (a / "quad5.csv").read_bytes() == (b / "quad5.csv").read_bytes()


def test_run_accepts_filesystem_config(tmp_path, capsys):
    from fedgame.scenarios import builtin_text

    cfg_file = tmp_path / "mycase.cfg"
    cfg_file.write_text(builtin_text("example1-upbred"))
    code = run_cli("run", "--config", str(cfg_file), "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "mycase.csv").is_file()
    capsys.readouterr()


def test_run_unknown_scenario_is_validation_error(capsys):
    assert run_cli("run", "--config", "no-such-case") == 1
    assert "error:" in capsys.readouterr().err


def test_run_bad_override_is_validation_error(tmp_path, capsys):
    code = run_cli(
        "run", "--config", "example1-upbred", "--out", str(tmp_path),
        "--set", "rounds=3",
    )
    assert code == 1
    capsys.readouterr()


def usage_error(argv, capsys) -> str:
    """Run argv, which argparse must reject, and return its stderr."""
    with pytest.raises(SystemExit) as exc:
        run_cli(*argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: fedgame")
    return err


@pytest.mark.parametrize("argv, message", [
    # argparse reads the negative value as an option, so --s has no argument
    (("certify", "--config", "quad5", "--w", "0,0,0", "--s", "-1e-300,1,1,1,1"),
     "fedgame certify: error: argument --s: expected one argument\n"),
    (("nope",), "fedgame: error: argument command: invalid choice: 'nope'"),
], ids=["negative-value-as-option", "unknown-command"])
def test_a_usage_error_exits_as_a_validation_error(argv, message, capsys):
    assert message in usage_error(argv, capsys)


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli("certify", "--help")
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: fedgame certify")


def test_an_empirical_instance_too_large_to_allocate_is_a_validation_error(tmp_path, capsys):
    # 10**12 test rows: numpy cannot allocate the first of their arrays
    code = run_cli("run", "--config", "empirical-small", "--out", str(tmp_path),
                   "--set", "instance.test_size=1000000000000")
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("error: the empirical datasets do not fit in memory; "
                          "lower instance.test_size, features, classes or s_max (")
    assert err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_run_connect_needs_agent_id(capsys):
    # joining a center is the agent command's, which requires an id
    err = usage_error(("agent", "--config", "example1-upbred", "--connect", "127.0.0.1:1"),
                      capsys)
    assert err.endswith("fedgame agent: error: the following arguments are required: "
                        "--agent-id\n")
    err = usage_error(("run", "--config", "example1-upbred", "--connect", "127.0.0.1:1"),
                      capsys)
    assert err.endswith("fedgame: error: unrecognized arguments: --connect 127.0.0.1:1\n")


def test_run_bad_hostport(capsys):
    for argv in (("serve", "--listen", "9999"), ("agent", "--connect", "9999", "--agent-id", "0")):
        assert run_cli(*argv, "--config", "example1-upbred") == 1
        assert capsys.readouterr().err == "error: expected host:port, got '9999'\n"


def test_serve_and_agent_require_endpoints(capsys):
    err = usage_error(("serve", "--config", "example1-upbred"), capsys)
    assert err.endswith("fedgame serve: error: the following arguments are required: "
                        "--listen\n")
    err = usage_error(("agent", "--config", "example1-upbred"), capsys)
    assert err.endswith("fedgame agent: error: the following arguments are required: "
                        "--connect, --agent-id\n")


@pytest.mark.parametrize("argv", [
    ("run", "--timeout", "30"),
    ("agent", "--connect", "127.0.0.1:1", "--agent-id", "0", "--out", "fed"),
    ("bounds", "--constants", "explicit"),
    ("bounds", "--constants", "estimated"),
], ids=["run-timeout", "agent-out", "bounds-explicit", "bounds-estimated"])
def test_a_removed_flag_is_a_usage_error(argv, capsys):
    """Each command takes only the flags its role uses: only serve and agent
    wait on a peer, agent writes nothing, and any constant flag makes
    bounds' constants explicit.  test_listen_and_connect_are_exclusive
    covers the endpoint flags."""
    command, flag, value = argv[0], argv[-2], argv[-1]
    err = usage_error((command, "--config", "example1-upbred", *argv[1:]), capsys)
    assert err.endswith(f"fedgame: error: unrecognized arguments: {flag} {value}\n")


# at s_max = 1e300, (sigma0 + sum(s)) ** 2 is beyond the float range
HUGE_S_MAX = ("--set", "instance.s_max=1e300")
SLOPE_OVERFLOW = "round 0: slope overflows: (sigma0 + sum(s)) ** 2 is out of float range"


def test_run_whose_slope_overflows_ends_in_an_error_outcome(tmp_path, capsys):
    code = run_cli("run", "--config", "quad5", *HUGE_S_MAX, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == f"outcome=Error error={SLOPE_OVERFLOW!r}\n"
    assert list(tmp_path.iterdir()) == []  # no round was recorded, so nothing is written


def test_run_whose_contribution_phase_stalls_ends_at_once(tmp_path):
    # gamma times every margin is below one ulp of s: phase one never moves,
    # and its kappa, about 1e301 rounds, no longer sets the cap
    proc = subprocess.run(
        [sys.executable, "-m", "fedgame", "run", "--config", "quad5", "--set", "run.gamma=1e-300",
         "--set", "run.rounds=50", "--out", str(tmp_path)],
        capture_output=True, text=True, env=src_env(), timeout=30,
    )
    assert proc.returncode == 2
    assert proc.stdout.startswith("outcome=Error rounds=0 ")
    assert ("error='round 0: contribution phase stalled at a fixed point; "
            "agent 2 is not increasing (gap 1.31049)'\n") in proc.stdout
    assert read_trace_csv(tmp_path / "quad5.csv").rounds == 1


def test_sweep_records_a_run_that_fails_before_its_first_round(tmp_path, capsys):
    code = run_cli(
        "sweep", "--config", "quad5", "--axis", "beta", "--values", "0.12",
        "--replicates", "1", *HUGE_S_MAX, "--out", str(tmp_path),
    )
    capsys.readouterr()
    assert code == 0
    header, row = (tmp_path / "quad5.sweep.csv").read_text().splitlines()
    fields = row.split(",")
    assert fields[:7] == ["beta", "0.12", "0", "Error", "", "", ""]
    assert fields[8] == SLOPE_OVERFLOW


def test_certify_scores_a_slope_overflow_row_by_row(capsys):
    code = run_cli(
        "certify", "--config", "quad5", *HUGE_S_MAX, "--w", "0,0,0", "--s", "1,1,1,1,1",
    )
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err == ""
    assert json.loads(captured.out)["verdict"] == "Refuted"


def test_certify_explicit_profile_certified(tmp_path, capsys):
    code = run_cli(
        "certify", "--config", "example1-upbred",
        "--w", "0.5,1.5", "--s", "0,5", "--eps", "1e-6",
        "--out", str(tmp_path),
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["verdict"] == "Certified"
    assert doc["w"] == [0.5, 1.5] and doc["s"] == [0.0, 5.0]
    cert_path = tmp_path / "example1-upbred.certificate.json"
    assert json.loads(cert_path.read_text())["verdict"] == "Certified"


def test_certify_explicit_profile_refuted(capsys):
    code = run_cli(
        "certify", "--config", "example1-upbred", "--w", "1,2", "--s", "5,5",
    )
    captured = capsys.readouterr()
    assert code == 3
    doc = json.loads(captured.out)
    assert doc["verdict"] == "Refuted"
    assert doc["worst_gain"] > 0.0


def test_certify_from_trace(tmp_path, capsys):
    assert run_cli("run", "--config", "example1-upbred", "--out", str(tmp_path)) == 0
    capsys.readouterr()  # drop the run summary before parsing certify output
    trace = str(tmp_path / "example1-upbred.csv")
    code = run_cli("certify", "--config", "example1-upbred", "--trace", trace)
    captured = capsys.readouterr()
    assert code == 0
    assert json.loads(captured.out)["verdict"] == "Certified"


def test_certify_argument_validation(tmp_path, capsys):
    assert run_cli(
        "certify", "--config", "example1-upbred",
        "--trace", "x.csv", "--w", "1,2",
    ) == 1
    assert run_cli("certify", "--config", "example1-upbred", "--w", "1,2") == 1
    assert run_cli(
        "certify", "--config", "example1-upbred",
        "--w", "1,2", "--s", "5,5", "--eps", "0",
    ) == 1
    assert run_cli(
        "certify", "--config", "example1-upbred", "--w", "1", "--s", "5,5",
    ) == 1
    capsys.readouterr()


@pytest.mark.parametrize("config, profile, message", [
    ("example1-upbred", ("--w", "inf,1.5", "--s", "0,5"), "w must be finite"),
    ("example1-upbred", ("--w", "0.5,1.5", "--s", "nan,5"), "s must be finite"),
    ("quad5", ("--trace", "example1-upbred.csv"), "w must have shape (3,), got (2,)"),
    ("example1-upbred", ("--w", "0.5,1.5", "--s", "0,0"),
     "agent 0's utility at this profile is -inf, so its regret is undefined"),
], ids=["w-inf", "s-nan", "trace-of-another-instance", "singular-profile"])
def test_certify_rejects_a_profile_it_cannot_score(tmp_path, capsys, config, profile, message):
    if "--trace" in profile:
        assert run_cli("run", "--config", "example1-upbred", "--out", str(tmp_path)) == 0
        capsys.readouterr()
        profile = ("--trace", str(tmp_path / profile[1]))
    assert run_cli("certify", "--config", config, *profile) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_bounds_estimated_quadratic_region_is_empty(tmp_path, capsys):
    code = run_cli(
        "bounds", "--config", "example1-upbred", "--samples", "16",
        "--out", str(tmp_path),
    )
    captured = capsys.readouterr()
    assert code == 3
    doc = json.loads(captured.out)
    assert doc["constants_source"] == "estimated"  # no constant flag is given
    assert doc["constants"] == {k: doc["estimates"][k] for k in doc["constants"]}
    assert doc["feasible_steps"]["empty"] is True
    assert json.loads((tmp_path / "example1-upbred.bounds.json").read_text()) == doc


EXPLICIT = ("--lam", "1.1", "--lam-tilde", "1.1", "--L", "1", "--L-tilde", "1",
            "--P", "0", "--P-tilde", "1")


def test_bounds_explicit_constants(capsys):
    code = run_cli("bounds", "--config", "example1-2p", *EXPLICIT)
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["constants_source"] == "explicit" and "estimates" not in doc
    assert doc["constants"] == {"lambda": 1.1, "lambda_tilde": 1.1, "L": 1.0, "L_tilde": 1.0,
                                "P": 0.0, "P_tilde": 1.0}
    assert doc["feasible_steps"]["empty"] is False
    assert doc["M"] == pytest.approx(0.2) and doc["nu"] == pytest.approx(0.2)
    assert doc["kappa"] == 500
    assert doc["T0_two_phase"] >= 1
    assert doc["T0_corollary"] >= 0


def test_bounds_explicit_requires_all_constants(capsys):
    code = run_cli("bounds", "--config", "example1-2p", "--lam", "1.1")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: explicit constants require --lam-tilde, --L, --L-tilde, --P, --P-tilde\n"
    )


@pytest.mark.parametrize("given, missing", [
    (("--lam-tilde", "1", "--P-tilde", "2"), "--lam, --L, --L-tilde, --P"),
    (EXPLICIT[:-2], "--P-tilde"),
    (EXPLICIT[2:], "--lam"),
], ids=["two", "all-but-last", "all-but-first"])
def test_bounds_a_partial_set_of_constants_names_the_missing_flags(given, missing, capsys):
    # any constant flag makes the constants explicit; none is estimated then
    code = run_cli("bounds", "--config", "example1-2p", *given)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err == f"error: explicit constants require {missing}\n"


@pytest.mark.parametrize("config", ["quad5", "empirical-small"])
def test_bounds_nu_without_M_is_validation_error(config, capsys):
    code = run_cli("bounds", "--config", config, "--samples", "1", "--nu", "0.05")
    assert code == 1
    assert capsys.readouterr().err == "error: --nu requires --M\n"


@pytest.mark.parametrize("extra", [("--M", "inf", "--nu", "0.1"), ("--M", "inf"),
                                   ("--M", "nan"), ("--M", "1", "--nu", "2")])
def test_bounds_needs_finite_M_and_nu_in_range(extra, capsys):
    code = run_cli("bounds", "--config", "quad5", "--samples", "1", *extra)
    assert code == 1
    assert "need 0 < nu <= M with M finite" in capsys.readouterr().err


@pytest.mark.parametrize("radius", ["nan", "inf", "-1"])
def test_bounds_rejects_bad_w_radius(radius, capsys):
    code = run_cli("bounds", "--config", "quad5", "--samples", "1", f"--w-radius={radius}")
    assert code == 1
    assert capsys.readouterr().err == "error: w_radius must be finite and >= 0\n"


def test_bounds_rejects_w_radius_beyond_finite_accuracy(capsys):
    # |w|^2 overflows at the sampled points: a flag value, not a game failure
    code = run_cli("bounds", "--config", "quad5", "--samples", "2", "--w-radius", "1e200")
    assert code == 1
    assert capsys.readouterr().err == (
        "error: --w-radius 1e+200 reaches parameters where the accuracy is not finite\n"
    )
    # the accuracy is finite at every sample, but the difference stencils'
    # sums of it are not
    for radius in ("3e153", "5e153", "7e153"):
        code = run_cli("bounds", "--config", "quad5", "--samples", "4", "--w-radius", radius)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: --w-radius {float(radius)!r} reaches parameters where central "
            "differences of the accuracy overflow\n"
        )


def strict_json(text):
    return json.loads(text, parse_constant=lambda c: pytest.fail(f"not strict JSON: {c}"))


def test_bounds_notes_a_contraction_factor_that_overflows(tmp_path, capsys):
    for args in (
        ("--samples", "2", "--w-radius", "1e100"),  # finite accuracy, L**2 overflows
        ("--set", "run.gamma=1e154"),  # gamma**2 is finite, gamma**2 n**2 L**2 is not
    ):
        code = run_cli("bounds", "--config", "quad5", *args, "--out", str(tmp_path))
        doc = strict_json(capsys.readouterr().out)
        assert code == 3
        assert doc["W"] is None and doc["T0"] is None
        assert doc["W_note"] == "contraction radicand overflows for these constants"
        assert strict_json((tmp_path / "quad5.bounds.json").read_text()) == doc


def test_bounds_notes_training_bounds_that_do_not_contract(tmp_path, capsys):
    # nu / M = 1e-600 rounds both gradient-descent rates to exactly 1
    code = run_cli("bounds", "--config", "quad5", "--M", "1e300", "--nu", "1e-300",
                   "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 3  # set by the empty step region, as without --M
    doc = strict_json(captured.out)
    for key in ("T0_two_phase", "T0_corollary"):
        assert doc[key] is None
        assert doc[f"{key}_note"] == "no contraction: W=1.0 >= 1"
    assert captured.err == f"wrote {tmp_path / 'quad5.bounds.json'}\n"
    assert strict_json((tmp_path / "quad5.bounds.json").read_text()) == doc


def test_bounds_exits_0_for_steps_outside_a_region_that_is_not_empty(capsys):
    # test_golden pins steps_in_region on quad5-certified (true) and quad5 (false, exit 3)
    code = run_cli("bounds", "--config", "quad5-certified",
                   "--set", "run.gamma=0.5", "--set", "run.eta=0.5")
    assert code == 0
    doc = strict_json(capsys.readouterr().out)
    assert doc["feasible_steps"]["eta_ok"] is True and doc["W"]["W"] > 1.0
    assert doc["steps_in_region"] is False


def test_certified_scenario_converges_within_its_bounds(tmp_path, capsys):
    """The paper's guarantee through the CLI: on quad5-certified the run
    converges within T0, every observed per-round ratio stays within W, and
    w stays in the box whose samples gave the constants."""
    w_radius = 1.0
    code = run_cli("bounds", "--config", "quad5-certified", "--w-radius", str(w_radius))
    assert code == 0
    bounds = strict_json(capsys.readouterr().out)
    assert bounds["steps_in_region"] is True

    assert run_cli("run", "--config", "quad5-certified", "--out", str(tmp_path)) == 0
    assert "outcome=Converged" in capsys.readouterr().out
    trace = tmp_path / "quad5-certified.csv"
    table = read_trace_csv(trace)
    assert table.t[-1] <= bounds["T0"]
    assert np.abs(table.w).max() <= w_radius

    assert run_cli("diagnose", "--trace", str(trace)) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert float(first.rpartition("max_ratio=")[2]) <= bounds["W"]["W"]


def test_bounds_names_an_instance_whose_accuracy_is_not_finite_at_the_origin(capsys):
    # |theta|^2 overflows: no --w-radius helps
    code = run_cli("bounds", "--config", "quad5", "--set", "instance.theta=1e200,1e200,1e200")
    assert code == 1
    assert capsys.readouterr().err == "error: the instance's accuracy is not finite at w = 0\n"


@pytest.mark.parametrize("override", [
    "instance.beta=1e300", "instance.cost_coeffs=1e154,1e154,1e154,1e154,1e154",
], ids=["beta", "cost"])
def test_bounds_with_an_infinite_initial_norm_is_one_error_line(tmp_path, capsys, override):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning included
        code = run_cli("bounds", "--config", "quad5", "--set", override, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: initial update norm E is not finite (inf)\n"
    assert list(tmp_path.iterdir()) == []


def test_bounds_whose_step_cap_overflows_is_one_error_line(capsys):
    code = run_cli(
        "bounds", "--config", "example1-2p",
        "--lam", "1.1", "--lam-tilde", "1.1", "--L", "1e155", "--L-tilde", "1",
        "--P", "0", "--P-tilde", "1",
    )
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: step-size cap overflows for these constants\n"


def fail_writes(monkeypatch, failure):
    """Make every write that goes through traceio fail: "write" puts half of
    the text on disk and then reports a full disk, "replace" fails the final
    rename."""
    if failure == "replace":
        def replace(src, dst):
            raise OSError(errno.EXDEV, "Invalid cross-device link")

        monkeypatch.setattr(os, "replace", replace)
        return

    def open_half(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if "r" not in mode:
            def write(text):
                fh.__class__.write(fh, text[: len(text) // 2])
                fh.flush()
                raise OSError(errno.ENOSPC, "No space left on device")

            fh.write = write
        return fh

    monkeypatch.setattr(traceio, "open", open_half, raising=False)


@pytest.mark.parametrize("failure", ["write", "replace"])
def test_a_write_that_fails_keeps_the_old_file_whole(tmp_path, capsys, monkeypatch, failure):
    out = str(tmp_path)
    assert run_cli("run", "--config", "quad5", "--out", out) == 0
    assert run_cli("certify", "--config", "quad5", "--trace", str(tmp_path / "quad5.csv"),
                   "--out", out) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    fail_writes(monkeypatch, failure)
    # another seed and another profile: new bytes for both files
    assert run_cli("run", "--config", "quad5", "--seed", "8", "--out", out) == 2
    assert run_cli("certify", "--config", "quad5", "--w", "0,0,0", "--s", "1,1,1,1,1",
                   "--out", out) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("error: [Errno ") for line in err)
    # the old bytes survive, and no temporary file is left
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("owner, name, argv, what", [
    (traceio, "run_manifest", ("run", "--config", "quad5"), "run manifest"),
    (analysis.EquilibriumCertificate, "as_dict",
     ("certify", "--config", "quad5", "--w", "0,0,0", "--s", "1,1,1,1,1"), "certificate"),
    (cli, "contraction_factor", ("bounds", "--config", "quad5", "--samples", "4"),
     "bounds document"),
], ids=["run", "certify", "bounds"])
def test_a_document_that_is_not_strict_json_is_one_error_line(
    tmp_path, capsys, monkeypatch, owner, name, argv, what
):
    real = getattr(owner, name)

    def with_nan(*args, **kwargs):
        got = real(*args, **kwargs)
        if isinstance(got, dict):
            return {**got, "injected": float("nan")}
        return (float("nan"),) * 3  # contraction_factor's (W1, W2, W)

    monkeypatch.setattr(owner, name, with_nan)
    code = run_cli(*argv, "--out", str(tmp_path))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.startswith(f"error: {what} is not strict JSON: ")
    assert captured.err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []  # the run's trace CSV included


def test_a_run_that_raises_after_streaming_rows_keeps_the_old_files(
    tmp_path, capsys, monkeypatch
):
    """run streams each round's row into a temporary file as it is
    recorded; an exception after rows have been streamed leaves the files
    of the previous run as they were, and no temporary file."""
    out = str(tmp_path)
    assert run_cli("run", "--config", "quad5", "--out", out) == 0
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    real, streaming = dynamics.LocalPool.step, []

    def step(self, t, *args):
        if t == 5:
            streaming.extend(p.name for p in tmp_path.iterdir() if p.suffix == ".tmp")
            raise OSError(errno.EIO, "Input/output error")
        return real(self, t, *args)

    monkeypatch.setattr(dynamics.LocalPool, "step", step)
    assert run_cli("run", "--config", "quad5", "--seed", "8", "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: [Errno 5] Input/output error\n"
    assert len(streaming) == 1 and streaming[0].startswith("quad5.csv.")
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def peak_rss_mb(*argv) -> float:
    """Peak resident set of `python -m fedgame *argv`, as read by a parent
    process whose one child it is."""
    probe = (
        "import resource, subprocess, sys; "
        "subprocess.run(sys.argv[1:], check=True, stdout=subprocess.DEVNULL); "
        "print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe, sys.executable, "-m", "fedgame", *argv],
        capture_output=True, text=True, env=src_env(), timeout=120, check=True,
    )
    return int(proc.stdout) / 1024.0  # ru_maxrss is in KiB on Linux


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB")
def test_run_memory_does_not_grow_with_the_round_count(tmp_path):
    """run keeps no round record it has written: ten times the rounds
    (2,061 and 20,061 records, to MaxRounds) peak within 5 MB."""
    peaks = {}
    for rounds in (2000, 20000):
        out = tmp_path / str(rounds)
        peaks[rounds] = peak_rss_mb("run", "--config", "quad5", "--set", "run.eps=1e-300",
                                    "--set", f"run.rounds={rounds}", "--out", str(out))
        assert read_trace_csv(out / "quad5.csv").rounds == rounds + 61
    assert peaks[20000] - peaks[2000] <= 5.0, peaks


def test_agent_checks_its_id_before_it_connects(capsys):
    """An agent id outside the scenario is a validation error raised before
    the connection is made: it takes none of a listening center's
    connections, and with nothing listening it is still the id error."""
    listener = socket.create_server(("127.0.0.1", 0))
    port = listener.getsockname()[1]
    argv = ("agent", "--config", "example1-upbred", "--connect", f"127.0.0.1:{port}",
            "--agent-id", "5", "--timeout", "2")
    try:
        assert run_cli(*argv) == 1
        listener.settimeout(0.2)
        with pytest.raises(TimeoutError):
            listener.accept()
    finally:
        listener.close()
    assert run_cli(*argv) == 1  # the port is closed now
    assert capsys.readouterr().err == "error: agent id 5 out of range\n" * 2


def test_diagnose_reports_ratios_and_final_table(tmp_path, capsys):
    assert run_cli("run", "--config", "example1-2p", "--out", str(tmp_path)) == 0
    trace = str(tmp_path / "example1-2p.csv")
    code = run_cli("diagnose", "--trace", trace)
    captured = capsys.readouterr()
    assert code == 0
    assert "max_ratio=" in captured.out
    assert "agent" in captured.out
    ratio_path = tmp_path / "example1-2p.ratios.csv"
    lines = ratio_path.read_text().splitlines()
    assert lines[0] == "t,ratio"
    assert len(lines) > 1


def test_diagnose_missing_trace(capsys):
    assert run_cli("diagnose", "--trace", "/nonexistent/trace.csv") == 2
    capsys.readouterr()


def test_sweep_beta_axis(tmp_path, capsys):
    code = run_cli(
        "sweep", "--config", "example1-2p", "--out", str(tmp_path),
        "--axis", "beta", "--values", "0.0,0.05", "--replicates", "2",
    )
    captured = capsys.readouterr()
    assert code == 0
    path = tmp_path / "example1-2p.sweep.csv"
    assert f"wrote {path}" in captured.out
    lines = path.read_text().splitlines()
    assert lines[0] == "axis,value,replicate,outcome,welfare,total_s,rounds,wall_time_s,error"
    assert len(lines) == 5
    outcomes = {line.split(",")[3] for line in lines[1:]}
    assert outcomes <= {"Converged", "MaxRounds", "Error"}


def test_sweep_seed_axis_varies_seed(tmp_path):
    code = run_cli(
        "sweep", "--config", "example1-upbred", "--out", str(tmp_path),
        "--axis", "seed", "--values", "1,2", "--replicates", "1",
    )
    assert code == 0
    lines = (tmp_path / "example1-upbred.sweep.csv").read_text().splitlines()
    assert [line.split(",")[1] for line in lines[1:]] == ["1", "2"]


def test_sweep_argument_validation(tmp_path, capsys):
    common = ("sweep", "--config", "example1-2p", "--out", str(tmp_path))
    assert run_cli(*common, "--axis", "beta", "--values", " , ") == 1
    assert run_cli(*common, "--axis", "beta", "--values", "inf") == 1
    assert run_cli(*common, "--axis", "beta", "--values", "0.1", "--replicates", "0") == 1
    capsys.readouterr()


@pytest.mark.parametrize("axis, values, token", [
    ("beta", "0.1,abc", "'abc'"),
    ("agents", "2,1.5", "'1.5'"),
])
def test_sweep_names_an_unparsable_value(tmp_path, capsys, axis, values, token):
    code = run_cli("sweep", "--config", "example1-2p", "--out", str(tmp_path),
                   "--axis", axis, "--values", values)
    assert code == 1
    assert token in capsys.readouterr().err


def test_tcp_run_matches_local(tmp_path):
    local_dir = tmp_path / "local"
    fed_dir = tmp_path / "fed"
    assert run_cli("run", "--config", "example1-upbred", "--out", str(local_dir)) == 0

    center = subprocess.Popen(
        [sys.executable, "-m", "fedgame", "serve", "--config", "example1-upbred",
         "--listen", "127.0.0.1:0", "--out", str(fed_dir), "--timeout", "30"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=src_env(),
    )
    try:
        banner = center.stdout.readline()
        assert banner.startswith("listening on 127.0.0.1:")
        port = int(banner.split("listening on 127.0.0.1:")[1].split(",")[0])

        codes = {}

        def join(agent_id):
            codes[agent_id] = run_cli(
                "agent", "--config", "example1-upbred",
                "--connect", f"127.0.0.1:{port}", "--agent-id", str(agent_id),
            )

        threads = [threading.Thread(target=join, args=(i,)) for i in range(2)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=30)
        out, err = center.communicate(timeout=30)
    finally:
        if center.poll() is None:
            center.kill()
    assert center.returncode == 0, err
    assert codes == {0: 0, 1: 0}
    assert "outcome=Converged" in out
    local_csv = (local_dir / "example1-upbred.csv").read_bytes()
    assert (fed_dir / "example1-upbred.csv").read_bytes() == local_csv


@pytest.mark.parametrize("timeout", ["nan", "inf", "-1", "0"])
@pytest.mark.parametrize("net", [
    ("serve", "--listen", "127.0.0.1:0"),
    ("agent", "--connect", "127.0.0.1:1", "--agent-id", "0"),
], ids=["serve", "agent"])
def test_timeout_must_be_finite_and_positive(capsys, net, timeout):
    started = time.monotonic()
    code = run_cli(*net, "--config", "example1-upbred", f"--timeout={timeout}")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert "--timeout must be finite and > 0" in capsys.readouterr().err


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "fedgame", "--help"],
        capture_output=True, text=True, env=src_env(),
    )
    assert proc.returncode == 0
    for command in ("run", "sweep", "certify", "bounds", "diagnose"):
        assert command in proc.stdout


@pytest.mark.parametrize("command, rejected", [
    ("run", "--listen 127.0.0.1:0 --connect 127.0.0.1:1 --agent-id 0"),
    ("serve", "--connect 127.0.0.1:1 --agent-id 0"),
    ("agent", "--listen 127.0.0.1:0"),
], ids=["run", "serve", "agent"])
def test_listen_and_connect_are_exclusive(command, rejected, capsys):
    # serve listens and agent connects; run does neither
    err = usage_error((
        command, "--config", "example1-upbred",
        "--listen", "127.0.0.1:0", "--connect", "127.0.0.1:1", "--agent-id", "0",
    ), capsys)
    assert err.endswith(f"fedgame: error: unrecognized arguments: {rejected}\n")
