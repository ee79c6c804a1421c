"""Command-line interface: exit codes, files written, stdout shape."""

import json
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

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


def test_run_honours_formats_override(tmp_path):
    out = str(tmp_path)
    code = run_cli(
        "run", "--config", "example1-upbred", "--out", out,
        "--set", "output.formats=csv",
    )
    assert code == 0
    assert (tmp_path / "example1-upbred.csv").is_file()
    assert not (tmp_path / "example1-upbred.json").exists()


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


def test_run_connect_needs_agent_id(capsys):
    code = run_cli("run", "--config", "example1-upbred", "--connect", "127.0.0.1:1")
    assert code == 1
    assert "--agent-id" in capsys.readouterr().err


def test_run_bad_hostport(capsys):
    code = run_cli("run", "--config", "example1-upbred", "--listen", "9999")
    assert code == 1
    capsys.readouterr()


def test_serve_and_agent_require_endpoints(capsys):
    assert run_cli("serve", "--config", "example1-upbred") == 1
    assert run_cli("agent", "--config", "example1-upbred") == 1
    assert (
        run_cli("agent", "--config", "example1-upbred", "--connect", "127.0.0.1:1")
        == 1
    )
    capsys.readouterr()


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


def test_bounds_estimated_quadratic_region_is_empty(tmp_path, capsys):
    code = run_cli(
        "bounds", "--config", "example1-upbred", "--samples", "16",
        "--out", str(tmp_path),
    )
    captured = capsys.readouterr()
    assert code == 3
    doc = json.loads(captured.out)
    assert doc["constants_source"] == "estimated"
    assert doc["feasible_steps"]["empty"] is True
    assert json.loads((tmp_path / "example1-upbred.bounds.json").read_text()) == doc


def test_bounds_explicit_constants(capsys):
    code = run_cli(
        "bounds", "--config", "example1-2p", "--constants", "explicit",
        "--lam", "1.1", "--lam-tilde", "1.1", "--L", "1", "--L-tilde", "1",
        "--P", "0", "--P-tilde", "1",
    )
    captured = capsys.readouterr()
    assert code == 0
    doc = json.loads(captured.out)
    assert doc["feasible_steps"]["empty"] is False
    assert doc["M"] == pytest.approx(0.2) and doc["nu"] == pytest.approx(0.2)
    assert doc["kappa"] == 500
    assert doc["T0_two_phase"] >= 1
    assert doc["T0_corollary"] >= 0


def test_bounds_explicit_requires_all_constants(capsys):
    code = run_cli(
        "bounds", "--config", "example1-2p", "--constants", "explicit",
        "--lam", "1.1",
    )
    assert code == 1
    assert "explicit constants require" in capsys.readouterr().err


def test_bounds_rejects_constant_flags_in_estimated_mode(capsys):
    code = run_cli("bounds", "--config", "example1-2p", "--lam", "1.1")
    assert code == 1
    assert "--constants explicit" in capsys.readouterr().err


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
        [sys.executable, "-m", "fedgame", "run", "--config", "example1-upbred",
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


@pytest.mark.parametrize("command", ["run", "serve", "agent"])
def test_listen_and_connect_are_exclusive(command, capsys):
    code = run_cli(
        command, "--config", "example1-upbred",
        "--listen", "127.0.0.1:0", "--connect", "127.0.0.1:1", "--agent-id", "0",
    )
    assert code == 1
    assert "--listen and --connect" in capsys.readouterr().err
