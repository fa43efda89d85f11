"""Command-line interface: exit codes, log files, verify, report."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import bftensemble
from bftensemble import campaign, cli
from bftensemble.cli import EXIT_OK, EXIT_USAGE, EXIT_VIOLATION, main
from bftensemble.scenario import bundled_scenario_path

PLASTIC_BAG = str(bundled_scenario_path("av_plastic_bag"))
BREACH = str(bundled_scenario_path("common_mode_breach"))
FUZZ_N4 = str(bundled_scenario_path("fuzz_base_n4"))
# the benchmark's supervised PBFT base, whose silent draws raise (ROADMAP item 1)
FUZZ_LONG_N4 = Path(__file__).parents[1] / "bench" / "scenarios" / "fuzz_long_n4.scn"


def test_run_clean_scenario(capsys):
    assert main(["run", PLASTIC_BAG]) == EXIT_OK
    out = capsys.readouterr().out
    assert "av_plastic_bag" in out


def test_run_writes_logs(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    assert main(["run", PLASTIC_BAG, "--log-dir", str(log_dir)]) == EXIT_OK
    capsys.readouterr()
    assert (log_dir / "decision.log").exists()
    assert (log_dir / "event.log").exists()
    assert (log_dir / "report.txt").exists()
    first = (log_dir / "decision.log").read_text().splitlines()[0]
    assert first.startswith("0|")


def test_run_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", PLASTIC_BAG, "--log-dir", str(a)])
    main(["run", PLASTIC_BAG, "--log-dir", str(b)])
    capsys.readouterr()
    for name in ("decision.log", "event.log", "report.txt"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_run_seed_changes_event_log(tmp_path, capsys):
    # a lossy network actually consults the seed, unlike the lossless bases
    text = (bundled_scenario_path("fuzz_base_n4").read_text()
            .replace("drop_rate = 0.0", "drop_rate = 0.05"))
    lossy = tmp_path / "lossy.scn"
    lossy.write_text(text)
    a, b = tmp_path / "a", tmp_path / "b"
    main(["run", str(lossy), "--log-dir", str(a)])
    main(["run", str(lossy), "--seed", "8191", "--log-dir", str(b)])
    capsys.readouterr()
    assert (a / "event.log").read_bytes() != (b / "event.log").read_bytes()


def test_run_missing_file(capsys):
    assert main(["run", "/no/such/file.scn"]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_run_bad_scenario_text(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("n = 4\n")
    assert main(["run", str(bad)]) == EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_run_into_a_log_dir_that_is_a_file_exits_1(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["run", FUZZ_N4, "--log-dir", str(taken)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(taken) in err
    assert taken.read_text() == ""


def test_run_of_a_raising_episode_exits_2_with_its_cause(monkeypatch, tmp_path, capsys):
    def raising(scenario):
        raise AttributeError("engine")

    monkeypatch.setattr(cli, "run_episode", raising)
    log_dir = tmp_path / "logs"
    assert main(["run", FUZZ_N4, "--log-dir", str(log_dir)]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.err.startswith("run failed: AttributeError at test_cli.py:")
    assert captured.out == ""
    assert not log_dir.exists()


def test_run_expected_violation_exits_ok(capsys):
    # the scenario declares expects_violation, so a breach is not a failure
    assert main(["run", BREACH]) == EXIT_OK
    capsys.readouterr()


def test_fuzz_prints_report_and_digest(capsys):
    assert main(["fuzz", FUZZ_N4, "--episodes", "5", "--seed", "7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "episodes=5" in out
    assert any(line.startswith("report_digest|") for line in out.splitlines())


def test_fuzz_digest_is_stable(capsys):
    main(["fuzz", FUZZ_N4, "--episodes", "5", "--seed", "7"])
    first = capsys.readouterr().out
    main(["fuzz", FUZZ_N4, "--episodes", "5", "--seed", "7"])
    assert capsys.readouterr().out == first


def test_fuzz_of_a_raising_episode_exits_2_with_its_cause(monkeypatch, capsys):
    def raising(scenario):
        raise KeyError("engine")

    monkeypatch.setattr(campaign, "run_episode", raising)
    assert main(["fuzz", FUZZ_N4, "--episodes", "5", "--seed", "7"]) == EXIT_VIOLATION
    captured = capsys.readouterr()
    assert captured.err.startswith("campaign failed: KeyError at test_cli.py:")
    assert "(seed=" in captured.err and "episode=0)" in captured.err
    assert "report_digest|" not in captured.out


def test_fuzz_of_the_supervised_bench_base_exits_without_a_traceback():
    """Exit 0, or 2 for a failed episode; never a traceback."""
    proc = subprocess.run(
        [sys.executable, "-m", "bftensemble.cli", "fuzz", str(FUZZ_LONG_N4),
         "--episodes", "30", "--seed", "2026"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=str(Path(bftensemble.__file__).parents[1])),
        timeout=120,
    )
    assert proc.returncode in (EXIT_OK, EXIT_VIOLATION), proc.stderr
    assert "Traceback" not in proc.stderr


def test_fuzz_requires_episodes_and_seed(capsys):
    # argparse's own errors exit 1, the usage code, not 2 (a violation)
    with pytest.raises(SystemExit) as exc:
        main(["fuzz", FUZZ_N4])
    assert exc.value.code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["fuzz", FUZZ_N4, "--episodes", "5"],
        ["fuzz", FUZZ_N4, "--episodes", "5", "--seed", "7", "--bogus"],
        ["run", PLASTIC_BAG, "--seed", str(2**63)],
    ],
    ids=["missing-seed", "unknown-flag", "seed-above-int64"],
)
def test_command_line_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("episodes", ["0", "-3"])
def test_fuzz_rejects_fewer_than_one_episode(episodes, capsys):
    assert main(["fuzz", FUZZ_N4, "--episodes", episodes, "--seed", "7"]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "episodes=" not in captured.out


def test_verify_clean_log(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    main(["run", PLASTIC_BAG, "--log-dir", str(log_dir)])
    capsys.readouterr()
    assert main(["verify", str(log_dir / "decision.log")]) == EXIT_OK
    assert "no agreement violations" in capsys.readouterr().out


def test_verify_flags_violation(tmp_path, capsys):
    log = tmp_path / "decision.log"
    log.write_text("0|decided|stop|0,1,2|4|0|agreement-violation\n")
    assert main(["verify", str(log)]) == EXIT_VIOLATION
    assert "agreement violations" in capsys.readouterr().err


def test_verify_rejects_malformed(tmp_path, capsys):
    log = tmp_path / "decision.log"
    log.write_text("0|decided|-|0,1,2|4|0|-\n")
    assert main(["verify", str(log)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize(
    "record",
    [
        "0|decided|NORTH|0,1|-5|-2|-",
        "0|decided|stop|0,1,2|-1|0|-",
        "0|decided|stop|0,1,2|4|-1|-",
        "0|no-quorum|-|0,1|-3|0|-",
        "0|safe-mode|stop|0|2|-1|-",
    ],
    ids=["both-negative", "negative-rounds", "negative-view-changes",
         "no-quorum-negative-rounds", "safe-mode-negative-view-changes"],
)
def test_verify_rejects_negative_counts(tmp_path, capsys, record):
    log = tmp_path / "decision.log"
    log.write_text(record + "\n")
    assert main(["verify", str(log)]) == EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.err.startswith("error:") and "negative" in captured.err
    assert "ok:" not in captured.out


def test_verify_rejects_gap_in_frames(tmp_path, capsys):
    log = tmp_path / "decision.log"
    log.write_text(
        "0|decided|stop|0,1,2|4|0|-\n2|decided|stop|0,1,2|4|0|-\n"
    )
    assert main(["verify", str(log)]) == EXIT_USAGE
    assert "contiguous" in capsys.readouterr().err


def test_verify_missing_file(capsys):
    assert main(["verify", "/no/such/decision.log"]) == EXIT_USAGE
    capsys.readouterr()


def test_report_prefers_report_txt(tmp_path, capsys):
    log_dir = tmp_path / "logs"
    main(["run", PLASTIC_BAG, "--log-dir", str(log_dir)])
    expected = (log_dir / "report.txt").read_text()
    capsys.readouterr()
    assert main(["report", str(log_dir)]) == EXIT_OK
    assert capsys.readouterr().out == expected


def test_report_missing_dir(capsys):
    assert main(["report", "/no/such/dir"]) == EXIT_USAGE
    capsys.readouterr()


NON_UTF8 = b"name = broken\n\xff\xfe = 1\n"


def _base_edit(old, new):
    return bundled_scenario_path("fuzz_base_n4").read_text().replace(old, new).encode()


HUGE_WINDOW = "[supervisor]\nwindow = 99999999999999999999\n[observations]"


@pytest.mark.parametrize(
    "command, content",
    [
        ("run", NON_UTF8),
        ("verify", NON_UTF8),
        ("run", _base_edit("base_delay = 1", "base_delay = -1")),
        ("run", _base_edit("drop_rate = 0.0", "drop_rate = 1.5")),
        ("run", _base_edit("jitter = 0", "jitter = -1")),
        ("run", _base_edit("jitter = 0", "jitter = -3")),
        ("run", _base_edit("timeout_rounds = 10", "checkpoint_interval = 0")),
        ("run", _base_edit("0 = honest", "0 = diverse_honest error_rate=1.5")),
        ("run", _base_edit("0 = honest", "0 = honest confidence=0.9")),
        ("run", _base_edit("strategy = majority", "strategy = weighted:0.6")),
        ("run", _base_edit("seed = 1", f"seed = {2**63}")),
        ("run", _base_edit("seed = 1", f"seed = {-2**63 - 1}")),
        ("run", _base_edit("0 = honest", f"0 = diverse_honest perturb_seed={2**64}")),
        ("run", _base_edit("timeout_rounds = 10", "timeout_round = 3")),
        ("run", _base_edit("[observations]", HUGE_WINDOW)),
        ("run", _base_edit("labels = continue brake swerve-left", "labels = continue brake swerve-left -")),
        ("run", _base_edit("n = 4", "n = 99999999999999999999")),
        ("run", _base_edit("frames = 5", "frames = 99999999999999999999999")),
    ],
    ids=["run-non-utf8", "verify-non-utf8", "negative-delay", "drop-rate-above-1",
         "jitter-minus-1", "jitter-minus-3", "checkpoint-interval-0", "error-rate-above-1",
         "confidence-option", "weighted-strategy",
         "seed-above-int64", "seed-below-int64", "perturb-seed-above-int64", "misspelt-key",
         "window-above-int64", "label-dash", "n-huge", "frames-huge"],
)
def test_malformed_input_is_a_usage_error(tmp_path, command, content):
    path = tmp_path / "input"
    path.write_bytes(content)
    env = dict(os.environ, PYTHONPATH=str(Path(bftensemble.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-m", "bftensemble.cli", command, str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == EXIT_USAGE, proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr
