"""Command-line entry point: run episodes, fuzz campaigns, verify stored
decision logs, and summarize log directories.

Exit codes: 0 success, 1 usage/config error, 2 invariant violation detected
or an episode that raised.
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .campaign import CampaignViolation, episode_report, fuzz_campaign, raised_at
from .core import int64
from .episode import run_episode
from .scenario import parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VIOLATION = 2


def _load_scenario(path: str, seed):
    scenario = parse_scenario(path)
    if seed is not None:
        scenario = scenario.with_seed(seed)
    return scenario


def cmd_run(args) -> int:
    try:
        scenario = _load_scenario(args.scenario, args.seed)
    except (OSError, ValueError) as exc:  # ScenarioError and UnicodeDecodeError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        result = run_episode(scenario)
    except Exception as exc:  # a raising episode has failed, as in a campaign
        print(f"run failed: {raised_at(exc)}", file=sys.stderr)
        return EXIT_VIOLATION
    if args.log_dir:
        log_dir = Path(args.log_dir)
        try:
            log_dir.mkdir(parents=True, exist_ok=True)
            (log_dir / "decision.log").write_text(result.decision_log_text)
            (log_dir / "event.log").write_text(result.event_log_text)
            (log_dir / "report.txt").write_text(episode_report(result))
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    print(episode_report(result), end="")
    if result.agreement_violations and not scenario.expects_violation:
        print(
            f"AGREEMENT VIOLATION in frames {result.agreement_violations}",
            file=sys.stderr,
        )
        return EXIT_VIOLATION
    return EXIT_OK


def cmd_fuzz(args) -> int:
    try:
        scenario = _load_scenario(args.scenario, None)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        report = fuzz_campaign(scenario, episodes=args.episodes, seed=args.seed)
    except CampaignViolation as exc:
        print(f"campaign failed: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    for line in report.to_lines():
        print(line)
    print(f"report_digest|{report.digest_hex()}")
    return EXIT_OK


def _parse_decision_line(line: str):
    parts = line.split("|")
    if len(parts) == 4 and parts[1] == "SUPERVISOR":
        return ("supervisor", int(parts[0]), int(parts[2]), parts[3])
    if len(parts) != 7:
        raise ValueError(f"malformed decision record: {line!r}")
    frame = int(parts[0])
    verdict = parts[1]
    if verdict not in ("decided", "no-quorum", "safe-mode"):
        raise ValueError(f"unknown verdict {verdict!r}")
    flags = tuple(parts[6].split(",")) if parts[6] != "-" else ()
    return ("record", frame, verdict, parts[2], parts[3], int(parts[4]), int(parts[5]), flags)


def cmd_verify(args) -> int:
    """Recompute structural invariants over a stored decision log."""
    try:
        text = Path(args.decision_log).read_text()
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    frames_seen = []
    violations = []
    try:
        for line in text.splitlines():
            if not line.strip():
                continue
            parsed = _parse_decision_line(line)
            if parsed[0] != "record":
                continue
            _, frame, verdict, value, _, rounds, view_changes, flags = parsed
            frames_seen.append(frame)
            if "agreement-violation" in flags:
                violations.append(frame)
            if verdict == "decided" and value == "-":
                raise ValueError(f"frame {frame}: decided without a value")
            if rounds < 0:
                raise ValueError(f"frame {frame}: negative rounds to commit")
            if view_changes < 0:
                raise ValueError(f"frame {frame}: negative view changes")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    expected = list(range(len(frames_seen)))
    if frames_seen != expected:
        print(
            f"error: frames are not contiguous one-per-frame records: {frames_seen}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if violations:
        print(f"agreement violations flagged in frames {violations}", file=sys.stderr)
        return EXIT_VIOLATION
    print(f"ok: {len(frames_seen)} frames, no agreement violations")
    return EXIT_OK


def cmd_report(args) -> int:
    log_dir = Path(args.log_dir)
    decision = log_dir / "decision.log"
    if not decision.exists():
        print(f"error: {decision} not found", file=sys.stderr)
        return EXIT_USAGE
    report = log_dir / "report.txt"
    try:
        print((report if report.exists() else decision).read_text(), end="")
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A malformed command line is a usage error, not argparse's exit 2."""
        self.exit(EXIT_USAGE, f"{self.format_usage()}{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bftensemble",
        description="Byzantine-fault-tolerant decision ensemble simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario episode")
    p_run.add_argument("scenario")
    p_run.add_argument("--seed", type=int64, default=None)
    p_run.add_argument("--log-dir", default=None)
    p_run.set_defaults(func=cmd_run)

    p_fuzz = sub.add_parser("fuzz", help="randomized fault-schedule campaign")
    p_fuzz.add_argument("scenario")
    p_fuzz.add_argument("--episodes", type=int, required=True)
    p_fuzz.add_argument("--seed", type=int64, required=True)
    p_fuzz.set_defaults(func=cmd_fuzz)

    p_verify = sub.add_parser("verify", help="check invariants over a stored decision log")
    p_verify.add_argument("decision_log")
    p_verify.set_defaults(func=cmd_verify)

    p_report = sub.add_parser("report", help="summarize a log directory")
    p_report.add_argument("log_dir")
    p_report.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
