"""Randomized fault-schedule campaigns over a base scenario, plus report
generation for episodes and campaigns."""
from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field, replace
from pathlib import Path

from .core import canonical, digest
from .episode import EpisodeResult, liveness_bound, run_episode
from .harness import FaultProfile
from .scenario import Scenario
from .simnet import NetworkPolicy

FUZZ_DROP_RATES = (0.0, 0.005, 0.01)
FUZZ_JITTERS = (0, 1)


class CampaignViolation(AssertionError):
    """An episode broke agreement or liveness; carries the reproducing seed."""

    def __init__(self, message: str, seed: int, episode_index: int):
        super().__init__(f"{message} (seed={seed}, episode={episode_index})")
        self.seed = seed
        self.episode_index = episode_index


@dataclass
class CampaignReport:
    base_name: str
    episodes: int
    seed: int
    agreement_violations: int
    liveness_failures: int
    frames_total: int
    rounds_histogram: dict[int, int]
    view_change_histogram: dict[int, int]
    max_view_changes: int
    max_rounds: int
    failures: list[tuple[int, int]] = field(default_factory=list)  # (seed, episode)

    def to_lines(self) -> list[str]:
        lines = [
            f"campaign|{self.base_name}|episodes={self.episodes}|seed={self.seed}",
            f"frames|{self.frames_total}",
            f"agreement_violations|{self.agreement_violations}",
            f"liveness_failures|{self.liveness_failures}",
            f"max_rounds_to_commit|{self.max_rounds}",
            f"max_view_changes|{self.max_view_changes}",
        ]
        for rounds, count in sorted(self.rounds_histogram.items()):
            lines.append(f"rounds_hist|{rounds}|{count}")
        for vc, count in sorted(self.view_change_histogram.items()):
            lines.append(f"viewchange_hist|{vc}|{count}")
        for seed, idx in self.failures:
            lines.append(f"failure|seed={seed}|episode={idx}")
        return lines

    def digest_hex(self) -> str:
        return digest(canonical(*self.to_lines())).hex()


def _random_fault(rng: random.Random, scenario: Scenario) -> FaultProfile:
    space = scenario.decision_space
    labels = list(space.labels)
    kind = rng.choice(
        [
            "byzantine_fixed",
            "byzantine_random",
            "byzantine_equivocate",
            "crash",
            "silent",
            "slow",
            "diverse_honest",
        ]
    )
    if kind == "byzantine_fixed":
        return FaultProfile(kind=kind, bad_label=rng.choice(labels))
    if kind == "byzantine_random":
        rng.randrange(2**31)  # a draw kept so that later draws stay where they were
        return FaultProfile(kind=kind)
    if kind == "byzantine_equivocate":
        if len(labels) < 2:
            return FaultProfile(kind="byzantine_fixed", bad_label=labels[0])
        a, b = rng.sample(labels, 2)
        return FaultProfile(kind=kind, label_a=a, label_b=b)
    if kind == "crash":
        return FaultProfile(kind=kind, at_frame=rng.randrange(scenario.frames))
    if kind == "silent":
        return FaultProfile(kind=kind)
    if kind == "slow":
        return FaultProfile(kind=kind, delay_rounds=rng.randint(1, 2))
    return FaultProfile(kind="diverse_honest", error_rate=0.2, perturb_seed=rng.randrange(2**31))


def randomize_episode(base: Scenario, rng: random.Random, episode_seed: int) -> Scenario:
    """Random fault placement in at most f slots plus random benign network
    conditions (jitter/drops well below partition-forever)."""
    n, f = base.quorum.n, base.quorum.f
    modules = [FaultProfile(kind="honest")] * n
    count = rng.randint(0, f)
    for slot in rng.sample(range(n), count):
        modules[slot] = _random_fault(rng, base)
    network = NetworkPolicy(
        base_delay_rounds=base.network.base_delay_rounds,
        jitter_rounds=rng.choice(FUZZ_JITTERS),
        drop_rate=rng.choice(FUZZ_DROP_RATES),
        partitions=(),
        seed=episode_seed,
    )
    return replace(base, modules=tuple(modules), network=network, seed=episode_seed)


def raised_at(exc: Exception) -> str:
    """``exc``'s type and the file:line of the innermost frame it came from."""
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__} at {Path(frame.filename).name}:{frame.lineno}"


def fuzz_campaign(base: Scenario, episodes: int, seed: int, strict: bool = True) -> CampaignReport:
    """Run randomized variants of a base scenario and check the safety and
    liveness claims on every frame of every episode.  An episode that
    raises has failed: ``strict`` stops at it, otherwise it is listed in
    ``failures`` and adds nothing to the counts."""
    if episodes < 1:
        raise ValueError(f"a campaign needs at least one episode, got {episodes}")
    if base.expects_violation:
        raise ValueError("fuzz base scenario must stay within the fault model")
    faulty = sum(1 for p in base.modules if p.faulty)
    if faulty > base.quorum.f:
        raise ValueError(f"base scenario has {faulty} faulty modules > f={base.quorum.f}")

    rng = random.Random(seed)
    bound = liveness_bound(base.quorum.f, base.timeout_rounds)
    rounds_hist: dict[int, int] = {}
    vc_hist: dict[int, int] = {}
    agreement_violations = 0
    liveness_failures = 0
    frames_total = 0
    max_rounds = 0
    max_vc = 0
    failures: list[tuple[int, int]] = []

    for index in range(episodes):
        episode_seed = int.from_bytes(digest(canonical("fuzz", seed, index))[:8], "big") % 2**31
        scenario = randomize_episode(base, rng, episode_seed)
        try:
            result = run_episode(scenario)
        except Exception as exc:  # a raising episode has failed, like a violating one
            if strict:
                raise CampaignViolation(f"{raised_at(exc)} in fuzz episode", episode_seed, index) from exc
            failures.append((episode_seed, index))
            continue
        frames_total += len(result.records)
        agreement_violations += len(result.agreement_violations)
        liveness_failures += len(result.liveness_failures)
        failed = bool(result.agreement_violations or result.liveness_failures)
        for record in result.records:
            rounds_hist[record.rounds_to_commit] = rounds_hist.get(record.rounds_to_commit, 0) + 1
            vc_hist[record.view_changes] = vc_hist.get(record.view_changes, 0) + 1
            max_rounds = max(max_rounds, record.rounds_to_commit)
            max_vc = max(max_vc, record.view_changes)
            failed = failed or (record.verdict == "decided" and record.rounds_to_commit > bound)
        if failed:
            failures.append((episode_seed, index))
        if strict and failures:
            failed_seed, failed_index = failures[0]
            kind = "agreement" if result.agreement_violations else "liveness"
            raise CampaignViolation(f"{kind} violation in fuzz episode", failed_seed, failed_index)

    return CampaignReport(
        base_name=base.name,
        episodes=episodes,
        seed=seed,
        agreement_violations=agreement_violations,
        liveness_failures=liveness_failures,
        frames_total=frames_total,
        rounds_histogram=rounds_hist,
        view_change_histogram=vc_hist,
        max_view_changes=max_vc,
        max_rounds=max_rounds,
        failures=failures,
    )


def episode_report(result: EpisodeResult) -> str:
    """Human-readable per-frame table plus per-module agreement rates."""
    s = result.scenario
    lines = [
        f"scenario: {s.name} (n={s.quorum.n}, f={s.quorum.f}, mode={s.consensus_mode}, "
        f"strategy={s.strategy.describe()}, seed={s.seed})",
        "",
        f"{'frame':>5}  {'verdict':<10} {'value':<14} {'supporters':<14} "
        f"{'rounds':>6} {'views':>5}  flags",
    ]
    for r in result.records:
        supporters = ",".join(str(m) for m in r.supporters) or "-"
        flags = ",".join(r.flags) or "-"
        lines.append(
            f"{r.frame:>5}  {r.verdict:<10} {r.value or '-':<14} {supporters:<14} "
            f"{r.rounds_to_commit:>6} {r.view_changes:>5}  {flags}"
        )
    lines.append("")
    lines.append("module agreement rates:")
    for m in sorted(result.module_agreement):
        profile = s.modules[m].kind
        lines.append(f"  module {m} ({profile}): {result.module_agreement[m]:.2f}")
    if result.supervisor_events:
        lines.append("")
        lines.append("supervisor events:")
        for frame, module, event in result.supervisor_events:
            lines.append(f"  frame {frame}: module {module} {event}")
    return "\n".join(lines) + "\n"
