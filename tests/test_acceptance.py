"""Acceptance gate: one test per release criterion.

Each criterion gets exactly one numbered test, so `pytest -v` prints one
pass/fail line per criterion.  The heavyweight fuzz campaigns (criteria 2
and 3) are computed once per session and shared.
"""
import itertools
import time
from collections import Counter

import pytest

from bftensemble.campaign import fuzz_campaign
from bftensemble.core import QuorumConfig, client_match, min_replicas, quorum_size
from bftensemble.episode import EpisodeRunner, liveness_bound, run_episode
from bftensemble.scenario import load_bundled, parse_scenario_text
from bftensemble.voter import VoteStrategy, tally

from test_consensus import check_agreement_and_deposition, run_equivocation_schedule

EPISODES = 1000


@pytest.fixture(scope="module")
def replica_violations():
    """Each campaign's ``Replica.violations`` entries, filled by ``campaigns``."""
    return {}


@pytest.fixture(scope="module")
def campaigns(replica_violations):
    """Both fuzz campaigns.  Every replica an episode builds, a restarted
    module's new one included, has its ``violations`` read once the
    episode has run."""
    results = {}
    built = []
    make_engine, run = EpisodeRunner._make_engine, EpisodeRunner.run

    def tracked_make_engine(runner, m, profile):
        engine = make_engine(runner, m, profile)
        if engine is not None:
            built.append(engine)
        return engine

    def tracked_run(runner):
        try:
            return run(runner)
        finally:
            replica_violations[runner.s.name].extend(v for engine in built for v in engine.violations)
            built.clear()

    started = time.monotonic()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(EpisodeRunner, "_make_engine", tracked_make_engine)
        patch.setattr(EpisodeRunner, "run", tracked_run)
        for name in ("fuzz_base_n4", "fuzz_base_n7"):
            base = load_bundled(name)
            replica_violations[name] = []
            results[name] = (base, fuzz_campaign(base, episodes=EPISODES, seed=2026))
    return results, time.monotonic() - started


def test_criterion_01_quorum_arithmetic():
    expected = {0: (1, 1, 1), 1: (4, 3, 2), 2: (7, 5, 3), 3: (10, 7, 4)}
    for f, (n, quorum, match) in expected.items():
        assert min_replicas(f) == n
        assert quorum_size(f) == quorum
        assert client_match(f) == match


def test_criterion_02_agreement_under_fuzz(campaigns, replica_violations):
    results, elapsed = campaigns
    for name, (_, report) in results.items():
        assert report.episodes == EPISODES, name
        assert report.agreement_violations == 0, (name, report.failures)
        assert replica_violations[name] == [], name
    assert elapsed < 60.0, f"campaigns took {elapsed:.1f}s"


def test_criterion_03_liveness_bound(campaigns):
    results, _ = campaigns
    for name, (base, report) in results.items():
        bound = liveness_bound(base.quorum.f, base.timeout_rounds)
        assert report.liveness_failures == 0, (name, report.failures)
        assert report.max_rounds <= bound, name
        assert report.max_view_changes <= base.quorum.f + 1, name


def test_criterion_04_voter_oracle_equivalence():
    def oracle(labels, strategy, n):
        present = [l for l in labels if l is not None]
        counts = Counter(present)
        if strategy.kind == "majority":
            winners = [l for l, c in counts.items() if c > n / 2]
            return winners[0] if winners else None
        if strategy.kind == "k_of_n":
            winners = [l for l, c in counts.items() if c >= strategy.k]
            return winners[0] if len(winners) == 1 else None
        # unanimity: full attendance, one label
        if len(present) == n and len(counts) == 1:
            return present[0]
        return None

    space = ("a", "b", "c")
    cases = 0
    for n in range(1, 6):
        cfg = QuorumConfig(n=n, f=0)
        strategies = [VoteStrategy("majority"), VoteStrategy("unanimity")]
        strategies += [VoteStrategy("k_of_n", k=k) for k in range(2, n + 1)]
        for assignment in itertools.product(space + (None,), repeat=n):
            votes = {m: label for m, label in enumerate(assignment) if label is not None}
            for strategy in strategies:
                verdict = tally(votes, strategy, cfg)
                want = oracle(assignment, strategy, n)
                if want is None:
                    assert not verdict.decided, (n, strategy.describe(), assignment)
                else:
                    assert verdict.value == want
                cases += 1
    assert cases > 3**5


def test_criterion_05_scenario_reproduction():
    bag = run_episode(load_bundled("av_plastic_bag"))
    assert [r.verdict for r in bag.records] == ["decided"] * len(bag.records)
    assert {r.value for r in bag.records} == {"continue"}
    assert any(len(r.supporters) == 4 for r in bag.records)

    obstacle = run_episode(load_bundled("av_missed_obstacle"))
    assert all(r.verdict == "decided" and r.value == "stop" for r in obstacle.records)

    alarm = run_episode(load_bundled("voter_thresholds_2oo3"))
    two_of_three, one_of_three = alarm.records
    assert two_of_three.verdict == "decided" and two_of_three.value == "alarm"
    assert one_of_three.value != "alarm"


def test_criterion_06_equivocation_safety():
    depth, fan_out = 3, 12
    for d in range(depth + 1):
        for prefix in itertools.product(range(fan_out), repeat=d):
            replicas = run_equivocation_schedule(prefix)
            check_agreement_and_deposition(replicas)


def test_criterion_07_common_mode_demonstration():
    result = run_episode(load_bundled("common_mode_breach"))
    truth = result.scenario.observations.ground_truth
    breached = [
        r
        for r in result.records
        if r.verdict == "decided" and r.value != truth[r.frame]
    ]
    assert breached, "colluding majority failed to outvote the honest module"
    assert all("ground-truth-mismatch" in r.flags for r in breached)


SUPERVISOR_CYCLE = """\
name = supervisor_cycle
n = 4
f = 1
frames = 12
seed = 5
consensus_mode = pbft
strategy = majority
timeout_rounds = 10

[decision_space]
labels = hold advance retreat
safe_default = hold

[modules]
0 = honest
1 = byzantine_fixed label=retreat on_restart=honest
2 = honest
3 = honest

[network]
base_delay = 1
jitter = 0
drop_rate = 0.0

[supervisor]
window = 4
flag_threshold = 0.5
restart_delay = 2

[observations]
0 | hold |
1 | hold |
2 | hold |
3 | hold |
4 | advance |
5 | advance |
6 | hold |
7 | hold |
8 | advance |
9 | hold |
10 | hold |
11 | advance |
"""


def test_criterion_08_supervisor_cycle():
    scenario = parse_scenario_text(SUPERVISOR_CYCLE)
    result = run_episode(scenario)
    assert not result.agreement_violations and not result.liveness_failures

    events = {kind: frame for frame, m, kind in result.supervisor_events if m == 1}
    assert set(events) == {"flagged", "isolated", "restarting", "recovered"}
    grace = 1
    assert events["flagged"] <= scenario.supervisor.window + grace
    assert events["flagged"] <= events["isolated"] <= events["recovered"]

    quorum = scenario.quorum.quorum
    rejoined = [
        log
        for log in result.vote_logs.values()
        if log.frame > events["recovered"] and 1 in log.prepare_signers
    ]
    assert rejoined, "recovered module never contributed a Prepare"
    assert any(len(log.prepare_signers) >= quorum for log in rejoined)


def test_criterion_09_determinism():
    scenario = load_bundled("av_plastic_bag")
    first, second = run_episode(scenario), run_episode(scenario)
    assert first.decision_log_text.encode() == second.decision_log_text.encode()
    assert first.event_log_text.encode() == second.event_log_text.encode()

    base = load_bundled("fuzz_base_n4")
    digests = {
        fuzz_campaign(base, episodes=20, seed=11).digest_hex() for _ in range(2)
    }
    assert len(digests) == 1


FASTPATH = """\
name = fastpath_check
n = 4
f = 1
frames = 2
seed = 9
consensus_mode = vote-only
strategy = fastpath

[decision_space]
labels = go hold
safe_default = hold

[modules]
0 = honest
1 = honest
2 = honest
3 = honest

[observations]
0 | go |
1 | go | 3:hold
"""


def test_criterion_10_fast_path():
    result = run_episode(parse_scenario_text(FASTPATH))
    unanimous, dissent = result.records
    assert unanimous.verdict == "decided" and unanimous.value == "go"
    assert unanimous.rounds_to_commit == 1
    assert dissent.verdict == "decided" and dissent.value == "go"
    assert dissent.rounds_to_commit == 2
