"""Golden digests: the exact bytes the simulator produces, pinned.

Determinism tests compare one run with the next, so they cannot see a
refactor that changes behaviour the same way every time.  These pins can.
Re-pin only for a deliberate behaviour change, and give the reason in
CHANGES.md.
"""
import hashlib
import pickle
import random

import pytest

from bftensemble.campaign import episode_report, fuzz_campaign, randomize_episode
from bftensemble.core import OBSERVER, canonical, digest
from bftensemble.episode import run_episode
from bftensemble.messages import Reply, interned, log_prefix_digest
from bftensemble.scenario import load_bundled, parse_scenario_text, scenario_to_text
from bftensemble.simnet import World


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# scenario -> (SHA-256 of decision.log, SHA-256 of event.log)
EPISODE_LOGS = {
    "assistant_vetting": (
        "ca9234f382c16a3c44c99a3bf85463def78c9e2393a7df2a7f6e67d96a0fd024",
        "23e6bc62591115cf14ac3e0a005714ad18f09a6a5fdcffedad1015743fd0ef6a",
    ),
    "av_missed_obstacle": (
        "14a69e79bcc3f230dcdc1b1b325b48dfb2d1b8a467cd1b46f0cb21feea9a98ae",
        "6db2f2905788df43e2a746be98a6b0cd7dad358efe44c5608c007223918faf99",
    ),
    "av_plastic_bag": (
        "eeccfc624cab8754ff15c33bb8a4dc1d476107f3de299787500664cff5c073a5",
        "7367e820152aa11c2194addf2a4ec6f1c46b7b91aa59726d3a570e42fd8d0003",
    ),
    "common_mode_breach": (
        "81a62f5418548277994811851467c31f67497c517ffe2693ca1f6fd79f775e0d",
        "47075714f07be6ad30207c404a2fcb8ce0f2c115bafccd77d849cb7443919a59",
    ),
    "fuzz_base_n4": (
        "8f7f74e700942589b02c1a3b308e5064556a42e7db95815d659cc50e680f0e41",
        "aefb5c96cb75daa6114faab0bcabf16188c8498568d6a892413bb1d2e0633830",
    ),
    "fuzz_base_n7": (
        "bc42b47d839c84241083cd822068dec910121ccbdf527ef20e6ed0409985848c",
        "bcbe67d505f64e4285141a95f825c7683a5ac2ac5b8ff4b81c72db01a7dd0aa1",
    ),
    "swarm_formation": (
        "a1b91c0899cd90eaba6cf33325d5d77855db0bca7018e634de4a5ca8d36a7589",
        "1664b9cd91ee3a54e8b19707298c9af94496fae0f1d4eee44922584e672d11fa",
    ),
    "voter_thresholds_2oo3": (
        "3c8020aebd7fbe81505cd66d7dc97132926da98cd2b3acf4424d977deafc603e",
        "8d61eae2d007792d166e594a94c22a7b1e3b9bc4869cf06112ffd085404302fa",
    ),
}

# fuzz_campaign(load_bundled(base), 100, 2026).digest_hex()
CAMPAIGN_REPORTS = {
    "fuzz_base_n4": "e08cd860144ab6055391e1783aecf26a10b04fadd770c75c12a3c4cecb7500d4",
    "fuzz_base_n7": "d5a6b886918f3bb3f9a2056d2de39b9f24b5eca689afcfa5d2e736ab8504ce4e",
}

# (SHA-256 over the decision logs, SHA-256 over the event logs) of the first
# 40 episodes of the campaign at seed 2026.  The bundled scenarios never
# change views or transfer state, and a campaign report holds no log bytes;
# these episodes send every message kind.  On the fast path the observer is
# sent no digest announcements.
CAMPAIGN_LOGS = {
    "fuzz_base_n4": (
        "91bb759175fee506b9f8cd0178660dc3556af1761574175dd1ea8dca07d3445b",
        "8b72e3f4307dd95ae7337f500174ad299ae9a29e24730ac650baeaad790aaa13",
    ),
    "fuzz_base_n7": (
        "a1369ab8cfb625709b45733932398a2fc097ee18afc7b1e6a52a7332c76f014a",
        "0baa3a696bc684cd62d6120bf0d0f597ff115b49b8b67e77d0522415e9e22f53",
    ),
    "vote_fastpath_n4": (
        "0e5ca5f88ef07cf9cd586ff943c3229e2172df00a4243c551fb4e2b899446f32",
        "3559f94815e034ffdafa4496d5813df8e798686fe839cc86970e9746a41f34dc",
    ),
}

# SHA-256 of episode_report for each bundled scenario: module agreement
# rates appear only in the report.
EPISODE_REPORTS = {
    "assistant_vetting": "70169f8c291bd58aeca7ecc1073852d41b7bf10fb94f7407e45230b4ae512378",
    "av_missed_obstacle": "12f33e6d2e14b6b7733b9fb225fe1409a59da50fb9bd6cf1fdc900c14ed26f1a",
    "av_plastic_bag": "d7d6b09f7a6f7e71510564813194440b083279e6b8d9a6364c0f152a5d1c9df5",
    "common_mode_breach": "04db7a350e8b5c100a3ea4f0c8ba7a90bb5ea3152c5e4ace8f14f5af9718885f",
    "fuzz_base_n4": "68f2c3c1891a04fcec3e1a201332883478f356ce02c5fcd459d53abdb37f9710",
    "fuzz_base_n7": "81f5dada2ba9fb04b1783b54caa853e5b440eaa68d55aa09af28da7ac89505d5",
    "swarm_formation": "3f75c62ed0ef6bbd9ab6fb1305e200ed3e86e508b6b7ea1b48e7253dda896b76",
    "voter_thresholds_2oo3": "c406151e0ebe116d03c94193bc08c0f1d038f56fe6e24f53dadef5a436e8186c",
}

# Bases that run over more than one supervisor window, inlined from the
# benchmark's scenarios so that these pins do not move with the benchmark.
# The campaigns above reach no supervisor event; these reach isolation,
# restart and recovery.
SUPERVISED_BASE = """\
name = {name}
n = 4
f = 1
frames = {frames}
seed = 1
{mode}

[decision_space]
labels = continue brake swerve-left
safe_default = brake

[modules]
0 = honest
1 = honest
2 = honest
3 = honest

[network]
base_delay = 1
jitter = 0
drop_rate = 0.0
{extra}
[observations]
"""
SUPERVISED_BASES = {
    "fuzz_long_n4": dict(
        frames=20,
        mode="consensus_mode = pbft\nstrategy = majority\ntimeout_rounds = 10\ncheckpoint_interval = 5",
        extra="\n[supervisor]\nwindow = 10\n",
    ),
    "vote_fastpath": dict(frames=12, mode="consensus_mode = vote-only\nstrategy = fastpath", extra=""),
}
OBSERVED = ("continue", "brake", "continue", "swerve-left", "continue")

# (SHA-256 over the decision logs, SHA-256 over the event logs) of the first
# 40 episodes of the campaign at seed 2026.  An episode that raises
# contributes its exception type name to both instead: this records the
# silent-restart defect (a restarting silent module has no engine, and its
# first delivery raises AttributeError).
# The PBFT base gives 16 isolations, 15 restarts, 12 recoveries and 4
# AttributeErrors; the vote-only base 20 isolations, 19 restarts and 19
# recoveries.
SUPERVISED_CAMPAIGN_LOGS = {
    "fuzz_long_n4": (
        "8226143f8c031332f2117291e62826d01f1af7e1cfd102402e1af1dbb33054a6",
        "712d428b02f91bb76cfdb94b94fdc1f0f6aa74b0a260b8d9dcfc7ff44968104f",
    ),
    "vote_fastpath": (
        "8a82ad3f8bc828b273c9dae11e63f6ec87da7e73ebe334bbba126907d1c99dca",
        "956c75f18a52763ab204be5087b041ff076169f49fa16c2496219dd2eb133266",
    ),
}


def supervised_base(name: str):
    spec = SUPERVISED_BASES[name]
    text = SUPERVISED_BASE.format(name=name, **spec)
    text += "".join(f"{frame} | {OBSERVED[frame % 5]} |\n" for frame in range(spec["frames"]))
    return parse_scenario_text(text)


def campaign_episodes(base, count: int, seed: int = 2026):
    """The first ``count`` episode scenarios, drawn as fuzz_campaign draws them."""
    rng = random.Random(seed)
    for index in range(count):
        episode_seed = int.from_bytes(digest(canonical("fuzz", seed, index))[:8], "big") % 2**31
        yield randomize_episode(base, rng, episode_seed)


def fuzz_base(name: str):
    if name == "vote_fastpath_n4":
        # fuzz_base_n4 as a vote-only ensemble on the digest fast path
        text = scenario_to_text(load_bundled("fuzz_base_n4"))
        text = text.replace("consensus_mode = pbft", "consensus_mode = vote-only")
        return parse_scenario_text(text.replace("strategy = majority", "strategy = fastpath"))
    return load_bundled(name)


@pytest.mark.parametrize("name", sorted(EPISODE_LOGS))
def test_bundled_episode_logs_are_pinned(name):
    result = run_episode(load_bundled(name))
    assert (sha256(result.decision_log_text), sha256(result.event_log_text)) == EPISODE_LOGS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_REPORTS))
def test_campaign_report_is_pinned(name):
    assert fuzz_campaign(load_bundled(name), 100, 2026).digest_hex() == CAMPAIGN_REPORTS[name]


def episode_logs(scenario) -> tuple[bytes, bytes]:
    """An episode's decision log and event log, or twice the type name of
    the exception it raises."""
    try:
        result = run_episode(scenario)
    except Exception as exc:
        name = type(exc).__name__.encode("utf-8")
        return name, name
    return result.decision_log_text.encode("utf-8"), result.event_log_text.encode("utf-8")


def log_digests(logs) -> tuple[str, str]:
    """SHA-256 over the decision logs and over the event logs, in order."""
    decisions, events = hashlib.sha256(), hashlib.sha256()
    for decision, event in logs:
        decisions.update(decision)
        events.update(event)
    return decisions.hexdigest(), events.hexdigest()


def campaign_log_digests(base) -> tuple[str, str]:
    """log_digests of the first 40 campaign episodes."""
    return log_digests(map(episode_logs, campaign_episodes(base, 40)))


@pytest.mark.parametrize("name", sorted(CAMPAIGN_LOGS))
def test_campaign_episode_logs_are_pinned(name):
    assert campaign_log_digests(fuzz_base(name)) == CAMPAIGN_LOGS[name]


@pytest.mark.parametrize("name", sorted(CAMPAIGN_LOGS))
def test_campaign_episode_logs_do_not_depend_on_the_encoding_memo(name):
    """The process-wide message memos (``interned`` and the log-prefix digest)
    carry entries from one episode to the next; the bytes are the same in
    reverse order, and from cold memos."""
    scenarios = list(campaign_episodes(fuzz_base(name), 40))
    backwards = [episode_logs(scenario) for scenario in reversed(scenarios)]
    assert log_digests(reversed(backwards)) == CAMPAIGN_LOGS[name]

    def cold(scenario):
        interned.cache_clear()
        log_prefix_digest.cache_clear()
        return episode_logs(scenario)

    assert log_digests(map(cold, scenarios)) == CAMPAIGN_LOGS[name]


@pytest.mark.parametrize("name", sorted(EPISODE_LOGS) + ["fuzz_base_n4 draws", "fuzz_base_n7 draws"])
def test_scenarios_pickle_and_replay(name):
    """A scenario is plain data: a pickle round trip gives an equal scenario
    that replays the same logs.  ``<base> draws`` are the base's first 20
    campaign episodes."""
    base, _, draws = name.partition(" ")
    scenarios = list(campaign_episodes(load_bundled(base), 20)) if draws else [load_bundled(base)]
    for scenario in scenarios:
        copy = pickle.loads(pickle.dumps(scenario))
        assert copy == scenario
        assert episode_logs(copy) == episode_logs(scenario)


@pytest.mark.parametrize("name", sorted(EPISODE_REPORTS))
def test_bundled_episode_report_is_pinned(name):
    assert sha256(episode_report(run_episode(load_bundled(name)))) == EPISODE_REPORTS[name]


@pytest.mark.parametrize("name", sorted(SUPERVISED_CAMPAIGN_LOGS))
def test_supervised_campaign_logs_are_pinned(name):
    assert campaign_log_digests(supervised_base(name)) == SUPERVISED_CAMPAIGN_LOGS[name]


VOTE_ONLY_BUNDLED = [
    "assistant_vetting", "av_missed_obstacle", "av_plastic_bag", "common_mode_breach", "voter_thresholds_2oo3",
]


@pytest.mark.parametrize("name", VOTE_ONLY_BUNDLED + ["vote_fastpath"])
def test_a_vote_only_observer_is_sent_only_replies(name, monkeypatch):
    """The observer is a client in vote-only mode too: every envelope queued
    for it is a Reply, and the decisions are the pinned ones.  For
    ``vote_fastpath``, the inlined base, these are its first 40 campaign
    episodes, which draw equivocators, drops and jitter."""
    kinds = []
    send = World.send

    def recording(world, frm, to, payload):
        queued = len(world._queue)
        send(world, frm, to, payload)
        kinds.extend(type(env.payload.msg) for env in world._queue[queued:] if env.to == OBSERVER)

    monkeypatch.setattr(World, "send", recording)
    if name == "vote_fastpath":
        decisions = hashlib.sha256()
        for scenario in campaign_episodes(supervised_base(name), 40):
            decisions.update(run_episode(scenario).decision_log_text.encode("utf-8"))
        assert decisions.hexdigest() == SUPERVISED_CAMPAIGN_LOGS[name][0]
    else:
        assert sha256(run_episode(load_bundled(name)).decision_log_text) == EPISODE_LOGS[name][0]
    assert kinds and set(kinds) == {Reply}


def vote_log_text(result) -> str:
    """One line per frame of an episode's vote logs: frame, decided view, and
    the sorted Prepare and Commit signers."""
    return "".join(
        f"{log.frame}|{log.view}|{sorted(log.prepare_signers)}|{sorted(log.commit_signers)}\n"
        for log in sorted(result.vote_logs.values(), key=lambda log: log.frame)
    )


# SHA-256 of vote_log_text for each bundled scenario, and over the first 40
# seed-2026 campaign episodes of each supervised base (an episode that raises
# adds its exception type name).  Only the PBFT runner writes vote logs, so
# the vote-only entries are the digest of no bytes.
VOTE_LOGS = {
    "assistant_vetting": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "av_missed_obstacle": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "av_plastic_bag": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "common_mode_breach": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "fuzz_base_n4": "e8c455340978d9663931f6d4a809b077b4ee2edd662119657c506aaa66fd72e7",
    "fuzz_base_n7": "1b89a3710675627bb20aa83d8c96b243dad19b2065970b1ee5665f3d03f5f709",
    "fuzz_long_n4": "f6eb12099bb2b3ade5f1df0f6f1d811cf90c3e7674731de4f000417dfa53a0c6",
    "swarm_formation": "09bb9fe6780ed66d41d2d6ff755089796ef1126da9efd2618eac69194b6ac931",
    "vote_fastpath": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "voter_thresholds_2oo3": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
}


def vote_log_digest(name: str) -> str:
    if name not in SUPERVISED_BASES:
        return sha256(vote_log_text(run_episode(load_bundled(name))))
    h = hashlib.sha256()
    for scenario in campaign_episodes(supervised_base(name), 40):
        try:
            h.update(vote_log_text(run_episode(scenario)).encode("utf-8"))
        except Exception as exc:
            h.update(type(exc).__name__.encode("utf-8"))
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(VOTE_LOGS))
def test_vote_logs_are_pinned(name):
    assert vote_log_digest(name) == VOTE_LOGS[name]
