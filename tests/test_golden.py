"""Golden digests: the exact bytes the simulator produces, pinned.

Determinism tests compare one run with the next, so they cannot see a
refactor that changes behaviour the same way every time.  These pins can.
Re-pin only for a deliberate behaviour change, and give the reason in
CHANGES.md.
"""
import hashlib
import random

import pytest

from bftensemble.campaign import fuzz_campaign, randomize_episode
from bftensemble.core import canonical, digest
from bftensemble.episode import run_episode
from bftensemble.scenario import load_bundled, parse_scenario_text, scenario_to_text


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# scenario -> (SHA-256 of decision.log, SHA-256 of event.log)
EPISODE_LOGS = {
    "assistant_vetting": (
        "ca9234f382c16a3c44c99a3bf85463def78c9e2393a7df2a7f6e67d96a0fd024",
        "3bf0218351cdcc1bcea9fa21b565f10da5b688ffd2cc36bbc0569248f8a9fb5f",
    ),
    "av_missed_obstacle": (
        "14a69e79bcc3f230dcdc1b1b325b48dfb2d1b8a467cd1b46f0cb21feea9a98ae",
        "c33074e06d69d35ef8c23237787510fb454a5107b8f28e8c4ce5ef46f620181d",
    ),
    "av_plastic_bag": (
        "eeccfc624cab8754ff15c33bb8a4dc1d476107f3de299787500664cff5c073a5",
        "4371d205b52bfc62c3a72802691869093154fa75d216e2d123f14615f4a9864b",
    ),
    "common_mode_breach": (
        "81a62f5418548277994811851467c31f67497c517ffe2693ca1f6fd79f775e0d",
        "95a7556975ee3b85d4c47824e6fdef7ddfeaa8109769741e0a77c4468a9b2f64",
    ),
    "fuzz_base_n4": (
        "8f7f74e700942589b02c1a3b308e5064556a42e7db95815d659cc50e680f0e41",
        "7b147fe9bd5efcd62af6e3fb29e1b928b7f05e944e2f96fc34d73a09ffe70d36",
    ),
    "fuzz_base_n7": (
        "bc42b47d839c84241083cd822068dec910121ccbdf527ef20e6ed0409985848c",
        "4791a8d4c3b3b8b91baffd30da056f8ff80dc34543ad4a7a6eb84d82bef0d66a",
    ),
    "swarm_formation": (
        "a1b91c0899cd90eaba6cf33325d5d77855db0bca7018e634de4a5ca8d36a7589",
        "023939932c1ad0a226ebaa11dfb26d2cddd4131868f913fa3cb26899741938a9",
    ),
    "voter_thresholds_2oo3": (
        "3c8020aebd7fbe81505cd66d7dc97132926da98cd2b3acf4424d977deafc603e",
        "7525b027a760971e0cec97c12da535f5c4e8d0b20a807f1f3d72bf8e12ef5cea",
    ),
}

# fuzz_campaign(load_bundled(base), 100, 2026).digest_hex()
CAMPAIGN_REPORTS = {
    "fuzz_base_n4": "76e564451135740526d4b48b43dee623bd7f32d6fe438497e7eda0eac13ed153",
    "fuzz_base_n7": "340e643cbb1577a903dbe810b894776a232dc0e4b091d35cb43a514a339e47eb",
}

# SHA-256 over the decision and event logs of the first 40 episodes of the
# campaign at seed 2026.  The bundled scenarios never change views or
# transfer state, and a campaign report holds no log bytes; these episodes
# send every message kind.
CAMPAIGN_LOGS = {
    "fuzz_base_n4": "73b04827170e58bc75fb61c532bc180a9a354a95f88135b1cc22346b13cfa103",
    "fuzz_base_n7": "f886f0b1619148e73a53ff5766ac209eb556541342ffe227d64ba8de4dd27c0f",
    "vote_fastpath_n4": "b1e2f9fc7175ac1241987c3116a6c33ec49ae3162037db4d313bfb795f718658",
}


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


@pytest.mark.parametrize("name", sorted(CAMPAIGN_LOGS))
def test_campaign_episode_logs_are_pinned(name):
    base, seed = fuzz_base(name), 2026
    rng = random.Random(seed)  # drawn as fuzz_campaign draws its episodes
    h = hashlib.sha256()
    for index in range(40):
        episode_seed = int.from_bytes(digest(canonical("fuzz", seed, index))[:8], "big") % 2**31
        result = run_episode(randomize_episode(base, rng, episode_seed))
        h.update(result.decision_log_text.encode("utf-8"))
        h.update(result.event_log_text.encode("utf-8"))
    assert h.hexdigest() == CAMPAIGN_LOGS[name]
