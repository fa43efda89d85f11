"""Scenario grammar: parsing, validation, round-trip, bundled files."""

from dataclasses import fields

import pytest

from bftensemble.harness import PROFILE_OPTIONS, FaultProfile
from bftensemble.scenario import (
    NETWORK_KEYS,
    SUPERVISOR_KEYS,
    TOP_KEYS,
    Scenario,
    ScenarioError,
    bundled_scenario_path,
    load_bundled,
    parse_scenario_text,
    scenario_to_text,
)
from bftensemble.simnet import NetworkPolicy
from bftensemble.supervisor import SupervisorConfig

BUNDLED = [
    "av_plastic_bag",
    "av_missed_obstacle",
    "assistant_vetting",
    "swarm_formation",
    "common_mode_breach",
    "voter_thresholds_2oo3",
    "fuzz_base_n4",
    "fuzz_base_n7",
]

MINIMAL = """\
name = minimal
n = 4
f = 1
frames = 2
seed = 3

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
1 | go |
"""


def test_minimal_scenario_parses():
    s = parse_scenario_text(MINIMAL)
    assert s.name == "minimal"
    assert s.quorum.n == 4 and s.quorum.f == 1
    assert s.frames == 2 and s.seed == 3
    assert s.decision_space.labels == ("go", "hold")
    assert s.decision_space.safe_default == "hold"
    assert len(s.modules) == 4
    assert all(p.kind == "honest" for p in s.modules)
    assert s.observations.ground_truth[0] == "go"


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_parse(name):
    s = load_bundled(name)
    assert s.name == name
    assert bundled_scenario_path(name).exists()


def test_unknown_bundled_name():
    with pytest.raises(FileNotFoundError):
        bundled_scenario_path("no_such_scenario")


@pytest.mark.parametrize("name", BUNDLED)
def test_round_trip(name):
    s = load_bundled(name)
    again = parse_scenario_text(scenario_to_text(s), source=name)
    assert again == s


def test_with_seed():
    s = load_bundled("swarm_formation")
    t = s.with_seed(99)
    assert t.seed == 99 and t.network.seed == 99
    assert t.name == s.name and t.modules == s.modules
    assert s.seed != 99  # original untouched


def test_missing_required_keys_collected_together():
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text("name = broken\n")
    msg = str(exc.value)
    for key in ("'n'", "'f'", "'frames'"):
        assert key in msg
    assert "decision space" in msg


def test_resilience_criterion_enforced():
    text = MINIMAL.replace("n = 4", "n = 5").replace(
        "3 = honest", "3 = honest\n4 = honest"
    )
    with pytest.raises(ScenarioError, match=r"3f\+1"):
        parse_scenario_text(text)
    # vote-only mode does not replicate, so any n may vote
    s = parse_scenario_text("consensus_mode = vote-only\n" + text)
    assert s.quorum.n == 5


def test_too_few_replicas_never_allowed():
    text = MINIMAL.replace("n = 4", "n = 3").replace("3 = honest\n", "")
    with pytest.raises(ScenarioError, match=r"requires n = 3f\+1 = 4"):
        parse_scenario_text(text)


def test_pbft_above_3f_plus_1_is_refused_with_no_override():
    """With n=6 and f=1 a quorum is 2f+1 = 3, so two halves of a partition
    commit apart: six honest modules that observe differently would commit
    different values.  PBFT runs at n = 3f+1 only, and no key relaxes that."""
    modules = "".join(f"{m} = honest\n" for m in range(6))
    text = (
        MINIMAL.replace("n = 4", "n = 6")
        .replace("0 = honest\n1 = honest\n2 = honest\n3 = honest\n", modules)
        .replace("[observations]", "[network]\npartition = 0:60 0,1,2|3,4,5\n\n[observations]")
        .replace("1 | go |", "1 | go | 3:hold 4:hold 5:hold")
    )
    text = "timeout_rounds = 3\n" + text
    with pytest.raises(ScenarioError, match=r"n=6 with f=1: pbft mode requires n = 3f\+1 = 4"):
        parse_scenario_text(text)
    with pytest.raises(ScenarioError, match="unknown key 'n_override'"):
        parse_scenario_text("n_override = true\n" + text)


def test_unknown_label_in_profile():
    text = MINIMAL.replace("1 = honest", "1 = byzantine_fixed label=warp")
    with pytest.raises(ScenarioError, match="warp"):
        parse_scenario_text(text)


def test_unknown_label_in_observations():
    text = MINIMAL.replace("0 | go |", "0 | sideways |")
    with pytest.raises(ScenarioError, match="sideways"):
        parse_scenario_text(text)


def test_byzantine_count_above_f_needs_declaration():
    text = MINIMAL.replace("1 = honest", "1 = silent").replace(
        "2 = honest", "2 = crash at_frame=0"
    )
    with pytest.raises(ScenarioError, match="expects_violation"):
        parse_scenario_text(text)
    s = parse_scenario_text("expects_violation = true\n" + text)
    assert s.expects_violation


def test_module_ids_must_cover_range():
    text = MINIMAL.replace("3 = honest", "4 = honest")
    with pytest.raises(ScenarioError, match="exactly ids"):
        parse_scenario_text(text)


def test_multiple_errors_reported_at_once():
    text = (
        MINIMAL.replace("1 = honest", "1 = byzantine_fixed label=warp")
        .replace("0 | go |", "0 | sideways |")
        .replace("n = 4", "n = 5")
    )
    with pytest.raises(ScenarioError) as exc:
        parse_scenario_text(text)
    assert len(exc.value.errors) >= 3


def test_comments_and_blank_lines_ignored():
    text = "# header comment\n\n" + MINIMAL.replace(
        "0 = honest", "0 = honest  # trailing comment"
    )
    s = parse_scenario_text(text)
    assert s.modules[0].kind == "honest"


def test_defaults():
    s = parse_scenario_text(MINIMAL)
    assert s.consensus_mode == "pbft"
    assert s.timeout_rounds == 10
    assert s.strategy.describe() == "majority"
    assert s.network.drop_rate == 0.0
    assert s.supervise


def test_bad_consensus_mode():
    with pytest.raises(ScenarioError, match="consensus_mode"):
        parse_scenario_text("consensus_mode = paxos\n" + MINIMAL)


# Every key of every section, and every profile option, set away from its
# default.  No bundled file sets most of these.
EVERY_KEY = """\
name = every_key
n = 8
f = 1
frames = 3
seed = -7
consensus_mode = vote-only
strategy = k_of_n:3
timeout_rounds = 4
checkpoint_interval = 2
supervise = false
expects_violation = true

[decision_space]
labels = go hold swerve
safe_default = swerve

[modules]
0 = honest
1 = diverse_honest error_rate=0.25 perturb_seed=-3
2 = crash at_frame=2 on_restart=honest
3 = silent
4 = slow delay=3
5 = byzantine_fixed label=hold on_restart=honest
6 = byzantine_random perturb_seed=11
7 = byzantine_equivocate a=go b=swerve

[network]
base_delay = 2
jitter = 1
drop_rate = 0.05
partition = 1:4 0,1|2,3
partition = 6:6 4|5,6,7

[supervisor]
window = 3
flag_threshold = 0.5
restart_delay = 1

[observations]
0 | go | 1:hold 3:swerve
1 | hold! |
2 | swerve | 0:go
"""


def test_every_key_round_trips_away_from_its_default():
    s = parse_scenario_text(EVERY_KEY)
    assert parse_scenario_text(scenario_to_text(s)) == s
    assert scenario_to_text(parse_scenario_text(scenario_to_text(s))) == scenario_to_text(s)

    top_defaults = {fld.name: fld.default for fld in fields(Scenario)}
    for key, (attr, _) in TOP_KEYS.items():
        assert getattr(s, attr) != top_defaults[attr], key
    for table, obj, default in (
        (NETWORK_KEYS, s.network, NetworkPolicy()),
        (SUPERVISOR_KEYS, s.supervisor, SupervisorConfig()),
    ):
        for key, (attr, _) in table.items():
            assert getattr(obj, attr) != getattr(default, attr), key
    assert len(s.network.partitions) == 2
    assert {p.kind for p in s.modules} == set(FaultProfile.KIND_OPTIONS)
    for key, (attr, _) in PROFILE_OPTIONS.items():
        assert any(getattr(p, attr) != getattr(FaultProfile, attr) for p in s.modules), key


@pytest.mark.parametrize(
    "text, message",
    [
        ("timeout_round = 3\n" + MINIMAL, "unknown key 'timeout_round'"),
        (MINIMAL + "[netwrok]\nbase_delay = 1\n", r"unknown section \[netwrok\]"),
        ("seed = 4\n" + MINIMAL, "duplicate key 'seed'"),
        ("supervise = ture\n" + MINIMAL, "bad value 'ture' for supervise"),
        (MINIMAL.replace("0 = honest", "0 = honest delay=3"), "unknown key 'delay'"),
        (MINIMAL + "[network]\nbase_dealy = 2\n", "unknown key 'base_dealy'"),
        (MINIMAL + "[supervisor]\nwindow = 2\nwindow = 3\n", "duplicate key 'window'"),
        (MINIMAL.replace("safe_default = hold", "safe_defualt = hold"), "unknown key 'safe_defualt'"),
    ],
    ids=["misspelt-top-key", "unknown-section", "duplicate-seed", "bool-typo",
         "option-foreign-to-kind", "misspelt-network-key", "duplicate-supervisor-key",
         "misspelt-decision-space-key"],
)
def test_unknown_duplicate_and_unreadable_keys_are_errors(text, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario_text(text)


@pytest.mark.parametrize(
    "text, message",
    [
        (MINIMAL.replace("frames = 2", "frames = 0"), "for frames: must be >= 1"),
        ("timeout_rounds = 0\n" + MINIMAL, "for timeout_rounds: must be >= 1"),
        ("timeout_rounds = -4\n" + MINIMAL, "for timeout_rounds: must be >= 1"),
        ("checkpoint_interval = 0\n" + MINIMAL, "for checkpoint_interval: must be >= 1"),
        (MINIMAL + "[network]\npartition = 5:2 0|1\n", "after its end"),
        (MINIMAL + "[network]\npartition = 1:2 0|4\n", "outside 0..n-1"),
        (MINIMAL + "1 | hold |\n", "second observation row for frame 1"),
        (MINIMAL + "2 | go |\n", "frame 2: no such frame"),
        (MINIMAL.replace("0 = honest", "0 = diverse_honest error_rate=1.5"), r"outside \[0, 1\]"),
        (MINIMAL + "[supervisor]\nwindow = 99999999999999999999\n", "outside the signed 64-bit range"),
        (MINIMAL.replace("labels = go hold", "labels = go hold -"), "label '-' cannot be logged"),
        (MINIMAL.replace("labels = go hold", "labels = go hold|on"), "label 'hold|on' cannot be logged"),
        (MINIMAL.replace("n = 4", "n = 99999999999999999999"), r"must define exactly ids 0\.\.99999999999999999998"),
        (MINIMAL.replace("frames = 2", "frames = 99999999999999999999999"),
         "^frame 2: missing ground truth;.*; 99999999999999999999992 more frames missing ground truth$"),
        (MINIMAL.replace("frames = 2", "frames = 3000000"), "; 2999993 more frames missing ground truth$"),
        ("strategy = k_of_n:5\n" + MINIMAL, r"strategy k_of_n:5 needs 5 votes for a value, more than n=4"),
        ("strategy = unanimity\n" + MINIMAL, r"strategy unanimity is vote-only: pbft mode takes only majority \(2f\+1 Commits\)"),
    ],
    ids=["frames-0", "timeout-0", "timeout-negative", "checkpoint-interval-0",
         "partition-start-after-end", "partition-unknown-module",
         "second-row-for-frame", "row-past-last-frame", "error-rate-above-1",
         "window-above-int64", "label-dash", "label-with-bar",
         "n-huge", "frames-huge", "frames-3-million", "k-above-n",
         "pbft-strategy"],
)
def test_values_no_run_could_use_are_errors(text, message):
    with pytest.raises(ScenarioError, match=message):
        parse_scenario_text(text)
