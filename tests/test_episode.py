"""The observer's side of `EpisodeRunner._run_frame`: which Replies it keeps,
and when f+1 matching Replies finalize a frame: PBFT mode keeps them with
`_observe_reply`, vote-only mode with `_deliver_window`, and both count them
with `_reply_quorum`.  Also what `supervise = false` turns off,
what the observer receives, whose vote a vote-only Output counts as, that a
restarted vote-only module recovers, that a module restarted as honest is
judged by its new profile and a slow one loses its delay, that an
equivocator never agrees, that split honest vote-only verdicts are flagged,
that the observer judges no output itself, names as supporters the modules
that output the finalized value and is sent no fast-path digest, that a
slow module's Replies land in their own frame, so no vote-only frame
leaves an envelope queued for the next, that
restart phases run only while the supervisor holds a module, that the
world delivers nothing to a module taking no part in the frame, which
moves no decision and removes only that module's event lines, that the
network carries no re-send whose earlier copy reaches the recipient first,
which moves no decision and removes only those event lines, that an
episode leaves no reference cycle, one campaign episode that once broke the
liveness bound, that long network delays cost no empty rounds, and that the
event log renders from the delivery record alone."""
import gc
import hashlib
import random
from collections import defaultdict
from dataclasses import replace

import pytest

from bftensemble import episode, messages
from bftensemble.campaign import randomize_episode
from bftensemble.consensus import EquivocatingReplica, Replica
from bftensemble.core import OBSERVER, KeyRegistry, canonical, digest
from bftensemble.episode import EpisodeRunner, liveness_bound, run_episode
from bftensemble.messages import Output, Reply, Signed, sign_message
from bftensemble.scenario import load_bundled, parse_scenario_text, scenario_to_text
from bftensemble.simnet import Envelope, World
from bftensemble.supervisor import Supervisor
from bftensemble.voter import VoteStrategy

from test_golden import campaign_episodes, supervised_base


@pytest.fixture(params=["fuzz_base_n4", "fuzz_base_n7"])
def runner(request):
    return EpisodeRunner(load_bundled(request.param))


def envelope(payload, to=OBSERVER):
    return Envelope(
        frm=payload.sender, to=to, payload=payload, kind="reply",
        send_round=0, deliver_round=1, seq=0, log_tag="",
    )


def reply(runner, sender, label, frame=0):
    value = runner.s.decision_space.value(label)
    return sign_message(runner.registry, sender, Reply(frame, value))


def observe(runner, votes, frame=0):
    """Feed (sender, label) Replies to the observer in order; return the
    quorum value, or None."""
    replies = {}
    for sender, label in votes:
        runner._observe_reply(replies, envelope(reply(runner, sender, label)), frame)
    return runner._reply_quorum(replies)


@pytest.mark.parametrize("first, second", [("continue", "brake"), ("brake", "continue")])
def test_two_quorums_decide_the_lower_label(runner, first, second):
    f = runner.f
    votes = [(m, first) for m in range(f + 1)] + [(m, second) for m in range(f + 1, 2 * f + 2)]
    assert observe(runner, votes) == "brake"


def test_f_matching_replies_decide_nothing(runner):
    f = runner.f
    assert observe(runner, [(m, "brake") for m in range(f)]) is None
    others = [(m, "continue") for m in range(f, 2 * f)]
    assert observe(runner, [(m, "brake") for m in range(f)] + others) is None
    assert observe(runner, [(m, "brake") for m in range(f + 1)]) == "brake"


def test_duplicate_replies_from_one_sender_count_once(runner):
    f = runner.f
    votes = [(m, "brake") for m in range(f)] + [(0, "brake")] * 3
    assert observe(runner, votes) is None
    # a sender's first Reply stands; a later, different one is ignored
    votes = [(0, "continue")] + [(m, "brake") for m in range(f + 1)]
    assert observe(runner, votes) is None


def test_only_verified_replies_for_this_frame_reach_the_count(runner):
    f = runner.f
    replies = {}
    for m in range(f):
        runner._observe_reply(replies, envelope(reply(runner, m, "brake")), 0)
    honest = reply(runner, f, "brake")
    forged = Signed(honest.msg, f, reply(runner, 0, "brake").tag)
    rejected = [envelope(forged), envelope(reply(runner, f, "brake", frame=1))]
    for env in rejected:
        runner._observe_reply(replies, env, 0)
    assert runner._reply_quorum(replies) is None and len(replies) == f
    runner._observe_reply(replies, envelope(honest), 0)
    assert runner._reply_quorum(replies) == "brake"


def deviant_scenario(mode: str, supervise: bool):
    """fuzz_base_n4 with module 3 always reporting a wrong label, judged over
    two-frame windows, so a deviant is flagged within its five frames."""
    text = scenario_to_text(load_bundled("fuzz_base_n4"))
    text = text.replace("3 = honest", "3 = byzantine_fixed label=swerve-left")
    text = text.replace("window = 10", "window = 2")
    text = text.replace("consensus_mode = pbft", f"consensus_mode = {mode}")
    return parse_scenario_text(text.replace("supervise = true", f"supervise = {str(supervise).lower()}"))


@pytest.mark.parametrize("mode", ["pbft", "vote-only"])
def test_supervise_false_never_judges_a_module(mode):
    supervised = run_episode(deviant_scenario(mode, supervise=True))
    assert any("|SUPERVISOR|" in line for line in supervised.decision_log)
    assert supervised.module_agreement[3] < 1.0

    result = run_episode(deviant_scenario(mode, supervise=False))
    assert not any("|SUPERVISOR|" in line for line in result.decision_log)
    assert result.supervisor_events == []
    assert result.module_agreement == {m: 1.0 for m in range(4)}


def test_a_vote_only_output_counts_as_its_signers_vote():
    """An Output names no module, and module 2 relays one that module 1
    signed.  A vote is keyed by its authenticated sender, so this is module
    1's vote, and module 2 has cast none; the same window delivers module
    1's Reply to the observer."""
    runner = EpisodeRunner(load_bundled("av_plastic_bag"))
    label = runner.s.decision_space.labels[0]
    runner.world.send(2, 0, sign_message(runner.registry, 1, Output(0, label)))
    runner.world.send(1, OBSERVER, sign_message(runner.registry, 1, Reply(0, label)))
    outputs, digests = defaultdict(dict), defaultdict(dict)
    runner._deliver_window(0, outputs, digests)
    assert outputs == {0: {1: label}, OBSERVER: {1: label}} and digests == {}


@pytest.mark.parametrize("made", ["signed", "built-directly", "forged-tag", "other-master-seed"])
def test_a_vote_is_kept_only_under_a_tag_that_verifies(made):
    """A vote ``sign_message`` made with the runner's registry passes on its
    stamp; any other is checked by MAC, and only a valid tag is kept."""
    runner = EpisodeRunner(load_bundled("av_plastic_bag"))
    label = runner.s.decision_space.labels[0]
    msg = Output(0, label)
    vote = {
        "signed": lambda: sign_message(runner.registry, 1, msg),
        "built-directly": lambda: Signed(msg, 1, sign_message(runner.registry, 1, msg).tag),
        "forged-tag": lambda: Signed(msg, 1, bytes(16)),
        "other-master-seed": lambda: sign_message(KeyRegistry(runner.s.seed + 1, range(runner.n)), 1, msg),
    }[made]()
    runner.world.send(1, 0, vote)
    outputs, digests = defaultdict(dict), defaultdict(dict)
    runner._deliver_window(0, outputs, digests)
    assert outputs == ({0: {1: label}} if made in ("signed", "built-directly") else {}) and digests == {}


def test_a_restarted_vote_only_module_recovers_at_the_end_of_its_restart_frame():
    """A vote-only module holds no replicated state: once restarted it is
    back at the end of that frame, and it never asks for state."""
    result = run_episode(deviant_scenario("vote-only", supervise=True))
    assert result.supervisor_events == [
        (1, 3, "flagged"), (1, 3, "isolated"), (3, 3, "restarting"), (3, 3, "recovered"),
    ]
    assert not any("|staterequest|" in line for line in result.event_log)


def test_pbft_traffic_stops_at_the_replicas():
    """The observer is the client: of the PBFT kinds it receives only Replies."""
    rng = random.Random(2026)
    base = load_bundled("fuzz_base_n4")
    scenarios = [deviant_scenario("pbft", supervise=True)]
    scenarios += [randomize_episode(base, rng, seed) for seed in range(30)]
    between_modules = set()
    for scenario in scenarios:
        for line in run_episode(scenario).event_log:
            _, _, to, kind, _ = line.split("|")
            if int(to) == OBSERVER:
                assert kind == "reply", line
            else:
                between_modules.add(kind)
    assert between_modules >= {
        "preprepare", "prepare", "commit", "viewchange", "newview", "staterequest",
    }


def restarted_scenario(mode: str, profile: str, on_restart: str = "honest"):
    """fuzz_base_n4 over twelve ``continue`` frames, with module 3 running
    ``profile`` until its first restart, and after it honest or, with
    ``on_restart = same``, ``profile`` again."""
    text = scenario_to_text(load_bundled("fuzz_base_n4"))
    text = text.split("[observations]")[0] + "[observations]\n"
    text += "".join(f"{k} | continue |\n" for k in range(12))
    text = text.replace("frames = 5", "frames = 12")
    text = text.replace("3 = honest", f"3 = {profile} on_restart={on_restart}")
    text = text.replace("window = 10", "window = 2").replace("flag_threshold = 0.3", "flag_threshold = 0.5")
    return parse_scenario_text(text.replace("consensus_mode = pbft", f"consensus_mode = {mode}"))


@pytest.mark.parametrize("mode", ["pbft", "vote-only"])
@pytest.mark.parametrize(
    "profile", ["byzantine_fixed label=brake", "byzantine_equivocate a=continue b=brake"]
)
def test_a_module_restarted_honest_is_judged_by_its_new_profile(mode, profile):
    """Once restarted as honest, a former equivocator is no longer counted as
    one: like any other faulty kind it goes through one cycle and then
    agrees on every judged frame."""
    result = run_episode(restarted_scenario(mode, profile))
    isolations = [frame for frame, m, event in result.supervisor_events if event == "isolated"]
    assert isolations == [1]
    assert result.module_agreement[3] == pytest.approx(0.8)


@pytest.mark.parametrize("mode", ["pbft", "vote-only"])
def test_an_equivocator_never_agrees_and_is_flagged_once_its_window_is_full(mode):
    """An equivocator's output is a pair, so it agrees on no judged frame,
    even though one of its labels is the committed value: with two-frame
    windows it is flagged and isolated at frame 1, and it is judged the
    same way after its restart."""
    result = run_episode(restarted_scenario(mode, "byzantine_equivocate a=continue b=brake", on_restart="same"))
    assert {r.value for r in result.records} == {"continue"}
    assert result.supervisor_events[:2] == [(1, 3, "flagged"), (1, 3, "isolated")]
    assert result.module_agreement == {0: 1.0, 1: 1.0, 2: 1.0, 3: 0.0}


SPLIT_VOTE = """\
name = split_vote
n = 4
f = 1
frames = 1
consensus_mode = vote-only
strategy = k_of_n:2

[decision_space]
labels = go stop
safe_default = stop

[modules]
0 = honest
1 = honest
2 = honest
3 = byzantine_equivocate a=go b=stop

[network]
partition = 0:100 0|1,2

[observations]
0 | go | 1:stop 2:stop
"""


def test_honest_vote_only_verdicts_that_split_flag_an_agreement_violation():
    """Cut off from modules 1 and 2, module 0 holds its own ``go`` and the
    equivocator's ``go``, and decides it; modules 1 and 2 observe ``stop``
    and decide that, as the Replies do.  The split flag comes after the
    ground-truth mismatch."""
    result = run_episode(parse_scenario_text(SPLIT_VOTE))
    assert result.decision_log == ["0|decided|stop|1,2,3|1|0|ground-truth-mismatch,agreement-violation"]
    assert result.agreement_violations == [0]


FAST_PATH_FRAMES = """\
name = fast_path_frames
n = 4
f = 1
frames = 2
consensus_mode = vote-only
strategy = fastpath

[decision_space]
labels = go stop
safe_default = stop

[modules]
0 = honest
1 = honest
2 = honest
3 = honest

[observations]
0 | go |
1 | go | 1:stop
"""


def test_the_observer_judges_no_output_itself(monkeypatch):
    """Only the modules taking part run ``fast_path_agree``, once each, on a
    frame that closes in one round and on one that needs two: the outputs
    the modules sent only name the supporters, on either frame."""
    calls = []
    real = episode.fast_path_agree
    monkeypatch.setattr(episode, "fast_path_agree", lambda *args: calls.append(args) or real(*args))
    runner = EpisodeRunner(parse_scenario_text(FAST_PATH_FRAMES))
    assert runner._run_frame(0).line() == "0|decided|go|0,1,2,3|1|0|-"
    assert len(calls) == 4
    assert runner._run_frame(1).line() == "1|decided|go|0,2,3|2|0|-"
    assert len(calls) == 4 + 4


def test_supporters_are_the_modules_that_output_the_value_not_those_that_replied_it():
    """On ``av_plastic_bag`` module 4 outputs ``brake``, tallies the
    majority and replies ``continue``, and that Reply reaches the observer;
    the observer is sent no output, yet module 4 supports no frame."""
    result = run_episode(load_bundled("av_plastic_bag"))
    frames = range(len(result.records))
    sent = [tuple(line.split("|")[1:]) for line in result.event_log]  # (from, to, kind, digest)
    assert {kind for _, to, kind, _ in sent if to == str(OBSERVER)} == {"reply"}
    from_4 = {(to, kind, short) for frm, to, kind, short in sent if frm == "4"}
    assert {(str(OBSERVER), "reply", Reply(k, "continue").short_hex()) for k in frames} <= from_4
    assert {("0", "output", Output(k, "brake").short_hex()) for k in frames} <= from_4
    assert [(r.value, r.supporters) for r in result.records] == [("continue", (0, 1, 2, 3))] * len(frames)


@pytest.mark.parametrize(
    "module_3, decisions",
    [
        ("honest", ["0|decided|go|0,1,2,3|1|0|-", "1|decided|go|0,2,3|2|0|-"]),
        ("byzantine_equivocate a=go b=stop", ["0|decided|go|0,1,2|2|0|-", "1|no-quorum|-|-|2|0|-"]),
    ],
)
def test_fast_path_digests_go_to_the_peers_only(module_3, decisions):
    """The observer is a client: it is sent no digest announcement, an
    equivocator's included, and no output on a two-round frame either, yet
    it decides as when it was sent both."""
    result = run_episode(parse_scenario_text(FAST_PATH_FRAMES.replace("3 = honest", f"3 = {module_3}")))
    assert result.decision_log == decisions
    assert any(record.rounds_to_commit == 2 for record in result.records)
    to_observer = [line.split("|")[1:4] for line in result.event_log if line.split("|")[2] == str(OBSERVER)]
    assert to_observer and {kind for _, _, kind in to_observer} == {"reply"}


def test_a_slow_modules_reply_lands_in_its_own_frame():
    """Module 3 of the benchmark's fast-path base is slow by two rounds.
    Its digests and its Replies land within the frame's windows, so every
    frame closes in one round and names module 3 a supporter."""
    text = scenario_to_text(supervised_base("vote_fastpath"))
    result = run_episode(parse_scenario_text(text.replace("3 = honest", "3 = slow delay=2")))
    records = [(r.verdict, r.supporters, r.rounds_to_commit, r.flags) for r in result.records]
    assert records == [("decided", (0, 1, 2, 3), 1, ())] * 12


@pytest.mark.parametrize("name", ["vote_fastpath", "av_plastic_bag"])
def test_every_vote_only_frame_delivers_all_it_sent(name):
    """A vote-only window delivers everything sent at its start, a slow
    module's Replies too, so no frame of a campaign's first 100 episodes
    leaves an envelope queued for the next frame."""
    base = supervised_base(name) if name == "vote_fastpath" else load_bundled(name)
    left = []
    for index, scenario in enumerate(campaign_episodes(base, 100)):
        runner = EpisodeRunner(scenario)
        for frame in range(scenario.frames):
            runner._run_frame(frame)
            if runner.world._queue:
                left.append((index, frame))
    assert left == []


def counting_module_rng(monkeypatch) -> list[int]:
    """The module id of every random stream the runner seeds."""
    calls = []
    real = episode.module_rng
    monkeypatch.setattr(episode, "module_rng", lambda seed, m, *a: calls.append(m) or real(seed, m, *a))
    return calls


def test_only_a_drawing_profile_gets_a_random_stream(monkeypatch):
    calls = counting_module_rng(monkeypatch)
    run_episode(load_bundled("fuzz_base_n7"))
    assert calls == []
    text = scenario_to_text(load_bundled("fuzz_base_n7"))
    text = text.replace("2 = honest", "2 = diverse_honest error_rate=0.3")
    run_episode(parse_scenario_text(text.replace("5 = honest", "5 = byzantine_random")))
    assert calls == [2, 5]


@pytest.mark.parametrize("on_restart", ["same", "honest"])
def test_a_restart_seeds_a_stream_only_for_a_drawing_profile(monkeypatch, on_restart):
    """A module that always errs is restarted; only a restart back into
    ``diverse_honest`` seeds it a new stream."""
    calls = counting_module_rng(monkeypatch)
    result = run_episode(restarted_scenario("pbft", "diverse_honest error_rate=1.0", on_restart))
    restarts = [frame for frame, m, event in result.supervisor_events if event == "restarting"]
    assert restarts
    assert calls == [3] * (1 + len(restarts) if on_restart == "same" else 1)


SLOW_THEN_HONEST = """\
name = slow_then_honest
n = 4
f = 1
frames = 5
consensus_mode = {mode}

[decision_space]
labels = go hold
safe_default = hold

[modules]
0 = honest
1 = honest
2 = honest
3 = slow delay=2 on_restart=honest

[supervisor]
window = 2
flag_threshold = 0.5
restart_delay = 1

[observations]
0 | go | 3:hold
1 | go | 3:hold
2 | go |
3 | go |
4 | go |
"""


def counting_due_for_restart(monkeypatch) -> list[int]:
    """The frame of every ``Supervisor.due_for_restart`` call."""
    calls = []
    real = Supervisor.due_for_restart
    monkeypatch.setattr(Supervisor, "due_for_restart", lambda sup, frame: calls.append(frame) or real(sup, frame))
    return calls


@pytest.mark.parametrize("mode", ["pbft", "vote-only"])
def test_restart_phases_run_only_while_the_supervisor_holds_a_module(monkeypatch, mode):
    """An episode that isolates no module never asks for due restarts; one
    that isolates module 3 at frame 1 asks only at frame 2, where the
    module restarts and recovers."""
    calls = counting_due_for_restart(monkeypatch)
    text = scenario_to_text(load_bundled("fuzz_base_n4"))
    result = run_episode(parse_scenario_text(text.replace("consensus_mode = pbft", f"consensus_mode = {mode}")))
    assert result.supervisor_events == [] and calls == []
    result = run_episode(parse_scenario_text(SLOW_THEN_HONEST.format(mode=mode)))
    assert result.supervisor_events == [
        (1, 3, "flagged"), (1, 3, "isolated"), (2, 3, "restarting"), (2, 3, "recovered"),
    ]
    assert calls == [2]


@pytest.mark.parametrize("mode", ["pbft", "vote-only"])
def test_a_slow_module_restarted_honest_loses_its_delay(mode):
    """The network delays a slow module's sends only while it runs the slow
    profile: once restarted as honest, its sends take the base delay."""
    runner = EpisodeRunner(parse_scenario_text(SLOW_THEN_HONEST.format(mode=mode)))
    assert runner.world.slow_extra == {3: 2}
    result = runner.run()
    assert result.supervisor_events == [
        (1, 3, "flagged"), (1, 3, "isolated"), (2, 3, "restarting"), (2, 3, "recovered"),
    ]
    assert runner.profiles[3].kind == "honest"
    assert runner.world.slow_extra == {}


@pytest.mark.parametrize("at_frame", [0, 2])
@pytest.mark.parametrize(
    "mode, strategy", [("pbft", "majority"), ("vote-only", "majority"), ("vote-only", "fastpath")]
)
def test_a_crashed_module_takes_part_in_no_later_frame(mode, strategy, at_frame):
    """In either mode a module crashed at frame k replies for frames before k
    only, and one crashed from the start sends nothing at all."""
    text = scenario_to_text(load_bundled("fuzz_base_n4"))
    text = text.replace("3 = honest", f"3 = crash at_frame={at_frame}")
    text = text.replace("consensus_mode = pbft", f"consensus_mode = {mode}")
    scenario = parse_scenario_text(text.replace("strategy = majority", f"strategy = {strategy}"))
    sent = [line.split("|") for line in run_episode(scenario).event_log]
    sent = [tag for _, frm, _, *tag in sent if frm == "3"]
    replies = {tuple(tag) for tag in sent if tag[0] == "reply"}
    truth = scenario.observations.ground_truth
    assert replies == {("reply", Reply(k, truth[k]).short_hex()) for k in range(at_frame)}
    if at_frame == 0:
        assert sent == []


@pytest.mark.parametrize("name, module", [("fuzz_base_n4", 3), ("av_plastic_bag", 2)])
def test_a_silent_module_is_delivered_nothing(name, module):
    """A silent module takes part in no frame, so the world neither queues
    nor records an envelope to it, in either mode; the others still hear
    each other."""
    text = scenario_to_text(load_bundled(name)).replace(f"{module} = honest", f"{module} = silent")
    scenario = parse_scenario_text(text)
    assert scenario.modules[module].kind == "silent"
    recipients = {int(line.split("|")[2]) for line in run_episode(scenario).event_log}
    assert module not in recipients
    assert recipients >= set(range(scenario.quorum.n)) - {module}


def deliver_to_every_module(monkeypatch) -> dict[int, tuple]:
    """Make the world queue, draw for and record every envelope to a module
    that is not isolated, as if no module were absent, and hand the runner
    only the envelopes to modules that are not absent.  Returns each
    delivering round's absent modules."""
    absent_at = {}
    send, advance = World.send, World.advance_round

    def sending(world, frm, to, payload):
        absent, world.absent = world.absent, world.isolated
        send(world, frm, to, payload)
        world.absent = absent

    def advancing(world):
        absent, world.absent = world.absent, world.isolated
        due = advance(world)
        world.absent = absent_at[world.round] = absent
        return [env for env in due if env.to not in absent]

    monkeypatch.setattr(World, "send", sending)
    monkeypatch.setattr(World, "advance_round", advancing)
    return absent_at


@pytest.mark.parametrize("name", ["fuzz_base_n7", "fuzz_long_n4", "vote_fastpath"])
def test_what_absent_modules_miss_is_only_their_event_lines(monkeypatch, name):
    """Delivering nothing to a module that takes no part in the frame moves
    no decision: over the first 30 campaign episodes (the non-silent ones
    of fuzz_long_n4, whose silent restarts raise), the decision log and the
    vote logs are those of a world that delivers to every module, and the
    event log is that world's with its lines to absent modules removed."""
    base = load_bundled(name) if name == "fuzz_base_n7" else supervised_base(name)
    scenarios = [
        scenario for scenario in campaign_episodes(base, 30)
        if name != "fuzz_long_n4" or all(p.kind != "silent" for p in scenario.modules)
    ]
    results = [run_episode(scenario) for scenario in scenarios]
    absent_at = deliver_to_every_module(monkeypatch)
    removed = 0
    for scenario, result in zip(scenarios, results):
        absent_at.clear()
        reference = run_episode(scenario)
        assert result.decision_log == reference.decision_log
        assert result.vote_logs == reference.vote_logs
        kept = []
        for line in reference.event_log:
            at, _, to, *_ = line.split("|")
            if int(to) not in absent_at[int(at)]:
                kept.append(line)
        assert result.event_log == kept
        removed += len(reference.event_log) - len(kept)
    assert removed > 0


def delivered_envelopes(monkeypatch) -> list:
    """Record each envelope ``advance_round`` returns, in event-log order."""
    delivered = []
    advance = World.advance_round

    def advancing(world):
        due = advance(world)
        delivered.extend(due)
        return due

    monkeypatch.setattr(World, "advance_round", advancing)
    return delivered


def carry_every_resend(monkeypatch) -> None:
    """Make the world forget where it has queued each payload, so that it
    carries every re-send, as if no payload were an outbox message."""
    send = World.send

    def sending(world, frm, to, payload):
        if isinstance(payload, Signed):
            payload.__dict__.pop("_queued", None)
        send(world, frm, to, payload)

    monkeypatch.setattr(World, "send", sending)


def replica_states(runner) -> list:
    return [
        None if engine is None else (engine.misbehavior, engine.violations, engine.committed)
        for engine in runner.engines.values()
    ]


@pytest.mark.parametrize("name", ["fuzz_base_n7", "fuzz_long_n4"])
def test_what_the_network_does_not_repeat_is_only_its_event_lines(monkeypatch, name):
    """Not carrying a re-send whose earlier copy reaches the recipient first
    moves no decision: over the first 30 campaign episodes (the non-silent
    ones of fuzz_long_n4, whose silent restarts raise), the decision log,
    the vote logs and every replica's misbehavior, violations and committed
    log are those of a world that carries every re-send, and the event log
    is that world's without the re-sends: each a later envelope of the same
    payload object, from the same sender to the same recipient."""
    base = load_bundled(name) if name == "fuzz_base_n7" else supervised_base(name)
    scenarios = [
        scenario for scenario in campaign_episodes(base, 30)
        if name != "fuzz_long_n4" or all(p.kind != "silent" for p in scenario.modules)
    ]
    delivered = delivered_envelopes(monkeypatch)

    def run_all():
        runs = []
        for scenario in scenarios:
            delivered.clear()
            runner = EpisodeRunner(scenario)
            result = runner.run()
            runs.append((result, replica_states(runner), list(delivered)))
        return runs

    runs = run_all()
    carry_every_resend(monkeypatch)
    shorter = 0
    for (result, states, got), (reference, reference_states, sent) in zip(runs, run_all()):
        assert result.decision_log == reference.decision_log
        assert result.vote_logs == reference.vote_logs
        assert states == reference_states
        # the envelopes carried are the reference's, each with its fate
        carried = {env.seq for env in got}
        kept = [index for index, env in enumerate(sent) if env.seq in carried]
        assert [sent[index][:5] for index in kept] == [env[:5] for env in got]
        lines = reference.event_log
        assert len(lines) == len(sent)
        assert result.event_log == [lines[index] for index in kept]
        # each envelope left out repeats one delivered before it (``sent``
        # keeps every payload alive, so no id is reused)
        earlier = set()
        for env in sent:
            copy = (id(env.payload), env.frm, env.to)
            assert env.seq in carried or copy in earlier
            earlier.add(copy)
        shorter += len(got) < len(sent)
    assert shorter > 0


def test_the_pbft_loop_observes_only_envelopes_to_the_observer(monkeypatch):
    """The world delivers nothing to a module outside the frame, so every
    envelope the PBFT loop hands to no engine is to the observer, and
    ``_observe_reply`` need not check where one is going."""
    seen = []
    observe = EpisodeRunner._observe_reply

    def observing(runner, replies, env, frame):
        seen.append(env.to)
        return observe(runner, replies, env, frame)

    monkeypatch.setattr(EpisodeRunner, "_observe_reply", observing)
    for scenario in campaign_episodes(load_bundled("fuzz_base_n7"), 10):
        run_episode(scenario)
    assert seen and set(seen) == {OBSERVER}


@pytest.mark.parametrize("name", ["fuzz_base_n7", "av_plastic_bag"])
def test_an_episode_leaves_no_reference_cycle(name):
    scenario = load_bundled(name)
    gc.collect()
    gc.disable()
    try:
        run_episode(scenario)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_two_faulty_leaders_in_a_row_fit_the_liveness_bound():
    """Episode 157 of the fuzz_base_n7 campaign at seed 205: frame 3's view-0
    leader (module 3) is silent and its view-1 leader (module 4) is
    byzantine_fixed, under a jitter of 1 and a 1% drop rate.  Each view lasts
    one timeout from the round a replica enters it, so view 2 still commits
    within (f+1)*timeout+3 rounds."""
    base = load_bundled("fuzz_base_n7")
    rng = random.Random(205)
    for index in range(158):  # drawn as fuzz_campaign draws them
        episode_seed = int.from_bytes(digest(canonical("fuzz", 205, index))[:8], "big") % 2**31
        scenario = randomize_episode(base, rng, episode_seed)
    assert [p.kind for p in scenario.modules[3:5]] == ["silent", "byzantine_fixed"]
    result = run_episode(scenario)
    bound = liveness_bound(base.quorum.f, base.timeout_rounds)
    assert result.liveness_failures == []
    assert all(r.verdict == "decided" and r.rounds_to_commit <= bound for r in result.records)
    assert result.records[3].view_changes == 2


def delayed(name: str, strategy: str, **network):
    scenario = load_bundled(name)
    return replace(
        scenario, strategy=VoteStrategy(strategy), network=replace(scenario.network, **network)
    )


def counting_advance_round(monkeypatch) -> list[int]:
    calls = [0]
    advance = World.advance_round

    def counted(world):
        calls[0] += 1
        return advance(world)

    monkeypatch.setattr(World, "advance_round", counted)
    return calls


# (scenario, SHA-256 of decision.log, SHA-256 of event.log, most advance_round
# calls).  The logs are those of a loop that stepped through every round:
# the vote-only cases then made 9,018 and 6,012 calls, the PBFT case 102.
LONG_DELAYS = [
    (
        delayed("av_plastic_bag", "fastpath", jitter_rounds=1000, drop_rate=0.1),
        "177b50bba0fbd3e4340cd1b769f80eed183b7b1b3116fc80db0e1bbbc3cfa4ab",
        "1092148eaca87919e7366cfeaf525a50d0f4588b402fc695375f30529bb422b6",
        400,
    ),
    (
        delayed("av_plastic_bag", "majority", jitter_rounds=1000),
        "eeccfc624cab8754ff15c33bb8a4dc1d476107f3de299787500664cff5c073a5",
        "53c898a7395e1da89b710ac058d4036e15af6d332b0496c0a326a2c7b64c45cc",
        250,
    ),
    (
        delayed("fuzz_base_n7", "majority", jitter_rounds=3, drop_rate=0.02),
        "7fb6b915290e7a24656d88500a59391a24019b482cc2bccab3ebedcbaedecd56",
        "aff83c22153b084c332c6112fd8696b0c3dac63df5e149f4b30a7275d01dbc09",
        80,
    ),
]


@pytest.mark.parametrize(
    "scenario, decisions, events, most_calls",
    LONG_DELAYS,
    ids=["av_plastic_bag-fastpath", "av_plastic_bag-majority", "fuzz_base_n7-majority"],
)
def test_delivery_windows_skip_empty_rounds(monkeypatch, scenario, decisions, events, most_calls):
    """The loops that fire no timers (the vote-only windows and the PBFT
    post-frame sync) jump over rounds in which nothing is due, and write
    the same logs as a loop through every round."""
    calls = counting_advance_round(monkeypatch)
    result = run_episode(scenario)
    sha = lambda text: hashlib.sha256(text.encode("utf-8")).hexdigest()
    assert (sha(result.decision_log_text), sha(result.event_log_text)) == (decisions, events)
    assert calls[0] <= most_calls


def test_a_vote_only_episode_under_a_huge_jitter_finishes(monkeypatch):
    calls = counting_advance_round(monkeypatch)
    result = run_episode(delayed("av_plastic_bag", "fastpath", jitter_rounds=10**12))
    assert [r.verdict for r in result.records] == ["decided"] * 3
    assert calls[0] <= 400


# Episode 8 of the fuzz_base_n7 campaign at seed 2026 (a crashed and a
# diverse_honest module, jitter 1, drop rate 1%): it delivers seven message
# kinds, view changes and state transfer among them.
N7_EPISODE_8_EVENTS = "081f03982f9cd8405cc3b7c4eafe7de9da1c119035cb69ff2881c33c2ea4cac2"


def test_the_event_log_renders_from_the_delivery_record_alone():
    """Rendering reads only the recorded envelopes, so a result renders the
    same bytes after other episodes have run and the message memos have been
    emptied."""
    *others, kept = campaign_episodes(load_bundled("fuzz_base_n7"), 9)
    result = run_episode(kept)
    text = result.event_log_text
    for scenario in others:
        run_episode(scenario)
    messages.interned.cache_clear()
    messages.log_prefix_digest.cache_clear()
    again = result.event_log_text
    assert hashlib.sha256(again.encode("utf-8")).hexdigest() == N7_EPISODE_8_EVENTS
    assert again == text


def test_the_event_log_read_between_rounds_is_a_prefix_of_the_final_log():
    *_, scenario = campaign_episodes(load_bundled("fuzz_base_n7"), 9)
    runner = EpisodeRunner(scenario)
    world, advance, seen = runner.world, runner.world.advance_round, []

    def advance_and_read():
        seen.append(world.event_log)
        return advance()

    world.advance_round = advance_and_read
    final = runner.run().event_log
    assert final == world.event_log
    assert len({len(log) for log in seen}) > 1
    assert all(log == final[: len(log)] for log in seen)
    assert [len(log) for log in seen] == sorted(len(log) for log in seen)


# (SHA-256 over the decision logs, SHA-256 over the event logs) of the first
# 8 episodes of the fuzz_base_n7 campaign at seed 2026, written by a runner
# that fired the timers of every live replica, decided or not.
N7_FIRST_8_LOGS = (
    "49275a1112c8d2e684b1e35769b37464c68ccd8509934a00cfce2de769b49c18",
    "66b702ddba8325c286ff5922a386d5b3cc8b3b5afeb8251fa4208daa154e7607",
)


def test_timers_fire_only_on_undecided_replicas(monkeypatch):
    """The PBFT loop skips the timers of a replica that has decided: they
    would send nothing, so the logs are those of a loop that fired them."""
    fired = []
    on_round = Replica.on_round

    def spy(engine, round_):
        fired.append(engine.inst.decided)
        return on_round(engine, round_)

    monkeypatch.setattr(Replica, "on_round", spy)
    decisions, events = hashlib.sha256(), hashlib.sha256()
    for scenario in campaign_episodes(load_bundled("fuzz_base_n7"), 8):
        result = run_episode(scenario)
        decisions.update(result.decision_log_text.encode("utf-8"))
        events.update(result.event_log_text.encode("utf-8"))
    assert fired and not any(fired)
    assert (decisions.hexdigest(), events.hexdigest()) == N7_FIRST_8_LOGS


def test_timers_never_fire_on_an_equivocator(monkeypatch):
    """The PBFT loop skips an equivocator's timers, which never send: the
    first 8 draws include two equivocators, and the logs are those of a loop
    that fired them."""
    fired = []
    monkeypatch.setattr(EquivocatingReplica, "on_round", lambda engine, round_: fired.append(round_) or [])
    decisions, events = hashlib.sha256(), hashlib.sha256()
    drawn = 0
    for scenario in campaign_episodes(load_bundled("fuzz_base_n7"), 8):
        drawn += any(p.kind == "byzantine_equivocate" for p in scenario.modules)
        result = run_episode(scenario)
        decisions.update(result.decision_log_text.encode("utf-8"))
        events.update(result.event_log_text.encode("utf-8"))
    assert drawn == 2 and fired == []
    assert (decisions.hexdigest(), events.hexdigest()) == N7_FIRST_8_LOGS
