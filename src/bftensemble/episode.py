"""Lock-step episode execution: one frame at a time, consensus fully resolved
(commit or timeout budget exhausted) before the next frame starts.

The runner is the observer ("client"): in either consensus mode, a frame is
final only after f+1 matching Reply messages from distinct replicas.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Optional

from .core import OBSERVER, PEERS, KeyRegistry
from .consensus import EquivocatingReplica, Replica, split_others
from .harness import FaultProfile, module_rng, produce_output
from .messages import (
    Commit,
    Output,
    OutputDigest,
    Prepare,
    Reply,
    Signed,
    StateRequest,
    interned,
    sign_message,
    value_digest,
)
from .scenario import Scenario
from .simnet import Deliveries, World, render_event_log
from .supervisor import Supervisor
from .voter import Verdict, fast_path_agree, tally


def liveness_bound(f: int, timeout_rounds: int) -> int:
    return (f + 1) * timeout_rounds + 3


@dataclass
class DecisionRecord:
    frame: int
    verdict: str  # decided | no-quorum | safe-mode
    value: Optional[str]
    supporters: tuple[int, ...]
    rounds_to_commit: int
    view_changes: int
    flags: tuple[str, ...]

    def line(self) -> str:
        supporters = ",".join(str(m) for m in self.supporters) or "-"
        flags = ",".join(self.flags) or "-"
        return (
            f"{self.frame}|{self.verdict}|{self.value or '-'}|{supporters}|"
            f"{self.rounds_to_commit}|{self.view_changes}|{flags}"
        )


@dataclass
class FrameVoteLog:
    """Who endorsed the committed value, as seen by one decided honest replica."""

    frame: int
    view: int
    prepare_signers: frozenset[int]
    commit_signers: frozenset[int]


@dataclass
class EpisodeResult:
    scenario: Scenario
    records: list[DecisionRecord]
    deliveries: Deliveries  # the world's delivery record; event.log renders from it
    supervisor_events: list[tuple[int, int, str]]
    vote_logs: dict[int, FrameVoteLog]
    agreement_violations: list[int]
    liveness_failures: list[int]
    module_agreement: dict[int, float]

    @property
    def decision_log(self) -> list[str]:
        """Each frame's supervisor events, in order, then its record; an
        event carries the frame it happened in, and the sort is stable."""
        lines = [(at, f"{at}|SUPERVISOR|{m}|{event}") for at, m, event in self.supervisor_events]
        lines += [(record.frame, record.line()) for record in self.records]
        return [line for _, line in sorted(lines, key=lambda pair: pair[0])]

    @property
    def decision_log_text(self) -> str:
        return "\n".join(self.decision_log) + "\n"

    @property
    def event_log(self) -> list[str]:
        return render_event_log(self.deliveries)

    @property
    def event_log_text(self) -> str:
        return "\n".join(self.event_log) + "\n"


class EpisodeRunner:
    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.n = scenario.quorum.n
        self.f = scenario.quorum.f
        self.registry = KeyRegistry(scenario.seed, range(self.n))
        # each module's current profile, the only record of what it does; a
        # restart may replace it
        self.profiles = list(scenario.modules)
        self.rngs = [self._rng(m, p) for m, p in enumerate(self.profiles)]
        # the supervisor owns module status; `supervise = false` only stops
        # it from judging frames, so no module is ever isolated.  The network
        # reads its isolation map at every send and delivery.
        self.supervisor = Supervisor(scenario.quorum, scenario.supervisor)
        slow_extra = {m: p.delay_rounds for m, p in enumerate(self.profiles) if p.kind == "slow"}
        self.world = World(scenario.network, range(self.n), slow_extra, self.supervisor.isolated)
        self.engines = {m: self._make_engine(m, p) for m, p in enumerate(self.profiles)}
        self.vote_logs: dict[int, FrameVoteLog] = {}
        self.liveness_failures: list[int] = []
        self._last_finalized = -1  # the last frame finalized before the running one

    # --- construction --------------------------------------------------------

    def _make_engine(self, m: int, profile: FaultProfile) -> Optional[Replica]:
        """Module ``m``'s PBFT engine: None if it is silent or in vote-only mode."""
        if profile.kind == "silent" or self.s.consensus_mode != "pbft":
            return None
        kwargs = dict(
            timeout_rounds=self.s.timeout_rounds,
            checkpoint_interval=self.s.checkpoint_interval,
        )
        if profile.kind == "byzantine_equivocate":
            space = self.s.decision_space
            return EquivocatingReplica(
                m,
                self.s.quorum,
                space,
                self.registry,
                label_a=space.value(profile.label_a),
                label_b=space.value(profile.label_b),
                **kwargs,
            )
        return Replica(m, self.s.quorum, self.s.decision_space, self.registry, **kwargs)

    def _rng(self, m: int, profile: FaultProfile):
        """Module ``m``'s random stream, or None if ``profile`` never draws."""
        return module_rng(self.s.seed, m, profile.perturb_seed) if profile.draws else None

    # --- shared plumbing -----------------------------------------------------

    def _produce(self, frame: int):
        """Per-module output labels for this frame, None for a module that
        outputs nothing.  Equivocators yield a pair.  A module takes part in
        the frame exactly when its output is not None: it is active and
        emits, and in PBFT mode it then has an engine.  The world delivers
        nothing to a module that takes no part, unless it is a PBFT module
        restarting, which catches up by state transfer (a vote-only one
        holds no state)."""
        supervisor = self.supervisor
        catching_up = supervisor.restarting if self.s.consensus_mode == "pbft" else ()
        outputs, absent = {}, ()
        for m in range(self.n):
            out = None
            if supervisor.active(m):
                obs = self.s.observations.observed(self.s.decision_space, frame, m)
                out = produce_output(self.profiles[m], frame, obs, self.s.decision_space, self.rngs[m])
            outputs[m] = out
            if out is None and m not in catching_up:
                absent += (m,)
        self.world.absent = absent
        return outputs

    def _supervise(self, frame: int, committed: Optional[str], outputs) -> None:
        if not self.s.supervise or committed is None:
            return  # only committed frames are judged
        self.supervisor.record_round(frame, committed, outputs)
        self.supervisor.review(frame)

    def _handle_restarts(self, frame: int) -> None:
        if not self.supervisor.isolated:
            return
        for m in self.supervisor.due_for_restart(frame):
            profile = self.profiles[m] = self.profiles[m].restarted()
            if profile.kind != "slow":
                self.world.slow_extra.pop(m, None)
            self.engines[m] = self._make_engine(m, profile)
            self.rngs[m] = self._rng(m, profile)

    def _check_recoveries(self, frame: int) -> None:
        if not self.supervisor.restarting:
            return
        # a snapshot requested while frame `frame` was still running can only
        # cover the frames decided before it; a vote-only module holds no
        # replicated state, so it recovers at the end of its restart frame
        vote_only = self.s.consensus_mode != "pbft"
        for m in sorted(self.supervisor.restarting):
            engine = self.engines[m]
            if vote_only or (engine is not None and engine.last_contiguous_frame >= self._last_finalized):
                self.supervisor.recovered(m, frame)

    def _judge(self, frame: int, verdict: str, value: Optional[str], verdicts: dict[int, Verdict]):
        """The frame's flags and view changes, given its verdict, finalized
        ``value`` and each vote-only module's own verdict; also files the
        frame's vote log.  The test oracle: the only code here that reads
        which modules are Byzantine."""
        # the values honest replicas committed for the frame, and the final
        # one; the first honest replica that decided it gives the vote log
        committed = {value} if value is not None else set()
        decided_views = []
        # only PBFT mode has engines to walk: in vote-only mode each is None
        engines = self.engines if self.s.consensus_mode == "pbft" else {}
        for m, engine in engines.items():
            if engine is None or self.profiles[m].byzantine:
                continue
            if frame in engine.committed:
                committed.add(engine.committed[frame])
            inst = engine.inst
            if inst is None or inst.frame != frame or inst.decided_view < 0:
                continue
            view = inst.decided_view
            if not decided_views:
                want = value_digest(inst.decided_value)
                voters = [frozenset(v.sender for v in inst.matching(k, view, want)) for k in (Prepare, Commit)]
                self.vote_logs[frame] = FrameVoteLog(frame, view, *voters)
            decided_views.append(view)
        flags = ["agreement-violation"] if len(committed) > 1 else []
        if verdict == "safe-mode":
            flags.append("safe-mode")
        if value is not None and value != self.s.observations.truth(self.s.decision_space, frame):
            flags.append("ground-truth-mismatch")
        # vote-only uniformity check: honest module verdicts must not conflict
        split = len({v.value for m, v in verdicts.items() if v.decided and not self.profiles[m].byzantine}) > 1
        if split and "agreement-violation" not in flags:
            flags.append("agreement-violation")
        return tuple(flags), min(decided_views, default=0)

    def _observe_reply(self, replies: dict[int, str], env, frame: int) -> bool:
        """Keep the first verified Reply for ``frame`` from each sender that
        reaches the observer; True if ``env`` was one."""
        payload = env.payload
        if (
            isinstance(payload, Signed)
            and isinstance(payload.msg, Reply)
            and payload.msg.frame == frame
            and payload.sender not in replies
            # a Reply sign_message made with this registry carries it as its stamp
            and (payload.__dict__.get("_verified") is self.registry or payload.verify(self.registry))
        ):
            replies[payload.sender] = payload.msg.value
            return True
        return False

    def _reply_quorum(self, replies: dict[int, str]) -> Optional[str]:
        """The value at least f+1 senders replied with (the lowest label if
        several did), or None."""
        counts: dict[str, int] = {}
        for value in replies.values():
            counts[value] = counts.get(value, 0) + 1
        matched = [v for v, c in counts.items() if c >= self.s.quorum.reply_matches]
        return min(matched) if matched else None

    # --- one frame -----------------------------------------------------------

    def _run_frame(self, frame: int) -> DecisionRecord:
        """Run one frame in the scenario's consensus mode and judge it.

        The mode body only moves the frame's messages.  It returns the
        finalized value, the rounds it took, the votes ``held`` (in PBFT
        mode the observer's verified Replies, in vote-only mode the outputs
        the modules sent) and each vote-only module's verdict;
        the supporters are the senders in ``held`` whose vote is the
        finalized value, and ``_judge`` does the rest.
        """
        s = self.s
        self._handle_restarts(frame)
        outputs = self._produce(frame)
        # picked per frame: a bound method stored on the runner would make it
        # a reference cycle that only the cyclic collector can free
        mode = self._pbft_rounds if s.consensus_mode == "pbft" else self._vote_rounds
        finalized, rounds, held, verdicts = mode(frame, outputs)

        if finalized is not None:
            verdict, value = "decided", finalized
        elif frame in s.observations.critical_frames:
            verdict, value = "safe-mode", s.decision_space.value(s.decision_space.safe_default)
        else:
            verdict, value = "no-quorum", None
        # a vote is a label, never None, so no-quorum frames have no supporters
        supporters = tuple(sorted(m for m, v in held.items() if v == finalized))
        flags, view_changes = self._judge(frame, verdict, finalized, verdicts)
        record = DecisionRecord(frame, verdict, value, supporters, rounds, view_changes, flags)
        self._supervise(frame, finalized, outputs)
        self._check_recoveries(frame)
        if finalized is not None:
            self._last_finalized = frame
        return record

    # --- PBFT mode -----------------------------------------------------------

    def _pbft_rounds(self, frame: int, outputs):
        s = self.s
        replies: dict[int, str] = {}
        world = self.world
        send = world.send
        start_round = world.round
        # statuses and engines change only between frames: `live` run the
        # frame, and restarting modules also take deliveries to catch up and
        # keep asking for state until a snapshot lands
        live = [(m, self.engines[m]) for m in range(self.n) if outputs[m] is not None]
        receivers = dict(live)
        for m in sorted(self.supervisor.restarting):
            engine = receivers[m] = self.engines[m]
            if engine is not None:
                send(m, PEERS, sign_message(self.registry, m, interned(StateRequest, max(frame - 1, 0))))
        # an equivocator's timers never send
        timed = [(m, engine) for m, engine in live if not isinstance(engine, EquivocatingReplica)]
        for m, engine in live:
            out = outputs[m]
            own = out[0] if isinstance(out, tuple) else out
            for dest, payload in engine.start_frame(frame, own, start_round):
                send(m, dest, payload)

        finalized: Optional[str] = None
        finality_round = start_round
        bound = liveness_bound(self.f, s.timeout_rounds)
        drain = s.network.base_delay_rounds + s.network.jitter_rounds + 2

        while True:
            now = world.round
            if finalized is not None and now >= finality_round + drain:
                break
            if finalized is None and now - start_round >= bound:
                break
            due = world.advance_round()
            now = world.round
            replied = False
            # the world delivers to the observer and the receivers only
            for env in due:
                to = env.to
                if to == OBSERVER:
                    if self._observe_reply(replies, env, frame):
                        replied = True
                    continue
                # a restarting silent module's engine is None, and raises here
                for dest, payload in receivers[to].handle(env.payload, now):
                    send(to, dest, payload)
            # a decided replica's timers send nothing, and it stays decided
            for m, engine in timed:
                if not engine.inst.decided:
                    for dest, payload in engine.on_round(now):
                        send(m, dest, payload)
            # the count changes only when a new sender's Reply arrives
            if finalized is None and replied:
                finalized = self._reply_quorum(replies)
                finality_round = now

        # post-frame straggler sync: undecided honest replicas ask for the
        # committed prefix; committed peers answer with certificates.
        if finalized is not None:
            for m, engine in live:
                if not engine.inst.decided:
                    req = sign_message(self.registry, m, interned(StateRequest, frame))
                    send(m, PEERS, req)
            sync = 2 * (s.network.base_delay_rounds + s.network.jitter_rounds) + 2
            for due in world.delivery_rounds(sync):
                now = world.round
                for env in due:
                    to = env.to
                    if to != OBSERVER:
                        for dest, payload in receivers[to].handle(env.payload, now):
                            send(to, dest, payload)
        else:
            self.liveness_failures.append(frame)
        rounds = finality_round - start_round if finalized is not None else bound
        return finalized, rounds, replies, {}

    # --- vote-only mode ------------------------------------------------------

    def _broadcast_outputs(self, frame: int, outputs, digests_only: bool) -> None:
        """Send each module's signed vote to its peers: the digest of its
        output on the fast path's first round, else the full output.  The
        observer, a client, is sent none."""
        send = self.world.send
        registry = self.registry
        for m in range(self.n):
            out = outputs[m]
            if out is None:  # also every module not active
                continue
            # an equivocator sends its first label to one half of its peers, its second to the other
            sends = zip(split_others(m, self.n), out) if isinstance(out, tuple) else (((PEERS,), out),)
            for dests, label in sends:
                if digests_only:
                    vote = sign_message(registry, m, interned(OutputDigest, frame, value_digest(label)))
                else:
                    vote = sign_message(registry, m, interned(Output, frame, label))
                for dest in dests:
                    send(m, dest, vote)

    def _deliver_window(self, frame: int, collect_votes: defaultdict, collect_digests: defaultdict) -> None:
        """Deliver everything sent at the window's start, which is due
        within the base delay, the jitter and the largest slow delay.  Each
        receiver keeps the first verified vote of each signer for
        ``frame``: a module its peers' Outputs and OutputDigests, the
        observer the modules' Replies."""
        s = self.s
        window = s.network.base_delay_rounds + s.network.jitter_rounds
        window += max(self.world.slow_extra.values(), default=0)
        registry = self.registry
        for due in self.world.delivery_rounds(window + 1):
            for env in due:
                signed = env.payload
                msg = signed.msg
                if type(msg) is OutputDigest:
                    box, vote = collect_digests, msg.value_digest
                else:  # an Output to a module or a Reply to the observer
                    box, vote = collect_votes, msg.value
                # a vote sign_message made with this registry carries it as its stamp
                if msg.frame == frame and (signed.__dict__.get("_verified") is registry or signed.verify(registry)):
                    box[env.to].setdefault(signed.sender, vote)

    def _vote_rounds(self, frame: int, outputs):
        s = self.s
        fastpath = s.strategy.kind == "fastpath"
        inboxes: defaultdict[int, dict[int, str]] = defaultdict(dict)
        digest_boxes: defaultdict[int, dict[int, bytes]] = defaultdict(dict)
        # the output each module sent (an equivocator's to its second half) names the supporters
        held: dict[int, str] = {}
        for m in range(self.n):
            out = outputs[m]
            if isinstance(out, str):
                # a module holds its own vote as if it had delivered it to itself
                inboxes[m][m] = held[m] = out
                if fastpath:
                    digest_boxes[m][m] = value_digest(out)
            elif out is not None:
                held[m] = out[1]

        rounds_used = 1
        self._broadcast_outputs(frame, outputs, digests_only=fastpath)
        self._deliver_window(frame, inboxes, digest_boxes)

        if fastpath:
            # each module decides from its own digest box whether the fast path closed
            seen_by = [digest_boxes.get(m, {}) for m in range(self.n)]
            if any(len(seen) < self.n or len(set(seen.values())) > 1 for seen in seen_by):
                rounds_used = 2
                self._broadcast_outputs(frame, outputs, digests_only=False)
                self._deliver_window(frame, inboxes, digest_boxes)

        # every module taking part tallies what it saw and replies with its verdict
        verdicts: dict[int, Verdict] = {}
        for m in range(self.n):
            if outputs[m] is None:
                continue
            votes = inboxes.get(m, {})
            if fastpath:
                verdict = fast_path_agree(digest_boxes.get(m, {}), votes, s.quorum).verdict
            else:
                verdict = tally(votes, s.strategy, s.quorum)
            verdicts[m] = verdict
            if verdict.decided:
                reply = sign_message(self.registry, m, interned(Reply, frame, verdict.value))
                self.world.send(m, OBSERVER, reply)
        self._deliver_window(frame, inboxes, digest_boxes)  # the Replies land in the observer's inbox
        return self._reply_quorum(inboxes[OBSERVER]), rounds_used, held, verdicts

    # --- top level -----------------------------------------------------------

    def run(self) -> EpisodeResult:
        records = [self._run_frame(frame) for frame in range(self.s.frames)]
        return EpisodeResult(
            scenario=self.s,
            records=records,
            deliveries=self.world.deliveries,
            supervisor_events=list(self.supervisor.events),
            vote_logs=self.vote_logs,
            agreement_violations=[r.frame for r in records if "agreement-violation" in r.flags],
            liveness_failures=self.liveness_failures,
            module_agreement=self.supervisor.agreement_rates(),
        )


def run_episode(scenario: Scenario) -> EpisodeResult:
    return EpisodeRunner(scenario).run()
