"""Lock-step episode execution: one frame at a time, consensus fully resolved
(commit or timeout budget exhausted) before the next frame starts.

The runner is the observer ("client"): in either consensus mode, a frame is
final only after f+1 matching Reply messages from distinct replicas.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from .core import (
    BROADCAST,
    OBSERVER,
    PEERS,
    KeyRegistry,
    ModuleOutput,
    verify_output,
)
from .consensus import EquivocatingReplica, Replica, value_digest
from .harness import FaultProfile, module_rng, produce_output
from .messages import Commit, OutputDigest, Prepare, Reply, Signed, StateRequest, sign_message
from .scenario import Scenario
from .simnet import World
from .supervisor import Supervisor
from .voter import Verdict, fast_path_agree, tally

HONEST_KINDS = ("honest", "diverse_honest", "slow", "crash")


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
    decision_log: list[str]
    event_log: list[str]
    supervisor_events: list[tuple[int, int, str]]
    vote_logs: dict[int, FrameVoteLog]
    agreement_violations: list[int]
    liveness_failures: list[int]
    module_agreement: dict[int, float]

    @property
    def decision_log_text(self) -> str:
        return "\n".join(self.decision_log) + "\n"

    @property
    def event_log_text(self) -> str:
        return "\n".join(self.event_log) + "\n"


class EpisodeRunner:
    def __init__(self, scenario: Scenario):
        self.s = scenario
        self.n = scenario.quorum.n
        self.f = scenario.quorum.f
        self.registry = KeyRegistry(scenario.seed, range(self.n))
        # each module's current profile; a restart may replace it
        self.profiles = list(scenario.modules)
        self.rngs = [
            module_rng(scenario.seed, m, scenario.modules[m].perturb_seed)
            for m in range(self.n)
        ]
        slow_extra = {
            m: p.delay_rounds for m, p in enumerate(scenario.modules) if p.kind == "slow"
        }
        self.world = World(scenario.network, range(self.n), slow_extra)
        self.engines = {m: self._make_engine(m, p) for m, p in enumerate(scenario.modules)}
        # the supervisor owns module status; `supervise = false` only stops
        # it from judging frames, so no module is ever isolated
        self.supervisor = Supervisor(scenario.quorum, scenario.supervisor)
        self.records: list[DecisionRecord] = []
        self.decision_log: list[str] = []
        self.vote_logs: dict[int, FrameVoteLog] = {}
        self.agreement_violations: list[int] = []
        self.liveness_failures: list[int] = []
        self._finalized: dict[int, str] = {}

    # --- construction --------------------------------------------------------

    def _make_engine(self, m: int, profile: FaultProfile) -> Optional[Replica]:
        """Module ``m``'s PBFT engine: None if it is silent or in vote-only mode."""
        if profile.kind == "silent" or self.s.consensus_mode != "pbft":
            return None
        kwargs = dict(
            timeout_rounds=self.s.timeout_rounds,
            execution_threshold=self.s.execution_threshold,
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

    def _takes_part(self, m: int, frame: int) -> bool:
        """Module ``m`` is active, not silent and not crashed by ``frame``.
        In PBFT mode such a module always has an engine."""
        profile = self.profiles[m]
        if profile.kind == "silent" or not self.supervisor.active(m):
            return False
        return not (profile.kind == "crash" and frame >= profile.at_frame)

    # --- shared plumbing -----------------------------------------------------

    def _send_all(self, sender: int, outbound) -> None:
        for dest, payload in outbound:
            self.world.send(sender, dest, payload)

    def _produce(self, frame: int):
        """Per-module outputs for this frame.  Equivocators yield a pair."""
        outputs = {}
        for m in range(self.n):
            if not self.supervisor.active(m):
                outputs[m] = None
                continue
            obs = self.s.observations.observed(self.s.decision_space, frame, m)
            outputs[m] = produce_output(
                self.profiles[m], m, frame, obs, self.s.decision_space, self.registry, self.rngs[m]
            )
        return outputs

    def _supervise(self, frame: int, committed: Optional[str], outputs, equivocators) -> None:
        if not self.s.supervise or committed is None:
            return  # only committed frames are judged
        values = {
            m: out.value if isinstance(out, ModuleOutput) else None for m, out in outputs.items()
        }
        self.supervisor.record_round(frame, committed, values, equivocators)
        for m in self.supervisor.review(frame):
            self.world.mute(m)

    def _handle_restarts(self, frame: int) -> None:
        for m in self.supervisor.due_for_restart(frame):
            profile = self.profiles[m] = self.profiles[m].restarted()
            self.world.unmute(m)
            self.engines[m] = self._make_engine(m, profile)
            self.rngs[m] = module_rng(self.s.seed, m, profile.perturb_seed)
        # restarting modules keep asking for state until a snapshot lands
        for m in sorted(self.supervisor.restarting):
            if self.engines[m] is not None:
                req = sign_message(self.registry, m, StateRequest(max(frame - 1, 0)))
                self.world.send(m, PEERS, req)

    def _check_recoveries(self, frame: int) -> None:
        # a snapshot requested while frame `frame` was still running can only
        # cover the frames decided before it; a vote-only module holds no
        # replicated state, so it recovers at the end of its restart frame
        target = max((f for f in self._finalized if f < frame), default=-1)
        vote_only = self.s.consensus_mode != "pbft"
        for m in sorted(self.supervisor.restarting):
            engine = self.engines[m]
            if vote_only or (engine is not None and engine.last_contiguous_frame >= target):
                self.supervisor.recovered(m, frame)

    def _honest_committed(self, frame: int) -> dict[int, str]:
        committed = {}
        for m in range(self.n):
            if self.profiles[m].kind not in HONEST_KINDS:
                continue
            engine = self.engines[m]
            if engine is not None and frame in engine.committed:
                committed[m] = engine.committed[frame]
        return committed

    def _frame_flags(
        self, frame: int, verdict: str, value: Optional[str], split: bool
    ) -> tuple[str, ...]:
        flags = []
        distinct = set(self._honest_committed(frame).values())
        if value is not None:
            distinct.add(value)
        if len(distinct) > 1:
            flags.append("agreement-violation")
        if verdict == "safe-mode":
            flags.append("safe-mode")
        truth = self.s.observations.truth(self.s.decision_space, frame)
        if value is not None and value != truth:
            flags.append("ground-truth-mismatch")
        # vote-only uniformity check: honest module verdicts must not conflict
        if split and "agreement-violation" not in flags:
            flags.append("agreement-violation")
        if "agreement-violation" in flags:
            self.agreement_violations.append(frame)
        return tuple(flags)

    def _observe_reply(self, replies: dict[int, str], env, frame: int) -> None:
        """Keep the first verified Reply for ``frame`` from each sender that
        reaches the observer."""
        payload = env.payload
        if (
            env.to == OBSERVER
            and isinstance(payload, Signed)
            and isinstance(payload.msg, Reply)
            and payload.msg.frame == frame
            and payload.verify(self.registry)
        ):
            replies.setdefault(payload.sender, payload.msg.value)

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

        The mode body moves the frame's messages and fills ``replies`` with
        the observer's verified Replies.  It returns the finalized value, the
        rounds it took, the view changes, the observer's own vote-only
        verdict (or None) and whether honest vote-only verdicts split.
        """
        s = self.s
        self._handle_restarts(frame)
        outputs = self._produce(frame)
        equivocators = {
            m for m, p in enumerate(s.modules)
            if p.kind == "byzantine_equivocate" and self.supervisor.active(m)
        }
        replies: dict[int, str] = {}
        # picked per frame: a bound method stored on the runner would make it
        # a reference cycle that only the cyclic collector can free
        mode = self._pbft_rounds if s.consensus_mode == "pbft" else self._vote_rounds
        finalized, rounds, view_changes, observed, split = mode(frame, outputs, replies)

        if finalized is not None:
            verdict, value = "decided", finalized
            self._finalized[frame] = finalized
        elif frame in s.observations.critical_frames:
            verdict, value = "safe-mode", s.decision_space.value(s.decision_space.safe_default)
        else:
            verdict, value = "no-quorum", None
        if observed is not None and observed.decided and observed.value == finalized:
            supporters = tuple(sorted(observed.supporters))
        else:
            supporters = tuple(sorted(m for m, v in replies.items() if finalized is not None and v == finalized))
        record = DecisionRecord(
            frame=frame,
            verdict=verdict,
            value=value,
            supporters=supporters,
            rounds_to_commit=rounds,
            view_changes=view_changes,
            flags=self._frame_flags(frame, verdict, finalized, split),
        )
        self._supervise(frame, finalized, outputs, equivocators)
        self._check_recoveries(frame)
        return record

    # --- PBFT mode -----------------------------------------------------------

    def _pbft_rounds(self, frame: int, outputs, replies: dict[int, str]):
        s = self.s
        start_round = self.world.round
        # statuses and engines change only between frames: `live` run the
        # frame, and restarting modules also take deliveries to catch up
        live = [(m, self.engines[m]) for m in range(self.n) if self._takes_part(m, frame)]
        receivers = dict(live)
        for m in self.supervisor.restarting:
            receivers[m] = self.engines[m]
        for m, engine in live:
            out = outputs[m]
            own = out[0] if isinstance(out, tuple) else out
            self._send_all(m, engine.start_frame(frame, own, start_round))

        finalized: Optional[str] = None
        finality_round = start_round
        bound = liveness_bound(self.f, s.timeout_rounds)
        drain = s.network.base_delay_rounds + s.network.jitter_rounds + 2

        while True:
            if finalized is not None and self.world.round >= finality_round + drain:
                break
            if finalized is None and self.world.round - start_round >= bound:
                break
            for env in self.world.advance_round():
                if env.to in receivers:
                    self._send_all(env.to, receivers[env.to].handle(env.payload, self.world.round))
                else:
                    self._observe_reply(replies, env, frame)
            for m, engine in live:
                self._send_all(m, engine.on_round(self.world.round))
            if finalized is None:
                finalized = self._reply_quorum(replies)
                finality_round = self.world.round

        # post-frame straggler sync: undecided honest replicas ask for the
        # committed prefix; committed peers answer with certificates.
        if finalized is not None:
            for m, engine in live:
                if not engine.inst.decided:
                    req = sign_message(self.registry, m, StateRequest(frame))
                    self.world.send(m, PEERS, req)
            for _ in range(2 * (s.network.base_delay_rounds + s.network.jitter_rounds) + 2):
                for env in self.world.advance_round():
                    if env.to in receivers:
                        self._send_all(env.to, receivers[env.to].handle(env.payload, self.world.round))
        else:
            self.liveness_failures.append(frame)

        # views in which honest replicas committed this frame; the first such
        # replica's votes for its decided value become the frame's vote log
        decided_views = []
        for m, engine in self.engines.items():
            inst = engine.inst if engine is not None else None
            if (
                inst is None
                or inst.frame != frame
                or inst.decided_view < 0
                or self.profiles[m].kind not in HONEST_KINDS
            ):
                continue
            view = inst.decided_view
            if not decided_views:
                want = value_digest(inst.decided_value)
                self.vote_logs[frame] = FrameVoteLog(
                    frame,
                    view,
                    frozenset(s_.sender for s_ in inst.matching(Prepare, view, want)),
                    frozenset(s_.sender for s_ in inst.matching(Commit, view, want)),
                )
            decided_views.append(view)
        view_changes = min(decided_views, default=0)

        rounds = finality_round - start_round if finalized is not None else bound
        return finalized, rounds, view_changes, None, False

    # --- vote-only mode ------------------------------------------------------

    def _broadcast_outputs(self, frame: int, outputs, digests_only: bool) -> None:
        for m in range(self.n):
            out = outputs[m]
            if out is None:  # also every module not active
                continue
            if isinstance(out, tuple):
                out_a, out_b = out
                others = [x for x in range(self.n) if x != m]
                half = len(others) // 2
                for dest in others[:half]:
                    self.world.send(m, dest, self._vote_payload(m, out_a, frame, digests_only))
                for dest in others[half:]:
                    self.world.send(m, dest, self._vote_payload(m, out_b, frame, digests_only))
                self.world.send(m, OBSERVER, self._vote_payload(m, out_b, frame, digests_only))
            else:
                self.world.send(m, BROADCAST, self._vote_payload(m, out, frame, digests_only))

    def _vote_payload(self, m: int, out: ModuleOutput, frame: int, digests_only: bool):
        if digests_only:
            ann = OutputDigest(frame, value_digest(out.value))
            return sign_message(self.registry, m, ann)
        return out

    def _deliver_window(self, frame: int, collect_outputs=None, collect_digests=None) -> None:
        s = self.s
        window = s.network.base_delay_rounds + s.network.jitter_rounds
        window += max(
            [p.delay_rounds for p in s.modules if p.kind == "slow"], default=0
        )
        for _ in range(window + 1):
            for env in self.world.advance_round():
                payload = env.payload
                if isinstance(payload, ModuleOutput):
                    if payload.frame != frame or not verify_output(self.registry, payload):
                        continue
                    if collect_outputs is not None:
                        collect_outputs.setdefault(env.to, {}).setdefault(
                            payload.module_id, payload
                        )
                elif isinstance(payload, Signed) and isinstance(payload.msg, OutputDigest):
                    if payload.msg.frame != frame or not payload.verify(self.registry):
                        continue
                    if collect_digests is not None:
                        collect_digests.setdefault(env.to, {}).setdefault(
                            payload.sender, payload.msg.value_digest
                        )

    def _vote_rounds(self, frame: int, outputs, replies: dict[int, str]):
        s = self.s
        fastpath = s.strategy.kind == "fastpath"
        inboxes: dict[int, dict[int, ModuleOutput]] = {}
        digest_boxes: dict[int, dict[int, bytes]] = {}

        rounds_used = 1
        self._broadcast_outputs(frame, outputs, digests_only=fastpath)
        self._deliver_window(frame, collect_outputs=inboxes, collect_digests=digest_boxes)

        if fastpath:
            # each participant decides locally whether the fast path closed
            for m in range(self.n):
                if isinstance(outputs[m], ModuleOutput):
                    digest_boxes.setdefault(m, {})[m] = value_digest(outputs[m].value)
            seen_by = [digest_boxes.get(m, {}) for m in (*range(self.n), OBSERVER)]
            if any(len(seen) < self.n or len(set(seen.values())) > 1 for seen in seen_by):
                rounds_used = 2
                self._broadcast_outputs(frame, outputs, digests_only=False)
                self._deliver_window(frame, collect_outputs=inboxes)

        def verdict_of(m: int) -> Verdict:
            """What module ``m``, or the observer, concludes from what it holds."""
            own = [outputs[m]] if isinstance(outputs.get(m), ModuleOutput) else []
            box = dict(inboxes.get(m, {}))
            for out in own:
                box[m] = out
            if fastpath:
                full = box.values() if rounds_used == 2 else own
                return fast_path_agree(digest_boxes.get(m, {}), full, s.quorum).verdict
            return tally(sorted(box.values(), key=attrgetter("module_id")), s.strategy, s.quorum)

        # every module taking part tallies what it saw and replies with its verdict
        verdicts: dict[int, Verdict] = {}
        for m in range(self.n):
            if not self._takes_part(m, frame):
                continue
            verdicts[m] = verdict_of(m)
            if verdicts[m].decided:
                reply = sign_message(self.registry, m, Reply(frame, verdicts[m].value))
                self.world.send(m, OBSERVER, reply)

        for _ in range(s.network.base_delay_rounds + s.network.jitter_rounds + 1):
            for env in self.world.advance_round():
                self._observe_reply(replies, env, frame)

        decided_labels = {
            v.value
            for m, v in verdicts.items()
            if v.decided and s.modules[m].kind in HONEST_KINDS
        }
        return self._reply_quorum(replies), rounds_used, 0, verdict_of(OBSERVER), len(decided_labels) > 1

    # --- top level -----------------------------------------------------------

    def run(self) -> EpisodeResult:
        events = self.supervisor.events
        for frame in range(self.s.frames):
            emitted = len(events)
            record = self._run_frame(frame)
            # the supervisor events of this frame, before its record
            for at, module, event in events[emitted:]:
                self.decision_log.append(f"{at}|SUPERVISOR|{module}|{event}")
            self.records.append(record)
            self.decision_log.append(record.line())
        return EpisodeResult(
            scenario=self.s,
            records=self.records,
            decision_log=self.decision_log,
            event_log=list(self.world.event_log),
            supervisor_events=list(self.supervisor.events),
            vote_logs=self.vote_logs,
            agreement_violations=sorted(set(self.agreement_violations)),
            liveness_failures=self.liveness_failures,
            module_agreement=self.supervisor.agreement_rates(),
        )


def run_episode(scenario: Scenario) -> EpisodeResult:
    return EpisodeRunner(scenario).run()
