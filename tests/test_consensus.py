"""Replica protocol: agreement, view changes, equivocation, state transfer.

The tests drive Replica objects directly through a tiny in-process message
pump instead of the simulated network, so schedules can be controlled (and,
for the equivocation property, enumerated) exactly.
"""
import itertools
import random
import sys
from dataclasses import replace

import pytest

from bftensemble.core import (
    OBSERVER,
    PEERS,
    DecisionSpace,
    KeyRegistry,
    QuorumConfig,
)
from bftensemble.consensus import (
    PHASE_PRE_PREPARED,
    PHASE_PREPARED,
    EquivocatingReplica,
    Replica,
    validate_proposal,
)
from bftensemble.messages import (
    Commit,
    EquivocationProof,
    NewView,
    Prepare,
    PrepareCertificate,
    PrePrepare,
    Reply,
    Signed,
    StateRequest,
    ViewChange,
    interned,
    sign_message,
    value_digest,
)

SPACE = DecisionSpace(labels=("north", "south", "east"), safe_default="north")
NORTH, SOUTH, EAST = (SPACE.value(l) for l in ("north", "south", "east"))


class Pump:
    """FIFO delivery between replicas; observer replies are collected aside."""

    def __init__(self, replicas: dict):
        self.replicas = replicas
        self.pending: list[tuple[int, Signed]] = []
        self.observer: list[Signed] = []
        self.blocked: set[int] = set()  # these replicas receive nothing

    def post(self, outbound) -> None:
        for dest, signed in outbound:
            if dest == PEERS:
                for m in self.replicas:
                    if m != signed.sender and m not in self.blocked:
                        self.pending.append((m, signed))
            elif dest == OBSERVER:
                self.observer.append(signed)
            elif dest not in self.blocked:
                self.pending.append((dest, signed))

    def deliver(self, index: int = 0, round_: int = 0) -> None:
        dest, signed = self.pending.pop(index)
        self.post(self.replicas[dest].handle(signed, round_))

    def drain(self, round_: int = 0, limit: int = 4000) -> None:
        while self.pending and limit:
            self.deliver(0, round_)
            limit -= 1
        assert not self.pending, "message pump did not quiesce"

    def run_rounds(self, last_round: int) -> None:
        """Fire round timers (and deliver their fallout) round by round."""
        for r in range(1, last_round + 1):
            for rep in self.replicas.values():
                self.post(rep.on_round(r))
            self.drain(round_=r)


def make_ensemble(n=4, f=1, leader_cls=Replica, timeout_rounds=10, **leader_kwargs):
    cfg = QuorumConfig(n=n, f=f)
    registry = KeyRegistry(17, range(n))
    replicas = {}
    for m in range(n):
        cls = leader_cls if m == 0 else Replica
        kwargs = leader_kwargs if m == 0 else {}
        replicas[m] = cls(
            m, cfg, SPACE, registry, timeout_rounds=timeout_rounds, **kwargs
        )
    return replicas, registry


@pytest.mark.parametrize("n, f", [(3, 1), (6, 1)])
def test_a_replica_needs_n_equal_3f_plus_1(n, f):
    """QuorumConfig(n=6, f=1) builds, with quorum 3, for vote-only use; PBFT
    refuses it, since two quorums of 3 among 6 need not share an honest
    replica."""
    cfg = QuorumConfig(n=n, f=f)
    with pytest.raises(ValueError, match=r"n = 3f\+1"):
        Replica(0, cfg, SPACE, KeyRegistry(17, range(n)))


def start(replicas, pump, outputs, frame=0):
    """Frame 0's view-0 leader is replica 0."""
    for m, rep in replicas.items():
        pump.post(rep.start_frame(frame, None, 0))
        rep.inst.own_output = outputs.get(m)
    # leader proposes after own_output is set
    pump.post(replicas[0].propose())


class TestHappyPath:
    def test_all_honest_commit_the_leader_value(self):
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        for rep in replicas.values():
            assert rep.inst.decided
            assert rep.inst.decided_value == NORTH
            assert rep.inst.decided_view == 0

    def test_each_replica_replies_to_the_observer(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        senders = {s.sender for s in pump.observer if isinstance(s.msg, Reply)}
        assert senders == {0, 1, 2, 3}
        assert all(s.verify(registry) for s in pump.observer)

    def test_quorum_of_prepares_triggers_commit(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        # deliver only the PrePrepares and then prepares one at a time
        rep1 = replicas[1]
        sent_before = len([1 for d, s in pump.pending if isinstance(s.msg, Commit)])
        assert sent_before == 0
        pump.drain()
        assert rep1.inst.phase == "committed"


class TestProposalValidation:
    def test_non_leader_proposals_are_refused(self):
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        out = replicas[2].propose()
        assert out == []
        assert any("non-leader" in v for v in replicas[2].violations)

    def test_mismatching_proposal_gets_no_prepare(self):
        # leader proposes EAST; everyone else observed NORTH
        outputs = {0: EAST, 1: NORTH, 2: NORTH, 3: NORTH}
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, outputs)
        pump.drain()
        for m in (1, 2, 3):
            assert not replicas[m].inst.decided
            # the only Prepare for EAST is the leader's own
            prepares = replicas[m].inst.votes[Prepare].get(0, {})
            assert set(prepares) <= {0, m} and m not in prepares

    def test_validate_proposal_is_exact_match(self):
        assert validate_proposal(NORTH, NORTH)
        assert not validate_proposal(NORTH, SOUTH)
        assert not validate_proposal(None, NORTH)

    def test_preprepare_from_non_leader_is_misbehavior(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        forged = sign_message(
            registry, 2, PrePrepare(0, 0, value_digest(SOUTH), SOUTH)
        )
        replicas[1].handle(forged, 0)
        assert (0, 2, "preprepare-from-non-leader") in replicas[1].misbehavior

    def test_stale_view_messages_are_dropped(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        rep = replicas[1]
        rep.inst.view = 3  # pretend we advanced
        stale = sign_message(registry, 2, Prepare(0, 1, value_digest(NORTH), NORTH))
        assert rep.handle(stale, 0) == []
        assert 1 not in rep.inst.votes[Prepare] or 2 not in rep.inst.votes[Prepare][1]

    @pytest.mark.parametrize(
        "make, accepted",
        [
            (lambda reg, msg: Signed(msg, 3, reg.sign(3, msg.payload_digest())), True),
            (lambda reg, msg: Signed(msg, 3, reg.sign(2, msg.payload_digest())), False),
            (lambda reg, msg: replace(sign_message(reg, 3, msg), msg=replace(msg, value=SOUTH)), False),
            (lambda reg, msg: sign_message(KeyRegistry(999, range(4)), 3, msg), False),
        ],
        ids=["built-directly", "forged-tag", "tampered-copy", "other-master-seed"],
    )
    def test_bad_tag_is_recorded_and_ignored(self, make, accepted, monkeypatch):
        """Only a Signed that sign_message made with the replica's own
        registry skips the MAC: any other is checked once, and a tag that
        fails is recorded as misbehaviour and its vote is not."""
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        signed = make(registry, Prepare(0, 0, value_digest(NORTH), NORTH))
        checks = []
        real = KeyRegistry.verify
        monkeypatch.setattr(KeyRegistry, "verify", lambda self, *a: checks.append(a) or real(self, *a))
        rep = replicas[1]
        assert rep.handle(signed, 0) == []
        assert len(checks) == 1
        assert (rep.inst.votes[Prepare][0].get(3) is signed) == accepted
        assert ((0, 3, "bad-tag") in rep.misbehavior) != accepted


class TestViewChange:
    def test_silent_leader_is_rotated_out(self):
        replicas, _ = make_ensemble(timeout_rounds=4)
        del replicas[0]  # the leader never says anything
        pump = Pump(replicas)
        for m, rep in replicas.items():
            pump.post(rep.start_frame(0, None, 0))
            rep.inst.own_output = NORTH
        pump.run_rounds(12)
        for rep in replicas.values():
            assert rep.inst.decided
            assert rep.inst.decided_value == NORTH
            assert rep.inst.decided_view == 1  # new leader is replica 1

    def test_new_view_re_proposes_the_certified_value(self):
        """A replica holding a PrepareCertificate forces the next leader to
        carry the certified value over, even against the others' own outputs."""
        replicas, registry = make_ensemble(timeout_rounds=4)
        pump = Pump(replicas)
        # replicas 2 and 3 observed NORTH; the certified value will be SOUTH
        start(replicas, pump, {0: SOUTH, 1: SOUTH, 2: NORTH, 3: NORTH})
        pump.pending.clear()
        # hand replica 1 a full prepare quorum for SOUTH, then silence the
        # leader before any commit quorum can form
        rep1 = replicas[1]
        d = value_digest(SOUTH)
        rep1.handle(sign_message(registry, 0, PrePrepare(0, 0, d, SOUTH)), 0)
        for sender in (0, 2):
            rep1.handle(sign_message(registry, sender, Prepare(0, 0, d, SOUTH)), 0)
        assert rep1.inst.prepared_cert is not None
        del replicas[0]
        pump.pending.clear()
        pump.run_rounds(12)
        # view 1's leader is replica 1, which owns the certificate; 2 and 3
        # must adopt SOUTH despite having observed NORTH
        for rep in replicas.values():
            assert rep.inst.decided
            assert rep.inst.decided_value == SOUTH
            assert rep.inst.decided_view == 1

    def test_newview_for_an_entered_view_without_a_preprepare_is_ignored(self):
        """A retransmitted NewView passes the same proposal checks as the
        first: a signed NewView for a view already entered whose proposal is
        not a PrePrepare changes nothing."""
        replicas, registry = make_ensemble()
        rep2 = replicas[2]
        rep2.start_frame(0, None, 0)
        rep2.inst.newviews.add(1)
        rep2.inst.view = 1
        bogus = NewView(0, 1, (), sign_message(registry, 1, Reply(0, NORTH)))
        assert rep2.handle(sign_message(registry, 1, bogus), 5) == []
        # nor does one whose PrePrepare carries a forged tag
        forged = Signed(PrePrepare(0, 1, value_digest(SOUTH), SOUTH), 1, bytes(16))
        assert rep2.handle(sign_message(registry, 1, NewView(0, 1, (), forged)), 5) == []
        assert rep2.inst.leader_endorsements == {}

    @pytest.mark.parametrize(
        "signer, kind, view, moves",
        [
            (0, PrePrepare, 0, True),  # view 0's leader equivocated
            (3, Prepare, 0, False),  # a non-leader's own conflicting votes
            (3, PrePrepare, 3, False),  # a view its signer leads, not yet reached
        ],
    )
    def test_one_view_change_moves_a_replica_only_on_proof_against_a_leader(
        self, signer, kind, view, moves
    ):
        """Module 3 sends ViewChange(0, 50) carrying a valid EquivocationProof
        signed by ``signer``.  A replica in view 0 follows it to view 50 only
        when the proof convicts the leader of frame 0 in a view it has
        reached."""
        replicas, registry = make_ensemble()
        proof = EquivocationProof(
            *(sign_message(registry, signer, kind(0, view, value_digest(v), v)) for v in (NORTH, SOUTH))
        )
        assert proof.valid(registry)
        vc = sign_message(registry, 3, ViewChange(0, 50, None, proof))
        for rep in (replicas[1], replicas[2]):
            rep.start_frame(0, None, 0)
            rep.handle(vc, 1)
            assert rep.inst.view == (50 if moves else 0)
            assert (rep.inst.evidence is proof) is moves

    @pytest.mark.parametrize("leader_of_view, moves", [(0, False), (1, True)])
    def test_a_proof_moves_a_replica_only_about_its_own_view(self, leader_of_view, moves):
        """Replica 2 timed out into view 1 of frame 0.  Module 3's
        ViewChange(0, 2) carries a valid proof against the leader of view
        ``leader_of_view``: a proof against view 0's leader, a view already
        left, moves it nowhere; one against view 1's leader moves it to view 2."""
        replicas, registry = make_ensemble(timeout_rounds=10)
        rep = replicas[2]
        rep.start_frame(0, None, 0)
        rep.on_round(10)
        assert rep.inst.view == 1
        signer = rep.leader_of(0, leader_of_view)
        proof = EquivocationProof(
            *(sign_message(registry, signer, PrePrepare(0, leader_of_view, value_digest(v), v)) for v in (NORTH, SOUTH))
        )
        assert proof.valid(registry)
        rep.handle(sign_message(registry, 3, ViewChange(0, 2, None, proof)), 11)
        assert rep.inst.view == (2 if moves else 1)
        assert (rep.inst.evidence is proof) is moves

    def test_view_change_needs_a_quorum_of_voices(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        rep1 = replicas[1]
        vc = sign_message(registry, 2, ViewChange(0, 1, None, None))
        rep1.handle(vc, 0)
        assert rep1.inst.view == 0  # one voice moves nobody


class TestTimeout:
    """An undecided replica's round timer fires once the view has been open
    timeout_rounds rounds: a ViewChange to the next view, to its peers.  A
    StateRequest for the frame follows it only when the replica holds f+1
    matching Commits for one (view, digest) of the frame, in any view: one of
    them is a correct replica's, so the frame may have committed without it.
    With at most f, nothing shows that anyone committed, and it asks no one.
    A decided replica's timer is silent."""

    @staticmethod
    def follower(opened_at=2):
        replicas, registry = make_ensemble(timeout_rounds=10)
        rep = replicas[1]  # frame 0's view-0 leader is replica 0
        rep.start_frame(0, None, opened_at)
        return rep, registry

    @staticmethod
    def hand_commits(rep, registry, votes, view=0):
        """Deliver one Commit of ``view`` per (signer, value) in ``votes``."""
        for signer, value in votes:
            assert rep.handle(sign_message(registry, signer, Commit(0, view, value_digest(value), value)), 3) == []

    def test_fires_at_timeout_rounds(self):
        for votes, asks in [
            ((), False),
            (((2, NORTH),), False),  # f Commits
            (((2, NORTH), (3, SOUTH)), False),  # f+1 Commits, but for two digests
            (((2, NORTH), (3, NORTH)), True),  # f+1 matching Commits
        ]:
            rep, registry = self.follower()
            self.hand_commits(rep, registry, votes)
            out = rep.on_round(12)
            assert [(dest, type(signed.msg)) for dest, signed in out] == [
                (PEERS, ViewChange),
                *[(PEERS, StateRequest)] * asks,
            ]
            assert out[0][1].msg.new_view == 1 and all(s.msg.up_to_frame == 0 for _, s in out[1:])
            assert rep.inst.view == 1 and rep.inst.view_start_round == 12

    def test_quiet_one_round_earlier(self):
        rep, _ = self.follower()
        assert rep.on_round(11) == []
        assert rep.inst.view == 0 and rep.inst.view_start_round == 2

    def test_decided_replica_stays_silent(self):
        replicas, _ = make_ensemble(timeout_rounds=10)
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        for rep in replicas.values():
            assert rep.inst.decided and rep.inst.view_start_round == 0
            assert [rep.on_round(r) for r in (9, 10, 100)] == [[], [], []]

    @pytest.mark.parametrize("how", ["commit-quorum", "snapshot", "start-frame"])
    def test_a_replica_decided_any_way_stays_silent(self, how):
        """The episode runner fires no timer of a decided replica.  That sends
        the same bytes only if ``on_round`` sends nothing after each way a
        replica decides: a Commit quorum, a snapshot, or the start of a frame
        it already learned."""
        replicas, registry = make_ensemble(timeout_rounds=10)
        pump = Pump(replicas)
        pump.blocked.add(1)  # replica 1 hears only the proposal of frame 0
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        rep, snap = replicas[1], replicas[0].build_snapshot()
        assert [type(s.msg) for _, s in rep.handle(replicas[0].inst.proposal, 1)] == [Prepare]
        assert not rep.inst.decided and rep.inst.outbox
        if how == "commit-quorum":
            d = value_digest(NORTH)
            for sender in (0, 2, 3):
                rep.handle(sign_message(registry, sender, Commit(0, 0, d, NORTH)), 1)
        elif how == "snapshot":
            assert [type(s.msg) for _, s in rep.apply_snapshot(snap)] == [Reply]
        else:
            rep = Replica(1, rep.cfg, SPACE, registry, timeout_rounds=10)
            assert rep.apply_snapshot(snap) == []  # no frame running yet
            assert rep.start_frame(0, NORTH, 0) == []
        assert rep.inst.decided and rep.inst.decided_value == NORTH
        # a retransmission point, the timeout, and both at once
        assert [rep.on_round(r) for r in (3, 10, 30)] == [[], [], []]
        assert rep.inst.view == 0

    def test_newview_for_the_entered_view_keeps_its_clock(self):
        """A replica that timed out into view 1 at round 12 and then gets a
        NewView(1) it does not endorse still times out of view 1 at 22.  It
        asks for state only if it holds f+1 matching Commits, here of view 0."""
        for asks in (False, True):
            self.newview_keeps_the_clock(asks)

    def newview_keeps_the_clock(self, asks):
        replicas, registry = make_ensemble(timeout_rounds=10)
        for m, rep in replicas.items():
            rep.start_frame(0, None, 2)
            rep.inst.own_output = SOUTH if m == 1 else NORTH
        # view 0's leader (replica 0) is silent; view 1's is replica 1
        leader, rep = replicas[1], replicas[2]
        if asks:
            self.hand_commits(rep, registry, [(1, NORTH), (3, NORTH)])
        vcs = {m: replicas[m].on_round(12)[0][1] for m in (1, 2, 3)}
        assert leader.handle(vcs[2], 12) == []
        newviews = [s for _, s in leader.handle(vcs[3], 12) if isinstance(s.msg, NewView)]
        assert newviews and newviews[0].msg.proposal.msg.value == SOUTH
        assert rep.handle(newviews[0], 15) == []  # NORTH's replica withholds its Prepare
        assert rep.inst.view == 1 and rep.inst.view_start_round == 12
        assert rep.on_round(21) == []
        out = rep.on_round(22)
        assert [type(signed.msg) for _, signed in out] == [ViewChange] + [StateRequest] * asks
        assert out[0][1].msg.new_view == 2 and rep.inst.view_start_round == 22

    def test_view_entered_on_equivocation_proof_starts_its_clock(self):
        """Proof of the leader's equivocation at round 5 moves a replica to
        view 1, whose timeout runs from round 5, not from view 0's start.  It
        asks for state only if it holds f+1 matching Commits, here of view 1."""
        for asks in (False, True):
            self.proof_starts_the_clock(asks)

    def proof_starts_the_clock(self, asks):
        replicas, registry = make_ensemble(timeout_rounds=10)
        rep = replicas[1]
        rep.start_frame(0, None, 0)
        rep.inst.own_output = NORTH
        for value in (NORTH, SOUTH):
            rep.handle(sign_message(registry, 0, PrePrepare(0, 0, value_digest(value), value)), 5)
        assert rep.inst.evidence is not None
        assert rep.inst.view == 1 and rep.inst.view_start_round == 5
        if asks:
            self.hand_commits(rep, registry, [(2, SOUTH), (3, SOUTH)], view=1)
        for round_ in range(6, 15):
            # at most a retransmission of its ViewChange for view 1
            for _, signed in rep.on_round(round_):
                assert isinstance(signed.msg, ViewChange) and signed.msg.new_view == 1
        out = rep.on_round(15)
        assert [type(signed.msg) for _, signed in out] == [ViewChange] + [StateRequest] * asks
        assert out[0][1].msg.new_view == 2 and rep.inst.view == 2

    @pytest.mark.parametrize("held", [1, 2])
    def test_a_replica_that_saw_the_frame_commit_catches_up_on_its_timeout(self, held):
        """Replica 3 hears nothing of frame 0 while the others decide it;
        then ``held`` of their Commits reach it.  With f+1 its timeout asks
        for state, and it decides on the first peer's snapshot; with f it
        only calls for a view change, which one voice cannot bring about."""
        replicas, registry = make_ensemble(timeout_rounds=10)
        pump = Pump(replicas)
        pump.blocked.add(3)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.drain()
        late = replicas[3]
        assert all(replicas[m].inst.decided for m in (0, 1, 2)) and not late.inst.decided
        for signed in replicas[0].frame_certs[0].votes[:held]:
            assert late.handle(signed, 5) == []
        pump.blocked.clear()
        pump.run_rounds(10)
        assert late.inst.decided is (held == 2)
        if late.inst.decided:
            assert late.inst.decided_value == NORTH and late.inst.decided_view == -1
            assert late.frame_certs[0] == replicas[0].frame_certs[0]
        assert all(rep.inst.view == 0 for m, rep in replicas.items() if m != 3)
        assert late.inst.view == 1


def equivocation_ensemble(timeout_rounds=4, sloppy=True):
    return make_ensemble(
        leader_cls=EquivocatingReplica,
        timeout_rounds=timeout_rounds,
        label_a=NORTH,
        label_b=SOUTH,
        sloppy=sloppy,
    )


def run_equivocation_schedule(prefix, timeout_rounds=4, last_round=16):
    """Deliver `prefix` (indices into the pending queue) first, then drain and
    run timers.  Returns the replica map after quiescence."""
    replicas, _ = equivocation_ensemble(timeout_rounds=timeout_rounds)
    pump = Pump(replicas)
    start(replicas, pump, {0: None, 1: SOUTH, 2: SOUTH, 3: SOUTH})
    for choice in prefix:
        if not pump.pending:
            break
        pump.deliver(choice % len(pump.pending))
    pump.drain()
    pump.run_rounds(last_round)
    return replicas


def sent_viewchange(m, rep):
    """Replica ``m`` signed a ViewChange: its own entry in some view's set."""
    return any(m in vcs for vcs in rep.inst.view_changes.values())


def check_agreement_and_deposition(replicas):
    honest = {m: rep for m, rep in replicas.items() if m != 0}
    decided = {m: rep.inst.decided_value for m, rep in honest.items() if rep.inst.decided}
    assert len(set(decided.values())) <= 1, f"split decision {decided}"
    assert len(decided) == len(honest), "an honest replica never decided"
    # deposition: some honest replica called for a view change
    assert any(sent_viewchange(m, rep) for m, rep in honest.items())
    # certificate soundness: per frame, certified digests agree per view
    certs = [rep.inst.prepared_cert for rep in honest.values() if rep.inst.prepared_cert]
    by_view = {}
    for cert in certs:
        by_view.setdefault(cert.view, set()).add(cert.value_digest)
    assert all(len(digests) == 1 for digests in by_view.values())


class TestEquivocation:
    def test_scripted_split_never_splits_the_decision(self):
        replicas = run_equivocation_schedule(prefix=())
        check_agreement_and_deposition(replicas)

    def test_evidence_triggers_view_change_before_timeout(self):
        replicas, _ = equivocation_ensemble(timeout_rounds=50)
        pump = Pump(replicas)
        start(replicas, pump, {0: None, 1: SOUTH, 2: SOUTH, 3: SOUTH})
        pump.drain()  # no timer ever fires: round stays 0
        deposers = [m for m, rep in replicas.items() if m != 0 and sent_viewchange(m, rep)]
        assert deposers, "no view change despite proof of equivocation"
        evidence = [rep.inst.evidence for m, rep in replicas.items() if m != 0]
        assert any(e is not None for e in evidence)

    def test_exhaustive_schedules_bounded_depth(self):
        """All delivery-order prefixes up to depth 3: the honest replicas never
        commit two different values and always converge after timeouts."""
        depth = 3
        initial_pending = 12  # equivocator fan-out for n=4 (pairs + 2 commits)
        for d in range(depth + 1):
            for prefix in itertools.product(range(initial_pending), repeat=d):
                replicas = run_equivocation_schedule(prefix)
                check_agreement_and_deposition(replicas)

    def test_tight_lipped_equivocator_is_still_contained(self):
        """Without the sloppy conflicting commits there may be no proof, but
        agreement must still hold (one side simply times out)."""
        replicas, _ = equivocation_ensemble(timeout_rounds=4, sloppy=False)
        pump = Pump(replicas)
        start(replicas, pump, {0: None, 1: SOUTH, 2: SOUTH, 3: SOUTH})
        pump.drain()
        pump.run_rounds(16)
        decided = {
            rep.inst.decided_value for m, rep in replicas.items() if m != 0 and rep.inst.decided
        }
        assert len(decided) <= 1


class TestStateTransfer:
    def run_frames(self, replicas, pump, frames, deaf=()):
        """Run happy-path frames; `deaf` replicas send but hear nothing."""
        pump.blocked |= set(deaf)
        for frame in range(frames):
            leader = frame % 4
            for m, rep in replicas.items():
                pump.post(rep.start_frame(frame, None, 0))
                rep.inst.own_output = NORTH
            pump.post(replicas[leader].propose())
            pump.drain()

    def test_snapshot_roundtrip_catches_a_straggler_up(self):
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        self.run_frames(replicas, pump, frames=5, deaf=(3,))
        donor = replicas[0]
        assert donor.last_contiguous_frame == 4
        snap = donor.build_snapshot()
        assert snap is not None and snap.up_to_frame() == 4
        straggler = replicas[3]
        straggler.apply_snapshot(snap)
        assert straggler.last_contiguous_frame == 4
        assert all(straggler.committed[f] == NORTH for f in range(5))

    def test_checkpoint_prunes_per_frame_certificates(self):
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        self.run_frames(replicas, pump, frames=5)
        donor = replicas[1]
        assert donor.stable_checkpoint is not None
        assert donor.stable_checkpoint.up_to_frame == 4
        # certificates covered by the stable checkpoint were discarded
        assert all(f > 4 for f in donor.frame_certs)

    def test_tampered_snapshot_is_rejected(self):
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        self.run_frames(replicas, pump, frames=3, deaf=(3,))
        snap = replicas[0].build_snapshot()
        # graft a different value onto a stolen certificate
        bad_cert = replace(snap.frame_certs[0], value=SOUTH)
        bad = type(snap)(checkpoint=snap.checkpoint, frame_certs=(bad_cert,))
        straggler = replicas[3]
        straggler.apply_snapshot(bad)
        assert 0 not in straggler.committed

    def test_a_rejected_snapshot_adopts_nothing(self):
        """A snapshot with one bad certificate is rejected whole: the valid
        certificates before it are not adopted either."""
        replicas, _ = make_ensemble()
        pump = Pump(replicas)
        self.run_frames(replicas, pump, frames=3, deaf=(3,))
        snap = replicas[0].build_snapshot()
        assert snap.checkpoint is None and len(snap.frame_certs) == 3
        certs = list(snap.frame_certs)
        certs[1] = replace(certs[1], value=SOUTH)
        straggler = replicas[3]
        assert straggler.apply_snapshot(replace(snap, frame_certs=tuple(certs))) == []
        assert straggler.committed == {}
        assert straggler.frame_certs == {}

    def test_commit_quorum_alone_suffices_to_learn(self):
        """A replica that missed the PrePrepare entirely still commits once
        2f+1 matching Commits arrive, because Commits carry the value."""
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        # replica 3 sees nothing but the commit messages
        pump.blocked.add(3)
        pump.pending = [(d, s) for d, s in pump.pending if d != 3]
        pump.drain()
        late = replicas[3]
        assert not late.inst.decided
        d = value_digest(NORTH)
        for sender in (0, 1, 2):
            late.handle(sign_message(registry, sender, Commit(0, 0, d, NORTH)), 0)
        assert late.inst.decided
        assert late.inst.decided_value == NORTH


class TestCommitQuorum:
    """A replica commits on 2f+1 Commits from distinct signers for one
    (view, digest); it learns the value from the Commits themselves."""

    # replica 3 leads frame 3's view 0, so the Commits it hears from 0, 1
    # and 2 there are not leader endorsements (two of those would be proof
    # of equivocation and move it to view 1)
    FRAME = 3

    @classmethod
    def listener(cls):
        replicas, registry = make_ensemble()
        rep = replicas[3]
        rep.start_frame(cls.FRAME, None, 0)
        return rep, registry

    @classmethod
    def commit(cls, registry, sender, view=0, value=NORTH, digest_of=None):
        d = value_digest(digest_of or value)
        return sign_message(registry, sender, Commit(cls.FRAME, view, d, value))

    def test_conflicting_second_commit_from_one_signer_is_not_counted(self):
        rep, registry = self.listener()
        rep.handle(self.commit(registry, 0, value=NORTH), 0)
        rep.handle(self.commit(registry, 0, value=SOUTH), 0)
        rep.handle(self.commit(registry, 1, value=SOUTH), 0)
        rep.handle(self.commit(registry, 2, value=SOUTH), 0)
        assert not rep.inst.decided
        assert rep.misbehavior == [(self.FRAME, 0, "conflicting-commit")]
        rep.handle(self.commit(registry, 0, value=NORTH), 0)  # a retransmission
        assert not rep.inst.decided

    def test_commits_split_across_views_do_not_add_up(self):
        rep, registry = self.listener()
        for sender in (0, 1):
            rep.handle(self.commit(registry, sender, view=0), 0)
        rep.handle(self.commit(registry, 2, view=1), 0)
        assert not rep.inst.decided
        for sender in (0, 1):
            rep.handle(self.commit(registry, sender, view=1), 0)
        assert rep.inst.decided and rep.inst.decided_view == 1
        assert {v.msg.view for v in rep.frame_certs[self.FRAME].votes} == {1}
        assert rep.misbehavior == []

    def test_mismatched_commit_is_not_counted(self):
        # SOUTH's digest gets two Commits; the third carries SOUTH under
        # NORTH's digest, so it is not one of them
        rep, registry = self.listener()
        rep.handle(self.commit(registry, 0, value=SOUTH, digest_of=NORTH), 0)
        for sender in (1, 2):
            rep.handle(self.commit(registry, sender, value=SOUTH), 0)
        assert not rep.inst.decided
        # nor does it count toward NORTH's digest: it is rejected as misbehaviour
        rep, registry = self.listener()
        rep.handle(self.commit(registry, 1, value=NORTH), 0)
        rep.handle(self.commit(registry, 0, value=SOUTH, digest_of=NORTH), 0)
        rep.handle(self.commit(registry, 2, value=NORTH), 0)
        assert not rep.inst.decided
        assert rep.misbehavior == [(self.FRAME, 0, "digest-mismatch")]
        assert 0 not in rep.inst.votes[Commit][0]
        # the signer's well-formed Commit still counts
        rep.handle(self.commit(registry, 0, value=NORTH), 0)
        assert rep.inst.decided and rep.inst.decided_value == NORTH
        assert [v.sender for v in rep.frame_certs[self.FRAME].votes] == [0, 1, 2]

    def test_missed_preprepare_and_a_mismatched_commit(self):
        """A replica that missed the PrePrepare learns the value from the
        Commits, so a faulty signer's SOUTH under NORTH's digest must not
        become its decision."""
        replicas, registry = make_ensemble()
        pump = Pump(replicas)
        start(replicas, pump, {m: NORTH for m in replicas})
        pump.blocked.add(3)
        pump.pending = [(d, s) for d, s in pump.pending if d != 3]
        pump.drain()
        late = replicas[3]
        d = value_digest(NORTH)
        late.handle(sign_message(registry, 1, Commit(0, 0, d, SOUTH)), 0)
        for sender in (0, 2):
            late.handle(sign_message(registry, sender, Commit(0, 0, d, NORTH)), 0)
        assert late.committed.get(0) != SOUTH and late.inst.decided_value != SOUTH
        assert all(cert.valid(registry, 3) for cert in late.frame_certs.values())
        assert (0, 1, "digest-mismatch") in late.misbehavior
        late.handle(sign_message(registry, 1, Commit(0, 0, d, NORTH)), 0)
        assert late.inst.decided_value == NORTH and late.committed[0] == NORTH
        assert late.frame_certs[0].valid(registry, 3)

    def test_frame_cert_votes_are_sorted_by_sender(self):
        rep, registry = self.listener()
        for sender in (2, 0, 1):
            rep.handle(self.commit(registry, sender), 0)
        cert = rep.frame_certs[self.FRAME]
        assert [v.sender for v in cert.votes] == [0, 1, 2]
        assert cert.valid(registry, 3)


def rescan(inst, kind, view, want):
    """The recorded ``kind`` votes of ``view`` naming ``want``, by signer,
    read from the per-view map without the tallies or FrameInstance.matching."""
    votes = inst.votes[kind].get(view, {}).values()
    return tuple(sorted((s for s in votes if s.msg.value_digest == want), key=lambda s: s.sender))


class RescanReplica(Replica):
    """Reference for the vote path: every vote takes the full path,
    retransmissions of a recorded vote included, and checks the leader's
    endorsements, records the vote and runs the quorum check of its class.
    Both quorum checks rebuild the list of matching votes from the per-view
    maps, with no running tallies.  The path, the recording and the checks
    are this class's own, so the reference does not run the code it judges."""

    def handle(self, signed, round_):
        msg, inst = signed.msg, self.inst
        if (
            isinstance(msg, (Prepare, Commit))
            and signed.verify(self.registry)
            and inst is not None
            and msg.frame == inst.frame
            and msg.view >= inst.view
        ):
            return self._rescan_vote(signed, round_)
        return super().handle(signed, round_)

    def _rescan_vote(self, signed, round_):
        msg = signed.msg
        if type(msg) is Commit and msg.value_digest != value_digest(msg.value):
            self.misbehavior.append((self.inst.frame, signed.sender, "digest-mismatch"))
            return []
        out = self._note_leader_endorsement(signed, round_)
        self._record_vote(signed)
        if type(msg) is Prepare:
            return out + self._check_prepared()
        return out + self._check_committed(signed)

    def _note_leader_endorsement(self, signed, round_):
        # takes any endorsement, and notes only the leader's
        if signed.sender != self.leader_of(self.inst.frame, signed.msg.view):
            return []
        return super()._note_leader_endorsement(signed, round_)

    def _record_vote(self, signed):
        msg = signed.msg
        votes = self.inst.votes[type(msg)].setdefault(msg.view, {})
        prev = votes.get(signed.sender)
        if prev is None:
            votes[signed.sender] = signed
        elif prev.msg.value_digest != msg.value_digest:
            conflict = f"conflicting-{type(msg).__name__.lower()}"
            self.misbehavior.append((self.inst.frame, signed.sender, conflict))

    def _check_prepared(self):
        inst = self.inst
        if inst.phase != PHASE_PRE_PREPARED or inst.proposal is None:
            return []
        want = inst.proposal.msg.value_digest
        votes = rescan(inst, Prepare, inst.view, want)
        if len(votes) < self.cfg.quorum:
            return []
        inst.phase = PHASE_PREPARED
        cert = PrepareCertificate(
            frame=inst.frame,
            view=inst.view,
            value_digest=want,
            value=inst.proposal.msg.value,
            votes=votes,
        )
        if inst.prepared_cert is None or cert.view > inst.prepared_cert.view:
            inst.prepared_cert = cert
        signed_commit = self._to_peers(Commit(inst.frame, inst.view, want, inst.proposal.msg.value))
        self._record_vote(signed_commit)
        return [(PEERS, signed_commit)] + self._check_committed(signed_commit)

    def _check_committed(self, signed):
        inst = self.inst
        if inst.decided:
            return []
        want = signed.msg.value_digest
        matching = rescan(inst, Commit, signed.msg.view, want)
        if len(matching) >= self.cfg.quorum:
            return self._commit(matching)
        return []


def by_identity(rep, signed):
    """A recorded vote or endorsement as it should match across the pair:
    a delivered one is the very object both replicas were handed, and the
    replica's own is equal by value, since each replica signs its own."""
    return signed if signed.sender == rep.module_id else id(signed)


def replica_state(rep):
    inst = rep.inst
    evidence = inst.evidence
    return (
        inst.phase,
        inst.view,
        inst.decided,
        inst.decided_value,
        inst.decided_view,
        inst.prepared_cert,
        dict(rep.frame_certs),
        list(rep.misbehavior),
        {
            (kind.__name__, view, signer): by_identity(rep, s)
            for kind, by_view in inst.votes.items()
            for view, by_signer in by_view.items()
            for signer, s in by_signer.items()
        },
        evidence and (by_identity(rep, evidence.first), by_identity(rep, evidence.second)),
        {
            (view, d): by_identity(rep, s)
            for view, by_digest in inst.leader_endorsements.items()
            for d, s in by_digest.items()
        },
    )


class TestRunningTallies:
    """Random Prepares and Commits (duplicates, conflicting second votes,
    several views and digests, and digests that do not match their value)
    drive a Replica and a RescanReplica alike; after every step both must
    agree."""

    FRAME = 0  # so replica v leads view v

    def test_same_state_as_a_rescan(self):
        reached = {"prepared": 0, "decided": 0, "conflict": 0, "no-decision": 0}
        for seed in range(200):
            rng = random.Random(seed)
            n, f = rng.choice([(4, 1), (7, 2)])
            cfg = QuorumConfig(n=n, f=f)
            registry = KeyRegistry(seed, range(n))
            me = n - 1
            pair = [
                cls(me, cfg, SPACE, registry, timeout_rounds=1000)
                for cls in (Replica, RescanReplica)
            ]
            for rep in pair:
                rep.start_frame(self.FRAME, None, 0)
                rep.inst.own_output = NORTH
            sent = []
            for step in range(rng.randrange(10, 120)):
                if sent and rng.random() < 0.2:
                    signed = rng.choice(sent)  # a duplicate
                else:
                    kind = rng.choices([PrePrepare, Prepare, Commit], [1, 6, 6])[0]
                    signer = 0 if kind is PrePrepare else rng.randrange(n - 1)
                    value = rng.choices([NORTH, SOUTH, EAST], [12, 2, 1])[0]
                    named = value if rng.random() < 0.95 else rng.choice([NORTH, SOUTH])
                    view = rng.choices([0, 1, 2], [6, 2, 1])[0]
                    msg = kind(self.FRAME, view, value_digest(named), value)
                    signed = sign_message(registry, signer, msg)
                    sent.append(signed)
                outs = [rep.handle(signed, step) for rep in pair]
                assert outs[0] == outs[1], (seed, step)
                assert replica_state(pair[0]) == replica_state(pair[1]), (seed, step)
                recorded = {
                    (kind, view, s.msg.value_digest)
                    for kind, by_view in pair[1].inst.votes.items()
                    for view, by_signer in by_view.items()
                    for s in by_signer.values()
                }
                assert recorded == pair[0].inst.tallies.keys(), (seed, step)
                for kind, view, d in recorded:
                    bucket = pair[0].inst.matching(kind, view, d)
                    assert bucket == rescan(pair[1].inst, kind, view, d), (seed, step)
            tallied = pair[0]
            reached["prepared"] += tallied.inst.prepared_cert is not None
            reached["decided"] += tallied.inst.decided
            reached["no-decision"] += not tallied.inst.decided
            reached["conflict"] += any("conflicting" in what for _, _, what in tallied.misbehavior)
        assert all(reached.values()), reached


def python_calls(fn, *args) -> list[str]:
    """The names of the Python-level functions ``fn(*args)`` enters, itself
    first; builtins and C-level methods are not counted."""
    names = []

    def profile(frame, event, arg):
        if event == "call":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
    return names


class TestCallBudget:
    """The per-message path runs in one Python frame per delivered vote and
    one per signature, whose tag waits for its first read.  Every Prepare and Commit of a frame goes through
    these paths, so a helper call added to them costs on every delivery."""

    def replica_with_votes(self):
        """Replica 1 of seven in view 0, holding the leader's proposal, its
        own Prepare and replica 2's: two of the five a quorum needs.  The
        first vote of a view has also filled the view's leader."""
        replicas, registry = make_ensemble(n=7, f=2)
        rep = replicas[1]
        rep.start_frame(0, NORTH, 0)
        proposal = PrePrepare(0, 0, value_digest(NORTH), NORTH)
        rep.handle(sign_message(registry, 0, proposal), 0)
        rep.handle(sign_message(registry, 2, Prepare(0, 0, value_digest(NORTH), NORTH)), 0)
        return rep, registry

    def test_a_fresh_vote_below_the_quorum(self):
        rep, registry = self.replica_with_votes()
        vote = sign_message(registry, 3, Prepare(0, 0, value_digest(NORTH), NORTH))
        assert python_calls(rep.handle, vote, 0) == ["handle"]
        assert len(rep.inst.matching(Prepare, 0, value_digest(NORTH))) == 3

    def test_a_retransmission_of_a_recorded_vote(self):
        rep, registry = self.replica_with_votes()
        vote = sign_message(registry, 3, Prepare(0, 0, value_digest(NORTH), NORTH))
        rep.handle(vote, 0)
        assert python_calls(rep.handle, vote, 0) == ["handle"]
        assert len(rep.inst.matching(Prepare, 0, value_digest(NORTH))) == 3

    def test_signing_an_interned_message(self):
        registry = KeyRegistry(17, range(4))
        msg = interned(Commit, 0, 0, value_digest(NORTH), NORTH)
        assert python_calls(sign_message, registry, 1, msg) == ["sign_message"]
