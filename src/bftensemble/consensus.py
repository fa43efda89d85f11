"""PBFT-style replica state machine: lead, prepare, commit, change views,
checkpoint, and transfer state.

Each replica is a deterministic transition function (state, message) ->
(state, outbound messages).  Replicas never share state; everything flows
through the simulated network.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter
from typing import Optional

from .core import (
    OBSERVER,
    PEERS,
    DecisionSpace,
    KeyRegistry,
    ModuleOutput,
    QuorumConfig,
    canonical,
    digest,
)
from .messages import (
    Checkpoint,
    CheckpointAttest,
    Commit,
    EquivocationProof,
    FrameCert,
    NewView,
    Prepare,
    PrepareCertificate,
    PrePrepare,
    Reply,
    Signed,
    StateRequest,
    StateSnapshot,
    ViewChange,
    log_prefix_digest,
    sign_message,
    signers,
)

PHASE_IDLE = "idle"
PHASE_PRE_PREPARED = "pre-prepared"
PHASE_PREPARED = "prepared"
PHASE_COMMITTED = "committed"

Outbound = tuple[int, Signed]  # (destination, signed message)


@lru_cache(maxsize=256)
def value_digest(value: str) -> bytes:
    # a decision space has a few labels
    return digest(canonical("decision", value))


def validate_proposal(own: Optional[str], proposed: str) -> bool:
    """Exact-match endorsement: a replica backs the leader's value only if it
    matches its own output.  Dissent is expressed by withholding the Prepare."""
    return own is not None and own == proposed


@dataclass
class FrameInstance:
    """Per-frame consensus bookkeeping for one replica."""

    frame: int
    own_output: Optional[str]
    view: int = 0
    view_start_round: int = 0
    phase: str = PHASE_IDLE
    proposal: Optional[Signed] = None  # accepted PrePrepare for the current view
    decided: bool = False
    decided_value: Optional[str] = None
    decided_view: int = -1
    # Prepare or Commit -> view -> signer -> first signed vote of that class
    votes: dict = field(default_factory=lambda: {Prepare: {}, Commit: {}})
    # (class, view, digest) -> signers in votes whose vote has that digest
    tallies: dict = field(default_factory=dict)
    # new_view -> signer -> signed ViewChange
    view_changes: dict = field(default_factory=dict)
    # view -> digest -> first signed leader endorsement (equivocation detection)
    leader_endorsements: dict = field(default_factory=dict)
    prepared_cert: Optional[PrepareCertificate] = None
    evidence: Optional[EquivocationProof] = None
    # views whose NewView this replica has sent (as leader) or entered
    newviews: set = field(default_factory=set)
    # protocol messages sent in the current view, re-broadcast while undecided
    # so that an unlucky drop does not cost a whole timeout
    outbox: list = field(default_factory=list)

    def matching(self, kind: type, view: int, digest: bytes) -> tuple[Signed, ...]:
        """The recorded ``kind`` votes of ``view`` that name ``digest``, by signer."""
        by_signer = sorted(self.votes[kind].get(view, {}).items())
        return tuple(s for _, s in by_signer if s.msg.value_digest == digest)


class Replica:
    """Honest PBFT replica for one module slot."""

    def __init__(
        self,
        module_id: int,
        cfg: QuorumConfig,
        space: DecisionSpace,
        registry: KeyRegistry,
        *,
        timeout_rounds: int = 10,
        execution_threshold: Optional[int] = None,
        checkpoint_interval: int = 5,
    ):
        self.module_id = module_id
        self.cfg = cfg
        self.space = space
        self.registry = registry
        self.timeout_rounds = timeout_rounds
        self.execution_threshold = max(cfg.quorum, execution_threshold or cfg.quorum)
        self.checkpoint_interval = checkpoint_interval

        self.inst: Optional[FrameInstance] = None
        self.committed: dict[int, str] = {}
        self.frame_certs: dict[int, FrameCert] = {}
        self.stable_checkpoint: Optional[Checkpoint] = None
        # up_to -> digest -> signer -> signed attest
        self._attest_votes: dict = {}
        self._attested_up_to = -1
        self.misbehavior: list[tuple[int, int, str]] = []  # (frame, signer, what)
        self.violations: list[str] = []

    # --- helpers -------------------------------------------------------------

    def leader_of(self, frame: int, view: int) -> int:
        return (frame + view) % self.cfg.n

    def _sign(self, msg) -> Signed:
        return sign_message(self.registry, self.module_id, msg)

    def _to_peers(self, msg) -> Signed:
        """Sign ``msg`` and keep it for re-broadcast while the view lasts."""
        signed = self._sign(msg)
        self.inst.outbox.append((PEERS, signed))
        return signed

    def is_leader(self, frame: int, view: int = 0) -> bool:
        return self.leader_of(frame, view) == self.module_id

    @property
    def last_contiguous_frame(self) -> int:
        frame = -1
        while frame + 1 in self.committed:
            frame += 1
        return frame

    # --- frame lifecycle -----------------------------------------------------

    def start_frame(self, frame: int, own_output: Optional[ModuleOutput], round_: int) -> list[Outbound]:
        value = own_output.value if own_output is not None else None
        self.inst = FrameInstance(
            frame=frame, own_output=value, view_start_round=round_
        )
        if frame in self.committed:
            self._decide(self.committed[frame])  # already learned via state transfer
            return []
        if self.is_leader(frame, 0):
            return self.propose()
        return []

    def propose(self) -> list[Outbound]:
        """Leader broadcasts its own output as the PrePrepare for view 0."""
        inst = self.inst
        if not self.is_leader(inst.frame, inst.view):
            self.violations.append(f"frame {inst.frame}: non-leader {self.module_id} tried to propose")
            return []
        if inst.phase != PHASE_IDLE or inst.own_output is None:
            return []
        signed_pp = self._to_peers(
            PrePrepare(inst.frame, inst.view, value_digest(inst.own_output), inst.own_output)
        )
        return [(PEERS, signed_pp)] + self._accept_proposal(signed_pp)

    # --- message handling ----------------------------------------------------

    def handle(self, signed: Signed, round_: int) -> list[Outbound]:
        if not signed.verify(self.registry):
            self.misbehavior.append((getattr(signed.msg, "frame", -1), signed.sender, "bad-tag"))
            return []
        msg = signed.msg
        kind = type(msg)
        if kind is Prepare or kind is Commit or kind is PrePrepare:
            inst = self.inst
            if inst is None or msg.frame != inst.frame or msg.view < inst.view:
                return []  # another frame, or a stale view: views only move forward
            if kind is PrePrepare:
                return self._on_preprepare(signed, round_)
            recorded = inst.votes[kind].get(msg.view)
            if recorded is not None and recorded.get(signed.sender) is signed:
                return []  # a retransmission of a vote already counted and checked
            return self._on_vote(signed, round_)
        if kind is CheckpointAttest:
            self._record_attest(signed)
            return []
        if kind is StateRequest:
            snap = self.build_snapshot()
            if snap is not None and snap.up_to_frame() >= msg.up_to_frame:
                return [(signed.sender, self._sign(snap))]
            return []
        if kind is StateSnapshot:
            return self.apply_snapshot(msg)
        inst = self.inst
        if inst is None or msg.frame != inst.frame:
            return []
        if kind is ViewChange:
            return self._on_viewchange(signed, round_)
        if kind is NewView:
            return self._on_newview(signed, round_)
        return []

    def _note_leader_endorsement(self, signed: Signed, round_: int) -> list[Outbound]:
        """Track digests the leader has signed for (frame, view); two distinct
        digests are proof of equivocation."""
        inst = self.inst
        msg = signed.msg
        if signed.sender != self.leader_of(inst.frame, msg.view):
            return []
        seen = inst.leader_endorsements.setdefault(msg.view, {})
        seen.setdefault(msg.value_digest, signed)
        if len(seen) > 1 and inst.evidence is None:
            first, second = list(seen.values())[:2]
            proof = EquivocationProof(first, second)
            if proof.valid(self.registry):
                inst.evidence = proof
                self.misbehavior.append((inst.frame, signed.sender, "equivocation"))
                return self._initiate_viewchange(inst.view + 1, round_)
        return []

    def _accept_proposal(self, signed_pp: Signed) -> list[Outbound]:
        inst = self.inst
        inst.proposal = signed_pp
        if inst.phase == PHASE_IDLE:
            inst.phase = PHASE_PRE_PREPARED
        pp = signed_pp.msg
        signed_prep = self._to_peers(Prepare(inst.frame, pp.view, pp.value_digest, pp.value))
        self._record_vote(signed_prep)
        return [(PEERS, signed_prep)] + self._check_prepared()

    def _on_preprepare(self, signed: Signed, round_: int) -> list[Outbound]:
        inst = self.inst
        msg = signed.msg
        out = self._note_leader_endorsement(signed, round_)
        if msg.view != inst.view or inst.decided:
            return out
        if signed.sender != self.leader_of(inst.frame, msg.view):
            self.misbehavior.append((inst.frame, signed.sender, "preprepare-from-non-leader"))
            return out
        if msg.value_digest != value_digest(msg.value):
            self.misbehavior.append((inst.frame, signed.sender, "digest-mismatch"))
            return out
        if inst.proposal is not None:
            return out  # first accepted proposal wins; conflicts became evidence above
        if not validate_proposal(inst.own_output, msg.value):
            return out  # withhold the Prepare; dissent surfaces as timeout
        return out + self._accept_proposal(signed)

    def _record_vote(self, signed: Signed) -> None:
        """Keep each signer's first Prepare or Commit per view, and count it
        under its (class, view, digest); a later vote of the same class with
        another digest is misbehaviour."""
        msg = signed.msg
        kind = type(msg)
        votes = self.inst.votes[kind].setdefault(msg.view, {})
        prev = votes.get(signed.sender)
        if prev is None:
            votes[signed.sender] = signed
            key = (kind, msg.view, msg.value_digest)
            self.inst.tallies[key] = self.inst.tallies.get(key, 0) + 1
        elif prev.msg.value_digest != msg.value_digest:
            conflict = f"conflicting-{kind.__name__.lower()}"
            self.misbehavior.append((self.inst.frame, signed.sender, conflict))

    def _on_vote(self, signed: Signed, round_: int) -> list[Outbound]:
        msg = signed.msg
        if type(msg) is Commit and msg.value_digest != value_digest(msg.value):
            # the value is decided from the Commits, so each must carry the
            # value its digest names
            self.misbehavior.append((self.inst.frame, signed.sender, "digest-mismatch"))
            return []
        out = self._note_leader_endorsement(signed, round_)
        self._record_vote(signed)
        if type(msg) is Prepare:
            return out + self._check_prepared()
        return out + self._check_committed(signed)

    def _check_prepared(self) -> list[Outbound]:
        inst = self.inst
        if inst.phase != PHASE_PRE_PREPARED or inst.proposal is None:
            return []
        want = inst.proposal.msg.value_digest
        if inst.tallies.get((Prepare, inst.view, want), 0) < self.cfg.quorum:
            return []
        inst.phase = PHASE_PREPARED
        cert = PrepareCertificate(
            frame=inst.frame,
            view=inst.view,
            value_digest=want,
            value=inst.proposal.msg.value,
            votes=inst.matching(Prepare, inst.view, want),
        )
        if inst.prepared_cert is None or cert.view > inst.prepared_cert.view:
            inst.prepared_cert = cert
        signed_commit = self._to_peers(Commit(inst.frame, inst.view, want, inst.proposal.msg.value))
        self._record_vote(signed_commit)
        return [(PEERS, signed_commit)] + self._check_committed(signed_commit)

    def _check_committed(self, signed: Signed) -> list[Outbound]:
        """Commit once the (view, digest) bucket of the Commit just recorded
        reaches the threshold.  Every recorded Commit is checked while the
        frame is undecided, so no other bucket can newly reach it."""
        inst = self.inst
        if inst.decided:
            return []
        view, want = signed.msg.view, signed.msg.value_digest
        if inst.tallies.get((Commit, view, want), 0) < self.execution_threshold:
            return []
        return self._commit(inst.matching(Commit, view, want))

    def _commit(self, votes: tuple[Signed, ...]) -> list[Outbound]:
        """Decide on a threshold of matching Commits, sorted by signer."""
        frame, value = self.inst.frame, votes[0].msg.value
        self._decide(value, votes[0].msg.view)
        self.frame_certs[frame] = FrameCert(frame=frame, value=value, votes=votes)
        return [(OBSERVER, self._sign(Reply(frame, value)))] + self._maybe_checkpoint()

    def _decide(self, value: str, view: int = -1) -> None:
        """Decide the current frame: on a Commit quorum of ``view``, or, with
        view -1, on a value already committed through state transfer."""
        inst = self.inst
        inst.decided = True
        inst.decided_value = value
        inst.decided_view = view
        inst.phase = PHASE_COMMITTED
        self.committed[inst.frame] = value

    # --- view changes --------------------------------------------------------

    def _enter_view(self, view: int, round_: int) -> None:
        """Move to ``view``: the old view's proposal and outbox are dropped,
        and an undecided replica waits for the new view's proposal.  A view's
        timeout runs from the round the replica first enters it."""
        inst = self.inst
        if view > inst.view:
            inst.view_start_round = round_
        inst.view = view
        inst.proposal = None
        inst.outbox = []
        if not inst.decided:
            inst.phase = PHASE_IDLE

    def _initiate_viewchange(self, new_view: int, round_: int) -> list[Outbound]:
        inst = self.inst
        self._enter_view(new_view, round_)  # before the ViewChange joins the new view's outbox
        signed_vc = self._to_peers(ViewChange(inst.frame, new_view, inst.prepared_cert, inst.evidence))
        inst.view_changes.setdefault(new_view, {})[self.module_id] = signed_vc
        return [(PEERS, signed_vc)] + self._maybe_newview(new_view, round_)

    def _on_viewchange(self, signed: Signed, round_: int) -> list[Outbound]:
        inst = self.inst
        msg = signed.msg
        if msg.cert is not None and not msg.cert.valid(self.registry, self.cfg.quorum):
            self.misbehavior.append((inst.frame, signed.sender, "bad-cert"))
            return []
        inst.view_changes.setdefault(msg.new_view, {}).setdefault(signed.sender, signed)
        out: list[Outbound] = []
        if msg.new_view > inst.view:
            proven = msg.evidence is not None and msg.evidence.valid(self.registry)
            if proven and inst.evidence is None:
                inst.evidence = msg.evidence
            if proven or len(inst.view_changes[msg.new_view]) >= self.cfg.f + 1:
                out = self._initiate_viewchange(msg.new_view, round_)
        return out + self._maybe_newview(msg.new_view, round_)

    @staticmethod
    def _select_newview_value(vcs) -> Optional[PrepareCertificate]:
        """Classic carry-over rule: re-propose the highest-view certified
        value; of equal-view certificates, the first."""
        certs = (signed_vc.msg.cert for signed_vc in vcs if signed_vc.msg.cert is not None)
        return max(certs, key=attrgetter("view"), default=None)

    def _maybe_newview(self, new_view: int, round_: int) -> list[Outbound]:
        inst = self.inst
        if new_view < inst.view or new_view in inst.newviews:
            return []
        if self.leader_of(inst.frame, new_view) != self.module_id:
            return []
        vcs = inst.view_changes.get(new_view, {})
        if len(vcs) < self.cfg.quorum:
            return []
        ordered = tuple(sorted(vcs.values(), key=lambda s: s.sender))[: self.cfg.n]
        best = self._select_newview_value(ordered)
        if best is not None:
            value = best.value
        elif inst.decided:
            value = inst.decided_value
        elif inst.own_output is not None:
            value = inst.own_output
        else:
            return []  # nothing proposable; let the next timeout rotate further
        inst.newviews.add(new_view)
        self._enter_view(new_view, round_)
        pp = self._sign(PrePrepare(inst.frame, new_view, value_digest(value), value))
        nv = self._to_peers(NewView(inst.frame, new_view, ordered, pp))
        return [(PEERS, nv)] + self._accept_proposal(pp)

    def _on_newview(self, signed: Signed, round_: int) -> list[Outbound]:
        inst = self.inst
        msg = signed.msg
        if msg.view < inst.view:
            return []
        if signed.sender != self.leader_of(inst.frame, msg.view):
            self.misbehavior.append((inst.frame, signed.sender, "newview-from-non-leader"))
            return []
        if msg.view in inst.newviews:
            # duplicate (retransmission): still watch for a conflicting
            # proposal, but do not re-enter the view
            return self._note_leader_endorsement(msg.proposal, round_)

        def fits(vc) -> bool:
            if not isinstance(vc, ViewChange) or vc.new_view != msg.view:
                return False
            return vc.cert is None or vc.cert.valid(self.registry, self.cfg.quorum)

        voters = signers(msg.view_changes, self.registry, fits)
        if voters is None:
            return []  # a malformed ViewChange
        if len(voters) < self.cfg.quorum:
            self.misbehavior.append((inst.frame, signed.sender, "underfull-newview"))
            return []
        pp = msg.proposal
        if not pp.verify(self.registry) or not isinstance(pp.msg, PrePrepare):
            return []
        if pp.sender != signed.sender or pp.msg.view != msg.view or pp.msg.frame != inst.frame:
            return []
        if pp.msg.value_digest != value_digest(pp.msg.value):
            return []
        best = self._select_newview_value(msg.view_changes)
        certified = best is not None
        if certified and best.value_digest != pp.msg.value_digest:
            self.misbehavior.append((inst.frame, signed.sender, "newview-ignored-certificate"))
            return []
        # enter the new view
        inst.newviews.add(msg.view)
        self._enter_view(msg.view, round_)
        out = self._note_leader_endorsement(pp, round_)
        if not inst.decided and (certified or validate_proposal(inst.own_output, pp.msg.value)):
            out += self._accept_proposal(pp)
        return out

    # --- timers --------------------------------------------------------------

    RETRANSMIT_INTERVAL = 3

    def on_round(self, round_: int) -> list[Outbound]:
        inst = self.inst
        if inst is None or inst.decided:
            return []
        out: list[Outbound] = []
        elapsed = round_ - inst.view_start_round
        if elapsed > 0 and elapsed % self.RETRANSMIT_INTERVAL == 0:
            out += list(inst.outbox)
        if elapsed >= self.timeout_rounds:
            out += self._initiate_viewchange(inst.view + 1, round_)
            # also ask peers whether the frame already committed without us
            out.append((PEERS, self._sign(StateRequest(inst.frame))))
        return out

    # --- checkpoints & state transfer ---------------------------------------

    def _maybe_checkpoint(self) -> list[Outbound]:
        last = self.last_contiguous_frame
        boundary = ((last + 1) // self.checkpoint_interval) * self.checkpoint_interval - 1
        if boundary < 0 or boundary <= self._attested_up_to:
            return []
        return self.make_checkpoint(boundary)

    def make_checkpoint(self, up_to_frame: int) -> list[Outbound]:
        """Broadcast an attestation over the committed log prefix."""
        if self.last_contiguous_frame < up_to_frame:
            raise ValueError(f"cannot checkpoint frame {up_to_frame}: log incomplete")
        signed = self._sign(CheckpointAttest(up_to_frame, self._committed_prefix(up_to_frame)[1]))
        self._attested_up_to = max(self._attested_up_to, up_to_frame)
        self._record_attest(signed)
        return [(PEERS, signed)]

    def _committed_prefix(self, up_to_frame: int) -> tuple[tuple[str, ...], bytes]:
        """The committed values of frames 0..up_to_frame, and their digest."""
        values = tuple(self.committed[i] for i in range(up_to_frame + 1))
        return values, log_prefix_digest(values)

    def _record_attest(self, signed: Signed) -> None:
        msg = signed.msg
        slot = self._attest_votes.setdefault(msg.up_to_frame, {}).setdefault(msg.log_digest, {})
        slot.setdefault(signed.sender, signed)
        stable = self.stable_checkpoint
        if (
            len(slot) >= self.cfg.quorum
            and (stable is None or stable.up_to_frame < msg.up_to_frame)
            and self.last_contiguous_frame >= msg.up_to_frame
        ):
            values, log_digest = self._committed_prefix(msg.up_to_frame)
            if log_digest == msg.log_digest:
                self.stable_checkpoint = Checkpoint(
                    up_to_frame=msg.up_to_frame,
                    values=values,
                    log_digest=msg.log_digest,
                    attestations=tuple(sorted(slot.values(), key=lambda s: s.sender)),
                )
                # certificates before the stable checkpoint are now redundant
                for frame in list(self.frame_certs):
                    if frame <= msg.up_to_frame:
                        del self.frame_certs[frame]

    def build_snapshot(self) -> Optional[StateSnapshot]:
        base = self.stable_checkpoint
        start = base.up_to_frame + 1 if base else 0
        certs = []
        frame = start
        while frame in self.frame_certs:
            certs.append(self.frame_certs[frame])
            frame += 1
        if base is None and not certs:
            return None
        return StateSnapshot(checkpoint=base, frame_certs=tuple(certs))

    def apply_snapshot(self, snap: StateSnapshot) -> list[Outbound]:
        """Adopt a proven committed prefix.  Rejects snapshots whose checkpoint
        or any per-frame certificate lacks a 2f+1 quorum, adopting none of it."""
        cp, quorum = snap.checkpoint, self.cfg.quorum
        if (cp is not None and not cp.valid(self.registry, quorum)) or not all(
            cert.valid(self.registry, quorum) for cert in snap.frame_certs
        ):
            return []
        for frame, value in enumerate(cp.values if cp is not None else ()):
            self._adopt(frame, value)
        for cert in snap.frame_certs:
            self._adopt(cert.frame, cert.value, cert)
        inst = self.inst
        if inst is None or inst.decided or inst.frame not in self.committed:
            return []
        self._decide(self.committed[inst.frame])
        return [(OBSERVER, self._sign(Reply(inst.frame, inst.decided_value)))]

    def _adopt(self, frame: int, value: str, cert: Optional[FrameCert] = None) -> None:
        prev = self.committed.get(frame)
        if prev is not None and prev != value:
            self.violations.append(f"frame {frame}: snapshot value {value} conflicts with {prev}")
            return
        self.committed[frame] = value
        if cert is not None and frame not in self.frame_certs:
            self.frame_certs[frame] = cert


class EquivocatingReplica(Replica):
    """Byzantine leader that tells different halves of the ensemble different
    values, and (by default, sloppily) broadcasts conflicting commits that give
    honest replicas a proof of its equivocation."""

    def __init__(self, *args, label_a: str, label_b: str, sloppy: bool = True, **kwargs):
        super().__init__(*args, **kwargs)
        self.label_a = label_a
        self.label_b = label_b
        self.sloppy = sloppy

    def _partitions(self) -> tuple[list[int], list[int]]:
        others = [m for m in range(self.cfg.n) if m != self.module_id]
        half = len(others) // 2
        return others[:half] or others[:1], others[half:]

    def propose(self) -> list[Outbound]:
        inst = self.inst
        if not self.is_leader(inst.frame, inst.view):
            return []
        side_a, side_b = self._partitions()
        out: list[Outbound] = []
        for value, side in ((self.label_a, side_a), (self.label_b, side_b)):
            d = value_digest(value)
            pp = self._sign(PrePrepare(inst.frame, inst.view, d, value))
            prep = self._sign(Prepare(inst.frame, inst.view, d, value))
            for dest in side:
                out.append((dest, pp))
                out.append((dest, prep))
            if self.sloppy:
                commit = self._sign(Commit(inst.frame, inst.view, d, value))
                out.append((PEERS, commit))
        inst.phase = PHASE_PRE_PREPARED
        return out

    def handle(self, signed: Signed, round_: int) -> list[Outbound]:
        # As a backup the equivocator endorses whatever it receives.
        if not signed.verify(self.registry):
            return []
        msg = signed.msg
        inst = self.inst
        if inst is None:
            return []
        if isinstance(msg, PrePrepare) and msg.frame == inst.frame and inst.proposal is None:
            prep = self._sign(Prepare(msg.frame, msg.view, msg.value_digest, msg.value))
            inst.proposal = signed
            return [(PEERS, prep)]
        return []

    def on_round(self, round_: int) -> list[Outbound]:
        return []
