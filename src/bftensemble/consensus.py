"""PBFT-style replica state machine: lead, prepare, commit, change views,
checkpoint, and transfer state.

Each replica is a deterministic transition function (state, message) ->
(state, outbound messages).  Replicas never share state; everything flows
through the simulated network.
"""
from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional

from .core import OBSERVER, PEERS, DecisionSpace, KeyRegistry, QuorumConfig, direct_constructor, min_replicas
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
    interned,
    log_prefix_digest,
    sign_message,
    signers,
    value_digest,
)

PHASE_IDLE = "idle"
PHASE_PRE_PREPARED = "pre-prepared"
PHASE_PREPARED = "prepared"
PHASE_COMMITTED = "committed"

Outbound = tuple[int, Signed]  # (destination, signed message)
SENDER = attrgetter("sender")
_new_prepare_cert = direct_constructor(PrepareCertificate)
_new_frame_cert = direct_constructor(FrameCert)


def validate_proposal(own: Optional[str], proposed: str) -> bool:
    """Exact-match endorsement: a replica backs the leader's value only if it
    matches its own output.  Dissent is expressed by withholding the Prepare."""
    return own is not None and own == proposed


def split_others(module_id: int, n: int) -> tuple[list[int], list[int]]:
    """The modules other than ``module_id``, in two halves: the sides an
    equivocator tells different values."""
    others = [m for m in range(n) if m != module_id]
    half = len(others) // 2
    return others[:half], others[half:]


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
    # view -> leader_of(frame, view), filled by `handle` as votes arrive
    leaders: dict = field(default_factory=dict)
    # Prepare or Commit -> view -> signer -> first signed vote of that class;
    # here and in `tallies` a lookup allocates only when it adds an entry
    votes: dict = field(default_factory=lambda: {Prepare: defaultdict(dict), Commit: defaultdict(dict)})
    # (class, view, digest) -> the votes in `votes` with that digest, in arrival order
    tallies: dict = field(default_factory=lambda: defaultdict(list))
    # new_view -> signer -> signed ViewChange
    view_changes: dict = field(default_factory=dict)
    # view -> digest -> first signed leader endorsement (equivocation detection)
    leader_endorsements: dict = field(default_factory=dict)
    prepared_cert: Optional[PrepareCertificate] = None
    evidence: Optional[EquivocationProof] = None
    # views whose NewView this replica has sent (as leader) or entered
    newviews: set = field(default_factory=set)
    # protocol messages sent in the current view, re-broadcast while undecided so that an unlucky
    # drop does not cost a whole timeout; World.send skips a re-send whose earlier copy is on its way
    outbox: list = field(default_factory=list)

    def matching(self, kind: type, view: int, digest: bytes) -> tuple[Signed, ...]:
        """The recorded ``kind`` votes of ``view`` that name ``digest``, by signer."""
        return tuple(sorted(self.tallies.get((kind, view, digest), ()), key=SENDER))


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
        checkpoint_interval: int = 5,
    ):
        if cfg.n != min_replicas(cfg.f):
            raise ValueError(f"PBFT needs n = 3f+1 = {min_replicas(cfg.f)}, got n={cfg.n} with f={cfg.f}")
        self.module_id = module_id
        self.cfg = cfg
        self.quorum = cfg.quorum  # 2f+1; cfg is frozen
        self.space = space
        self.registry = registry
        self.timeout_rounds = timeout_rounds
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

    def _to_peers(self, msg) -> Signed:
        """Sign ``msg`` and keep it for re-broadcast while the view lasts."""
        signed = sign_message(self.registry, self.module_id, msg)
        signed.__dict__["_queued"] = {}  # where a world has queued it: see World.send
        self.inst.outbox.append((PEERS, signed))
        return signed

    @property
    def last_contiguous_frame(self) -> int:
        frame = -1
        while frame + 1 in self.committed:
            frame += 1
        return frame

    # --- frame lifecycle -----------------------------------------------------

    def start_frame(self, frame: int, own_output: Optional[str], round_: int) -> list[Outbound]:
        self.inst = FrameInstance(frame=frame, own_output=own_output, view_start_round=round_)
        if frame in self.committed:
            self._decide(self.committed[frame])  # already learned via state transfer
            return []
        if self.leader_of(frame, 0) == self.module_id:
            return self.propose()
        return []

    def propose(self) -> list[Outbound]:
        """Leader broadcasts its own output as the PrePrepare for view 0."""
        inst = self.inst
        if self.leader_of(inst.frame, inst.view) != self.module_id:
            self.violations.append(f"frame {inst.frame}: non-leader {self.module_id} tried to propose")
            return []
        if inst.phase != PHASE_IDLE or inst.own_output is None:
            return []
        signed_pp = self._to_peers(
            interned(PrePrepare, inst.frame, inst.view, value_digest(inst.own_output), inst.own_output)
        )
        return [(PEERS, signed_pp)] + self._accept_proposal(signed_pp)

    # --- message handling ----------------------------------------------------

    def handle(self, signed: Signed, round_: int) -> list[Outbound]:
        registry = self.registry
        # a Signed that passed under this registry, or that sign_message
        # made with it, carries the registry as its stamp
        if signed.__dict__.get("_verified") is not registry and not signed.verify(registry):
            self.misbehavior.append((getattr(signed.msg, "frame", -1), signed.sender, "bad-tag"))
            return []
        msg = signed.msg
        kind = type(msg)
        if kind is Prepare or kind is Commit or kind is PrePrepare:
            inst = self.inst
            view = msg.view
            if inst is None or msg.frame != inst.frame or view < inst.view:
                return []  # another frame, or a stale view: views only move forward
            if kind is PrePrepare:
                return self._on_preprepare(signed, round_)
            sender = signed.sender
            by_signer = inst.votes[kind][view]
            prev = by_signer.get(sender)
            if prev is signed:
                return []  # a retransmission of a vote already recorded and checked
            if kind is Commit and msg.value_digest != value_digest(msg.value):
                # the value is decided from the Commits, so each must carry
                # the value its digest names
                self.misbehavior.append((inst.frame, sender, "digest-mismatch"))
                return []
            out = []
            leader = inst.leaders.get(view)
            if leader is None:
                leader = inst.leaders[view] = self.leader_of(inst.frame, view)
            if sender == leader:
                out = self._note_leader_endorsement(signed, round_)
            if prev is not None:
                self._record_vote(signed)  # records nothing; notes a conflicting vote
                return out
            # a first vote, recorded as _record_vote records it
            by_signer[sender] = signed
            bucket = inst.tallies[kind, view, msg.value_digest]
            bucket.append(signed)
            count = len(bucket)
            # buckets grow one vote at a time and every new size is checked,
            # so a vote not newly recorded passes no check, and an undecided
            # frame's Commit bucket cannot pass the quorum without reaching it
            if kind is Prepare:
                if count >= self.quorum and inst.phase == PHASE_PRE_PREPARED:
                    return out + self._check_prepared()
            elif count == self.quorum and not inst.decided:
                return out + self._commit(inst.matching(Commit, view, msg.value_digest))
            return out
        if kind is CheckpointAttest:
            self._record_attest(signed)
            return []
        if kind is StateRequest:
            snap = self.build_snapshot()
            if snap is not None and snap.up_to_frame() >= msg.up_to_frame:
                return [(signed.sender, sign_message(self.registry, self.module_id, snap))]
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
        """Track digests the leader of (frame, view) has signed, given one of
        its endorsements; two distinct digests are proof of equivocation."""
        inst = self.inst
        msg = signed.msg
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
        signed_prep = self._to_peers(interned(Prepare, inst.frame, pp.view, pp.value_digest, pp.value))
        self._record_vote(signed_prep)
        return [(PEERS, signed_prep)] + self._check_prepared()

    def _on_preprepare(self, signed: Signed, round_: int) -> list[Outbound]:
        inst = self.inst
        msg = signed.msg
        if signed.sender != self.leader_of(inst.frame, msg.view):
            if msg.view == inst.view and not inst.decided:
                self.misbehavior.append((inst.frame, signed.sender, "preprepare-from-non-leader"))
            return []
        out = self._note_leader_endorsement(signed, round_)
        if msg.view != inst.view or inst.decided:
            return out
        if msg.value_digest != value_digest(msg.value):
            self.misbehavior.append((inst.frame, signed.sender, "digest-mismatch"))
            return out
        if inst.proposal is not None:
            return out  # first accepted proposal wins; conflicts became evidence above
        if not validate_proposal(inst.own_output, msg.value):
            return out  # withhold the Prepare; dissent surfaces as timeout
        return out + self._accept_proposal(signed)

    def _record_vote(self, signed: Signed) -> Optional[int]:
        """Keep each signer's first Prepare or Commit per view, add it to its
        (class, view, digest) bucket and return the bucket's new size; None if
        not newly recorded.  A later vote of the same class with another digest
        is misbehaviour.  ``handle`` records a delivered first vote itself."""
        msg = signed.msg
        kind = type(msg)
        inst = self.inst
        by_signer = inst.votes[kind][msg.view]
        prev = by_signer.get(signed.sender)
        if prev is None:
            by_signer[signed.sender] = signed
            bucket = inst.tallies[kind, msg.view, msg.value_digest]
            bucket.append(signed)
            return len(bucket)
        if prev.msg.value_digest != msg.value_digest:
            conflict = f"conflicting-{kind.__name__.lower()}"
            self.misbehavior.append((inst.frame, signed.sender, conflict))
        return None

    def _check_prepared(self) -> list[Outbound]:
        inst = self.inst
        if inst.phase != PHASE_PRE_PREPARED or inst.proposal is None:
            return []
        want = inst.proposal.msg.value_digest
        if len(inst.tallies.get((Prepare, inst.view, want), ())) < self.quorum:
            return []
        inst.phase = PHASE_PREPARED
        cert = _new_prepare_cert(
            frame=inst.frame,
            view=inst.view,
            value_digest=want,
            value=inst.proposal.msg.value,
            votes=inst.matching(Prepare, inst.view, want),
        )
        if inst.prepared_cert is None or cert.view > inst.prepared_cert.view:
            inst.prepared_cert = cert
        signed_commit = self._to_peers(interned(Commit, inst.frame, inst.view, want, inst.proposal.msg.value))
        out = [(PEERS, signed_commit)]
        if self._record_vote(signed_commit) == self.quorum and not inst.decided:
            out += self._commit(inst.matching(Commit, inst.view, want))
        return out

    def _commit(self, votes: tuple[Signed, ...]) -> list[Outbound]:
        """Decide on a quorum of matching Commits, sorted by signer."""
        frame, value = self.inst.frame, votes[0].msg.value
        self._decide(value, votes[0].msg.view)
        self.frame_certs[frame] = _new_frame_cert(frame=frame, value=value, votes=votes)
        reply = sign_message(self.registry, self.module_id, interned(Reply, frame, value))
        return [(OBSERVER, reply)] + self._maybe_checkpoint()

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
        if msg.cert is not None and not self._cert_holds(msg.cert):
            self.misbehavior.append((inst.frame, signed.sender, "bad-cert"))
            return []
        inst.view_changes.setdefault(msg.new_view, {}).setdefault(signed.sender, signed)
        out: list[Outbound] = []
        if msg.new_view > inst.view:
            proven = self._convicts_a_leader(msg.evidence)
            if proven and inst.evidence is None:
                inst.evidence = msg.evidence
            if proven or len(inst.view_changes[msg.new_view]) >= self.cfg.f + 1:
                out = self._initiate_viewchange(msg.new_view, round_)
        return out + self._maybe_newview(msg.new_view, round_)

    def _cert_holds(self, cert: PrepareCertificate) -> bool:
        """``cert`` is a valid certificate for the current frame."""
        return cert.frame == self.inst.frame and cert.valid(self.registry, self.quorum)

    def _convicts_a_leader(self, proof: Optional[EquivocationProof]) -> bool:
        """``proof`` is valid and its signer led the current frame in the
        proof's view, which is no later than this replica's view: a
        non-leader's conflicting votes, or a proof about a view not yet
        reached, move no one."""
        if proof is None or not proof.valid(self.registry):
            return False
        inst = self.inst
        msg = proof.first.msg
        return (
            msg.frame == inst.frame
            and msg.view <= inst.view
            and proof.first.sender == self.leader_of(msg.frame, msg.view)
        )

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
        if len(vcs) < self.quorum:
            return []
        ordered = tuple(sorted(vcs.values(), key=SENDER))[: self.cfg.n]
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
        pp = sign_message(
            self.registry, self.module_id, interned(PrePrepare, inst.frame, new_view, value_digest(value), value)
        )
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
        pp = msg.proposal
        if not pp.verify(self.registry) or not isinstance(pp.msg, PrePrepare):
            return []
        if pp.sender != signed.sender or pp.msg.view != msg.view or pp.msg.frame != inst.frame:
            return []
        if pp.msg.value_digest != value_digest(pp.msg.value):
            return []
        if msg.view in inst.newviews:
            # duplicate (retransmission): still watch for a conflicting
            # proposal, but do not re-enter the view
            return self._note_leader_endorsement(pp, round_)

        def fits(vc) -> bool:
            if not isinstance(vc, ViewChange) or (vc.frame, vc.new_view) != (inst.frame, msg.view):
                return False
            return vc.cert is None or self._cert_holds(vc.cert)

        voters = signers(msg.view_changes, self.registry, fits)
        if voters is None:
            return []  # a malformed ViewChange
        if len(voters) < self.quorum:
            self.misbehavior.append((inst.frame, signed.sender, "underfull-newview"))
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
            request = sign_message(self.registry, self.module_id, interned(StateRequest, inst.frame))
            out.append((PEERS, request))
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
        attest = interned(CheckpointAttest, up_to_frame, self._committed_prefix(up_to_frame)[1])
        signed = sign_message(self.registry, self.module_id, attest)
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
            len(slot) >= self.quorum
            and (stable is None or stable.up_to_frame < msg.up_to_frame)
            and self.last_contiguous_frame >= msg.up_to_frame
        ):
            values, log_digest = self._committed_prefix(msg.up_to_frame)
            if log_digest == msg.log_digest:
                self.stable_checkpoint = Checkpoint(
                    up_to_frame=msg.up_to_frame,
                    values=values,
                    log_digest=msg.log_digest,
                    attestations=tuple(sorted(slot.values(), key=SENDER)),
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
        cp, quorum = snap.checkpoint, self.quorum
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
        reply = sign_message(self.registry, self.module_id, interned(Reply, inst.frame, inst.decided_value))
        return [(OBSERVER, reply)]

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

    def propose(self) -> list[Outbound]:
        inst = self.inst
        if self.leader_of(inst.frame, inst.view) != self.module_id:
            return []
        side_a, side_b = split_others(self.module_id, self.cfg.n)
        out: list[Outbound] = []
        registry, me = self.registry, self.module_id
        for value, side in ((self.label_a, side_a), (self.label_b, side_b)):
            d = value_digest(value)
            pp = sign_message(registry, me, interned(PrePrepare, inst.frame, inst.view, d, value))
            prep = sign_message(registry, me, interned(Prepare, inst.frame, inst.view, d, value))
            for dest in side:
                out.append((dest, pp))
                out.append((dest, prep))
            if self.sloppy:
                commit = sign_message(registry, me, interned(Commit, inst.frame, inst.view, d, value))
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
            prep = interned(Prepare, msg.frame, msg.view, msg.value_digest, msg.value)
            prep = sign_message(self.registry, self.module_id, prep)
            inst.proposal = signed
            return [(PEERS, prep)]
        return []

    def on_round(self, round_: int) -> list[Outbound]:
        # its timers never send, so the episode runner does not fire them
        return []
