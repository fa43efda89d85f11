"""Certificate verdicts: one valid bundle per kind, then bundles broken one
way each.

A certificate holds only when 2f+1 distinct signers each signed a message
that fits it, under a tag that verifies.  `PrepareCertificate`, `Checkpoint`,
`FrameCert` and the ViewChange set of a `NewView` all apply that rule; these
tables pin their verdicts and, for a NewView, the misbehaviour entry the
receiving replica records.
"""
import dataclasses
import hashlib
from dataclasses import replace

import pytest

from bftensemble import core
from bftensemble.consensus import Replica
from bftensemble.core import (
    DecisionSpace,
    KeyRegistry,
    QuorumConfig,
    canonical,
    digest,
    direct_constructor,
    encoding,
)
from bftensemble.messages import (
    Checkpoint,
    CheckpointAttest,
    Commit,
    FrameCert,
    NewView,
    Prepare,
    PrepareCertificate,
    PrePrepare,
    Signed,
    StateSnapshot,
    ViewChange,
    log_prefix_digest,
    sign_message,
    value_digest,
)

SPACE = DecisionSpace(labels=("north", "south"), safe_default="north")
NORTH, SOUTH = SPACE.value("north"), SPACE.value("south")
D_NORTH, D_SOUTH = value_digest(NORTH), value_digest(SOUTH)
CFG = QuorumConfig(n=4, f=1)
QUORUM = CFG.quorum
REGISTRY = KeyRegistry(17, range(4))
LOG = (NORTH, SOUTH)
LOG_DIGEST = log_prefix_digest(LOG)


def sign(sender, msg):
    return sign_message(REGISTRY, sender, msg)


def forge(signed):
    """``signed``'s message and sender under another signer's tag."""
    other = (signed.sender + 1) % CFG.n
    return Signed(signed.msg, signed.sender, REGISTRY.sign(other, signed.msg.payload_digest()))


# Per kind: the message that fits the certificate, the same fields under
# another message kind, and the fitting message with one field changed.
KINDS = {
    "prepare-cert": (
        Prepare(0, 1, D_NORTH, NORTH),
        Commit(0, 1, D_NORTH, NORTH),
        Prepare(0, 2, D_NORTH, NORTH),
    ),
    "checkpoint": (
        CheckpointAttest(1, LOG_DIGEST),
        Prepare(1, 0, LOG_DIGEST, NORTH),
        CheckpointAttest(0, LOG_DIGEST),
    ),
    "frame-cert": (
        Commit(0, 0, D_NORTH, NORTH),
        Prepare(0, 0, D_NORTH, NORTH),
        Commit(0, 0, D_NORTH, SOUTH),
    ),
}


def bundle(kind, case):
    """Signers 0, 1 and 2 each sign the fitting message; ``case`` then breaks
    the third vote (or the bundle) one way."""
    fit, wrong_kind, mismatched = KINDS[kind]
    votes = tuple(sign(m, fit) for m in range(3))
    return {
        "valid": votes,
        "wrong-kind": votes[:2] + (sign(2, wrong_kind),),
        "mismatched-field": votes[:2] + (sign(2, mismatched),),
        "forged-tag": votes[:2] + (forge(votes[2]),),
        "repeated-signer": votes[:2] + (votes[1],),
        "one-short": votes[:2],
        "value-off-digest": votes,
    }[case]


def certificate(kind, votes, off_digest=False):
    """The certificate of ``kind`` over ``votes``; ``off_digest`` makes the
    value it carries differ from the one its votes sign."""
    if kind == "prepare-cert":
        return PrepareCertificate(0, 1, D_NORTH, SOUTH if off_digest else NORTH, votes)
    if kind == "checkpoint":
        values = LOG[::-1] if off_digest else LOG
        return Checkpoint(up_to_frame=1, values=values, log_digest=LOG_DIGEST, attestations=votes)
    return FrameCert(0, SOUTH if off_digest else NORTH, votes)


CASES = [
    "valid",
    "wrong-kind",
    "mismatched-field",
    "forged-tag",
    "repeated-signer",
    "one-short",
    "value-off-digest",
]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_certificate_verdict(kind, case):
    cert = certificate(kind, bundle(kind, case), off_digest=case == "value-off-digest")
    assert cert.valid(REGISTRY, QUORUM) is (case == "valid")


def test_a_fourth_fitting_vote_keeps_a_certificate_valid():
    for kind in KINDS:
        votes = bundle(kind, "valid") + (sign(3, KINDS[kind][0]),)
        assert certificate(kind, votes).valid(REGISTRY, QUORUM)


def test_a_bad_fourth_vote_breaks_a_full_certificate():
    for kind in KINDS:
        votes = bundle(kind, "valid") + (forge(sign(3, KINDS[kind][0])),)
        assert not certificate(kind, votes).valid(REGISTRY, QUORUM)


def test_checkpoint_values_must_match_the_attested_digest():
    votes = bundle("checkpoint", "valid")
    assert not Checkpoint(1, (NORTH, NORTH), LOG_DIGEST, votes).valid(REGISTRY, QUORUM)
    assert not Checkpoint(2, LOG, LOG_DIGEST, votes).valid(REGISTRY, QUORUM)
    for values in (([NORTH], SOUTH), (1, SOUTH), (True, SOUTH)):  # not labels
        assert not Checkpoint(1, values, LOG_DIGEST, votes).valid(REGISTRY, QUORUM)


@pytest.mark.parametrize(
    "views, valid",
    [
        ((0, 0, 1), False),  # Commits split across views do not add up
        ((1, 1, 1), True),
        ((0, 0, 0, 1), True),  # one view's quorum, plus a Commit of another view
        ((0, 0, 1, 1), False),
    ],
)
def test_frame_cert_needs_one_views_quorum(views, valid):
    votes = tuple(sign(m, Commit(0, v, D_NORTH, NORTH)) for m, v in enumerate(views))
    assert FrameCert(0, NORTH, votes).valid(REGISTRY, QUORUM) is valid


@pytest.mark.parametrize("case", CASES)
def test_a_checkpoint_judges_list_values_as_their_tuple(case):
    cert = certificate("checkpoint", bundle("checkpoint", case), off_digest=case == "value-off-digest")
    as_list = replace(cert, values=list(cert.values))
    assert as_list.valid(REGISTRY, QUORUM) is cert.valid(REGISTRY, QUORUM) is (case == "valid")


# A snapshot that carries a checkpoint and two frame certificates, and the
# SHA-256 of its canonical bytes: each certificate is encoded on its own and
# the snapshot holds those bytes.
SNAPSHOT_DIGEST = "dfb565d0917a0ca9f0c4460582126e2b869c9761e5a9583a3047c70ce02d93c4"


def test_a_snapshot_keeps_its_certificates_byte_layout(monkeypatch):
    attests = bundle("checkpoint", "valid")
    checkpoint = Checkpoint(up_to_frame=1, values=LOG, log_digest=LOG_DIGEST, attestations=attests)
    certs = tuple(
        FrameCert(frame, value, tuple(sign(m, Commit(frame, m % 2, value_digest(value), value)) for m in range(3)))
        for frame, value in ((2, SOUTH), (3, NORTH))
    )
    snapshot = StateSnapshot(checkpoint=checkpoint, frame_certs=certs)
    assert hashlib.sha256(snapshot.payload()).hexdigest() == SNAPSHOT_DIGEST
    assert snapshot.payload_digest() == digest(snapshot.payload())
    # a certificate keeps its bytes, so another snapshot encodes only itself
    calls = []
    monkeypatch.setattr(core, "encoding", lambda *fields: calls.append(fields) or encoding(*fields))
    assert StateSnapshot(checkpoint, certs).payload() == snapshot.payload()
    assert [fields[0] for fields in calls] == [StateSnapshot.KIND]
    assert StateSnapshot(None, ()).payload() == canonical(8, b"", ())


# --- the ViewChange set of a NewView ---------------------------------------

NEW_VIEW = 1
LEADER = 1  # the leader of frame 0, view 1, for n = 4
RECEIVER = 2


def view_change(sender, new_view=NEW_VIEW, cert=None, frame=0):
    return sign(sender, ViewChange(frame, new_view, cert))


def prepare_cert(value, votes_from=(0, 1, 3), frame=0):
    d = value_digest(value)
    votes = tuple(sign(m, Prepare(frame, 0, d, value)) for m in votes_from)
    return PrepareCertificate(frame, 0, d, value, votes)


def view_changes(case):
    """ViewChanges for view 1 from signers 0, 1 and 3; ``case`` breaks the
    last one (or the set) one way."""
    vcs = tuple(view_change(m) for m in (0, 1, 3))
    return {
        "valid": vcs,
        "wrong-kind": vcs[:2] + (sign(3, Prepare(0, NEW_VIEW, D_NORTH, NORTH)),),
        "mismatched-field": vcs[:2] + (view_change(3, new_view=2),),
        "forged-tag": vcs[:2] + (forge(vcs[2]),),
        "bad-inner-certificate": vcs[:2] + (view_change(3, cert=prepare_cert(NORTH, (0, 1))),),
        "other-frame": vcs[:2] + (view_change(3, frame=1),),
        "other-frame-certificate": vcs[:2] + (view_change(3, cert=prepare_cert(NORTH, frame=1)),),
        "repeated-signer": vcs[:2] + (vcs[1],),
        "one-short": vcs[:2],
        "certified-north": vcs[:2] + (view_change(3, cert=prepare_cert(NORTH)),),
        "certified-south": vcs[:2] + (view_change(3, cert=prepare_cert(SOUTH)),),
    }[case]


@pytest.mark.parametrize(
    "case, entered, misbehavior",
    [
        ("valid", True, None),
        ("certified-north", True, None),
        ("wrong-kind", False, None),
        ("mismatched-field", False, None),
        ("forged-tag", False, None),
        ("bad-inner-certificate", False, None),
        ("other-frame", False, None),
        ("other-frame-certificate", False, None),
        ("repeated-signer", False, "underfull-newview"),
        ("one-short", False, "underfull-newview"),
        ("certified-south", False, "newview-ignored-certificate"),
    ],
)
def test_newview_verdict(case, entered, misbehavior):
    """Replica 2 receives view 1's NewView proposing NORTH.  A malformed
    ViewChange set is dropped silently; a well-formed set short of the quorum,
    or a proposal that ignores a carried certificate, is misbehaviour."""
    rep = Replica(RECEIVER, CFG, SPACE, REGISTRY)
    rep.start_frame(0, None, 0)
    rep.inst.own_output = NORTH
    proposal = sign(LEADER, PrePrepare(0, NEW_VIEW, D_NORTH, NORTH))
    out = rep.handle(sign(LEADER, NewView(0, NEW_VIEW, view_changes(case), proposal)), 5)
    assert rep.inst.view == (NEW_VIEW if entered else 0)
    assert bool(out) is entered  # the receiver prepares the proposal
    expected = [] if misbehavior is None else [(0, LEADER, misbehavior)]
    assert rep.misbehavior == expected


def test_a_certificate_off_its_digest_is_blamed_on_its_sender():
    """Faulty replica 3 carries three honest Prepares for NORTH's digest, but
    with the value SOUTH, into its ViewChange for view 1.  View 1's leader
    records that ViewChange as ``bad-cert`` and builds its NewView from the
    honest ViewChanges, so it re-proposes its own NORTH and no receiver
    blames it for ignoring a certificate."""
    leader = Replica(LEADER, CFG, SPACE, REGISTRY)
    receiver = Replica(RECEIVER, CFG, SPACE, REGISTRY)
    for rep in (leader, receiver):
        rep.start_frame(0, None, 0)
        rep.inst.own_output = NORTH
    off_digest = PrepareCertificate(0, 0, D_NORTH, SOUTH, prepare_cert(NORTH).votes)
    out = []
    for vc in (view_change(3, cert=off_digest), view_change(0), view_change(RECEIVER)):
        out += leader.handle(vc, 5)
    assert leader.misbehavior == [(0, 3, "bad-cert")]
    (newview,) = [signed for _, signed in out if isinstance(signed.msg, NewView)]
    assert newview.msg.proposal.msg.value == NORTH
    assert receiver.handle(newview, 6)  # the receiver prepares the proposal
    assert receiver.inst.view == NEW_VIEW
    assert receiver.misbehavior == []


def test_a_certificate_from_another_frame_is_blamed_on_its_sender():
    """At frame 1, faulty replica 3 carries a valid frame-0 certificate for
    SOUTH into its ViewChange for view 1.  View 1's leader, replica 2,
    records it as ``bad-cert`` and re-proposes its own NORTH from the honest
    ViewChanges, so replica 0 still checks the proposal against its own
    output."""
    leader = Replica(2, CFG, SPACE, REGISTRY)
    receiver = Replica(0, CFG, SPACE, REGISTRY)
    for rep in (leader, receiver):
        rep.start_frame(1, NORTH, 0)
    bad = view_change(3, cert=prepare_cert(SOUTH), frame=1)
    out = []
    for vc in (bad, view_change(0, frame=1), view_change(1, frame=1)):
        out += leader.handle(vc, 5)
    assert leader.misbehavior == [(1, 3, "bad-cert")]
    (newview,) = [signed for _, signed in out if isinstance(signed.msg, NewView)]
    assert newview.msg.proposal.msg.value == NORTH
    assert 3 not in {vc.sender for vc in newview.msg.view_changes}
    assert receiver.handle(newview, 6)
    assert receiver.inst.view == NEW_VIEW
    assert receiver.misbehavior == []


# Each certificate class the replica builds with ``direct_constructor``, with
# the fields of one such certificate and a replacement field for it.
DIRECT = [
    (
        PrepareCertificate,
        dict(frame=0, view=1, value_digest=D_NORTH, value=NORTH, votes=bundle("prepare-cert", "valid")),
        dict(view=2),
    ),
    (FrameCert, dict(frame=0, value=NORTH, votes=bundle("frame-cert", "valid")), dict(value=SOUTH)),
]


@pytest.mark.parametrize("cls, fields, changes", DIRECT)
def test_a_directly_constructed_certificate_is_the_constructed_one(cls, fields, changes):
    """Filling the ``__dict__`` gives the object the dataclass ``__init__``
    gives: the same equality, hash, repr, bytes and replacements, and it is
    still frozen."""
    direct, built = direct_constructor(cls)(**fields), cls(**fields)
    assert type(direct) is cls
    assert direct == built and hash(direct) == hash(built) and repr(direct) == repr(built)
    assert direct.payload() == built.payload()
    assert direct.payload_digest() == built.payload_digest()
    assert replace(direct, **changes) == replace(built, **changes) != built
    assert direct.valid(REGISTRY, QUORUM) and built.valid(REGISTRY, QUORUM)
    with pytest.raises(dataclasses.FrozenInstanceError):
        direct.frame = 5


def test_direct_construction_refuses_a_class_that_checks_its_fields():
    """A ``__post_init__`` check would be skipped, so such a class is refused
    when its constructor is made, not silently at each object."""

    @dataclasses.dataclass(frozen=True)
    class Checked:
        frame: int

        def __post_init__(self):
            if self.frame < 0:
                raise ValueError("negative frame")

    @dataclasses.dataclass(frozen=True)
    class Inherits(Checked):
        value: str = ""

    for cls in (Checked, Inherits):
        with pytest.raises(TypeError, match="__post_init__"):
            direct_constructor(cls)
