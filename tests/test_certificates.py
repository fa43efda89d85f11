"""Certificate verdicts: one valid bundle per kind, then bundles broken one
way each.

A certificate holds only when 2f+1 distinct signers each signed a message
that fits it, under a tag that verifies.  `PrepareCertificate`, `Checkpoint`,
`FrameCert` and the ViewChange set of a `NewView` all apply that rule; these
tables pin their verdicts and, for a NewView, the misbehaviour entry the
receiving replica records.
"""
import pytest

from bftensemble.consensus import Replica, value_digest
from bftensemble.core import DecisionSpace, KeyRegistry, QuorumConfig
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
    ViewChange,
    log_prefix_digest,
    sign_message,
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
    }[case]


def certificate(kind, votes):
    if kind == "prepare-cert":
        return PrepareCertificate(0, 1, D_NORTH, NORTH, votes)
    if kind == "checkpoint":
        return Checkpoint(up_to_frame=1, values=LOG, log_digest=LOG_DIGEST, attestations=votes)
    return FrameCert(0, NORTH, votes)


CASES = ["valid", "wrong-kind", "mismatched-field", "forged-tag", "repeated-signer", "one-short"]


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("kind", sorted(KINDS))
def test_certificate_verdict(kind, case):
    assert certificate(kind, bundle(kind, case)).valid(REGISTRY, QUORUM) is (case == "valid")


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


# --- the ViewChange set of a NewView ---------------------------------------

NEW_VIEW = 1
LEADER = 1  # the leader of frame 0, view 1, for n = 4
RECEIVER = 2


def view_change(sender, new_view=NEW_VIEW, cert=None):
    return sign(sender, ViewChange(0, new_view, cert))


def prepare_cert(value, votes_from=(0, 1, 3)):
    d = value_digest(value)
    votes = tuple(sign(m, Prepare(0, 0, d, value)) for m in votes_from)
    return PrepareCertificate(0, 0, d, value, votes)


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
