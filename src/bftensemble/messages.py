"""Protocol messages exchanged between replicas, with canonical byte layouts.

Kind tags: 1=PrePrepare 2=Prepare 3=Commit 4=ViewChange 5=NewView 6=Reply
7=StateRequest 8=StateSnapshot 9=CheckpointAttest 10=OutputDigest 11=Output.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Optional, Union

from .core import Encoded, KeyRegistry, UnknownSignerError, canonical, digest


@lru_cache(maxsize=256)
def value_digest(value: str) -> bytes:
    # a decision space has a few labels
    return digest(canonical("decision", value))


@lru_cache(maxsize=4096, typed=True)
def interned(cls: type, *fields) -> "Message":
    """The one shared ``cls(*fields)``, already encoded, for a flat message:
    PrePrepare, Prepare, Commit, Reply, StateRequest, CheckpointAttest,
    OutputDigest or Output.

    A message does not name its sender, so up to n replicas build the same
    content each frame, and a campaign's episodes build it again; each
    content is constructed and encoded once while it is among the 4,096
    most recent.  ``typed`` keeps ``1`` and ``True`` apart, which encode
    differently.  A message is immutable and its ``__dict__`` memos (its
    encoding and log tag) follow from its fields, so one object serves
    every sender; ``dataclasses.replace`` still builds a fresh one."""
    msg = cls(*fields)
    msg.payload()
    return msg


@dataclass(frozen=True)
class Endorsement(Encoded):
    """The shared layout of PrePrepare, Prepare and Commit."""

    frame: int
    view: int
    value_digest: bytes
    value: str

    def _fields(self) -> tuple:
        return (self.KIND, self.frame, self.view, self.value_digest, self.value)


@dataclass(frozen=True)
class PrePrepare(Endorsement):
    KIND = 1


@dataclass(frozen=True)
class Prepare(Endorsement):
    KIND = 2


@dataclass(frozen=True)
class Commit(Endorsement):
    KIND = 3


@dataclass(frozen=True)
class Signed:
    """A protocol message plus its sender's authentication tag."""

    msg: "Message"
    sender: int
    tag: bytes

    def __getattr__(self, name: str):
        # Reached only for a name missing from __dict__: the tag that
        # sign_message left to its first read, made by the registry it stamped.
        if name != "tag":
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        tag = self.__dict__["tag"] = self._verified.sign(self.sender, self.msg.payload_digest())
        return tag

    def __getstate__(self) -> dict:
        # a pickle or copy carries the fields, not the stamp, and is checked
        # by MAC on its first verify
        return {"msg": self.msg, "sender": self.sender, "tag": self.tag}

    def verify(self, registry: KeyRegistry) -> bool:
        """Check the tag against ``registry``.  A passing check stamps this
        object with the registry it passed under (``_verified``): the
        message, the tag and the registry are immutable, so the result
        cannot change, and a tampered message or forged tag is a new object
        with its own check.  :func:`sign_message` stamps the registry that
        computes its tag on first read, so only a ``Signed`` built another
        way, or checked under another registry, runs a MAC here; a failing
        tag is checked again each time."""
        if self.__dict__.get("_verified") is registry:
            return True
        ok = registry.verify(self.tag, self.sender, self.msg.payload_digest())
        if ok:
            self.__dict__["_verified"] = registry
        return ok


def sign_message(registry: KeyRegistry, sender: int, msg: "Message") -> Signed:
    """``Signed(msg, sender, tag)`` with ``sender``'s tag over ``msg``, built
    as :func:`core.direct_constructor` builds an object and stamped as
    passed under ``registry`` (see :meth:`Signed.verify`).  The tag, this
    registry's MAC over the message's digest, is computed on its first
    read, so a signature no one compares, hashes, prints or checks under
    another registry runs no MAC.  An unknown ``sender`` raises
    :class:`core.UnknownSignerError` here, as ``KeyRegistry.sign`` does."""
    if sender not in registry.ids:
        raise UnknownSignerError(sender)
    signed = object.__new__(Signed)
    signed.__dict__.update(msg=msg, sender=sender, _verified=registry)
    return signed


def signers(votes: Iterable[Signed], registry: KeyRegistry, fits: Callable) -> Optional[set[int]]:
    """The distinct senders of a signed bundle, or None unless every message
    ``fits`` and every tag verifies.  This is the one quorum rule: a
    certificate holds once its signers reach 2f+1."""
    senders = set()
    for vote in votes:
        if not fits(vote.msg) or not vote.verify(registry):
            return None
        senders.add(vote.sender)
    return senders


@dataclass(frozen=True)
class EquivocationProof:
    """Two verified proposal endorsements from one signer, same frame and view,
    with conflicting digests."""

    first: Signed
    second: Signed

    def valid(self, registry: KeyRegistry) -> bool:
        a, b = self.first, self.second
        if a.sender != b.sender:
            return False
        ma, mb = a.msg, b.msg
        if not isinstance(ma, Endorsement) or not isinstance(mb, Endorsement):
            return False
        if ma.frame != mb.frame or ma.view != mb.view:
            return False
        if ma.value_digest == mb.value_digest:
            return False
        return a.verify(registry) and b.verify(registry)


@dataclass(frozen=True)
class PrepareCertificate(Encoded):
    """Proof that 2f+1 distinct replicas endorsed one digest in one view."""

    frame: int
    view: int
    value_digest: bytes
    value: str
    votes: tuple[Signed, ...]

    def _fields(self) -> tuple:
        votes = tuple(v.msg.payload() for v in self.votes)
        return ("prepare-cert", self.frame, self.view, self.value_digest, self.value, votes)

    def valid(self, registry: KeyRegistry, quorum: int) -> bool:
        """2f+1 distinct verified Prepares for this frame, view and digest,
        and a value that hashes to the digest."""
        if value_digest(self.value) != self.value_digest:
            return False

        def fits(m) -> bool:
            return isinstance(m, Prepare) and (m.frame, m.view, m.value_digest) == (
                self.frame, self.view, self.value_digest
            )

        return len(signers(self.votes, registry, fits) or ()) >= quorum


@dataclass(frozen=True)
class ViewChange(Encoded):
    KIND = 4
    frame: int
    new_view: int
    cert: Optional[PrepareCertificate]
    evidence: Optional[EquivocationProof] = None

    def _fields(self) -> tuple:
        cert_bytes = self.cert.payload_digest() if self.cert else b""
        return (self.KIND, self.frame, self.new_view, cert_bytes)


@dataclass(frozen=True)
class NewView(Encoded):
    KIND = 5
    frame: int
    view: int
    view_changes: tuple[Signed, ...]
    proposal: Signed  # the new leader's PrePrepare for this view

    def _fields(self) -> tuple:
        view_changes = tuple(v.msg.payload() for v in self.view_changes)
        return (self.KIND, self.frame, self.view, view_changes, self.proposal.msg.payload())


@dataclass(frozen=True)
class Reply(Encoded):
    KIND = 6
    frame: int
    value: str

    def _fields(self) -> tuple:
        return (self.KIND, self.frame, self.value)


@dataclass(frozen=True)
class StateRequest(Encoded):
    KIND = 7
    up_to_frame: int

    def _fields(self) -> tuple:
        return (self.KIND, self.up_to_frame)


@dataclass(frozen=True)
class CheckpointAttest(Encoded):
    KIND = 9
    up_to_frame: int
    log_digest: bytes

    def _fields(self) -> tuple:
        return (self.KIND, self.up_to_frame, self.log_digest)


@dataclass(frozen=True)
class Checkpoint(Encoded):
    """A committed-log prefix plus 2f+1 matching attestations over its digest.
    Its bytes leave out the values, which the digest stands for."""

    up_to_frame: int
    values: tuple[str, ...]  # committed values for frames 0..up_to_frame
    log_digest: bytes
    attestations: tuple[Signed, ...]

    def _fields(self) -> tuple:
        return (self.up_to_frame, self.log_digest, tuple(a.msg.payload() for a in self.attestations))

    def valid(self, registry: KeyRegistry, quorum: int) -> bool:
        # committed values are labels, and only a tuple of them keys the cache
        if len(self.values) != self.up_to_frame + 1 or not all(isinstance(v, str) for v in self.values):
            return False
        if log_prefix_digest(tuple(self.values)) != self.log_digest:
            return False
        want = interned(CheckpointAttest, self.up_to_frame, self.log_digest)
        return len(signers(self.attestations, registry, lambda m: m == want) or ()) >= quorum


@dataclass(frozen=True)
class FrameCert(Encoded):
    """A commit certificate for one frame: 2f+1 matching signed Commits."""

    frame: int
    value: str
    votes: tuple[Signed, ...]

    def _fields(self) -> tuple:
        return (self.frame, self.value, tuple(v.msg.payload() for v in self.votes))

    def valid(self, registry: KeyRegistry, quorum: int) -> bool:
        def fits(m) -> bool:
            return isinstance(m, Commit) and m.frame == self.frame and m.value == self.value

        if signers(self.votes, registry, fits) is None:
            return False
        # one view's Commits alone must reach the quorum
        by_view: dict[int, list[Signed]] = {}
        for vote in self.votes:
            by_view.setdefault(vote.msg.view, []).append(vote)
        return any(len(signers(votes, registry, fits)) >= quorum for votes in by_view.values())


@dataclass(frozen=True)
class StateSnapshot(Encoded):
    KIND = 8
    checkpoint: Optional[Checkpoint]
    frame_certs: tuple[FrameCert, ...]  # frames after the checkpoint, ascending

    def _fields(self) -> tuple:
        cp = self.checkpoint.payload() if self.checkpoint else b""
        return (self.KIND, cp, tuple(c.payload() for c in self.frame_certs))

    def up_to_frame(self) -> int:
        if self.frame_certs:
            return self.frame_certs[-1].frame
        if self.checkpoint:
            return self.checkpoint.up_to_frame
        return -1


@dataclass(frozen=True)
class OutputDigest(Encoded):
    """Vote-only fast path: a module announces only the hash of its output."""

    KIND = 10
    frame: int
    value_digest: bytes

    def _fields(self) -> tuple:
        return (self.KIND, self.frame, self.value_digest)


@dataclass(frozen=True)
class Output(Encoded):
    """Vote-only mode: a module's full output for one frame.  It names no
    sender: a receiver counts it as the vote of its ``Signed.sender``."""

    KIND = 11
    frame: int
    value: str

    def _fields(self) -> tuple:
        return (self.KIND, self.frame, self.value)


Message = Union[
    PrePrepare,
    Prepare,
    Commit,
    ViewChange,
    NewView,
    Reply,
    StateRequest,
    StateSnapshot,
    CheckpointAttest,
    OutputDigest,
    Output,
]

KIND_NAMES = {
    1: "preprepare",
    2: "prepare",
    3: "commit",
    4: "viewchange",
    5: "newview",
    6: "reply",
    7: "staterequest",
    8: "statesnapshot",
    9: "checkpoint",
    10: "outputdigest",
    11: "output",
}


@lru_cache(maxsize=256)
def log_prefix_digest(values: tuple[str, ...]) -> bytes:
    """Digest of a committed decision-log prefix (frames 0..k in order).
    Every replica digests the same prefix at each checkpoint."""
    return digest(canonical("log-prefix", values))
