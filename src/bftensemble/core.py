"""Quorum arithmetic, decision spaces, digests and simulated message authentication.

Everything here is pure and deterministic: the same canonical bytes always
produce the same digest on every platform, which is what makes event logs
replay-diffable.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import Callable

# Reserved destination ids used by the simulated network.  The observer is
# the client: it takes part in no protocol phase, so modules send their
# protocol traffic and votes to PEERS and only their Replies to OBSERVER.
OBSERVER = -2
PEERS = -3  # every module except the sender

DIGEST_SIZE = 32
TAG_SIZE = 16


def min_replicas(f: int) -> int:
    """Smallest ensemble that tolerates f arbitrary faults (3f + 1)."""
    if f < 0:
        raise ValueError(f"fault count must be non-negative, got {f}")
    return 3 * f + 1


def quorum_size(f: int) -> int:
    """Votes required to prepare/commit a value (2f + 1)."""
    if f < 0:
        raise ValueError(f"fault count must be non-negative, got {f}")
    return 2 * f + 1


def client_match(f: int) -> int:
    """Matching replies an external observer needs before trusting a decision (f + 1)."""
    if f < 0:
        raise ValueError(f"fault count must be non-negative, got {f}")
    return f + 1


@dataclass(frozen=True)
class QuorumConfig:
    """The (n, f) arithmetic of one ensemble.  Only PBFT needs n = 3f+1,
    and ``consensus.Replica`` checks it; a vote-only ensemble needs only
    room for a quorum."""

    n: int
    f: int

    def __post_init__(self) -> None:
        if self.n < 1 or self.f < 0:
            raise ValueError(f"bad quorum config n={self.n} f={self.f}")
        if quorum_size(self.f) > self.n:
            raise ValueError(f"quorum {quorum_size(self.f)} exceeds n={self.n}")

    @property
    def quorum(self) -> int:
        return quorum_size(self.f)

    @property
    def reply_matches(self) -> int:
        return client_match(self.f)


@dataclass(frozen=True)
class DecisionSpace:
    """The finite, canonical set of action labels modules vote over."""

    labels: tuple[str, ...]
    safe_default: str

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("decision space needs at least one label")
        for label in self.labels:
            # a decision.log record is '|'-separated and writes no value as '-';
            # a scenario file separates labels by whitespace
            if label == "-" or "|" in label or label.split() != [label]:
                raise ValueError(f"label {label!r} cannot be logged: it is '' or '-', or has '|' or whitespace")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in decision space: {self.labels}")
        if self.safe_default not in self.labels:
            raise ValueError(f"safe default {self.safe_default!r} not in {self.labels}")

    def __contains__(self, label: str) -> bool:
        return label in self.labels

    def value(self, label: str) -> str:
        """``label``, checked to be one of this space's labels: a decision
        value is its label."""
        if label not in self.labels:
            raise ValueError(f"label {label!r} not in decision space {self.labels}")
        return label


# --- canonical serialization -------------------------------------------------
#
# Length-prefixed UTF-8 for text, fixed-width big-endian for integers,
# IEEE-754 big-endian for reals.  Field order is the declared order of the
# caller.  This layout is the only wire-visible contract; digests over it must
# be bit-exact across runs and platforms.

def canonical(*fields) -> bytes:
    out = bytearray()
    for field in fields:
        if isinstance(field, bool):
            out += b"b" + (b"\x01" if field else b"\x00")
        elif isinstance(field, int):
            out += b"i" + struct.pack(">q", field)
        elif isinstance(field, float):
            out += b"f" + struct.pack(">d", field)
        elif isinstance(field, str):
            raw = field.encode("utf-8")
            out += b"s" + struct.pack(">I", len(raw)) + raw
        elif isinstance(field, bytes):
            out += b"y" + struct.pack(">I", len(field)) + field
        elif isinstance(field, (tuple, list)):
            out += b"l" + struct.pack(">I", len(field)) + canonical(*field)
        elif field is None:
            out += b"n"
        else:
            raise TypeError(f"cannot canonicalize {type(field).__name__}")
    return bytes(out)


def int64(text: str) -> int:
    """An integer read from text that ``canonical`` can encode."""
    value = int(text)
    if not -(2**63) <= value < 2**63:
        raise ValueError(f"{value} is outside the signed 64-bit range")
    return value


def digest(payload: bytes) -> bytes:
    """Deterministic 256-bit digest of a canonical byte string."""
    return hashlib.blake2b(payload, digest_size=DIGEST_SIZE).digest()


def short_digest(payload: bytes) -> str:
    """12-hex-char digest prefix used in log lines."""
    return digest(payload).hex()[:12]


def encoding(*fields) -> tuple[bytes, bytes, str]:
    """``canonical(*fields)``, its :func:`digest` and its :func:`short_digest`."""
    payload = canonical(*fields)
    payload_digest = digest(payload)
    return payload, payload_digest, payload_digest.hex()[:12]


# --- simulated message authentication ---------------------------------------


class UnknownSignerError(KeyError):
    pass


class KeyRegistry:
    """Module ids and their keyed MAC states, private to the harness.

    A tag is the TAG_SIZE bytes of a keyed MAC over a payload digest.  It is
    unforgeable within the simulation: per-module secrets live only inside
    the harness's registry, so a faulty module can replay its own tags but
    can never mint one for another signer.

    A registry keeps the master seed and the signer ids, and derives a
    signer's keyed MAC state on its first ``sign`` or ``verify``: an episode
    that reads no tag derives no key.
    """

    def __init__(self, master_seed: int, module_ids) -> None:
        self._seed = master_seed
        self.ids = frozenset(module_ids)
        self._macs: dict = {}

    def _mac(self, module_id: int):
        """``module_id``'s keyed MAC state, derived once (each tag feeds the
        digest to a copy), or None for an id outside the registry."""
        mac = self._macs.get(module_id)
        if mac is None and module_id in self.ids:
            secret = hashlib.blake2b(canonical(self._seed, module_id, "module-secret"), digest_size=32).digest()
            mac = self._macs[module_id] = hashlib.blake2b(key=secret, digest_size=TAG_SIZE)
        return mac

    def sign(self, module_id: int, payload_digest: bytes) -> bytes:
        """Tag ``payload_digest``, the :func:`digest` of a canonical payload."""
        mac = self._mac(module_id)
        if mac is None:
            raise UnknownSignerError(module_id)
        mac = mac.copy()
        mac.update(payload_digest)
        return mac.digest()

    def verify(self, tag: bytes, module_id: int, payload_digest: bytes) -> bool:
        """Check that ``tag`` is ``module_id``'s tag over ``payload_digest``,
        the digest of the payload the caller holds: the key binds the signer
        and the MAC input binds the digest."""
        mac = self._mac(module_id)
        if mac is None:
            return False
        mac = mac.copy()
        mac.update(payload_digest)
        return mac.digest() == tag


class Encoded:
    """Base of the objects that have a canonical byte layout.

    ``_fields()`` lists what is encoded, in order.  On first use an object
    takes its bytes, digest and short hex from :func:`encoding` and keeps
    them in its ``__dict__``, outside the dataclass fields: equality,
    hashing and repr ignore them, and ``dataclasses.replace`` builds a fresh
    object.
    """

    def _fields(self) -> tuple:
        raise NotImplementedError

    def _encoding(self) -> tuple[bytes, bytes, str]:
        enc = self.__dict__["_encoding"] = encoding(*self._fields())
        return enc

    def payload(self) -> bytes:
        return (self.__dict__.get("_encoding") or self._encoding())[0]

    def payload_digest(self) -> bytes:
        return (self.__dict__.get("_encoding") or self._encoding())[1]

    def short_hex(self) -> str:
        """:func:`short_digest` of the payload, as used in log lines."""
        return (self.__dict__.get("_encoding") or self._encoding())[2]


def direct_constructor(cls: type) -> Callable[..., object]:
    """A constructor for the frozen dataclass ``cls`` that takes every field
    by keyword and fills the new object's ``__dict__`` directly.  It fills
    no defaults, so each call passes every field.

    A frozen dataclass ``__init__`` sets each field through
    ``object.__setattr__``, which costs more than a MAC.  The object is the
    same: equality, hashing, repr and ``dataclasses.replace`` read the
    fields.  A class with a ``__post_init__`` is refused, since this
    constructor would skip its check."""
    if hasattr(cls, "__post_init__"):
        raise TypeError(f"{cls.__name__} defines __post_init__; use its own constructor")
    new = object.__new__

    def construct(**fields):
        obj = new(cls)
        obj.__dict__.update(fields)
        return obj

    return construct
