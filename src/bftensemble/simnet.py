"""Deterministic discrete-round network: the sole medium between modules.

Delivery fate (drop, jitter) is a pure function of (policy seed, envelope
index), so identical scenarios replay to byte-identical event logs.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

from .core import BROADCAST, DIGEST_SIZE, OBSERVER, PEERS, Encoded, canonical, short_digest
from .messages import KIND_NAMES, Signed


@dataclass(frozen=True)
class Partition:
    """No delivery between side_a and side_b while start <= round <= end."""

    start: int
    end: int
    side_a: frozenset[int]
    side_b: frozenset[int]

    def blocks(self, round_: int, frm: int, to: int) -> bool:
        if not self.start <= round_ <= self.end:
            return False
        return (frm in self.side_a and to in self.side_b) or (
            frm in self.side_b and to in self.side_a
        )


@lru_cache(maxsize=64, typed=True)
def _fate_hash(seed: int):
    """The hash state of ``canonical("net-fate", seed)`` and the index's
    type byte: ``canonical`` concatenates per-field encodings, so feeding a
    copy the index's 8 bytes digests ``canonical("net-fate", seed, i)``."""
    return hashlib.blake2b(canonical("net-fate", seed) + b"i", digest_size=DIGEST_SIZE)


@dataclass(frozen=True)
class NetworkPolicy:
    base_delay_rounds: int = 1
    jitter_rounds: int = 0  # extra delay drawn uniformly from [0, jitter_rounds]
    drop_rate: float = 0.0
    partitions: tuple[Partition, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.base_delay_rounds < 0:
            raise ValueError("base delay must be >= 0")
        if self.jitter_rounds < 0:
            raise ValueError("jitter must be >= 0")
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")

    def fate(self, envelope_index: int) -> Optional[int]:
        """Extra delay for this envelope, or None if dropped."""
        drop_rate, jitter = self.drop_rate, self.jitter_rounds
        if not drop_rate and not jitter:
            return 0  # a quiet network: no draw can drop or delay
        state = _fate_hash(self.seed).copy()
        state.update(struct.pack(">q", envelope_index))
        h = state.digest()
        if drop_rate and int.from_bytes(h[:8], "big") / 2**64 < drop_rate:
            return None
        if not jitter:
            return 0
        return int.from_bytes(h[8:16], "big") % (jitter + 1)

    def partitioned(self, round_: int, frm: int, to: int) -> bool:
        return any(p.blocks(round_, frm, to) for p in self.partitions)


@dataclass(slots=True)
class Envelope:
    frm: int
    to: int
    payload: object  # Signed protocol message or ModuleOutput
    kind: str
    send_round: int
    deliver_round: int
    seq: int
    log_tag: str  # "kind|short digest", the payload's part of its event-log line

    def sort_key(self):
        return (self.deliver_round, self.send_round, self.frm, self.to, self.seq)


def payload_kind(payload) -> str:
    if isinstance(payload, Signed):
        return KIND_NAMES[payload.msg.KIND]
    if isinstance(payload, Encoded):
        return "output"
    return "opaque"


def payload_digest_hex(payload) -> str:
    if isinstance(payload, Signed):
        return payload.msg.short_hex()
    if isinstance(payload, Encoded):
        return payload.short_hex()
    return short_digest(repr(payload).encode("utf-8"))


class World:
    """Single-owner message queue plus round counter for one episode.

    ``isolated`` is the caller's container of isolated modules (the
    supervisor's isolation map), read at every send and delivery: an
    isolated module neither sends nor receives."""

    def __init__(self, policy: NetworkPolicy, module_ids, slow_extra=None, isolated=frozenset()):
        self.policy = policy
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra or {})  # sender -> extra rounds
        self.round = 0
        # sender -> its peers; a BROADCAST adds the observer's slot last
        self._peers = {m: tuple(x for x in self.module_ids if x != m) for m in self.module_ids}
        self._broadcast = {m: (*peers, OBSERVER) for m, peers in self._peers.items()}
        self._queue: list[Envelope] = []
        self._seq = 0
        self.isolated = isolated
        self.event_log: list[str] = []

    def send(self, frm: int, to: int, payload) -> None:
        """Queue one envelope; BROADCAST and PEERS expand to one per
        recipient, each with an independent delivery fate.  Drops are silent.

        A PEERS send numbers its slots as a BROADCAST does; the observer's
        slot takes its sequence number and nothing else, so every
        module-to-module envelope keeps its fate either way."""
        isolated = self.isolated
        if frm in isolated:
            return
        skipped = 0
        if to == BROADCAST:
            recipients = self._broadcast[frm]
        elif to == PEERS:
            recipients = self._peers[frm]
            skipped = 1  # the observer's slot
        else:
            recipients = (to,)
        kind = payload_kind(payload)
        log_tag = f"{kind}|{payload_digest_hex(payload)}"
        policy = self.policy
        partitioned = policy.partitioned if policy.partitions else None
        now = self.round
        earliest = now + policy.base_delay_rounds + self.slow_extra.get(frm, 0)
        queue = self._queue
        seq = self._seq
        for recipient in recipients:
            seq += 1
            if recipient in isolated:
                continue
            if partitioned is not None and partitioned(now, frm, recipient):
                continue
            fate = policy.fate(seq)
            if fate is None and recipient != OBSERVER:
                continue
            queue.append(
                Envelope(frm, recipient, payload, kind, now, earliest + (fate or 0), seq, log_tag)
            )
        self._seq = seq + skipped

    def advance_round(self) -> list[Envelope]:
        """Advance the clock one round; return due envelopes in deterministic
        order (deliver_round, send_round, from, to, send sequence)."""
        self.round = now = self.round + 1
        due: list[Envelope] = []
        later: list[Envelope] = []
        for env in self._queue:
            (due if env.deliver_round <= now else later).append(env)
        self._queue = later
        due.sort(key=Envelope.sort_key)
        isolated = self.isolated
        if isolated:
            due = [e for e in due if e.to not in isolated and e.frm not in isolated]
        log = self.event_log
        for env in due:
            log.append(f"{now}|{env.frm}|{env.to}|{env.log_tag}")
        return due

    def pending(self) -> int:
        return len(self._queue)
