"""Deterministic discrete-round network: the sole medium between modules.

Delivery fate (drop, jitter) is a pure function of (policy seed, envelope
index), so identical scenarios replay to byte-identical event logs.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import BROADCAST, OBSERVER, canonical, digest, short_digest
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
        if not 0.0 <= self.drop_rate < 1.0:
            raise ValueError("drop rate must be in [0, 1)")
        # canonical() concatenates per-field encodings, so this prefix plus
        # canonical(i) is canonical("net-fate", seed, i); not a field.
        object.__setattr__(self, "_fate_prefix", canonical("net-fate", self.seed))

    def fate(self, envelope_index: int) -> Optional[int]:
        """Extra delay for this envelope, or None if dropped."""
        h = digest(self._fate_prefix + canonical(envelope_index))
        drop_draw = int.from_bytes(h[:8], "big") / 2**64
        if drop_draw < self.drop_rate:
            return None
        if self.jitter_rounds == 0:
            return 0
        return int.from_bytes(h[8:16], "big") % (self.jitter_rounds + 1)

    def partitioned(self, round_: int, frm: int, to: int) -> bool:
        return any(p.blocks(round_, frm, to) for p in self.partitions)


@dataclass(frozen=True)
class Envelope:
    frm: int
    to: int
    payload: object  # Signed protocol message or ModuleOutput
    kind: str
    send_round: int
    deliver_round: int
    seq: int

    def sort_key(self):
        return (self.deliver_round, self.send_round, self.frm, self.to, self.seq)


def payload_kind(payload) -> str:
    if isinstance(payload, Signed):
        return KIND_NAMES[payload.msg.KIND]
    if hasattr(payload, "payload"):
        return "output"
    return "opaque"


def payload_digest_hex(payload) -> str:
    if isinstance(payload, Signed):
        return payload.msg.payload_digest().hex()[:12]
    if hasattr(payload, "payload"):
        return short_digest(payload.payload())
    return short_digest(repr(payload).encode("utf-8"))


class World:
    """Single-owner message queue plus round counter for one episode."""

    def __init__(self, policy: NetworkPolicy, module_ids, slow_extra=None):
        self.policy = policy
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra or {})  # sender -> extra rounds
        self.round = 0
        self._queue: list[Envelope] = []
        self._seq = 0
        self._muted: set[int] = set()  # isolated senders/receivers
        self.event_log: list[str] = []

    def mute(self, module_id: int) -> None:
        self._muted.add(module_id)

    def unmute(self, module_id: int) -> None:
        self._muted.discard(module_id)

    def send(self, frm: int, to: int, payload, extra_delay: int = 0) -> None:
        """Queue one envelope; broadcasts expand to one per recipient, each
        with an independent delivery fate.  Drops are silent."""
        if frm in self._muted:
            return
        recipients = (
            [m for m in self.module_ids if m != frm] + [OBSERVER]
            if to == BROADCAST
            else [to]
        )
        kind = payload_kind(payload)
        for recipient in recipients:
            self._seq += 1
            if recipient in self._muted:
                continue
            if self.policy.partitioned(self.round, frm, recipient):
                continue
            fate = self.policy.fate(self._seq)
            if fate is None and recipient != OBSERVER:
                continue
            delay = self.policy.base_delay_rounds + (fate or 0)
            delay += self.slow_extra.get(frm, 0) + extra_delay
            self._queue.append(
                Envelope(
                    frm=frm,
                    to=recipient,
                    payload=payload,
                    kind=kind,
                    send_round=self.round,
                    deliver_round=self.round + delay,
                    seq=self._seq,
                )
            )

    def advance_round(self) -> list[Envelope]:
        """Advance the clock one round; return due envelopes in deterministic
        order (deliver_round, send_round, from, to, send sequence)."""
        self.round += 1
        due = [e for e in self._queue if e.deliver_round <= self.round]
        self._queue = [e for e in self._queue if e.deliver_round > self.round]
        due.sort(key=Envelope.sort_key)
        due = [e for e in due if e.to not in self._muted and e.frm not in self._muted]
        for env in due:
            self.event_log.append(
                f"{self.round}|{env.frm}|{env.to}|{env.kind}|{payload_digest_hex(env.payload)}"
            )
        return due

    def pending(self) -> int:
        return len(self._queue)


def timeout_check(start_round: int, round_: int, timeout_rounds: int, decided: bool) -> bool:
    """A consensus instance times out once it has been open for at least
    timeout_rounds without deciding."""
    if decided:
        return False
    return (round_ - start_round) >= timeout_rounds
