"""Deterministic discrete-round network: the sole medium between modules.

Delivery fate (drop, jitter) is a pure function of (policy seed, envelope
index), so identical scenarios replay to byte-identical event logs.  A world
records its deliveries as data; ``render_event_log`` turns that record into
event-log lines only when someone reads them.
"""
from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from functools import lru_cache
from itertools import count
from typing import Callable, NamedTuple, Optional

from .core import DIGEST_SIZE, OBSERVER, PEERS, canonical, short_digest
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


_INDEX = struct.Struct(">q")
_DRAWS = struct.Struct(">QQ")  # a digest's drop draw and delay draw


def _fate_hash(seed: int):
    """The hash state of ``canonical("net-fate", seed)`` and the index's
    type byte: ``canonical`` concatenates per-field encodings, so feeding a
    copy the index's 8 bytes digests ``canonical("net-fate", seed, i)``.
    A world builds it once, through ``NetworkPolicy.draw``."""
    return hashlib.blake2b(canonical("net-fate", seed) + b"i", digest_size=DIGEST_SIZE)


@lru_cache(maxsize=16)
def drop_limit(drop_rate: float) -> int:
    """The least ``d`` in [0, 2**64] with ``d / 2**64 >= drop_rate``, found by
    bisection over that float expression, which never falls as ``d`` rises: a
    draw ``d`` is dropped by ``d < drop_limit(rate)`` exactly as by the float rule."""
    lo, hi = 0, 2**64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / 2**64 >= drop_rate:
            hi = mid
        else:
            lo = mid + 1
    return lo


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

    def draw(self) -> Optional[Callable[[int], Optional[int]]]:
        """The fate rule: a function of an envelope's index that returns its
        extra delay, or None if it is dropped.  None on a quiet network
        (no drops, no jitter), where every fate is 0 and nothing is drawn."""
        drop_rate, jitter = self.drop_rate, self.jitter_rounds
        if not drop_rate and not jitter:
            return None
        base, pack, draws = _fate_hash(self.seed), _INDEX.pack, _DRAWS.unpack_from
        limit, modulus = drop_limit(drop_rate), jitter + 1

        def fate(index: int) -> Optional[int]:
            state = base.copy()
            state.update(pack(index))
            drop, delay = draws(state.digest())
            return None if drop < limit else delay % modulus

        return fate

    def fate(self, first_index: int, count: int) -> list[Optional[int]]:
        """Extra delays of the ``count`` envelopes numbered from
        ``first_index``, each None if that envelope is dropped."""
        draw = self.draw()
        if draw is None:
            return [0] * count
        return [draw(i) for i in range(first_index, first_index + count)]

    def partitioned(self, round_: int, frm: int, to: int) -> bool:
        return any(p.blocks(round_, frm, to) for p in self.partitions)


class Envelope(NamedTuple):
    """One queued message.  The fields are in delivery order, so envelopes
    sort as tuples; ``seq`` is unique, so a comparison never reaches
    ``payload``."""

    deliver_round: int
    send_round: int
    frm: int
    to: int
    seq: int
    payload: object  # a Signed message
    kind: str
    log_tag: str  # "kind|short digest", the payload's part of its event-log line


# Each round that delivered something: the round, then its envelopes' senders,
# recipients and log tags, in delivery order.
Deliveries = list[tuple[int, tuple[int, ...], tuple[int, ...], tuple[str, ...]]]


def render_event_log(deliveries: Deliveries) -> list[str]:
    """The event-log lines of a delivery record, one per delivered envelope:
    ``round|from|to|kind|short digest``.  It reads only the record, so a log
    renders the same at any later time."""
    return [
        f"{now}|{frm}|{to}|{tag}"
        for now, senders, recipients, tags in deliveries
        for frm, to, tag in zip(senders, recipients, tags)
    ]


def payload_kind(payload) -> str:
    if isinstance(payload, Signed):
        return KIND_NAMES[payload.msg.KIND]
    return "opaque"


def payload_digest_hex(payload) -> str:
    if isinstance(payload, Signed):
        return payload.msg.short_hex()
    return short_digest(repr(payload).encode("utf-8"))


def _tags(payload) -> tuple[str, str]:
    """The kind of ``payload`` and its "kind|short digest" log tag.  A
    signed message keeps them on its message object, where they follow from
    its fields, so an interned message computes them once."""
    kind = payload_kind(payload)
    tags = (kind, f"{kind}|{payload_digest_hex(payload)}")
    if isinstance(payload, Signed):
        payload.msg.__dict__["_log_tags"] = tags
    return tags


class World:
    """Single-owner message queue plus round counter for one episode.

    ``isolated`` is the caller's container of isolated modules (the
    supervisor's isolation map), read at every send and delivery: an
    isolated module neither sends nor receives.  ``absent`` holds the
    modules that receive nothing: the isolated ones, unless the caller sets
    it to a container that holds them too, as the runner does each frame
    with the modules that take no part in it."""

    _keys = count()  # one per world, its key in an outbox message's ``_queued``

    def __init__(self, policy: NetworkPolicy, module_ids, slow_extra=None, isolated=frozenset()):
        self.policy = policy
        self._fate = policy.draw()  # None on a quiet network
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra or {})  # sender -> extra rounds
        self.round = 0
        self._peers = {m: tuple(x for x in self.module_ids if x != m) for m in self.module_ids}
        self._queue: list[Envelope] = []
        self._seq = 0
        self._key = next(World._keys)
        self.isolated = self.absent = isolated
        self.deliveries: Deliveries = []

    @property
    def event_log(self) -> list[str]:
        return render_event_log(self.deliveries)

    def send(self, frm: int, to: int, payload) -> None:
        """Queue one envelope to a module or the observer; PEERS expands to
        one per module but the sender, each with an independent delivery
        fate.  Drops are silent; an envelope to the observer is never
        dropped: where its draw drops, it is queued with no extra delay.

        Every slot takes the next sequence number, and its fate is a pure
        function of that number, so a slot that is not queued (to an
        absent module, across a partition, the observer's slot of a PEERS
        send, or a repeat) draws nothing and changes no other slot's fate.

        A repeat re-sends an outbox message (``Replica._to_peers``) to a
        recipient this world has queued that object to, due no later than
        the re-send could arrive; the message's ``_queued`` record keeps, per
        world, each recipient's earliest deliver round."""
        if frm in self.isolated:
            return
        skipped = 0
        if to == PEERS:
            recipients = self._peers[frm]
            # the observer's slot is never queued but takes a sequence number:
            # every pinned fate depends on that numbering
            skipped = 1
        else:
            recipients = (to,)
        tags = due_by = None
        if isinstance(payload, Signed):
            fields = payload.__dict__  # one attribute read: Signed's __getattr__ slows each
            tags, queued = fields["msg"].__dict__.get("_log_tags"), fields.get("_queued")
            due_by = None if queued is None else queued.setdefault(self._key, {})
        kind, log_tag = tags or _tags(payload)
        policy = self.policy
        partitioned = policy.partitioned if policy.partitions else None
        now = self.round
        earliest = now + policy.base_delay_rounds + self.slow_extra.get(frm, 0)
        append = self._queue.append
        # tuple.__new__ builds an Envelope without the Python-level __new__
        # a NamedTuple adds: one call less per queued envelope
        new = tuple.__new__
        absent = self.absent
        fate = self._fate
        extra = 0  # every fate on a quiet network
        seq = self._seq
        for recipient in recipients:
            seq += 1
            if recipient in absent:
                continue
            if partitioned is not None and partitioned(now, frm, recipient):
                continue
            if due_by is not None and due_by.get(recipient, earliest + 1) <= earliest:
                continue  # a repeat: its queued copy arrives first
            if fate is not None:
                extra = fate(seq)
                if extra is None:
                    if recipient != OBSERVER:
                        continue
                    extra = 0
            if due_by is not None:
                due_by[recipient] = min(earliest + extra, due_by.get(recipient, earliest + extra))
            append(new(Envelope, (earliest + extra, now, frm, recipient, seq, payload, kind, log_tag)))
        self._seq = seq + skipped

    def advance_round(self) -> list[Envelope]:
        """Advance the clock one round; return due envelopes in deterministic
        order (deliver_round, send_round, from, to, send sequence), and
        record them in ``deliveries``; none is to an absent module or from
        an isolated one."""
        self.round = now = self.round + 1
        due: list[Envelope] = []
        later: list[Envelope] = []
        for env in self._queue:
            (due if env.deliver_round <= now else later).append(env)
        self._queue = later
        due.sort()
        absent, isolated = self.absent, self.isolated
        if absent:  # it holds every isolated module
            due = [e for e in due if e.to not in absent and e.frm not in isolated]
        if due:
            # the columns hold only ints and strings, so the record keeps no
            # envelope alive for the cyclic collector to keep scanning
            _, _, senders, recipients, _, _, _, tags = zip(*due)
            self.deliveries.append((now, senders, recipients, tags))
        return due

    def delivery_rounds(self, rounds: int):
        """Advance the clock ``rounds`` rounds, yielding each round's due
        envelopes that ``advance_round`` returns, if there are any.  Only for
        a caller that fires no timers: after a round that delivered nothing,
        the clock moves to the round before the earliest pending delivery,
        capped at the last round, so a long delay costs no empty rounds; once
        the caller has handled a round's envelopes and nothing is pending, it
        moves to the last round."""
        end = self.round + rounds
        while self.round < end:
            due = self.advance_round()
            if due:
                yield due
                if not self._queue:
                    self.round = end
            else:
                queue = self._queue
                nearest = min(queue).deliver_round if queue else end + 1
                self.round = min(nearest - 1, end)
