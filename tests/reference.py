"""The simulator with none of its shortcuts, for differential tests.

``ReferenceWorld`` is the network with none of ``World``'s shortcuts, and
``reference_run`` runs an episode on it with every message built fresh and
every tag signed and checked by MAC.  ``tests/test_reference.py`` requires
``run_episode`` to give the same decisions, replica states and delivered
envelopes; ``tests/test_simnet.py`` drives ``World`` and ``ReferenceWorld``
through the same random sends.
"""
from collections import Counter

import pytest

from bftensemble import consensus, episode, messages
from bftensemble.core import OBSERVER, PEERS, canonical, digest
from bftensemble.messages import KIND_NAMES, Signed
from bftensemble.simnet import Envelope, render_event_log


def reference_fate(policy, index):
    """The extra delay of slot ``index``, or None if it is dropped, drawn
    from the digest of the full encoding ``canonical("net-fate", seed, index)``."""
    h = digest(canonical("net-fate", policy.seed, index))
    if int.from_bytes(h[:8], "big") / 2**64 < policy.drop_rate:
        return None
    if policy.jitter_rounds == 0:
        return 0
    return int.from_bytes(h[8:16], "big") % (policy.jitter_rounds + 1)


def log_tag(payload) -> str:
    """``kind|short digest`` of ``payload``, from a fresh encoding."""
    if isinstance(payload, Signed):
        msg = payload.msg
        return f"{KIND_NAMES[msg.KIND]}|{digest(canonical(*msg._fields())).hex()[:12]}"
    return f"opaque|{digest(repr(payload).encode('utf-8')).hex()[:12]}"


def is_outbox_message(payload) -> bool:
    """A message ``Replica._to_peers`` keeps for re-broadcast, and marks."""
    return isinstance(payload, Signed) and "_queued" in payload.__dict__


class ReferenceWorld:
    """The network as its semantics state it, for ``World`` to be checked
    against.  It keeps one list of envelopes and scans all of it every
    round, steps through every round, and draws each slot's fate from the
    full encoding.  It keeps ``World``'s semantics: drops (an envelope to
    the observer is never dropped), partitions, slow senders, isolation (an
    isolated module neither sends nor receives) and the numbering of slots,
    where a ``PEERS`` send numbers one slot per peer and then the
    observer's, which is never queued.

    Every other slot is queued.  At delivery it leaves out, with a named
    reason, what ``World`` never carries:

    - ``absent``: the recipient was absent when the envelope was sent, or
      is absent when it is due;
    - ``repeat``: a copy of an outbox message to a recipient that another
      copy reached first.  Of the copies not left out as ``absent`` when
      sent, the first due reaches the recipient, a tie going to the copy
      sent first.  It counts even if it is lost there, because its sender
      or recipient is isolated or its recipient absent when it is due:
      ``World`` records a copy when it queues it.  The world holds each
      message that reached a recipient, so that no ``id`` is reused.

    ``queued`` holds every envelope queued, with whether its recipient was
    absent when it was sent; ``left_out`` lists each envelope left out with
    its reason, ``skipped`` counts the slots never queued by cause, and
    ``carried`` holds every envelope delivered."""

    def __init__(self, policy, module_ids, slow_extra=None, isolated=frozenset()):
        self.policy = policy
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra or {})
        self.isolated = self.absent = isolated
        self.round = 0
        self.seq = 0
        self.queue = []  # (envelope, whether its recipient was absent when it was sent), until due
        self.queued = []  # every such pair
        self.reached = {}  # (id of an outbox message, recipient) -> the message, kept alive
        self.carried = []
        self.left_out = []  # (reason, envelope)
        self.skipped = Counter()
        self.deliveries = []

    @property
    def event_log(self) -> list[str]:
        return render_event_log(self.deliveries)

    def send(self, frm, to, payload):
        if frm in self.isolated:
            return
        recipients = [m for m in self.module_ids if m != frm] + [OBSERVER] if to == PEERS else [to]
        for recipient in recipients:
            self.seq += 1
            if to == PEERS and recipient == OBSERVER:
                continue
            if recipient in self.isolated:
                self.skipped["isolated"] += 1
                continue
            if any(p.blocks(self.round, frm, recipient) for p in self.policy.partitions):
                self.skipped["partitioned"] += 1
                continue
            extra = reference_fate(self.policy, self.seq)
            if extra is None:
                if recipient != OBSERVER:
                    self.skipped["dropped"] += 1
                    continue
                extra = 0
            due = self.round + self.policy.base_delay_rounds + self.slow_extra.get(frm, 0) + extra
            tag = log_tag(payload)
            envelope = Envelope(due, self.round, frm, recipient, self.seq, payload, tag.partition("|")[0], tag)
            self.queue.append((envelope, recipient in self.absent))
            self.queued.append(self.queue[-1])

    def advance_round(self) -> list[Envelope]:
        self.round += 1
        due = sorted(entry for entry in self.queue if entry[0].deliver_round <= self.round)
        self.queue = [entry for entry in self.queue if entry[0].deliver_round > self.round]
        # of the copies of an outbox message to one recipient, the first due
        # reaches it, a tie going to the copy sent first
        reaching = set()
        for envelope, absent_when_sent in sorted(due, key=lambda entry: (entry[0].deliver_round, entry[0].seq)):
            copy = (id(envelope.payload), envelope.to)
            if not absent_when_sent and is_outbox_message(envelope.payload) and copy not in self.reached:
                self.reached[copy] = envelope.payload
                reaching.add(envelope.seq)
        carried = []
        for envelope, absent_when_sent in due:
            if absent_when_sent:
                self.left_out.append(("absent", envelope))
            elif is_outbox_message(envelope.payload) and envelope.seq not in reaching:
                self.left_out.append(("repeat", envelope))
            elif envelope.frm in self.isolated or envelope.to in self.isolated:
                continue
            elif envelope.to in self.absent:
                self.left_out.append(("absent", envelope))
            else:
                carried.append(envelope)
        if carried:
            _, _, senders, recipients, _, _, _, tags = zip(*carried)
            self.deliveries.append((self.round, senders, recipients, tags))
        self.carried += carried
        return carried

    def delivery_rounds(self, rounds: int):
        for _ in range(rounds):
            due = self.advance_round()
            if due:
                yield due


def _fresh(cls, *fields):
    return cls(*fields)


def _sign_by_mac(registry, sender, msg):
    return Signed(msg, sender, registry.sign(sender, msg.payload_digest()))


def _verify_by_mac(signed, registry):
    return registry.verify(signed.tag, signed.sender, signed.msg.payload_digest())


def reference_run(scenario):
    """Run ``scenario`` as ``run_episode`` does, on a ``ReferenceWorld``,
    with every message built fresh instead of through ``interned``, every
    tag computed when it is signed, and every tag checked by MAC each time
    it is checked.  Returns the runner and its result; raises what the
    episode raises."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(episode, "World", ReferenceWorld)
        for module in (episode, consensus, messages):
            patch.setattr(module, "interned", _fresh)
        for module in (episode, consensus):
            patch.setattr(module, "sign_message", _sign_by_mac)
        patch.setattr(Signed, "verify", _verify_by_mac)
        runner = episode.EpisodeRunner(scenario)
        return runner, runner.run()
