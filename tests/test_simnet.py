"""Deterministic network: delays, drops, partitions, repeats and delivery order."""
import random
import zlib
from dataclasses import replace

import pytest

from bftensemble.consensus import Replica
from bftensemble.core import (
    OBSERVER,
    PEERS,
    DecisionSpace,
    KeyRegistry,
    QuorumConfig,
    canonical,
    digest,
)
from bftensemble.messages import KIND_NAMES, Commit, Output, Prepare, Reply, Signed, sign_message
from bftensemble.campaign import FUZZ_DROP_RATES
from bftensemble.simnet import NetworkPolicy, Partition, World, drop_limit

MODULES = (0, 1, 2, 3)


def quiet_policy(**kwargs):
    defaults = dict(base_delay_rounds=1, jitter_rounds=0, drop_rate=0.0, partitions=(), seed=9)
    defaults.update(kwargs)
    return NetworkPolicy(**defaults)


def drain(world, rounds):
    got = []
    for _ in range(rounds):
        got.extend(world.advance_round())
    return got


class TestDelivery:
    def test_base_delay_arithmetic(self):
        world = World(quiet_policy(), MODULES)
        world.send(0, 1, "ping")
        assert world.advance_round() != []  # round 1: due
        assert world.round == 1

    def test_no_pending_is_empty(self):
        world = World(quiet_policy(), MODULES)
        assert world.advance_round() == []

    def test_a_peers_send_takes_n_sequence_numbers(self):
        """One per peer, then the observer's slot, which is not queued: the
        next send is numbered n + 1."""
        world = World(quiet_policy(), MODULES)
        world.send(0, PEERS, "hello")
        world.send(0, OBSERVER, "reply")
        got = drain(world, 2)
        assert sorted((env.seq, env.to) for env in got) == [(1, 1), (2, 2), (3, 3), (5, OBSERVER)]

    def test_peers_skip_the_observer(self):
        world = World(quiet_policy(), MODULES)
        world.send(0, PEERS, "hello")
        assert sorted(env.to for env in drain(world, 2)) == [1, 2, 3]
        assert world.event_log == [f"1|0|{m}|opaque|{hex_of('hello')}" for m in (1, 2, 3)]

    def test_peers_number_slots_as_a_send_to_each_peer_and_the_observer(self):
        def later_envelopes(first):
            world = World(quiet_policy(drop_rate=0.3, jitter_rounds=2, seed=3), MODULES)
            for to in first:
                world.send(1, to, "first")
            for m in MODULES:
                world.send(m, PEERS, f"after-{m}")
                world.send(m, OBSERVER, f"after-{m}")
            return [
                (e.frm, e.to, e.seq, e.deliver_round)
                for e in drain(world, 6)
                if e.payload != "first"
            ]

        after_peers = later_envelopes([PEERS])
        assert after_peers == later_envelopes([0, 2, 3, OBSERVER]) and len(after_peers) > 4

    def test_drop_rate_one_delivers_nothing(self):
        world = World(quiet_policy(drop_rate=0.999999), MODULES)
        for _ in range(20):
            world.send(0, 1, "ping")
        assert drain(world, 5) == []

    def test_observer_link_is_lossless(self):
        world = World(quiet_policy(drop_rate=0.999999), MODULES)
        for _ in range(5):
            world.send(0, OBSERVER, "reply")
        got = drain(world, 3)
        assert len(got) == 5
        assert all(env.to == OBSERVER for env in got)

    def test_deterministic_order_within_a_round(self):
        def run():
            world = World(quiet_policy(jitter_rounds=2, seed=5), MODULES)
            for m in MODULES:
                world.send(m, PEERS, f"m{m}")
                world.send(m, OBSERVER, f"m{m}")
            return [(e.frm, e.to, e.payload) for e in drain(world, 6)]

        assert run() == run()

    def test_jitter_stays_within_bounds(self):
        world = World(quiet_policy(jitter_rounds=2, seed=5), MODULES)
        for i in range(50):
            world.send(0, 1, i)
        got = drain(world, 5)
        assert len(got) == 50  # nothing dropped
        # all deliveries landed between base and base+jitter
        assert all(1 <= env.deliver_round <= 3 for env in got)


def outbox_message(registry, sender=0, term=0):
    """The PrePrepare that ``sender``'s replica proposes as leader of frame
    ``sender + 4 * term``: a message it keeps in its outbox and may send again."""
    space = DecisionSpace(labels=("go", "stop"), safe_default="stop")
    replica = Replica(sender, QuorumConfig(n=4, f=1), space, registry)
    replica.start_frame(sender + 4 * term, space.value("go"), 0)
    (_, signed), *_ = replica.inst.outbox
    return signed


class TestSequenceNumbers:
    @pytest.mark.parametrize("block", ["isolated", "partitioned", "repeat"])
    def test_an_unqueued_slot_keeps_every_other_fate(self, monkeypatch, block):
        """A slot to an isolated module, across a partition, or repeating a
        copy already queued to that module and due no later takes its
        sequence number and draws nothing, so every other slot of that send
        and of the next keeps the fate it has on an open network."""
        drawn = []
        draw = NetworkPolicy.draw

        def counting_draw(policy):
            fate = draw(policy)

            def counted(index):
                drawn.append(index)
                return fate(index)

            return counted

        monkeypatch.setattr(NetworkPolicy, "draw", counting_draw)
        policy = quiet_policy(drop_rate=0.2, jitter_rounds=3, seed=12)
        cut = Partition(start=0, end=0, side_a=frozenset({0}), side_b=frozenset({2}))
        open_payload = blocked_payload = "first"
        if block == "isolated":
            blocked = World(policy, MODULES, isolated={2})
        elif block == "partitioned":
            blocked = World(replace(policy, partitions=(cut,)), MODULES)
        else:
            blocked = World(policy, MODULES)
            registry = KeyRegistry(1, MODULES)
            # the open world sends a twin its sender never sends again
            blocked_payload = outbox_message(registry)
            open_payload = sign_message(registry, 0, blocked_payload.msg)
        worlds = [(World(policy, MODULES), open_payload), (blocked, blocked_payload)]
        logs = []
        before = 1 if block == "repeat" else 0  # slots sent before the PEERS send
        for world, payload in worlds:
            envelopes = []
            if block == "repeat":
                world.send(0, 2, payload)  # slot 1, due in round 4
                envelopes = drain(world, 3)
            drawn.clear()
            # slots 1-4 after those before: the second to module 2, the fourth the observer's
            world.send(0, PEERS, payload)
            world.send(0, 3, "next")
            envelopes += drain(world, 6)
            logs.append(([e[:5] for e in envelopes], list(drawn)))
        (open_envelopes, open_draws), (blocked_envelopes, blocked_draws) = logs
        to_2 = before + 2
        # on the open network, slot to_2 reaches module 2
        assert to_2 in [e[4] for e in open_envelopes if e[3] == 2]
        assert blocked_envelopes == [e for e in open_envelopes if e[4] != to_2]
        assert open_draws == [before + 1, to_2, before + 3, before + 5]
        assert blocked_draws == [before + 1, before + 3, before + 5]
        assert blocked._seq == before + 5


class TestRepeats:
    """An outbox message reaches each recipient at most once, through the
    copy that would arrive first: a re-send is carried only if it would
    arrive strictly before the copy this world has queued of that object to
    that recipient, and that copy is then never delivered."""

    registry = KeyRegistry(1, MODULES)

    def queued(self, world, rounds=8):
        return [(e.send_round, e.seq, e.deliver_round) for e in drain(world, rounds)]

    def test_a_message_kept_for_no_resend_is_always_queued(self):
        world = World(quiet_policy(), MODULES)
        reply = sign_message(self.registry, 0, Reply(0, "go"))
        for payload in ("ping", reply):
            world.send(0, 1, payload)
            world.send(0, 1, payload)
        assert len(drain(world, 2)) == 4

    @staticmethod
    def unrecorded(world, signed):
        """No copy of ``signed`` is on its way in ``world``: the copy sent
        was dropped, blocked or to an absent module, so nothing records it."""
        assert signed.__dict__["_queued"] == {world._key: {}}

    def test_a_resend_after_a_dropped_copy_is_queued(self):
        policy = quiet_policy(drop_rate=0.5, seed=2)
        assert policy.fate(1, 2) == [None, 0]
        world = World(policy, MODULES)
        signed = outbox_message(self.registry)
        world.send(0, 1, signed)
        self.unrecorded(world, signed)
        for _ in range(2):
            world.send(0, 1, signed)
        assert self.queued(world) == [(0, 2, 1)]  # slot 3 repeats slot 2

    def test_a_resend_after_a_blocked_copy_is_queued(self):
        cut = Partition(start=0, end=0, side_a=frozenset({0}), side_b=frozenset({1}))
        world = World(quiet_policy(partitions=(cut,)), MODULES)
        signed = outbox_message(self.registry)
        world.send(0, 1, signed)
        self.unrecorded(world, signed)
        world.advance_round()
        world.send(0, 1, signed)
        assert self.queued(world) == [(1, 2, 2)]

    def test_a_resend_after_a_copy_to_an_absent_module_is_queued(self):
        world = World(quiet_policy(), MODULES)
        signed = outbox_message(self.registry)
        world.absent = {1}
        world.send(0, 1, signed)
        self.unrecorded(world, signed)
        world.absent = world.isolated
        world.send(0, 1, signed)
        assert self.queued(world) == [(0, 2, 1)]

    def test_a_resend_that_would_arrive_first_is_queued(self):
        """It is delivered, and the copies it overtakes never are, though
        they keep their sequence numbers."""
        policy = quiet_policy(jitter_rounds=4, seed=0)
        assert policy.fate(1, 3) == [4, 2, 0]
        world = World(policy, MODULES)
        signed = outbox_message(self.registry)
        got = []
        # due in round 5; then in round 4; then in round 3, before both;
        # the last could arrive in round 4, after the third: a repeat
        for _ in range(4):
            world.send(0, 1, signed)
            got += world.advance_round()
        world.send(0, 2, "next")
        got += drain(world, 8)
        assert [e[:5] for e in got if e.to == 1] == [(3, 2, 0, 1, 3)]
        assert [e.seq for e in got if e.to == 2] == [5]
        assert not world._superseded and world.event_log[0].startswith("3|0|1|preprepare|")

    @pytest.mark.parametrize("seed, fates", [(0, [1, 1]), (7, [0, 2])], ids=["same-round", "later"])
    def test_a_resend_due_no_earlier_than_its_copy_is_not_queued(self, seed, fates):
        """A re-send in the copy's round loses the tie to it, and one due
        later is not queued either; every other slot keeps its fate, as on a
        world where the second send is of a twin that no record links."""
        policy = quiet_policy(jitter_rounds=2, seed=seed)
        assert policy.fate(1, 2) == fates
        signed = outbox_message(self.registry)
        twin = sign_message(self.registry, 0, signed.msg)

        def delivered(second):
            world = World(policy, MODULES)
            for payload in (signed, second):
                world.send(0, 1, payload)
            world.send(0, PEERS, "next")
            return [e[:5] for e in drain(world, 6)]

        carried = delivered(twin)
        assert 2 in [e[4] for e in carried]
        assert delivered(signed) == [e for e in carried if e[4] != 2]

    def test_a_copy_queued_in_one_world_suppresses_nothing_in_another(self):
        signed = outbox_message(self.registry)
        first, second = World(quiet_policy(), MODULES), World(quiet_policy(), MODULES)
        first.send(0, 1, signed)
        second.send(0, 1, signed)
        second.send(0, 1, signed)  # a repeat in the second world
        assert self.queued(first) == self.queued(second) == [(0, 1, 1)]

    def test_superseding_in_one_world_leaves_another_worlds_copy_alone(self):
        policy = quiet_policy(jitter_rounds=2, seed=4)
        assert policy.fate(1, 2) == [2, 0]
        signed = outbox_message(self.registry)
        first, second = World(policy, MODULES), World(policy, MODULES)
        first.send(0, 1, signed)
        second.send(0, 1, signed)
        first.send(0, 1, signed)  # arrives first: supersedes the first world's copy only
        assert self.queued(first) == [(0, 2, 1)]
        assert self.queued(second) == [(0, 1, 3)]


class TestPartitions:
    def test_partition_blocks_cross_traffic(self):
        part = Partition(start=0, end=10, side_a=frozenset({0, 1}), side_b=frozenset({2, 3}))
        world = World(quiet_policy(partitions=(part,)), MODULES)
        world.send(0, 2, "cross")
        world.send(0, 1, "local")
        got = drain(world, 3)
        assert [(e.frm, e.to) for e in got] == [(0, 1)]

    def test_partition_interval_is_inclusive(self):
        part = Partition(start=0, end=2, side_a=frozenset({0}), side_b=frozenset({1}))
        policy = quiet_policy(partitions=(part,))
        assert policy.partitioned(0, 0, 1)
        assert policy.partitioned(2, 1, 0)  # end round still blocked
        assert not policy.partitioned(3, 0, 1)

    def test_unrelated_pairs_unaffected(self):
        part = Partition(start=0, end=10, side_a=frozenset({0}), side_b=frozenset({1}))
        policy = quiet_policy(partitions=(part,))
        assert not policy.partitioned(5, 2, 3)
        assert not policy.partitioned(5, 0, 2)


class TestFateFunction:
    def test_pure_in_envelope_index(self):
        policy = quiet_policy(jitter_rounds=2, drop_rate=0.3, seed=123)
        first = policy.fate(0, 200)
        second = [policy.fate(i, 1)[0] for i in range(200)]
        assert first == second

    def test_seed_changes_the_schedule(self):
        a = quiet_policy(jitter_rounds=2, drop_rate=0.3, seed=1)
        b = quiet_policy(jitter_rounds=2, drop_rate=0.3, seed=2)
        assert a.fate(0, 200) != b.fate(0, 200)

    def test_zero_drop_never_drops(self):
        policy = quiet_policy(jitter_rounds=1, seed=3)
        assert None not in policy.fate(0, 500)


class TestEnvelopeOrder:
    def test_payloads_that_refuse_comparison_still_sort(self):
        class Opaque:
            def __eq__(self, other):
                raise TypeError("not comparable")

            __lt__ = __gt__ = __le__ = __ge__ = __eq__

        world = World(quiet_policy(jitter_rounds=3, seed=8), MODULES)
        for m in MODULES:
            world.send(m, PEERS, Opaque())
            world.send(m, OBSERVER, Opaque())
            world.send(m, (m + 1) % 4, Opaque())
        got = drain(world, 6)
        assert len(got) == 4 * 5
        assert [e[:5] for e in got] == sorted(e[:5] for e in got)

    @pytest.mark.parametrize("seed", range(8))
    def test_delivery_rounds_skips_only_empty_rounds(self, seed):
        """delivery_rounds yields what as many advance_round calls would, ends
        on the same round, and makes fewer calls under a long jitter; once
        the queue drains it makes no call after the last delivering round."""
        rng = random.Random(seed)
        policy = quiet_policy(
            base_delay_rounds=rng.randrange(3),
            jitter_rounds=rng.choice([0, 5, 400]),
            drop_rate=rng.choice([0.0, 0.2]),
            seed=seed,
        )
        slow = {3: rng.randrange(3)}
        worlds = [World(policy, MODULES, slow) for _ in range(2)]
        sends = [
            (rng.choice(MODULES), rng.choice([OBSERVER, PEERS, *MODULES]), ("msg", i))
            for i in range(rng.randrange(1, 12))
        ]
        rounds = rng.randrange(1, 500)
        for world in worlds:
            world.advance_round()  # a clock that does not start at 0
            for frm, to, payload in sends:
                world.send(frm, to, payload)
        stepped, skipping = worlds
        expected = drain(stepped, rounds)
        calls = [0]
        advance = skipping.advance_round

        def counted():
            calls[0] += 1
            return advance()

        skipping.advance_round = counted
        got = [env for due in skipping.delivery_rounds(rounds) for env in due]
        assert got == expected
        assert skipping.event_log == stepped.event_log
        assert skipping.round == stepped.round == rounds + 1
        assert skipping._queue == stepped._queue
        assert calls[0] <= min(rounds, 2 * len(expected) + 1)
        if expected and not skipping._queue:
            # one call per delivering round, plus one empty round before
            # each that does not directly follow the previous one
            delivering = sorted({int(line.split("|")[0]) for line in stepped.event_log})
            starts = [1] + delivering[:-1]
            assert calls[0] == sum(1 if t == prev + 1 else 2 for prev, t in zip(starts, delivering))


class TestMute:
    def test_muted_module_neither_sends_nor_receives(self):
        world = World(quiet_policy(), MODULES, isolated={2})
        world.send(2, 1, "from-muted")
        world.send(0, 2, "to-muted")
        world.send(0, 1, "clean")
        got = drain(world, 3)
        assert [(e.frm, e.to) for e in got] == [(0, 1)]

    def test_unmute_restores_delivery(self):
        muted = {2}
        world = World(quiet_policy(), MODULES, isolated=muted)
        muted.discard(2)
        world.send(0, 2, "hello")
        assert len(drain(world, 2)) == 1


class TestEventLog:
    def test_log_lines_have_the_documented_shape(self):
        world = World(quiet_policy(), MODULES)
        world.send(0, 1, "ping")
        drain(world, 2)
        assert len(world.event_log) == 1
        parts = world.event_log[0].split("|")
        assert len(parts) == 5
        assert parts[0] == "1" and parts[1] == "0" and parts[2] == "1"

    def test_identical_seeds_identical_logs(self):
        def run():
            world = World(quiet_policy(jitter_rounds=2, drop_rate=0.2, seed=44), MODULES)
            for m in MODULES:
                world.send(m, PEERS, ("payload", m))
                world.send(m, OBSERVER, ("payload", m))
            drain(world, 6)
            return list(world.event_log)

        assert run() == run()

    def test_the_delivery_record_holds_only_ints_and_strings(self):
        """The record keeps no envelope or payload alive, so it gives the
        cyclic collector nothing to scan while an episode runs."""
        world = World(quiet_policy(jitter_rounds=2), MODULES)
        registry = KeyRegistry(1, MODULES)
        for m in MODULES:
            reply = sign_message(registry, m, Reply(0, "go"))
            world.send(m, PEERS, reply)
            world.send(m, OBSERVER, reply)
        drain(world, 4)
        assert len(world.event_log) == 16
        for now, *columns in world.deliveries:
            assert type(now) is int
            assert all(type(x) in (int, str) for column in columns for x in column)


class TestFatePrefix:
    """fate() hashes a per-seed prefix plus the envelope index; the draws
    must equal those over canonical("net-fate", seed, index)."""

    @staticmethod
    def reference_fate(policy, index):
        h = digest(canonical("net-fate", policy.seed, index))
        if int.from_bytes(h[:8], "big") / 2**64 < policy.drop_rate:
            return None
        if policy.jitter_rounds == 0:
            return 0
        return int.from_bytes(h[8:16], "big") % (policy.jitter_rounds + 1)

    @pytest.mark.parametrize("seed", [0, 1, 2026, -7, 2**40])
    @pytest.mark.parametrize(
        "drop_rate,jitter", [(0.0, 0), (0.0, 2), (0.01, 1), (0.3, 3), (0.9, 0)]
    )
    def test_matches_the_full_encoding(self, seed, drop_rate, jitter):
        policy = quiet_policy(jitter_rounds=jitter, drop_rate=drop_rate, seed=seed)
        for first, count in [(0, 300), (2**31 + 5, 1), (2**62, 1)]:
            assert policy.fate(first, count) == [
                self.reference_fate(policy, i) for i in range(first, first + count)
            ]

    @pytest.mark.parametrize("seed", [0, 2026, 2**40])
    @pytest.mark.parametrize(
        "drop_rate,jitter", [(0.0, 0), (0.0, 2), (0.01, 0), (0.01, 1), (0.3, 3)]
    )
    def test_the_draw_is_the_rule_per_index(self, seed, drop_rate, jitter):
        """``draw()`` is None exactly on a quiet network, where every fate is
        0; otherwise it gives each index its reference fate, and ``fate``
        gives the same, index by index."""
        policy = quiet_policy(jitter_rounds=jitter, drop_rate=drop_rate, seed=seed)
        draw = policy.draw()
        assert (draw is None) == (drop_rate == 0 and jitter == 0)
        indices = [*range(300), 2**31 + 5, 2**62]
        expected = [self.reference_fate(policy, i) for i in indices]
        assert [0 if draw is None else draw(i) for i in indices] == expected
        assert policy.fate(0, 300) == expected[:300]
        assert [policy.fate(i, 1) for i in indices] == [[fate] for fate in expected]

    @pytest.mark.parametrize(
        "drop_rate", sorted({*FUZZ_DROP_RATES, 5e-324, 2**-64, 0.5, 1 - 2**-53})
    )
    def test_drop_limit_is_the_float_rule(self, drop_rate):
        """``d < drop_limit(rate)`` is the rule ``d / 2**64 < rate`` of
        reference_fate, at the limit's edge and for random draws."""
        limit = drop_limit(drop_rate)
        rng = random.Random(drop_rate)
        edge = range(max(limit - 2, 0), min(limit + 3, 2**64))
        for d in [*edge, *(rng.getrandbits(64) for _ in range(5000))]:
            assert (d < limit) == (d / 2**64 < drop_rate), (drop_rate, d)

    def test_policy_from_replace_uses_its_own_seed(self):
        policy = quiet_policy(jitter_rounds=2, drop_rate=0.1, seed=5)
        policy.fate(0, 1)
        for changes in ({"seed": 6}, {"drop_rate": 0.4}, {"jitter_rounds": 1}, {}):
            derived = replace(policy, **changes)
            assert derived.fate(0, 300) == [
                self.reference_fate(derived, i) for i in range(300)
            ]

    @pytest.mark.parametrize("seed", range(16))
    def test_batches_concatenate(self, seed):
        """Draws do not depend on how the indices are split into batches."""
        rng = random.Random(seed)
        policy = quiet_policy(
            jitter_rounds=rng.choice([0, 1, 3, 10]),
            drop_rate=rng.choice([0.0, 0.05, 0.5]),
            seed=rng.randrange(-(2**40), 2**40),
        )
        first, k1, k2 = rng.randrange(2**32), rng.randrange(8), rng.randrange(8)
        whole = policy.fate(first, k1 + k2)
        assert policy.fate(first, k1) + policy.fate(first + k1, k2) == whole
        assert whole == [self.reference_fate(policy, i) for i in range(first, first + k1 + k2)]

    def test_prefix_is_not_a_field(self):
        a, b = quiet_policy(seed=4), quiet_policy(seed=4)
        a.fate(1, 1)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "net-fate" not in repr(a)


class ListScanWorld:
    """A plain reimplementation of the network: one list of envelopes,
    scanned in full every round, with fates drawn from the full encoding.
    World must return the same envelopes and write the same event log.
    ``skipped`` counts the slots left unqueued or undelivered, by cause.  Of
    the envelopes this world has queued of one outbox message to one
    recipient, only the one that sorts first is delivered; the others are
    superseded.  A send that would not sort before it is a repeat."""

    def __init__(self, policy, module_ids, slow_extra, outbox=()):
        self.policy = policy
        self.outbox = outbox  # the payloads a sender may send again
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra)
        self.round = 0
        self.queue = []
        self.queued = []  # every envelope ever queued
        self.seq = 0
        self.muted = set()
        self.event_log = []
        self.skipped = {"muted": 0, "partitioned": 0, "repeat": 0, "dropped": 0, "superseded": 0}

    def first_copy(self, payload, recipient):
        """The envelope queued of outbox ``payload`` to ``recipient`` that
        sorts first, or None."""
        if any(payload is p for p in self.outbox):
            return min((e for e in self.queued if e[5] is payload and e[3] == recipient), default=None)

    def send(self, frm, to, payload):
        if frm in self.muted:
            return
        if to == PEERS:
            # the observer's slot takes a sequence number and is never queued
            recipients = [m for m in self.module_ids if m != frm] + [OBSERVER]
        else:
            recipients = [to]
        for recipient in recipients:
            self.seq += 1
            if to == PEERS and recipient == OBSERVER:
                continue
            if recipient in self.muted:
                self.skipped["muted"] += 1
                continue
            if any(p.blocks(self.round, frm, recipient) for p in self.policy.partitions):
                self.skipped["partitioned"] += 1
                continue
            earliest = self.round + self.policy.base_delay_rounds + self.slow_extra.get(frm, 0)
            first = self.first_copy(payload, recipient)
            if first is not None and first[0] <= earliest:
                self.skipped["repeat"] += 1
                continue
            fate = TestFatePrefix.reference_fate(self.policy, self.seq)
            if fate is None and recipient != OBSERVER:
                self.skipped["dropped"] += 1
                continue
            envelope = (earliest + (fate or 0), self.round, frm, recipient, self.seq, payload)
            if first is not None and first[0] <= envelope[0]:
                self.skipped["repeat"] += 1
                continue
            self.queue.append(envelope)
            self.queued.append(envelope)

    def advance_round(self):
        self.round += 1
        due = sorted(e for e in self.queue if e[0] <= self.round)
        self.queue = [e for e in self.queue if e[0] > self.round]
        due = [e for e in due if e[3] not in self.muted and e[2] not in self.muted]
        first = [e for e in due if self.first_copy(e[5], e[3]) in (None, e)]
        self.skipped["superseded"] += len(due) - len(first)
        due = first
        for _, _, frm, to, _, payload in due:
            self.event_log.append(f"{self.round}|{frm}|{to}|{kind_of(payload)}|{hex_of(payload)}")
        return due


def kind_of(payload):
    if isinstance(payload, Signed):
        return KIND_NAMES[payload.msg.KIND]
    return "opaque"


def hex_of(payload):
    if isinstance(payload, Signed):
        raw = canonical(*payload.msg._fields())
    else:
        raw = repr(payload).encode("utf-8")
    return digest(raw).hex()[:12]


# (drop rates, jitters) of each class of network; a quiet one draws nothing
NETWORKS = {
    "quiet": ([0.0], [0]),
    "drop-only": ([0.1, 0.4], [0]),
    "jitter-only": ([0.0], [1, 2, 3]),
    "drop+jitter": ([0.1, 0.4], [1, 2, 3]),
}


class TestAgainstListScan:
    """Random sends to one recipient or to the peers, outbox messages sent
    again among them, slow senders and base delays over each class of
    network, with and without partitions and mutes: World's deliveries and
    event log equal those of ListScanWorld."""

    @staticmethod
    def payloads(registry):
        """The payloads to send, and those among them a sender may send again."""
        space = DecisionSpace(labels=("go", "stop"), safe_default="stop")
        go = space.value("go")
        d = digest(b"go")
        outbox = [outbox_message(registry, 1), outbox_message(registry, 2)]
        return [
            "ping",
            ("tuple", 3),
            sign_message(registry, 1, Prepare(0, 0, d, go)),
            sign_message(registry, 2, Commit(0, 1, d, go)),
            sign_message(registry, 0, Reply(2, go)),
            sign_message(registry, 3, Output(1, go)),
            *outbox,
        ], outbox

    def replay(self, policy, modules, slow, rng, toggle_mutes):
        """80 rounds of random sends through World and ListScanWorld, which
        must deliver the same envelopes, keep the same queue and write the
        same log.  ``toggle_mutes(round, muted)`` mutes and unmutes modules
        before each round's sends.  Returns the model."""
        registry = KeyRegistry(policy.seed, range(8))
        payloads, outbox = self.payloads(registry)
        model = ListScanWorld(policy, modules, slow, outbox)
        world = World(policy, modules, slow, model.muted)
        delivered = 0
        for now in range(80):
            toggle_mutes(now, model.muted)
            for _ in range(rng.randrange(1, 6)):
                frm = rng.choice(modules)
                to = rng.choice([PEERS, OBSERVER, *modules])
                payload = rng.choice(payloads)
                world.send(frm, to, payload)
                model.send(frm, to, payload)
            # a new outbox message, sent twice in one round as handle and then on_round
            # may: the second copy may draw less jitter and overtake the first
            fresh = outbox_message(registry, 1, now)
            outbox.append(fresh)
            for _ in range(2):
                world.send(1, PEERS, fresh)
                model.send(1, PEERS, fresh)
            got = [
                (e.deliver_round, e.send_round, e.frm, e.to, e.seq, e.payload)
                for e in world.advance_round()
            ]
            assert got == model.advance_round()
            assert [e[:6] for e in world._queue] == model.queue
            delivered += len(got)
        assert world.event_log == model.event_log
        assert delivered > 0
        return model

    @pytest.mark.parametrize("seed", range(24))
    def test_same_deliveries_and_log(self, seed):
        """Settings drawn at random, mutes toggled at random."""
        rng = random.Random(seed)
        modules = tuple(range(rng.choice([4, 5, 7])))
        partitions = tuple(
            Partition(
                start=(start := rng.randrange(30)),
                end=start + rng.randrange(15),
                side_a=frozenset(side := rng.sample(modules, 2)),
                side_b=frozenset(m for m in modules if m not in side),
            )
            for _ in range(rng.randrange(3))
        )
        policy = quiet_policy(
            base_delay_rounds=rng.randrange(3),
            jitter_rounds=rng.randrange(4),
            drop_rate=rng.choice([0.0, 0.1, 0.4]),
            partitions=partitions,
            seed=seed,
        )
        slow = {m: rng.randrange(1, 4) for m in rng.sample(modules, rng.randrange(3))}

        def toggle_mutes(now, muted):
            if rng.random() < 0.1:
                muted.add(rng.choice(modules))
            if rng.random() < 0.1 and muted:
                muted.discard(rng.choice(sorted(muted)))

        self.replay(policy, modules, slow, rng, toggle_mutes)

    @pytest.mark.parametrize("n", [4, 5, 7])
    @pytest.mark.parametrize("partitions", [False, True], ids=["open", "partitioned"])
    @pytest.mark.parametrize("mutes", [False, True], ids=["all-on", "muted"])
    @pytest.mark.parametrize("network", sorted(NETWORKS))
    def test_each_class_of_network(self, network, mutes, partitions, n):
        """Every class of network, with and without partitions and mutes, by
        construction: each case drops, blocks and mutes exactly as named."""
        seed = zlib.crc32(f"{network}|{mutes}|{partitions}|{n}".encode())
        rng = random.Random(seed)
        modules = tuple(range(n))
        drop_rates, jitters = NETWORKS[network]
        # the first partition is open from round 0, so it blocks some sends
        cuts = [0, *(rng.randrange(30) for _ in range(rng.randrange(2)))] if partitions else []
        policy = quiet_policy(
            base_delay_rounds=rng.randrange(3),
            jitter_rounds=rng.choice(jitters),
            drop_rate=rng.choice(drop_rates),
            partitions=tuple(
                Partition(
                    start=start,
                    end=start + rng.randrange(5, 15),
                    side_a=frozenset(side := rng.sample(modules, 2)),
                    side_b=frozenset(m for m in modules if m not in side),
                )
                for start in cuts
            ),
            seed=seed,
        )
        assert (policy.draw() is None) == (network == "quiet")
        slow = {m: rng.randrange(1, 4) for m in rng.sample(modules, rng.randrange(3))}

        def toggle_mutes(now, muted):
            if mutes and now % 20 == 0:
                muted.add(rng.choice(modules))
            if mutes and now % 20 == 10:
                muted.discard(rng.choice(sorted(muted)))

        model = self.replay(policy, modules, slow, rng, toggle_mutes)
        assert (model.skipped["muted"] > 0) == mutes
        assert (model.skipped["partitioned"] > 0) == partitions
        assert (model.skipped["dropped"] > 0) == ("drop" in network)
        assert model.skipped["repeat"] > 0
        if "jitter" in network:
            assert model.skipped["superseded"] > 0
