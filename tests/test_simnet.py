"""Deterministic network: delays, drops, partitions, and delivery order."""
import random
from dataclasses import replace

import pytest

from bftensemble.core import (
    BROADCAST,
    OBSERVER,
    PEERS,
    DecisionSpace,
    KeyRegistry,
    ModuleOutput,
    canonical,
    digest,
    make_output,
)
from bftensemble.messages import KIND_NAMES, Commit, Prepare, Reply, Signed, sign_message
from bftensemble.simnet import NetworkPolicy, Partition, World

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

    def test_broadcast_expands_per_recipient(self):
        world = World(quiet_policy(), MODULES)
        world.send(0, BROADCAST, "hello")
        got = drain(world, 2)
        destinations = sorted(env.to for env in got)
        assert destinations == [OBSERVER, 1, 2, 3]

    def test_peers_skip_the_observer(self):
        world = World(quiet_policy(), MODULES)
        world.send(0, PEERS, "hello")
        assert sorted(env.to for env in drain(world, 2)) == [1, 2, 3]
        assert world.event_log == [f"1|0|{m}|opaque|{hex_of('hello')}" for m in (1, 2, 3)]

    def test_peers_number_slots_as_a_broadcast_does(self):
        def later_envelopes(first):
            world = World(quiet_policy(drop_rate=0.3, jitter_rounds=2, seed=3), MODULES)
            world.send(1, first, "first")
            for m in MODULES:
                world.send(m, BROADCAST, f"after-{m}")
            return [
                (e.frm, e.to, e.seq, e.deliver_round)
                for e in drain(world, 6)
                if e.payload != "first"
            ]

        after_peers = later_envelopes(PEERS)
        assert after_peers == later_envelopes(BROADCAST) and len(after_peers) > 4

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
                world.send(m, BROADCAST, f"m{m}")
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
        first = [policy.fate(i) for i in range(200)]
        second = [policy.fate(i) for i in range(200)]
        assert first == second

    def test_seed_changes_the_schedule(self):
        a = quiet_policy(jitter_rounds=2, drop_rate=0.3, seed=1)
        b = quiet_policy(jitter_rounds=2, drop_rate=0.3, seed=2)
        assert [a.fate(i) for i in range(200)] != [b.fate(i) for i in range(200)]

    def test_zero_drop_never_drops(self):
        policy = quiet_policy(jitter_rounds=1, seed=3)
        assert all(policy.fate(i) is not None for i in range(500))


class TestMute:
    def test_muted_module_neither_sends_nor_receives(self):
        world = World(quiet_policy(), MODULES)
        world.mute(2)
        world.send(2, 1, "from-muted")
        world.send(0, 2, "to-muted")
        world.send(0, 1, "clean")
        got = drain(world, 3)
        assert [(e.frm, e.to) for e in got] == [(0, 1)]

    def test_unmute_restores_delivery(self):
        world = World(quiet_policy(), MODULES)
        world.mute(2)
        world.unmute(2)
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
                world.send(m, BROADCAST, ("payload", m))
            drain(world, 6)
            return list(world.event_log)

        assert run() == run()



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
        for i in [*range(300), 2**31 + 5, 2**62]:
            assert policy.fate(i) == self.reference_fate(policy, i)

    def test_policy_from_replace_uses_its_own_seed(self):
        policy = quiet_policy(jitter_rounds=2, drop_rate=0.1, seed=5)
        policy.fate(0)
        for changes in ({"seed": 6}, {"drop_rate": 0.4}, {"jitter_rounds": 1}, {}):
            derived = replace(policy, **changes)
            assert [derived.fate(i) for i in range(300)] == [
                self.reference_fate(derived, i) for i in range(300)
            ]

    def test_prefix_is_not_a_field(self):
        a, b = quiet_policy(seed=4), quiet_policy(seed=4)
        a.fate(1)
        assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
        assert "net-fate" not in repr(a)


class ListScanWorld:
    """A plain reimplementation of the network: one list of envelopes,
    scanned in full every round, with fates drawn from the full encoding.
    World must return the same envelopes and write the same event log."""

    def __init__(self, policy, module_ids, slow_extra):
        self.policy = policy
        self.module_ids = sorted(module_ids)
        self.slow_extra = dict(slow_extra)
        self.round = 0
        self.queue = []
        self.seq = 0
        self.muted = set()
        self.event_log = []

    def send(self, frm, to, payload):
        if frm in self.muted:
            return
        if to in (BROADCAST, PEERS):
            recipients = [m for m in self.module_ids if m != frm] + [OBSERVER]
        else:
            recipients = [to]
        for recipient in recipients:
            self.seq += 1
            if to == PEERS and recipient == OBSERVER:
                continue
            if recipient in self.muted:
                continue
            if any(p.blocks(self.round, frm, recipient) for p in self.policy.partitions):
                continue
            fate = TestFatePrefix.reference_fate(self.policy, self.seq)
            if fate is None and recipient != OBSERVER:
                continue
            delay = self.policy.base_delay_rounds + (fate or 0)
            delay += self.slow_extra.get(frm, 0)
            self.queue.append((self.round + delay, self.round, frm, recipient, self.seq, payload))

    def advance_round(self):
        self.round += 1
        due = sorted(e for e in self.queue if e[0] <= self.round)
        self.queue = [e for e in self.queue if e[0] > self.round]
        due = [e for e in due if e[3] not in self.muted and e[2] not in self.muted]
        for _, _, frm, to, _, payload in due:
            self.event_log.append(f"{self.round}|{frm}|{to}|{kind_of(payload)}|{hex_of(payload)}")
        return due


def kind_of(payload):
    if isinstance(payload, Signed):
        return KIND_NAMES[payload.msg.KIND]
    return "output" if isinstance(payload, ModuleOutput) else "opaque"


def hex_of(payload):
    if isinstance(payload, Signed):
        raw = canonical(*payload.msg._fields())
    elif isinstance(payload, ModuleOutput):
        raw = canonical("output", payload.module_id, payload.frame, payload.value, payload.confidence)
    else:
        raw = repr(payload).encode("utf-8")
    return digest(raw).hex()[:12]


class TestAgainstListScan:
    """Random sends, broadcasts, mutes, partitions, slow senders and jitter:
    World's deliveries and event log equal those of ListScanWorld."""

    @staticmethod
    def payloads(registry):
        space = DecisionSpace(labels=("go", "stop"), safe_default="stop")
        go = space.value("go")
        d = digest(b"go")
        return [
            "ping",
            ("tuple", 3),
            sign_message(registry, 1, Prepare(0, 0, d, go)),
            sign_message(registry, 2, Commit(0, 1, d, go)),
            sign_message(registry, 0, Reply(2, go)),
            make_output(registry, 3, 1, go, 0.9),
        ]

    @pytest.mark.parametrize("seed", range(24))
    def test_same_deliveries_and_log(self, seed):
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
        world = World(policy, modules, slow)
        model = ListScanWorld(policy, modules, slow)
        payloads = self.payloads(KeyRegistry(seed, range(8)))
        delivered = 0
        for _ in range(80):
            for _ in range(rng.randrange(6)):
                frm = rng.choice(modules)
                to = rng.choice([BROADCAST, PEERS, OBSERVER, *modules])
                payload = rng.choice(payloads)
                world.send(frm, to, payload)
                model.send(frm, to, payload)
            if rng.random() < 0.1:
                m = rng.choice(modules)
                world.mute(m)
                model.muted.add(m)
            if rng.random() < 0.1 and model.muted:
                m = rng.choice(sorted(model.muted))
                world.unmute(m)
                model.muted.discard(m)
            got = [
                (e.deliver_round, e.send_round, e.frm, e.to, e.seq, e.payload)
                for e in world.advance_round()
            ]
            assert got == model.advance_round()
            assert world.pending() == len(model.queue)
            delivered += len(got)
        assert world.event_log == model.event_log
        assert delivered > 0
