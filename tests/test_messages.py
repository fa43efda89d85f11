"""Message encodings and the caches of bytes, digest and tag check.

A flat message is built and encoded once per content by ``interned``, so a
second signer of an equal message encodes nothing; a Signed keeps its
verification result for the registry it was checked against, and a
``sign_message`` tag is computed on its first read; a KeyRegistry derives a
signer's MAC state on its first use and reuses it.  These tests pin
what that must not change: tags are those of a fresh keyed hash, forged or
swapped messages still fail, another registry still gets its own answer, and
equality, hashing and repr still see only the dataclass fields.
"""
import hashlib
import pickle
import random
from dataclasses import FrozenInstanceError, replace

import pytest
from hypothesis import given, strategies as st

from bftensemble import campaign, core
from bftensemble.core import (
    TAG_SIZE,
    DecisionSpace,
    KeyRegistry,
    UnknownSignerError,
    canonical,
    digest,
)
from bftensemble.episode import run_episode
from bftensemble.messages import (
    CheckpointAttest,
    Commit,
    EquivocationProof,
    FrameCert,
    Output,
    OutputDigest,
    PrePrepare,
    Prepare,
    PrepareCertificate,
    Reply,
    StateRequest,
    ViewChange,
    interned,
    log_prefix_digest,
    sign_message,
    Signed,
)
from bftensemble.scenario import load_bundled
from bftensemble.simnet import payload_digest_hex, payload_kind

from test_consensus import python_calls
from test_golden import supervised_base

SPACE = DecisionSpace(labels=("north", "south"), safe_default="north")
NORTH, SOUTH = SPACE.value("north"), SPACE.value("south")
D_NORTH, D_SOUTH = digest(b"north"), digest(b"south")


@pytest.fixture
def registry():
    return KeyRegistry(17, range(4))


class TestEncoding:
    @pytest.mark.parametrize("cls", [PrePrepare, Prepare, Commit])
    def test_endorsement_layout(self, cls):
        msg = cls(3, 1, D_NORTH, NORTH)
        assert msg.payload() == canonical(cls.KIND, 3, 1, D_NORTH, NORTH)
        assert msg.payload_digest() == digest(msg.payload())

    def test_endorsement_kinds_are_distinct_types(self):
        pp, p, c = (cls(0, 0, D_NORTH, NORTH) for cls in (PrePrepare, Prepare, Commit))
        assert pp != p and p != c and pp != c
        assert len({pp.payload(), p.payload(), c.payload()}) == 3
        assert repr(p) == f"Prepare(frame=0, view=0, value_digest={D_NORTH!r}, value={NORTH!r})"

    def test_view_change_binds_the_certificate_digest(self, registry):
        votes = tuple(sign_message(registry, m, Prepare(0, 0, D_NORTH, NORTH)) for m in range(3))
        cert = PrepareCertificate(0, 0, D_NORTH, NORTH, votes)
        assert cert.payload() == canonical(
            "prepare-cert", 0, 0, D_NORTH, NORTH, tuple(v.msg.payload() for v in votes)
        )
        assert ViewChange(0, 1, cert).payload() == canonical(4, 0, 1, digest(cert.payload()))
        assert ViewChange(0, 1, None).payload() == canonical(4, 0, 1, b"")

    def test_replace_builds_a_fresh_encoding(self):
        msg = Prepare(0, 0, D_NORTH, NORTH)
        msg.payload(), msg.payload_digest()
        moved = replace(msg, view=5)
        assert moved.payload() == canonical(2, 0, 5, D_NORTH, NORTH)
        assert moved.payload_digest() == digest(moved.payload())
        assert msg.payload() == canonical(2, 0, 0, D_NORTH, NORTH)


class TestVerifyCache:
    def test_tag_of_another_sender_fails(self, registry):
        msg = Commit(0, 0, D_NORTH, NORTH)
        honest = sign_message(registry, 1, msg)
        assert honest.verify(registry)
        # sender 2's tag passed off as sender 1's, and sender 1 claiming 2's tag
        assert not Signed(msg, 1, registry.sign(2, msg.payload_digest())).verify(registry)
        assert not Signed(msg, 2, honest.tag).verify(registry)
        assert honest.verify(registry)

    def test_swapped_message_fails(self, registry):
        honest = sign_message(registry, 1, Commit(0, 0, D_NORTH, NORTH))
        assert honest.verify(registry)
        swapped = Signed(Commit(0, 0, D_SOUTH, SOUTH), honest.sender, honest.tag)
        assert not swapped.verify(registry)
        assert honest.verify(registry)

    def test_result_is_per_registry(self, registry):
        other = KeyRegistry(18, range(4))  # same modules, other seed
        signed = sign_message(registry, 1, Reply(0, NORTH))
        assert signed.verify(registry)
        assert not signed.verify(other)
        assert signed.verify(registry)
        assert not signed.verify(other)

    def test_failed_check_is_not_reused_for_the_right_registry(self, registry):
        other = KeyRegistry(18, range(4))
        signed = sign_message(registry, 1, Reply(0, NORTH))
        assert not signed.verify(other)
        assert signed.verify(registry)

    def test_unknown_signer_fails(self, registry):
        small = KeyRegistry(17, range(2))
        signed = sign_message(registry, 3, StateRequest(4))
        assert signed.verify(registry)
        assert not signed.verify(small)

    def test_caches_leave_equality_hash_and_repr_alone(self, registry):
        used = sign_message(registry, 2, Prepare(1, 0, D_NORTH, NORTH))
        used.msg.payload(), used.msg.payload_digest()
        assert used.verify(registry)
        fresh = Signed(Prepare(1, 0, D_NORTH, NORTH), 2, used.tag)
        assert used == fresh and used.msg == fresh.msg
        assert hash(used) == hash(fresh) and hash(used.msg) == hash(fresh.msg)
        assert repr(used) == repr(fresh) and repr(used.msg) == repr(fresh.msg)
        assert {used: 1}[fresh] == 1


class TestEvidenceRejectsForgeries:
    def test_equivocation_proof_with_a_forged_vote(self, registry):
        first = sign_message(registry, 0, PrePrepare(0, 0, D_NORTH, NORTH))
        second = sign_message(registry, 0, PrePrepare(0, 0, D_SOUTH, SOUTH))
        assert EquivocationProof(first, second).valid(registry)
        # a second endorsement that replica 0 never signed
        stolen = Signed(second.msg, 0, registry.sign(1, second.msg.payload_digest()))
        minted = Signed(second.msg, 0, KeyRegistry(99, range(4)).sign(0, second.msg.payload_digest()))
        relabelled = Signed(PrePrepare(0, 0, D_SOUTH, SOUTH), 0, first.tag)
        for forged in (stolen, minted, relabelled):
            assert not EquivocationProof(first, forged).valid(registry)
            assert not EquivocationProof(forged, first).valid(registry)
        assert EquivocationProof(first, second).valid(registry)

    def test_frame_cert_with_a_forged_vote(self, registry):
        commit = Commit(0, 0, D_NORTH, NORTH)
        votes = tuple(sign_message(registry, m, commit) for m in range(3))
        assert FrameCert(0, NORTH, votes).valid(registry, 3)
        forged = Signed(commit, 3, registry.sign(0, commit.payload_digest()))
        assert not FrameCert(0, NORTH, votes[:2] + (forged,)).valid(registry, 3)
        assert not FrameCert(0, NORTH, votes + (forged,)).valid(registry, 3)
        assert FrameCert(0, NORTH, votes).valid(registry, 3)


class TestOutputCache:
    """A vote-only Output is a Signed message like any other: it shares the
    message memo, and Signed.verify keeps its result per registry."""

    def test_payload_and_digest(self, registry):
        out = Output(2, NORTH)
        assert out.payload() == canonical(11, 2, NORTH)
        assert out.payload_digest() == digest(out.payload())
        assert out.short_hex() == digest(out.payload()).hex()[:12]
        signed = sign_message(registry, 1, out)
        assert (payload_kind(signed), payload_digest_hex(signed)) == ("output", out.short_hex())

    def test_forged_tag_fails_after_a_cached_success(self, registry):
        out = sign_message(registry, 1, Output(0, NORTH))
        assert out.verify(registry)
        stolen = replace(out, tag=registry.sign(2, out.msg.payload_digest()))
        minted = replace(out, tag=KeyRegistry(99, range(4)).sign(1, out.msg.payload_digest()))
        for forged in (stolen, minted):
            assert not forged.verify(registry)
        assert out.verify(registry)

    def test_result_is_per_registry(self, registry):
        other = KeyRegistry(18, range(4))
        out = sign_message(registry, 1, Output(0, NORTH))
        assert out.verify(registry)
        assert not out.verify(other)
        assert out.verify(registry)
        assert not out.verify(other)

    @pytest.mark.parametrize(
        "change", [{"frame": 1}, {"value": SOUTH}]
    )
    def test_swapped_field_fails_after_a_cached_success(self, registry, change):
        out = sign_message(registry, 1, Output(0, NORTH))
        assert out.verify(registry)
        swapped = Signed(replace(out.msg, **change), out.sender, out.tag)
        assert not swapped.verify(registry)
        assert out.verify(registry)

    def test_caches_leave_equality_hash_repr_and_replace_alone(self, registry):
        used = sign_message(registry, 2, Output(1, NORTH))
        used.msg.payload(), used.msg.payload_digest(), used.msg.short_hex()
        assert used.verify(registry)
        fresh = Signed(Output(1, NORTH), 2, used.tag)
        assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
        assert {used: 1}[fresh] == 1
        moved = replace(used.msg, frame=4)
        assert moved.payload() == canonical(11, 4, NORTH)
        assert not Signed(moved, 2, used.tag).verify(registry)


def module_secret(master_seed, module_id):
    return hashlib.blake2b(canonical(master_seed, module_id, "module-secret"), digest_size=32).digest()


def fresh_tag(master_seed, module_id, payload_digest):
    """A signer's tag over ``payload_digest``, from a fresh keyed hash."""
    return hashlib.blake2b(
        payload_digest, key=module_secret(master_seed, module_id), digest_size=TAG_SIZE
    ).digest()


class TestSigningState:
    """KeyRegistry reuses one keyed MAC state per signer, and each object's
    bytes and digest are those of a fresh encoding."""

    def test_tags_equal_a_fresh_keyed_hash(self, registry):
        rng = random.Random(3)
        for _ in range(300):
            signer = rng.randrange(4)
            payload = rng.randbytes(rng.randrange(80))
            tag = registry.sign(signer, digest(payload))
            assert tag == fresh_tag(17, signer, digest(payload))
            assert registry.verify(tag, signer, digest(payload))
            assert not registry.verify(tag, (signer + 1) % 4, digest(payload))
            assert not registry.verify(tag, signer, digest(payload + b"x"))

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.binary(max_size=64),
        st.binary(max_size=64),
        st.integers(min_value=-(2**63), max_value=2**63 - 1),
    )
    def test_a_tag_verifies_only_for_its_signer_digest_and_registry(
        self, signer, other, payload, other_payload, other_seed
    ):
        """A tag is its MAC bytes alone, so nothing but the key and the MAC
        input binds the signer, the digest and the registry."""
        registry = KeyRegistry(17, range(7))
        signed_digest = digest(payload)
        tag = registry.sign(signer, signed_digest)
        assert len(tag) == TAG_SIZE
        assert registry.verify(tag, signer, signed_digest)
        assert registry.verify(tag, other, signed_digest) == (other == signer)
        assert registry.verify(tag, signer, digest(other_payload)) == (other_payload == payload)
        assert not registry.verify(tag, 7, signed_digest)  # an unknown signer
        assert KeyRegistry(other_seed, range(7)).verify(tag, signer, signed_digest) == (other_seed == 17)

    @pytest.mark.parametrize(
        "msg",
        [
            PrePrepare(0, 0, D_NORTH, NORTH),
            Prepare(1, 2, D_SOUTH, SOUTH),
            Commit(3, 1, D_NORTH, NORTH),
            Reply(4, SOUTH),
            StateRequest(7),
            ViewChange(2, 1, None),
            Output(2, NORTH),
        ],
    )
    def test_sign_message_seeds_the_memo(self, registry, msg):
        signed = sign_message(registry, 2, msg)
        fresh = canonical(*msg._fields())
        assert msg.payload() == fresh
        assert msg.payload_digest() == digest(fresh)
        assert signed.tag == fresh_tag(17, 2, digest(fresh))
        assert msg.short_hex() == digest(fresh).hex()[:12]
        assert signed.verify(registry)
        assert not Signed(msg, 1, signed.tag).verify(registry)

    def test_forgeries_fail_after_a_seeded_success(self, registry):
        signed = sign_message(registry, 1, Commit(0, 0, D_NORTH, NORTH))
        assert signed.verify(registry)
        for msg in (replace(signed.msg, value=SOUTH), replace(signed.msg, view=1)):
            assert not Signed(msg, 1, signed.tag).verify(registry)
        assert not Signed(signed.msg, 2, signed.tag).verify(registry)
        out = sign_message(registry, 1, Output(0, NORTH))
        assert out.verify(registry)
        assert not Signed(replace(out.msg, value=SOUTH), 1, out.tag).verify(registry)
        assert not Signed(out.msg, 1, registry.sign(2, out.msg.payload_digest())).verify(registry)
        assert signed.verify(registry) and out.verify(registry)

    def test_only_a_signed_its_registry_did_not_make_is_checked_by_mac(self, registry, monkeypatch):
        calls = []
        real = KeyRegistry.verify
        monkeypatch.setattr(KeyRegistry, "verify", lambda self, *a: calls.append(a) or real(self, *a))
        signed = sign_message(registry, 1, Commit(0, 0, D_NORTH, NORTH))
        assert signed.verify(registry) and calls == []
        cases = [
            (Signed(signed.msg, signed.sender, signed.tag), registry, True),
            (replace(signed, msg=replace(signed.msg, value=SOUTH)), registry, False),
            (signed, KeyRegistry(18, range(4)), False),
        ]
        for copy, checked_under, verdict in cases:
            calls.clear()
            assert copy.verify(checked_under) is verdict
            assert len(calls) == 1


class TestSharedEncoding:
    def test_a_second_signer_of_an_equal_commit_encodes_nothing(self, registry, monkeypatch):
        interned.cache_clear()
        first = sign_message(registry, 0, interned(Commit, 5, 2, D_SOUTH, SOUTH))
        calls = []
        for name in ("canonical", "digest"):
            real = getattr(core, name)
            monkeypatch.setattr(core, name, lambda *a, real=real, name=name: calls.append(name) or real(*a))
        second = sign_message(registry, 1, interned(Commit, 5, 2, D_SOUTH, SOUTH))
        assert calls == []
        assert second.msg is first.msg
        assert second.tag != first.tag
        assert first.verify(registry) and second.verify(registry)
        for change in ({"view": 3}, {"frame": 4}, {"value": NORTH}, {"value_digest": D_NORTH}):
            tampered = Signed(replace(second.msg, **change), 1, second.tag)
            assert not tampered.verify(registry)
        assert "canonical" in calls  # the tampered messages were encoded afresh


FLAT = [
    (PrePrepare, (0, 1, D_NORTH, NORTH)),
    (Prepare, (2, 0, D_SOUTH, SOUTH)),
    (Commit, (3, 4, D_NORTH, NORTH)),
    (Reply, (5, SOUTH)),
    (StateRequest, (6,)),
    (CheckpointAttest, (4, D_SOUTH)),
    (OutputDigest, (7, D_NORTH)),
    (Output, (8, NORTH)),
]


class TestInterned:
    """``interned`` hands every sender one shared, encoded object per
    content; it must be indistinguishable from a message built directly."""

    @pytest.mark.parametrize("cls, fields", FLAT, ids=[cls.__name__ for cls, _ in FLAT])
    def test_an_interned_message_is_its_directly_built_twin(self, cls, fields):
        shared, twin = interned(cls, *fields), cls(*fields)
        assert shared is interned(cls, *fields)
        assert type(shared) is cls and shared == twin and hash(shared) == hash(twin)
        assert repr(shared) == repr(twin)
        assert shared.payload() == twin.payload() == canonical(*twin._fields())
        assert shared.payload_digest() == twin.payload_digest() == digest(twin.payload())
        assert shared.short_hex() == twin.short_hex()

    @pytest.mark.parametrize("first, second", [(1, True), (True, 1)])
    def test_bool_and_int_fields_get_separate_entries_and_bytes(self, first, second):
        interned.cache_clear()
        a, b = interned(StateRequest, first), interned(StateRequest, second)
        assert a is not b and a == b  # equal fields, as 1 == True
        assert a.payload() == canonical(7, first) and b.payload() == canonical(7, second)
        assert a.payload_digest() != b.payload_digest()
        assert interned(Output, True, NORTH).payload() == canonical(11, True, NORTH)
        assert interned(Output, 1, NORTH).payload() == canonical(11, 1, NORTH)

    def test_results_stay_exact_after_a_flood_past_maxsize(self):
        interned.cache_clear()
        maxsize = interned.cache_info().maxsize
        early = interned(Commit, 0, 0, D_NORTH, NORTH)
        for frame in range(maxsize + 500):
            msg = interned(Prepare, frame, frame % 3, D_SOUTH, SOUTH)
            assert msg.payload() == canonical(2, frame, frame % 3, D_SOUTH, SOUTH)
        assert interned.cache_info().currsize == maxsize
        rebuilt = interned(Commit, 0, 0, D_NORTH, NORTH)  # evicted, so built anew
        assert rebuilt is not early and rebuilt == early
        assert rebuilt.payload() == early.payload() == canonical(3, 0, 0, D_NORTH, NORTH)
        for frame in (0, maxsize // 2, maxsize + 499):
            msg = interned(Prepare, frame, frame % 3, D_SOUTH, SOUTH)
            assert msg.payload_digest() == digest(canonical(2, frame, frame % 3, D_SOUTH, SOUTH))

    def test_replace_gives_a_fresh_encoding_and_leaves_the_shared_one(self):
        shared = interned(Prepare, 9, 0, D_NORTH, NORTH)
        payload, tag = shared.payload(), sign_message(KeyRegistry(17, range(4)), 1, shared).tag
        moved = replace(shared, view=5)
        assert moved.payload() == canonical(2, 9, 5, D_NORTH, NORTH)
        assert moved.payload_digest() == digest(moved.payload())
        assert interned(Prepare, 9, 0, D_NORTH, NORTH) is shared
        assert shared.payload() == payload and shared.view == 0
        assert replace(shared) == shared and replace(shared) is not shared
        assert sign_message(KeyRegistry(17, range(4)), 1, shared).tag == tag

    @pytest.mark.parametrize("name", ["fuzz_base_n4", "fuzz_base_n7", "av_plastic_bag"])
    def test_campaign_logs_are_the_same_with_cold_and_warm_caches(self, name, monkeypatch):
        """The logs of the first campaign episodes are the same bytes whether
        every episode starts from empty caches or from warm ones."""

        def logs(cold: bool) -> list:
            out = []

            def run(scenario):
                if cold:
                    interned.cache_clear()
                    log_prefix_digest.cache_clear()
                result = run_episode(scenario)
                out.append((result.decision_log_text, result.event_log_text))
                return result

            monkeypatch.setattr(campaign, "run_episode", run)
            campaign.fuzz_campaign(load_bundled(name), episodes=8, seed=2026, strict=False)
            return out

        warm = logs(cold=False)
        assert logs(cold=True) == warm == logs(cold=False)
        assert interned.cache_info().currsize > 0


class TestSignMessage:
    """``sign_message`` fills a ``Signed``'s ``__dict__`` instead of running
    the dataclass ``__init__``; nothing else may tell the two apart."""

    @pytest.mark.parametrize("cls, fields", FLAT, ids=[cls.__name__ for cls, _ in FLAT])
    def test_it_builds_what_the_dataclass_builds(self, registry, cls, fields):
        msg = interned(cls, *fields)
        signed = sign_message(registry, 3, msg)
        built = Signed(msg, 3, signed.tag)
        assert type(signed) is Signed
        assert signed == built and hash(signed) == hash(built) and repr(signed) == repr(built)
        assert {built: 1}[signed] == 1
        assert (signed.msg, signed.sender, signed.tag) == (msg, 3, fresh_tag(17, 3, msg.payload_digest()))
        with pytest.raises(FrozenInstanceError):
            signed.sender = 2

    def test_replace_works_and_checks_the_copy_afresh(self, registry, monkeypatch):
        signed = sign_message(registry, 1, interned(Commit, 0, 0, D_NORTH, NORTH))
        calls = []
        real = KeyRegistry.verify
        monkeypatch.setattr(KeyRegistry, "verify", lambda self, *a: calls.append(a) or real(self, *a))
        assert signed.verify(registry) and calls == []
        same = replace(signed)
        assert same == signed and same is not signed
        assert same.verify(registry) and len(calls) == 1
        forged = replace(signed, sender=2)
        assert (forged.msg, forged.sender, forged.tag) == (signed.msg, 2, signed.tag)
        assert not forged.verify(registry) and len(calls) == 2
        assert signed.verify(registry) and len(calls) == 2


class TestTagOnFirstRead:
    """``sign_message`` leaves the tag to its first read, which computes it
    with the stamped registry and keeps it; nothing that reads the fields
    can tell the object from ``Signed(msg, sender, tag)``."""

    def test_the_tag_is_computed_once_on_first_read(self, registry, monkeypatch):
        signed = sign_message(registry, 2, interned(Commit, 0, 1, D_NORTH, NORTH))
        assert "tag" not in signed.__dict__
        calls = []
        real = KeyRegistry.sign
        monkeypatch.setattr(KeyRegistry, "sign", lambda self, *a: calls.append(a) or real(self, *a))
        tag = signed.tag
        assert tag == real(registry, 2, signed.msg.payload_digest()) == fresh_tag(17, 2, signed.msg.payload_digest())
        assert signed.__dict__["tag"] is tag and signed.tag is tag
        assert len(calls) == 1

    def test_other_missing_names_are_still_missing(self, registry):
        signed = sign_message(registry, 2, Reply(0, NORTH))
        assert getattr(signed, "other", None) is None
        with pytest.raises(AttributeError, match="other"):
            signed.other
        assert "tag" not in signed.__dict__
        with pytest.raises(AttributeError):
            object.__new__(Signed).tag  # no stamp, so no registry to ask

    @pytest.mark.parametrize(
        "read",
        [
            lambda signed, built: signed == built and built == signed,
            lambda signed, built: hash(signed) == hash(built) and {built: 1}[signed] == 1,
            lambda signed, built: repr(signed) == repr(built),
            lambda signed, built: replace(signed) == built and replace(signed, sender=1) == replace(built, sender=1),
            lambda signed, built: pickle.loads(pickle.dumps(signed)) == built,
        ],
        ids=["eq", "hash", "repr", "replace", "pickle"],
    )
    def test_each_read_of_the_fields_sees_the_dataclass(self, registry, read):
        msg = interned(Prepare, 3, 0, D_SOUTH, SOUTH)
        built = Signed(msg, 2, fresh_tag(17, 2, msg.payload_digest()))
        signed = sign_message(registry, 2, msg)
        assert "tag" not in signed.__dict__
        assert read(signed, built)
        assert signed.__dict__["tag"] == built.tag

    def test_a_copy_carries_the_tag_but_not_the_stamp(self, registry):
        signed = sign_message(registry, 1, Output(0, NORTH))
        other = KeyRegistry(18, range(4))  # same modules, other master seed
        copy = pickle.loads(pickle.dumps(signed))
        assert copy.__dict__.keys() == {"msg", "sender", "tag"}
        for checked in (copy, Signed(signed.msg, signed.sender, signed.tag), signed):
            assert not checked.verify(other)
            assert checked.verify(registry)
            assert not checked.verify(other)

    def test_an_unknown_sender_fails_at_signing(self, registry):
        with pytest.raises(UnknownSignerError):
            sign_message(registry, 4, Reply(0, NORTH))


class TestKeysOnFirstUse:
    """A KeyRegistry keeps the master seed and the ids; a signer's keyed MAC
    state is derived on its first sign or verify, once."""

    def test_building_a_registry_derives_no_key(self, monkeypatch):
        real = hashlib.blake2b
        monkeypatch.setattr(hashlib, "blake2b", lambda *a, **k: real(*a, **k))
        assert python_calls(KeyRegistry, 17, range(7)) == ["__init__"]

    def test_each_signers_state_is_derived_once(self, monkeypatch):
        calls = []
        real = core.canonical
        monkeypatch.setattr(core, "canonical", lambda *a: calls.append(a) or real(*a))
        registry = KeyRegistry(17, range(4))
        payload = digest(b"payload")
        for _ in range(3):
            for signer in (2, 0):
                tag = registry.sign(signer, payload)
                assert tag == fresh_tag(17, signer, payload)
                assert registry.verify(tag, signer, payload)
        assert registry.verify(fresh_tag(17, 3, payload), 3, payload)  # derived by verify
        assert calls == [(17, 2, "module-secret"), (17, 0, "module-secret"), (17, 3, "module-secret")]

    def test_an_unknown_signer_derives_nothing(self, monkeypatch):
        payload = digest(b"payload")
        forged = fresh_tag(17, 4, payload)  # what signer 4 would sign under a larger registry
        calls = []
        real = core.canonical
        monkeypatch.setattr(core, "canonical", lambda *a: calls.append(a) or real(*a))
        registry = KeyRegistry(17, range(4))
        for _ in range(2):
            with pytest.raises(UnknownSignerError):
                registry.sign(4, payload)
            assert not registry.verify(forged, 4, payload)
        assert calls == []
        assert registry.sign(1, payload) == fresh_tag(17, 1, payload)


# SHA-256 over the decision logs and over the event logs of the first 8
# seed-2026 campaign episodes, as they were while every signature ran a MAC
# (the vote_fastpath event log as the fast path announces to the peers only).
NO_TAG_READ_LOGS = {
    "fuzz_base_n7": (
        "49275a1112c8d2e684b1e35769b37464c68ccd8509934a00cfce2de769b49c18",
        "529471e75843a0f898968881ab3be95517de42e564eb47d93a0d0ea8cd812165",
    ),
    "vote_fastpath": (
        "d6654fa2f68e532ff9e95c33eb7faa44c35a4daf75144b7caa50e2e3a0da7eaf",
        "ce0c1ee934124b3fa60142e0a3625e355e53baf27ad6ae7e0383d19eecd09203",
    ),
}


@pytest.mark.parametrize("name", sorted(NO_TAG_READ_LOGS))
def test_a_campaign_reads_no_tag_it_signed(name, monkeypatch):
    """Every delivered signature carries its registry's stamp, so the first
    campaign episodes of the PBFT and the vote-only bench bases run no MAC,
    and their logs are the pinned bytes.  ``vote_fastpath`` is the
    benchmark's base, as test_golden inlines it."""
    base = load_bundled(name) if name == "fuzz_base_n7" else supervised_base(name)
    signs = []
    real_sign = KeyRegistry.sign
    monkeypatch.setattr(KeyRegistry, "sign", lambda self, *a: signs.append(a) or real_sign(self, *a))
    decisions, events = hashlib.sha256(), hashlib.sha256()

    def run(scenario):
        result = run_episode(scenario)
        decisions.update(result.decision_log_text.encode("utf-8"))
        events.update(result.event_log_text.encode("utf-8"))
        return result

    monkeypatch.setattr(campaign, "run_episode", run)
    campaign.fuzz_campaign(base, episodes=8, seed=2026, strict=False)
    assert signs == []
    assert (decisions.hexdigest(), events.hexdigest()) == NO_TAG_READ_LOGS[name]
