"""Quorum arithmetic, canonical serialization, and simulated authentication."""
import itertools
import struct

import pytest
from hypothesis import given, strategies as st

from bftensemble.core import (
    DecisionSpace,
    KeyRegistry,
    QuorumConfig,
    canonical,
    client_match,
    digest,
    encoding,
    min_replicas,
    quorum_size,
    short_digest,
)
from bftensemble.messages import Output, Reply, Signed, sign_message


class TestQuorumArithmetic:
    # (f, min replicas, quorum, matching client replies)
    EXPECTED = [
        (0, 1, 1, 1),
        (1, 4, 3, 2),
        (2, 7, 5, 3),
        (3, 10, 7, 4),
    ]

    @pytest.mark.parametrize("f,n,q,r", EXPECTED)
    def test_reference_values(self, f, n, q, r):
        assert min_replicas(f) == n
        assert quorum_size(f) == q
        assert client_match(f) == r

    @pytest.mark.parametrize("f", [1, 2])
    def test_quorum_intersection_contains_an_honest_replica(self, f):
        """Any two 2f+1-subsets of 3f+1 replicas share more than f members,
        so their intersection cannot be purely Byzantine.  Exhaustive."""
        n, q = min_replicas(f), quorum_size(f)
        replicas = range(n)
        for a in itertools.combinations(replicas, q):
            for b in itertools.combinations(replicas, q):
                assert len(set(a) & set(b)) >= f + 1

    def test_config_rejects_insufficient_replicas(self):
        with pytest.raises(ValueError):
            QuorumConfig(n=2, f=1)  # no room for a quorum of 3

    def test_config_relaxed_for_vote_only_ensembles(self):
        # only a PBFT Replica insists on n = 3f+1
        cfg = QuorumConfig(n=3, f=1)
        assert cfg.quorum == 3
        assert cfg.reply_matches == 2

    def test_config_properties(self):
        cfg = QuorumConfig(n=4, f=1)
        assert cfg.quorum == 3
        assert cfg.reply_matches == 2


class TestDecisionSpace:
    def test_membership_and_lookup(self):
        space = DecisionSpace(labels=("stop", "go"), safe_default="stop")
        assert "stop" in space
        assert "reverse" not in space
        assert space.value("go") == "go"

    def test_unknown_label_rejected(self):
        space = DecisionSpace(labels=("stop", "go"), safe_default="stop")
        with pytest.raises(ValueError):
            space.value("reverse")

    def test_safe_default_must_be_a_label(self):
        with pytest.raises(ValueError):
            DecisionSpace(labels=("stop", "go"), safe_default="reverse")

    def test_duplicate_labels_rejected(self):
        with pytest.raises(ValueError):
            DecisionSpace(labels=("stop", "stop"), safe_default="stop")

    @pytest.mark.parametrize("label", ["", "-", "|", "go|stop", "go|"])
    def test_labels_a_decision_log_cannot_hold_rejected(self, label):
        # decision.log writes no value as '-' and separates fields with '|'
        with pytest.raises(ValueError, match="cannot be logged"):
            DecisionSpace(labels=("stop", label), safe_default="stop")

    @pytest.mark.parametrize("label", ["go left", " go", "go\n", "\t"])
    def test_labels_a_scenario_file_cannot_hold_rejected(self, label):
        # scenario_to_text writes labels separated by spaces, so such a label
        # would not read back
        with pytest.raises(ValueError, match="cannot be logged"):
            DecisionSpace(labels=("stop", label), safe_default="stop")


class TestCanonicalSerialization:
    def test_deterministic(self):
        a = canonical("prepare", 3, 0, "stop")
        b = canonical("prepare", 3, 0, "stop")
        assert a == b

    def test_type_tags_distinguish_look_alikes(self):
        # "1" the string and 1 the int serialize differently
        assert canonical("1") != canonical(1)
        assert canonical(1) != canonical(1.0)
        assert canonical(b"x") != canonical("x")

    def test_field_boundaries_are_unambiguous(self):
        # concatenation cannot move bytes across field boundaries
        assert canonical("ab", "c") != canonical("a", "bc")
        assert canonical(("a", "b")) != canonical("a", "b")

    def test_none_is_encodable(self):
        assert canonical(None) != canonical("")

    @given(
        st.lists(
            st.one_of(
                st.integers(min_value=-(2**63), max_value=2**63 - 1),
                st.text(),
                st.booleans(),
            ),
            max_size=6,
        )
    )
    def test_digest_is_stable(self, fields):
        assert digest(canonical(*fields)) == digest(canonical(*fields))

    def test_digest_width(self):
        assert len(digest(b"payload")) == 32
        assert len(short_digest(b"payload")) == 12


# Field values that compare equal but encode apart, mixed with arbitrary ones.
LEAVES = st.one_of(
    st.sampled_from([0, 1, True, False, 1.0, 0.0, -0.0, None, "", b"", "1", b"1"]),
    st.integers(min_value=-(2**64), max_value=2**64),  # past int64 raises struct.error
    st.floats(),
    st.text(max_size=4),
    st.binary(max_size=4),
)
FIELD = st.recursive(
    LEAVES,
    lambda inner: st.one_of(st.lists(inner, max_size=3).map(tuple), st.lists(inner, max_size=3)),
    max_leaves=8,
)
FIELDS = st.lists(FIELD, max_size=5).map(tuple)


def twin(value, k: int):
    """``value`` with each 0 or 1 at any depth swapped for the k-th of its equal
    look-alikes, which encode apart."""
    if isinstance(value, (tuple, list)):
        return type(value)(twin(v, k) for v in value)
    if type(value) in (int, bool, float) and value in (0, 1):
        alikes = (0, False, 0.0, -0.0) if value == 0 else (1, True, 1.0)
        return alikes[k % len(alikes)]
    return value


def outcome(encode, fields):
    try:
        return encode(*fields)
    except (TypeError, struct.error) as exc:
        return type(exc), str(exc)


def fresh(*fields):
    payload = canonical(*fields)
    return payload, digest(payload), short_digest(payload)


class TestEncodingMemo:
    """``encoding`` returns exactly ``canonical`` and its digests, on a first
    call and a repeated one: equal fields of other types, or of other signs
    of zero, never share bytes."""

    def assert_exact(self, batch):
        for fields in batch:
            assert outcome(encoding, fields) == outcome(fresh, fields), fields

    @given(st.lists(FIELDS, min_size=1, max_size=4))
    def test_cold_warm_and_past_the_bound(self, batch):
        batch = [twin(fields, k) for fields in batch for k in range(5)]
        self.assert_exact(batch)  # cold
        self.assert_exact(batch)  # warm

    def test_look_alikes_keep_their_own_bytes(self):
        numbers = [(1,), (1.0,), (True,), (0,), (0.0,), (-0.0,), (False,)]
        numbers += [(fields,) for fields in numbers] + [((fields,),) for fields in numbers]
        outputs = [("output", 1, 0, "x", c) for c in (0.0, -0.0, 1.0, 1, True)]
        labels = [("x",), (("x",),)]
        for _ in range(2):
            self.assert_exact(numbers + outputs + labels)
        # equal as values, yet each encodes apart
        for group in (numbers, outputs):
            assert len({encoding(*fields)[0] for fields in group}) == len(group)

    @pytest.mark.parametrize(
        "bad, error",
        [
            (object(), TypeError),
            ({1}, TypeError),
            (1j, TypeError),
            (bytearray(b"x"), TypeError),
            ([object()], TypeError),
            ((1, {2}), TypeError),
        ],
        ids=["object", "set", "complex", "bytearray", "list-of-object", "tuple-of-set"],
    )
    def test_unencodable_fields_raise_as_canonical(self, bad, error):
        for _ in range(2):
            raised = outcome(encoding, ("x", bad))
            assert raised == outcome(canonical, ("x", bad))
            assert raised[0] is error


class TestAuthentication:
    def fresh_registry(self, n=4, seed=99):
        return KeyRegistry(seed, range(n))

    def test_sign_verify_roundtrip(self):
        reg = self.fresh_registry()
        tag = reg.sign(2, digest(b"hello"))
        assert reg.verify(tag, 2, digest(b"hello"))

    def test_wrong_signer_fails(self):
        reg = self.fresh_registry()
        tag = reg.sign(2, digest(b"hello"))
        assert not reg.verify(tag, 3, digest(b"hello"))

    def test_unknown_signer_raises(self):
        from bftensemble.core import UnknownSignerError

        reg = self.fresh_registry()
        with pytest.raises(UnknownSignerError):
            reg.sign(17, digest(b"hello"))

    def test_independent_master_seeds_disagree(self):
        a = KeyRegistry(1, range(4))
        b = KeyRegistry(2, range(4))
        tag = a.sign(0, digest(b"payload"))
        assert not b.verify(tag, 0, digest(b"payload"))

    @given(payload=st.binary(min_size=1, max_size=64), flip=st.integers(min_value=0))
    def test_tampered_payload_rejected(self, payload, flip):
        reg = KeyRegistry(7, range(4))
        tag = reg.sign(1, digest(payload))
        pos = flip % len(payload)
        tampered = bytes(
            b ^ (1 if i == pos else 0) for i, b in enumerate(payload)
        )
        assert not reg.verify(tag, 1, digest(tampered))

    def test_output_verification(self):
        reg = self.fresh_registry()
        out = sign_message(reg, 1, Output(frame=0, value="go"))
        assert out.verify(reg)

    def test_forged_output_rejected(self):
        reg = self.fresh_registry()
        out = sign_message(reg, 1, Output(frame=0, value="go"))
        forged = Signed(Output(frame=0, value="stop"), out.sender, out.tag)
        assert not forged.verify(reg)

    def test_payload_binds_all_fields(self):
        go, stop = "go", "stop"
        a = Output(0, go).payload()
        assert a != Output(1, go).payload()
        assert a != Output(0, stop).payload()
        assert a != Reply(0, go).payload()  # the kind keeps a vote apart from a Reply
