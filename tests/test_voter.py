"""Vote combination strategies against an independent brute-force oracle."""
import dataclasses
import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st
from test_consensus import python_calls

from bftensemble.core import QuorumConfig
from bftensemble.voter import (
    FastPathResult,
    Verdict,
    VoteStrategy,
    fast_path_agree,
    tally,
)

LABELS3 = ("alpha", "beta", "gamma")


def votes_for(labels):
    """labels: per-module label or None for an absent module."""
    return {m: label for m, label in enumerate(labels) if label is not None}


# --- independent oracle ------------------------------------------------------
#
# Deliberately written as naive counting over label strings, sharing no code
# with the implementation under test.

def oracle(labels, strategy, n):
    """(decided value or None, no-quorum cause or "")."""
    present = [l for l in labels if l is not None]
    counts = Counter(present)
    if strategy.kind == "majority":
        winners = [l for l, c in counts.items() if c > n / 2]
    elif strategy.kind == "k_of_n":
        winners = [l for l, c in counts.items() if c >= strategy.k]
    elif strategy.kind == "unanimity":
        winners = present[:1] if len(present) == n and len(counts) == 1 else []
    else:
        raise AssertionError(strategy.kind)
    if len(winners) == 1:
        return winners[0], ""
    return None, "tie" if winners else "below-threshold"


# A field change per class the voter builds, for ``dataclasses.replace``.
CHANGES = {Verdict: dict(cause="changed"), FastPathResult: dict(rounds_used=3)}


def assert_as_constructed(obj):
    """``obj`` is the object its dataclass constructor builds from the same
    fields: the same ``__dict__`` (so no field was left to a class default),
    equality, hash, repr and replacements, and it is still frozen."""
    cls = type(obj)
    built = cls(**{field.name: getattr(obj, field.name) for field in dataclasses.fields(cls)})
    assert vars(obj) == vars(built)
    assert obj == built and hash(obj) == hash(built) and repr(obj) == repr(built)
    changes = CHANGES[cls]
    assert dataclasses.replace(obj, **changes) == dataclasses.replace(built, **changes) != built
    with pytest.raises(dataclasses.FrozenInstanceError):
        obj.kind = "changed"
    if cls is FastPathResult:
        assert_as_constructed(obj.verdict)


def all_strategies(n):
    yield VoteStrategy("majority")
    for k in range(2, n + 1):
        yield VoteStrategy("k_of_n", k=k)
    yield VoteStrategy("unanimity")


class TestOracleEquivalence:
    def test_exhaustive_up_to_five_modules_three_labels(self):
        """Every assignment (including absences) for n <= 5 against the naive
        counting oracle — the full enumeration behind threshold voting."""
        for n in range(1, 6):
            cfg = QuorumConfig(n=n, f=0)
            choices = LABELS3 + (None,)
            for assignment in itertools.product(choices, repeat=n):
                votes = votes_for(assignment)
                for strategy in all_strategies(n):
                    verdict = tally(votes, strategy, cfg)
                    value, cause = oracle(assignment, strategy, n)
                    assert verdict.decided == (value is not None), (assignment, strategy)
                    assert (verdict.value, verdict.cause) == (value, cause)
                    assert_as_constructed(verdict)


class TestTallyEdges:
    def test_k_of_n_tie_is_no_quorum(self):
        cfg = QuorumConfig(n=4, f=1)
        votes = votes_for(("alpha", "alpha", "beta", "beta"))
        verdict = tally(votes, VoteStrategy("k_of_n", k=2), cfg)
        assert verdict.kind == "no-quorum"
        assert verdict.cause == "tie"

    def test_exact_half_is_not_a_majority(self):
        cfg = QuorumConfig(n=4, f=1)
        votes = votes_for(("alpha", "alpha", "beta", None))
        verdict = tally(votes, VoteStrategy("majority"), cfg)
        assert verdict.kind == "no-quorum"

    def test_absent_modules_count_against_unanimity(self):
        cfg = QuorumConfig(n=4, f=1)
        votes = votes_for(("alpha", "alpha", "alpha", None))
        verdict = tally(votes, VoteStrategy("unanimity"), cfg)
        assert verdict.kind == "no-quorum"

    @given(st.lists(st.sampled_from(LABELS3 + (None,)), min_size=1, max_size=5))
    def test_majority_monotone_in_extra_agreeing_votes(self, labels):
        """Adding one more vote for the winner never flips the decision."""
        n = len(labels) + 1
        cfg_small = QuorumConfig(n=n - 1, f=0)
        votes = votes_for(labels)
        verdict = tally(votes, VoteStrategy("majority"), cfg_small)
        if not verdict.decided:
            return
        cfg_big = QuorumConfig(n=n, f=0)
        again = tally({**votes, n - 1: verdict.value}, VoteStrategy("majority"), cfg_big)
        assert again.decided and again.value == verdict.value


class TestFastPath:
    CFG = QuorumConfig(n=4, f=1)

    def digests(self, labels):
        from bftensemble.consensus import value_digest

        return {m: value_digest(l) for m, l in enumerate(labels) if l is not None}

    def test_unanimous_digests_decide_in_one_round(self):
        labels = ("alpha",) * 4
        res = fast_path_agree(self.digests(labels), {0: "alpha"}, self.CFG)
        assert res.rounds_used == 1
        assert res.verdict.decided
        assert res.verdict.value == "alpha"
        assert_as_constructed(res)

    def test_single_dissent_falls_back_to_majority(self):
        labels = ("alpha", "alpha", "beta", "alpha")
        res = fast_path_agree(self.digests(labels), votes_for(labels), self.CFG)
        assert res.rounds_used == 2
        assert res.verdict.decided
        assert res.verdict.value == "alpha"
        assert_as_constructed(res)

    def test_one_missing_announcement_falls_back(self):
        labels = ("alpha", "alpha", "alpha", None)
        res = fast_path_agree(self.digests(labels), votes_for(labels), self.CFG)
        assert res.rounds_used == 2
        assert res.verdict.decided
        assert_as_constructed(res)

    def test_too_many_missing_is_no_quorum(self):
        labels = ("alpha", "alpha", None, None)
        res = fast_path_agree(self.digests(labels), {}, self.CFG)
        assert res.rounds_used == 1
        assert res.verdict.kind == "no-quorum"
        assert res.verdict.cause == "missing-announcements"
        assert_as_constructed(res)


class TestCallBudget:
    """A vote-only frame tallies or fast-paths once per module and once for
    the observer, so a helper call added to these paths costs on every
    frame.  Counting the votes enters no Python function, and each object
    is built in one frame of its direct constructor."""

    CFG = QuorumConfig(n=4, f=1)

    def test_a_tally_of_four_votes(self):
        votes = votes_for(("alpha", "alpha", "beta", "alpha"))
        calls = python_calls(tally, votes, VoteStrategy("majority"), self.CFG)
        assert calls == ["tally", "threshold", "construct"]

    def test_a_one_round_fast_path(self):
        digests = TestFastPath().digests(("alpha",) * 4)
        calls = python_calls(fast_path_agree, digests, {0: "alpha"}, self.CFG)
        assert calls == ["fast_path_agree", "construct", "construct"]


class TestStrategyParsing:
    @pytest.mark.parametrize(
        "text",
        ["majority", "unanimity", "fastpath", "k_of_n:2"],
    )
    def test_roundtrip(self, text):
        assert VoteStrategy.parse(text).describe() == text

    def test_unknown_rejected(self):
        for text in ("plurality", "weighted:0.6"):
            with pytest.raises(ValueError):
                VoteStrategy.parse(text)
