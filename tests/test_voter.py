"""Vote combination strategies against an independent brute-force oracle."""
import itertools
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from bftensemble.core import QuorumConfig
from bftensemble.voter import (
    FastPathResult,
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
    present = [l for l in labels if l is not None]
    counts = Counter(present)
    if strategy.kind == "majority":
        winners = [l for l, c in counts.items() if c > n / 2]
        return winners[0] if winners else None
    if strategy.kind == "k_of_n":
        winners = [l for l, c in counts.items() if c >= strategy.k]
        return winners[0] if len(winners) == 1 else None
    if strategy.kind == "unanimity":
        if len(present) == n and len(counts) == 1:
            return present[0]
        return None
    raise AssertionError(strategy.kind)


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
                    expected = oracle(assignment, strategy, n)
                    if expected is None:
                        assert not verdict.decided, (assignment, strategy)
                    else:
                        assert verdict.decided, (assignment, strategy)
                        assert verdict.value == expected

    def test_supporters_are_exactly_the_agreeing_modules(self):
        cfg = QuorumConfig(n=5, f=1)
        votes = votes_for(("alpha", "alpha", "beta", "alpha", None))
        verdict = tally(votes, VoteStrategy("majority"), cfg)
        assert verdict.decided
        assert verdict.supporters == frozenset({0, 1, 3})


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
        assert res.verdict.supporters == frozenset({0, 1, 2, 3})

    def test_single_dissent_falls_back_to_majority(self):
        labels = ("alpha", "alpha", "beta", "alpha")
        res = fast_path_agree(self.digests(labels), votes_for(labels), self.CFG)
        assert res.rounds_used == 2
        assert res.verdict.decided
        assert res.verdict.value == "alpha"

    def test_one_missing_announcement_falls_back(self):
        labels = ("alpha", "alpha", "alpha", None)
        res = fast_path_agree(self.digests(labels), votes_for(labels), self.CFG)
        assert res.rounds_used == 2
        assert res.verdict.decided

    def test_too_many_missing_is_no_quorum(self):
        labels = ("alpha", "alpha", None, None)
        res = fast_path_agree(self.digests(labels), {}, self.CFG)
        assert res.rounds_used == 1
        assert res.verdict.kind == "no-quorum"
        assert res.verdict.cause == "missing-announcements"


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
