"""Output-combination strategies, independent of the consensus engine.

All functions are pure.  Ties never break arbitrarily: a tie is NoQuorum, and
only the scenario layer may convert NoQuorum into the safe-mode fallback.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .core import QuorumConfig, direct_constructor


@dataclass(frozen=True)
class VoteStrategy:
    kind: str  # majority | k_of_n | unanimity | fastpath
    k: int = 0

    def __post_init__(self) -> None:
        if self.kind not in ("majority", "k_of_n", "unanimity", "fastpath"):
            raise ValueError(f"unknown strategy {self.kind!r}")
        if self.kind == "k_of_n" and self.k < 1:
            raise ValueError("k_of_n needs k >= 1")

    @classmethod
    def parse(cls, text: str) -> "VoteStrategy":
        """Parse the scenario-file form: majority | k_of_n:<k> | unanimity |
        fastpath."""
        name, _, arg = text.partition(":")
        name = name.strip()
        if name == "majority":
            return cls("majority")
        if name == "unanimity":
            return cls("unanimity")
        if name == "fastpath":
            return cls("fastpath")
        if name == "k_of_n":
            return cls("k_of_n", k=int(arg))
        raise ValueError(f"unknown strategy {text!r}")

    def threshold(self, n: int) -> int:
        """The votes one value needs among ``n`` modules: a strict majority
        (n//2 + 1), all n for unanimity, or the strategy's own k."""
        if self.kind == "majority":
            return n // 2 + 1
        if self.kind == "unanimity":
            return n
        if self.kind == "k_of_n":
            return self.k
        raise ValueError(f"tally cannot evaluate strategy {self.kind!r} directly")

    def describe(self) -> str:
        if self.kind == "k_of_n":
            return f"k_of_n:{self.k}"
        return self.kind

    __str__ = describe  # the scenario-file form, which the writer prints


MAJORITY = VoteStrategy("majority")  # the default, and the fast path's fallback


@dataclass(frozen=True)
class Verdict:
    kind: str  # decided | no-quorum | safe-mode
    value: Optional[str] = None
    supporters: frozenset[int] = frozenset()
    cause: str = ""

    @property
    def decided(self) -> bool:
        return self.kind == "decided"


_new_verdict = direct_constructor(Verdict)


def tally(votes: dict[int, str], strategy: VoteStrategy, cfg: QuorumConfig) -> Verdict:
    """Combine one frame's verified votes, a {module: value} map: a value
    decides when it alone has at least the strategy's k votes.  Absent
    modules count as votes against it, and two values reaching k are a tie,
    which is NoQuorum."""
    k = strategy.threshold(cfg.n)
    backers: dict[str, list[int]] = {}  # each value's voters, in vote order
    for m, value in votes.items():
        backers.setdefault(value, []).append(m)
    reaching = []
    for value, voters in backers.items():
        if len(voters) >= k:
            reaching.append(value)
    if len(reaching) == 1:
        value = reaching[0]
        return _new_verdict(kind="decided", value=value, supporters=frozenset(backers[value]), cause="")
    cause = "tie" if reaching else "below-threshold"
    return _new_verdict(kind="no-quorum", value=None, supporters=frozenset(), cause=cause)


@dataclass(frozen=True)
class FastPathResult:
    verdict: Verdict
    rounds_used: int  # 1 when all digests matched, else 2


_new_result = direct_constructor(FastPathResult)


def fast_path_agree(digests: dict[int, bytes], votes: dict[int, str], cfg: QuorumConfig) -> FastPathResult:
    """Hash fast path with full-output fallback.

    ``digests`` maps module id to its announced output digest.  When they all
    match (one per module, none missing) the decision closes in one round;
    otherwise the caller supplies the second-round full outputs as
    ``votes``, a {module: value} map, and a majority tally decides.  The
    fast path by itself cannot attribute equivocation: a split announcement
    only surfaces as a mismatch forcing the fallback.
    """
    missing = cfg.n - len(digests)
    if missing > cfg.f:
        verdict = _new_verdict(kind="no-quorum", value=None, supporters=frozenset(), cause="missing-announcements")
        return _new_result(verdict=verdict, rounds_used=1)
    if missing == 0 and len(set(digests.values())) == 1 and votes:
        # every announcement matched, so any locally known output is the value
        value = next(iter(votes.values()))
        verdict = _new_verdict(kind="decided", value=value, supporters=frozenset(digests), cause="")
        return _new_result(verdict=verdict, rounds_used=1)
    return _new_result(verdict=tally(votes, MAJORITY, cfg), rounds_used=2)
