"""Byzantine-fault-tolerant decision ensemble with a deterministic
fault-injection simulator."""

from .core import (
    OBSERVER,
    PEERS,
    DecisionSpace,
    KeyRegistry,
    QuorumConfig,
    client_match,
    digest,
    min_replicas,
    quorum_size,
)
from .campaign import CampaignReport, fuzz_campaign
from .episode import EpisodeResult, run_episode
from .scenario import Scenario, ScenarioError, parse_scenario, parse_scenario_text
from .voter import Verdict, VoteStrategy, tally

__all__ = [
    "OBSERVER",
    "PEERS",
    "CampaignReport",
    "DecisionSpace",
    "EpisodeResult",
    "KeyRegistry",
    "QuorumConfig",
    "Scenario",
    "ScenarioError",
    "Verdict",
    "VoteStrategy",
    "client_match",
    "digest",
    "fuzz_campaign",
    "min_replicas",
    "parse_scenario",
    "parse_scenario_text",
    "quorum_size",
    "run_episode",
    "tally",
]
