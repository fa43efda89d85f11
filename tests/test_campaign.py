"""fuzz_campaign's report: each failing episode is listed once, whatever
ways it fails, an exception included; a strict campaign stops at the first
episode that a planted defect makes break agreement or liveness; and a
campaign renders no event log."""
import inspect
from dataclasses import replace

import pytest

from bftensemble import campaign, episode, simnet
from bftensemble.consensus import Replica
from bftensemble.episode import liveness_bound, run_episode
from bftensemble.scenario import load_bundled


def test_an_episode_that_fails_every_way_is_listed_once(monkeypatch):
    base = load_bundled("fuzz_base_n4")
    bound = liveness_bound(base.quorum.f, base.timeout_rounds)

    def failing(scenario):
        """An agreement violation, a liveness failure and every frame
        decided past the bound."""
        result = run_episode(scenario)
        late = [replace(r, verdict="decided", rounds_to_commit=bound + 1) for r in result.records]
        return replace(result, records=late, agreement_violations=[0], liveness_failures=[1])

    monkeypatch.setattr(campaign, "run_episode", failing)
    report = campaign.fuzz_campaign(base, episodes=3, seed=7, strict=False)
    assert report.agreement_violations == 3
    assert report.liveness_failures == 3
    assert [index for _, index in report.failures] == [0, 1, 2]
    assert sum(line.startswith("failure|") for line in report.to_lines()) == 3


def raising_on(indices):
    """A run_episode that raises ZeroDivisionError on the given campaign
    episodes (counted from 0) and runs the others."""
    calls = []

    def run(scenario):
        calls.append(scenario.seed)
        if len(calls) - 1 in indices:
            return 1 // 0
        return run_episode(scenario)

    return run


def test_an_episode_that_raises_is_listed_once_and_counts_nothing(monkeypatch):
    base = load_bundled("fuzz_base_n4")
    clean = campaign.fuzz_campaign(base, episodes=4, seed=7, strict=False)
    monkeypatch.setattr(campaign, "run_episode", raising_on({1, 2}))
    report = campaign.fuzz_campaign(base, episodes=4, seed=7, strict=False)
    assert [index for _, index in report.failures] == [1, 2]
    assert sum(line.startswith("failure|") for line in report.to_lines()) == 2
    # the episodes that ran are those of the clean campaign, and only they count
    assert report.frames_total == clean.frames_total // 2
    assert report.agreement_violations == report.liveness_failures == 0
    assert sum(report.rounds_histogram.values()) == report.frames_total


def test_a_strict_campaign_names_the_exception_and_where_it_was_raised(monkeypatch):
    base = load_bundled("fuzz_base_n4")
    monkeypatch.setattr(campaign, "run_episode", raising_on({2}))
    with pytest.raises(campaign.CampaignViolation) as caught:
        campaign.fuzz_campaign(base, episodes=4, seed=7)
    lines, first = inspect.getsourcelines(raising_on)
    line = first + next(i for i, text in enumerate(lines) if "1 // 0" in text)
    assert str(caught.value).startswith(f"ZeroDivisionError at test_campaign.py:{line} in fuzz episode")
    assert caught.value.episode_index == 2
    assert isinstance(caught.value.__cause__, ZeroDivisionError)


def test_a_campaign_in_which_nothing_raises_keeps_its_digest(monkeypatch):
    base = load_bundled("fuzz_base_n4")
    clean = campaign.fuzz_campaign(base, episodes=4, seed=7).digest_hex()
    monkeypatch.setattr(campaign, "run_episode", raising_on(set()))
    assert campaign.fuzz_campaign(base, episodes=4, seed=7).digest_hex() == clean


def commit_own_output(monkeypatch):
    """Plant a safety defect: a replica decides its own output, not the
    value its Commit quorum names (its Reply still names the quorum's)."""
    decide = Replica._decide
    monkeypatch.setattr(Replica, "_decide", lambda r, value, view=-1: decide(r, r.inst.own_output or value, view))


def silence_timers(monkeypatch):
    """Plant a liveness defect: no replica's timer ever fires, so none
    re-sends or changes view."""
    monkeypatch.setattr(Replica, "on_round", lambda replica, round_: [])


@pytest.mark.parametrize(
    "kind, count, plant",
    [("agreement", "agreement_violations", commit_own_output), ("liveness", "liveness_failures", silence_timers)],
)
def test_a_strict_campaign_stops_at_the_first_planted_violation(monkeypatch, kind, count, plant):
    base = load_bundled("fuzz_base_n4")
    plant(monkeypatch)
    report = campaign.fuzz_campaign(base, episodes=20, seed=2026, strict=False)
    assert getattr(report, count) > 0
    with pytest.raises(campaign.CampaignViolation) as caught:
        campaign.fuzz_campaign(base, episodes=20, seed=2026)
    assert str(caught.value).startswith(f"{kind} violation in fuzz episode")
    assert (caught.value.seed, caught.value.episode_index) == report.failures[0]
    assert caught.value.__cause__ is None


# fuzz_campaign(load_bundled(name), 20, 2026).digest_hex()
SHORT_CAMPAIGNS = {
    "av_plastic_bag": "9ed3970c706cbac98170caccaf04ce697dd1a8d2c52f7b81b23aa5c6921728ce",
    "fuzz_base_n4": "13c3e0e48645717a722b406a867cc85d023ae9b36579bbd7970a9b557a40bbaa",
    "fuzz_base_n7": "ccf0df313f2c7346a69148738ac8e697cf93d7832282ec188ceaf21386c522f1",
}


@pytest.mark.parametrize("name", sorted(SHORT_CAMPAIGNS))
def test_a_campaign_renders_no_event_log(monkeypatch, name):
    """A campaign reads decisions, never event-log lines: with rendering
    made to raise, it still gives its report."""

    def render(deliveries):
        raise AssertionError("a campaign rendered an event log")

    monkeypatch.setattr(simnet, "render_event_log", render)
    monkeypatch.setattr(episode, "render_event_log", render)
    report = campaign.fuzz_campaign(load_bundled(name), episodes=20, seed=2026)
    assert report.digest_hex() == SHORT_CAMPAIGNS[name]
