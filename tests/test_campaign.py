"""fuzz_campaign's report: each failing episode is listed once, whatever
ways it fails."""
from dataclasses import replace

from bftensemble import campaign
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
