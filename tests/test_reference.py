"""Every shortcut of the simulator against one reference without any.

``run_episode`` takes the network's shortcuts (nothing queued for a module
that takes no part in the frame, no second copy of an outbox message, clock
jumps over empty rounds, fates from a cached hash prefix) and the messages'
(interned messages, tags computed only when read, checks passed on a
stamp).  ``reference.reference_run`` takes none.  On every bundled scenario,
and on the first 30 seed-2026 campaign draws of each fuzz base and
supervised bench base, the two must give the same decision log, vote logs
and replica states.  They must deliver the same envelopes with the same
fates and payloads, tags included, so the same event log: the reference
leaves out, each with a named reason, the envelopes ``World`` never
carries, and ``World`` queues none that the reference queued to a module
absent when it was sent.  An episode that raises must raise the same
exception type on both sides.
"""
import functools
from collections import Counter

import pytest

from bftensemble.episode import EpisodeRunner
from bftensemble.scenario import load_bundled
from bftensemble.simnet import World

from reference import ReferenceWorld, reference_run
from test_golden import EPISODE_LOGS, SUPERVISED_BASES, campaign_episodes, supervised_base

CAMPAIGN_BASES = ["av_plastic_bag", "fuzz_base_n4", "fuzz_base_n7", "fuzz_long_n4", "vote_fastpath"]
VOTE_ONLY_BASES = {"av_plastic_bag", "vote_fastpath"}


def replica_states(runner) -> list:
    return [
        None if engine is None else (engine.misbehavior, engine.violations, engine.committed)
        for engine in runner.engines.values()
    ]


def scenarios(name: str) -> list:
    """A bundled scenario, then its first 30 campaign draws if it is a
    campaign base; a supervised base's first 30 draws."""
    if name in SUPERVISED_BASES:
        return list(campaign_episodes(supervised_base(name), 30))
    bundled = load_bundled(name)
    return [bundled, *campaign_episodes(bundled, 30)] if name in CAMPAIGN_BASES else [bundled]


def outcome(run, scenario):
    """``run(scenario)``'s runner and result, or the type of what it raises."""
    try:
        return run(scenario)
    except Exception as exc:
        return type(exc)


def fast_run(scenario):
    runner = EpisodeRunner(scenario)
    return runner, runner.run()


@functools.cache
def compared(name: str) -> Counter:
    """Run each of ``scenarios(name)`` with ``run_episode`` and with
    ``reference_run`` and check that they agree.  Returns how many episodes
    ran on both without raising, how many lines the reference left out for
    each reason, how many outbox messages ``World``
    carried (``outbox``) and how many of those it carried again from one
    sender to one recipient (``outbox twice``).  Cached, so the tests that
    read one count share one run."""
    counts = Counter()
    carried, queued = [], set()
    advance = World.advance_round

    def advancing(world):
        queued.update(e[:5] for e in world._queue)
        due = advance(world)
        carried.extend(due)
        return due

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(World, "advance_round", advancing)
        # in reverse order, so that the message memos carry entries from
        # later draws into earlier ones
        for scenario in reversed(scenarios(name)):
            carried.clear()
            queued.clear()
            fast, reference = outcome(fast_run, scenario), outcome(reference_run, scenario)
            if isinstance(fast, type) or isinstance(reference, type):
                assert fast is reference
                continue
            (runner, result), (reference_runner, expected) = fast, reference
            assert result.decision_log == expected.decision_log
            assert result.vote_logs == expected.vote_logs
            assert replica_states(runner) == replica_states(reference_runner)
            world = reference_runner.world
            assert isinstance(world, ReferenceWorld)
            # the same envelopes, fates and payloads, each tag read and compared
            assert [e[:6] for e in carried] == [e[:6] for e in world.carried]
            assert result.event_log == expected.event_log
            # World queues only what the reference queues to a recipient present when sent, with its fate
            assert queued <= {e[:5] for e, absent in world.queued if not absent}
            counts["episodes"] += 1
            counts.update(reason for reason, _ in world.left_out)
            # ``carried`` keeps every payload alive, so no id is reused
            outbox = [(id(e.payload), e.frm, e.to) for e in carried if "_queued" in e.payload.__dict__]
            counts["outbox"] += len(outbox)
            counts["outbox twice"] += len(outbox) - len(set(outbox))
    return counts


@pytest.mark.parametrize("name", sorted(EPISODE_LOGS) + ["fuzz_long_n4", "vote_fastpath"])
def test_an_episode_runs_as_on_the_reference(name):
    counts = compared(name)
    if name in CAMPAIGN_BASES:
        assert counts["absent"] > 0
        # vote-only modules keep no outbox, so nothing repeats
        assert (counts["repeat"] > 0) == (name not in VOTE_ONLY_BASES)
