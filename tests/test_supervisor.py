"""Deviation tracking, isolation budget, and the recovery cycle."""
from dataclasses import FrozenInstanceError

import pytest

from bftensemble.core import QuorumConfig
from bftensemble.supervisor import (
    IsolationBudgetError,
    Supervisor,
    SupervisorConfig,
)

GOOD = "good"
BAD = "bad"


def feed(target, frames, n=4, deviant=None, deviant_value=BAD, absent=None):
    """Record `frames` committed rounds where everyone but `deviant` agrees."""
    for frame in range(frames):
        outputs = {m: GOOD for m in range(n)}
        if deviant is not None:
            outputs[deviant] = deviant_value
        if absent is not None:
            outputs[absent] = None
        target.record_round(frame, GOOD, outputs)


class TestDeviationLedger:
    """The supervisor's record of deviations: what ``review`` flags and
    isolates after ``record_round`` has fed each module's window."""

    def supervisor(self, window=10, threshold=0.3, n=4, f=1):
        return Supervisor(
            quorum_cfg=QuorumConfig(n=n, f=f),
            cfg=SupervisorConfig(window=window, flag_threshold=threshold),
        )

    def test_incomplete_window_is_not_judged(self):
        sup = self.supervisor()
        feed(sup, 9, deviant=1)
        assert sup.review(8) == []
        assert sup.flagged == set()

    def test_three_of_ten_reaches_the_default_threshold(self):
        sup = self.supervisor()
        feed(sup, 7)
        feed(sup, 3, deviant=1)
        assert sup.review(9) == [1]
        assert sup.flagged == {1}

    def test_two_of_ten_stays_below(self):
        sup = self.supervisor()
        feed(sup, 8)
        feed(sup, 2, deviant=1)
        assert sup.review(9) == []
        assert sup.flagged == set()

    def test_absence_counts_as_deviation(self):
        sup = self.supervisor(window=4, threshold=0.5)
        feed(sup, 4, absent=2)
        assert sup.review(3) == [2]

    def test_agreeing_modules_are_never_flagged(self):
        sup = self.supervisor()
        feed(sup, 50, deviant=3)
        assert sup.review(49) == [3]
        assert sup.flagged == {3}

    def test_window_slides(self):
        sup = self.supervisor(window=4, threshold=0.5)
        feed(sup, 4, deviant=1)
        feed(sup, 4)  # four clean frames push the bad ones out
        assert sup.review(7) == []
        feed(sup, 2, deviant=1)  # two of the last four frames are bad
        assert sup.review(9) == [1]


class TestSupervisor:
    def supervisor(self, n=4, f=1, window=4, threshold=0.5):
        return Supervisor(
            quorum_cfg=QuorumConfig(n=n, f=f),
            cfg=SupervisorConfig(window=window, flag_threshold=threshold, restart_delay=2),
        )

    def test_flag_then_isolate(self):
        sup = self.supervisor()
        feed(sup, 4, deviant=1)
        assert sup.review(3) == [1]
        assert 1 in sup.isolated
        assert (3, 1, "flagged") in sup.events
        assert (3, 1, "isolated") in sup.events

    def test_isolation_budget_is_enforced(self):
        sup = self.supervisor()
        feed(sup, 4, deviant=1)
        sup.review(3)
        with pytest.raises(IsolationBudgetError):
            sup.isolate(2, 4)  # second isolation would leave 2 < quorum 3

    def test_budget_refusal_flags_without_isolating(self):
        sup = Supervisor(
            quorum_cfg=QuorumConfig(n=3, f=1),
            cfg=SupervisorConfig(window=2, flag_threshold=0.5, restart_delay=2),
        )
        feed(sup, 2, n=3, deviant=2)
        assert sup.review(1) == []  # 3 live is already the floor
        assert (1, 2, "flagged") in sup.events
        assert 2 not in sup.isolated

    def test_flag_event_not_repeated(self):
        sup = Supervisor(
            quorum_cfg=QuorumConfig(n=3, f=1),
            cfg=SupervisorConfig(window=2, flag_threshold=0.5, restart_delay=2),
        )
        feed(sup, 6, n=3, deviant=2)
        for frame in range(2, 6):
            sup.review(frame)
        flag_events = [e for e in sup.events if e[2] == "flagged"]
        assert len(flag_events) == 1

    def test_restart_after_the_configured_delay(self):
        sup = self.supervisor()
        feed(sup, 4, deviant=1)
        sup.review(3)
        assert sup.due_for_restart(4) == []
        assert sup.due_for_restart(5) == [1]
        assert 1 in sup.restarting
        sup.recovered(1, 6)
        assert sup.restarting == set()
        assert (5, 1, "restarting") in sup.events
        assert (6, 1, "recovered") in sup.events

    def test_isolated_frames_do_not_poison_the_next_window(self):
        """Frames spent isolated are the supervisor's doing; they must not
        get a recovered module instantly re-flagged."""
        sup = self.supervisor()
        feed(sup, 4, deviant=1)
        sup.review(3)
        # two frames of absence while isolated
        for frame in (4, 5):
            sup.record_round(frame, GOOD, {0: GOOD, 1: None, 2: GOOD, 3: GOOD})
        sup.due_for_restart(5)
        sup.recovered(1, 6)
        # four clean frames post-recovery: window is clean, no re-flag
        for frame in range(6, 10):
            sup.record_round(frame, GOOD, {m: GOOD for m in range(4)})
        assert sup.review(9) == []
        assert len([e for e in sup.events if e[2] == "flagged"]) == 1

    def test_only_active_modules_are_judged(self):
        sup = self.supervisor()
        feed(sup, 4, deviant=1)
        assert sup.agreement[1] == [0, 4] and sup.agreement[0] == [4, 4]
        sup.review(3)
        assert not sup.active(1)
        feed(sup, 2, absent=1)
        sup.due_for_restart(5)
        assert not sup.active(1)
        feed(sup, 1, absent=1)
        sup.recovered(1, 6)
        assert sup.active(1)
        feed(sup, 4)
        assert sup.agreement[1] == [4, 8] and sup.agreement[0] == [11, 11]
        assert sup.agreement_rates() == {0: 1.0, 1: 0.5, 2: 1.0, 3: 1.0}

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SupervisorConfig(window=0)
        with pytest.raises(ValueError):
            SupervisorConfig(flag_threshold=0.0)
        with pytest.raises(ValueError):
            SupervisorConfig(restart_delay=-1)

    def test_config_is_frozen_and_hashes(self):
        """Drawn episodes share their base's config, so it must not change."""
        cfg = SupervisorConfig(window=4, flag_threshold=0.5, restart_delay=1)
        with pytest.raises(FrozenInstanceError):
            cfg.window = 5
        assert cfg.window == 4
        assert hash(cfg) == hash(SupervisorConfig(window=4, flag_threshold=0.5, restart_delay=1))
        assert len({cfg, SupervisorConfig(window=4, flag_threshold=0.5, restart_delay=1), SupervisorConfig()}) == 2
