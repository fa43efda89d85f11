"""Fault profile behaviors, restart profiles, and per-module randomness."""
import pytest

from bftensemble.core import DecisionSpace
from bftensemble.harness import (
    FaultProfile,
    ObservationTable,
    module_rng,
    produce_output,
)

SPACE = DecisionSpace(labels=("stop", "go", "slow"), safe_default="stop")
GO = SPACE.value("go")


class TestProfiles:
    def test_honest_reports_observation(self):
        rng = module_rng(1, 0)
        out = produce_output(FaultProfile(kind="honest"), 0, GO, SPACE, rng)
        assert out == GO

    def test_silent_produces_nothing(self):
        rng = module_rng(1, 0)
        out = produce_output(FaultProfile(kind="silent"), 0, GO, SPACE, rng)
        assert out is None

    def test_crash_stops_at_configured_frame(self):
        profile = FaultProfile(kind="crash", at_frame=2)
        rng = module_rng(1, 0)
        assert produce_output(profile, 1, GO, SPACE, rng) is not None
        assert produce_output(profile, 2, GO, SPACE, rng) is None
        assert produce_output(profile, 3, GO, SPACE, rng) is None

    def test_byzantine_fixed_ignores_observation(self):
        profile = FaultProfile(kind="byzantine_fixed", bad_label="stop")
        rng = module_rng(1, 0)
        out = produce_output(profile, 0, GO, SPACE, rng)
        assert out == SPACE.value("stop")

    def test_equivocator_returns_a_conflicting_pair(self):
        profile = FaultProfile(kind="byzantine_equivocate", label_a="go", label_b="stop")
        rng = module_rng(1, 0)
        pair = produce_output(profile, 0, GO, SPACE, rng)
        assert pair == (SPACE.value("go"), SPACE.value("stop"))

    def test_diverse_honest_error_rate_zero_is_honest(self):
        profile = FaultProfile(kind="diverse_honest", error_rate=0.0)
        rng = module_rng(1, 0)
        for frame in range(20):
            out = produce_output(profile, frame, GO, SPACE, rng)
            assert out == GO

    def test_diverse_honest_errors_land_inside_the_space(self):
        profile = FaultProfile(kind="diverse_honest", error_rate=1.0)
        rng = module_rng(1, 0)
        for frame in range(20):
            out = produce_output(profile, frame, GO, SPACE, rng)
            assert out in SPACE
            assert out != GO  # error rate 1: always perturbed

    def test_byzantine_random_draws_from_the_space(self):
        profile = FaultProfile(kind="byzantine_random")
        rng = module_rng(1, 0)
        seen = {
            produce_output(profile, fr, GO, SPACE, rng)
            for fr in range(30)
        }
        assert seen <= set(SPACE.labels)
        assert len(seen) > 1

    @pytest.mark.parametrize("kind", sorted(FaultProfile.KIND_OPTIONS))
    def test_a_profile_reads_its_stream_only_if_its_kind_draws(self, kind):
        profile = FaultProfile(kind, error_rate=0.5, bad_label="stop", label_a="go", label_b="stop")
        rng = module_rng(1, 0)
        before = rng.getstate()
        produce_output(profile, 0, GO, SPACE, rng if profile.draws else None)
        assert (rng.getstate() != before) is profile.draws
        assert profile.draws is (kind in ("diverse_honest", "byzantine_random"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultProfile(kind="gremlin")

    def test_label_membership_checked_against_space(self):
        profile = FaultProfile(kind="byzantine_fixed", bad_label="reverse")
        assert profile.check_labels(SPACE)


class TestDeterminism:
    def test_same_seed_same_stream(self):
        profile = FaultProfile(kind="byzantine_random")

        def stream():
            rng = module_rng(77, 2)
            return [
                produce_output(profile, fr, GO, SPACE, rng)
                for fr in range(10)
            ]

        assert stream() == stream()

    def test_streams_are_module_independent(self):
        # module 0's stream does not depend on how many other modules exist
        a = module_rng(77, 0).random()
        b = module_rng(77, 0).random()
        other = module_rng(77, 1).random()
        assert a == b
        assert a != other

    def test_perturb_seed_shifts_the_stream(self):
        assert module_rng(77, 0, 0).random() != module_rng(77, 0, 1).random()


class TestRestart:
    def test_honest_restart_wipes_the_fault(self):
        profile = FaultProfile(kind="byzantine_fixed", bad_label="stop", on_restart="honest")
        assert profile.restarted() == FaultProfile(kind="honest")

    def test_restart_keeps_fault_by_default(self):
        profile = FaultProfile(kind="byzantine_fixed", bad_label="stop")
        assert profile.restarted() is profile


class TestObservationTable:
    def test_override_and_fallthrough(self):
        table = ObservationTable(
            ground_truth={0: "go", 1: "stop"},
            overrides={(0, 2): "stop"},
            critical_frames=frozenset({1}),
        )
        assert table.observed(SPACE, 0, 2) == SPACE.value("stop")
        assert table.observed(SPACE, 0, 0) == SPACE.value("go")
        assert table.truth(SPACE, 1) == SPACE.value("stop")

    def test_validation_catches_unknown_labels(self):
        table = ObservationTable(
            ground_truth={0: "reverse"},
            overrides={(0, 9): "go"},
            critical_frames=frozenset(),
        )
        errors = table.validate(SPACE, frames=1, n=4)
        assert any("reverse" in e for e in errors)
        assert any("module" in e for e in errors)
