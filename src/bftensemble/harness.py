"""Simulated decision modules: fault profiles and per-frame output production.

A module's only influence channel is its signed outputs and protocol messages;
nothing here lets one module touch another's state.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .core import DecisionSpace, KeyRegistry, canonical, digest, int64, make_output

HONEST_CONFIDENCE = 0.9
BYZANTINE_CONFIDENCE = 1.0  # a liar claims certainty


# scenario-file profile option -> (FaultProfile field, reader)
PROFILE_OPTIONS = {
    "error_rate": ("error_rate", float),
    "perturb_seed": ("perturb_seed", int64),
    "at_frame": ("at_frame", int),
    "delay": ("delay_rounds", int),
    "label": ("bad_label", str),
    "a": ("label_a", str),
    "b": ("label_b", str),
    "confidence": ("base_confidence", float),
    "on_restart": ("on_restart", str),
}


@dataclass(frozen=True)
class FaultProfile:
    """One module's behavior.  ``kind`` selects the variant; the remaining
    fields apply only where noted."""

    kind: str  # one of KIND_OPTIONS
    error_rate: float = 0.0          # diverse_honest
    perturb_seed: int = 0            # diverse_honest, byzantine_random
    at_frame: int = 0                # crash
    delay_rounds: int = 1            # slow
    bad_label: Optional[str] = None  # byzantine_fixed
    label_a: Optional[str] = None    # byzantine_equivocate
    label_b: Optional[str] = None    # byzantine_equivocate
    base_confidence: Optional[float] = None
    on_restart: str = "same"         # same | honest

    # each kind and the options it takes besides confidence and on_restart
    KIND_OPTIONS = {
        "honest": (),
        "diverse_honest": ("error_rate", "perturb_seed"),
        "crash": ("at_frame",),
        "silent": (),
        "slow": ("delay",),
        "byzantine_fixed": ("label",),
        "byzantine_random": ("perturb_seed",),
        "byzantine_equivocate": ("a", "b"),
    }
    BYZANTINE_KINDS = ("byzantine_fixed", "byzantine_random", "byzantine_equivocate")

    def __post_init__(self) -> None:
        if self.kind not in self.KIND_OPTIONS:
            raise ValueError(f"unknown fault profile {self.kind!r}")
        if not 0.0 <= self.error_rate <= 1.0:
            raise ValueError(f"error_rate {self.error_rate} outside [0, 1]")
        if self.at_frame < 0:
            raise ValueError("crash frame must be non-negative")
        if self.kind == "slow" and self.delay_rounds < 1:
            raise ValueError("slow profile needs delay_rounds >= 1")
        if self.kind == "byzantine_fixed" and self.bad_label is None:
            raise ValueError("byzantine_fixed needs a bad_label")
        if self.kind == "byzantine_equivocate":
            if self.label_a is None or self.label_b is None or self.label_a == self.label_b:
                raise ValueError("byzantine_equivocate needs two distinct labels")
        if self.base_confidence is not None and not 0.0 <= self.base_confidence <= 1.0:
            raise ValueError(f"confidence {self.base_confidence} outside [0, 1]")
        if self.on_restart not in ("same", "honest"):
            raise ValueError(f"on_restart must be 'same' or 'honest', got {self.on_restart!r}")

    @classmethod
    def options(cls, kind: str) -> dict:
        """The options ``kind`` takes, in PROFILE_OPTIONS form."""
        return {k: PROFILE_OPTIONS[k] for k in cls.KIND_OPTIONS[kind] + ("confidence", "on_restart")}

    @property
    def byzantine(self) -> bool:
        return self.kind in self.BYZANTINE_KINDS

    def restarted(self) -> "FaultProfile":
        """The profile a module runs after a restart: ``on_restart = honest``
        wipes the fault, ``same`` keeps it."""
        if self.on_restart == "honest":
            return FaultProfile(kind="honest", base_confidence=self.base_confidence)
        return self

    def check_labels(self, space: DecisionSpace) -> list[str]:
        errors = []
        for name in ("bad_label", "label_a", "label_b"):
            label = getattr(self, name)
            if label is not None and label not in space:
                errors.append(f"profile {self.kind}: {name} {label!r} not in decision space")
        return errors


@dataclass(frozen=True)
class ObservationTable:
    """Per-frame ground truth, per-module observation overrides, and the set of
    action-critical frames (where NoQuorum escalates to safe mode)."""

    ground_truth: dict[int, str]                 # frame -> label
    overrides: dict[tuple[int, int], str]        # (frame, module_id) -> label
    critical_frames: frozenset[int] = frozenset()

    def validate(self, space: DecisionSpace, frames: int, n: int) -> list[str]:
        extra = sorted(set(self.ground_truth) - set(range(frames)))
        errors = [f"frame {frame}: no such frame, want 0..{frames - 1}" for frame in extra]
        for frame in range(frames):
            if frame not in self.ground_truth:
                errors.append(f"frame {frame}: missing ground truth")
            elif self.ground_truth[frame] not in space:
                errors.append(
                    f"frame {frame}: ground truth {self.ground_truth[frame]!r} not in decision space"
                )
        for (frame, module_id), label in sorted(self.overrides.items()):
            if label not in space:
                errors.append(f"frame {frame}: label {label!r} not in decision space")
            if not 0 <= module_id < n:
                errors.append(f"frame {frame}: observation for unknown module {module_id}")
        return errors

    def observed(self, space: DecisionSpace, frame: int, module_id: int) -> str:
        label = self.overrides.get((frame, module_id), self.ground_truth[frame])
        return space.value(label)

    def truth(self, space: DecisionSpace, frame: int) -> str:
        return space.value(self.ground_truth[frame])


def module_rng(scenario_seed: int, module_id: int, perturb_seed: int = 0) -> random.Random:
    """Private per-module stream; adding a module never perturbs the others."""
    seed_bytes = digest(canonical("module-rng", scenario_seed, module_id, perturb_seed))
    return random.Random(int.from_bytes(seed_bytes[:8], "big"))


def confidence_of(profile: FaultProfile) -> float:
    """Self-reported confidence attached to an output."""
    if profile.base_confidence is not None:
        return profile.base_confidence
    if profile.byzantine:
        return BYZANTINE_CONFIDENCE
    return HONEST_CONFIDENCE


def produce_output(
    profile: FaultProfile,
    module_id: int,
    frame: int,
    observation: str,
    space: DecisionSpace,
    registry: KeyRegistry,
    rng: random.Random,
):
    """One module's proposal for one frame, per its fault profile.

    Returns a ModuleOutput, None, or for an equivocator a pair of
    conflicting ModuleOutputs (partition assignment is the caller's job).
    Slow modules produce normally; their delay is applied by the network.
    """
    if observation not in space:
        raise ValueError(f"observation {observation!r} not in decision space")
    conf = confidence_of(profile)

    if profile.kind == "silent":
        return None
    if profile.kind == "crash":
        if frame >= profile.at_frame:
            return None
        return make_output(registry, module_id, frame, observation, conf)
    if profile.kind in ("honest", "slow"):
        return make_output(registry, module_id, frame, observation, conf)
    if profile.kind == "diverse_honest":
        value = observation
        if rng.random() < profile.error_rate:
            wrong = [l for l in space.labels if l != observation]
            if wrong:
                value = space.value(rng.choice(wrong))
        return make_output(registry, module_id, frame, value, conf)
    if profile.kind == "byzantine_fixed":
        return make_output(registry, module_id, frame, space.value(profile.bad_label), conf)
    if profile.kind == "byzantine_random":
        return make_output(registry, module_id, frame, space.value(rng.choice(space.labels)), conf)
    if profile.kind == "byzantine_equivocate":
        out_a = make_output(registry, module_id, frame, space.value(profile.label_a), conf)
        out_b = make_output(registry, module_id, frame, space.value(profile.label_b), conf)
        return (out_a, out_b)
    raise AssertionError(profile.kind)
