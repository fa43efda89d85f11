"""Simulated decision modules: fault profiles and per-frame output production.

A module's only influence channel is its signed outputs and protocol messages;
nothing here lets one module touch another's state.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import count, islice
from typing import Optional

from .core import DecisionSpace, canonical, digest, int64


# scenario-file profile option -> (FaultProfile field, reader)
PROFILE_OPTIONS = {
    "error_rate": ("error_rate", float),
    "perturb_seed": ("perturb_seed", int64),
    "at_frame": ("at_frame", int),
    "delay": ("delay_rounds", int),
    "label": ("bad_label", str),
    "a": ("label_a", str),
    "b": ("label_b", str),
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
    on_restart: str = "same"         # same | honest

    # each kind and the options it takes besides on_restart
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
    DRAWING_KINDS = ("diverse_honest", "byzantine_random")

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
        if self.on_restart not in ("same", "honest"):
            raise ValueError(f"on_restart must be 'same' or 'honest', got {self.on_restart!r}")

    @classmethod
    def options(cls, kind: str) -> dict:
        """The options ``kind`` takes, in PROFILE_OPTIONS form."""
        return {k: PROFILE_OPTIONS[k] for k in cls.KIND_OPTIONS[kind] + ("on_restart",)}

    @property
    def byzantine(self) -> bool:
        return self.kind in self.BYZANTINE_KINDS

    @property
    def faulty(self) -> bool:
        """Counts against f: Byzantine, crash or silent."""
        return self.byzantine or self.kind in ("crash", "silent")

    @property
    def draws(self) -> bool:
        """produce_output reads the module's random stream; no other kind
        needs one."""
        return self.kind in self.DRAWING_KINDS

    def emits(self, frame: int) -> bool:
        """The module outputs at ``frame``: it is not silent, and not
        crashed by then."""
        if self.kind == "crash":
            return frame < self.at_frame
        return self.kind != "silent"

    def restarted(self) -> "FaultProfile":
        """The profile a module runs after a restart: ``on_restart = honest``
        wipes the fault, ``same`` keeps it."""
        if self.on_restart == "honest":
            return FaultProfile(kind="honest")
        return self

    def check_labels(self, space: DecisionSpace) -> list[str]:
        errors = []
        for name in ("bad_label", "label_a", "label_b"):
            label = getattr(self, name)
            if label is not None and label not in space:
                errors.append(f"profile {self.kind}: {name} {label!r} not in decision space")
        return errors


MISSING_SHOWN = 5  # missing frames an error list names before it counts the rest


@dataclass(frozen=True)
class ObservationTable:
    """Per-frame ground truth, per-module observation overrides, and the set of
    action-critical frames (where NoQuorum escalates to safe mode)."""

    ground_truth: dict[int, str]                 # frame -> label
    overrides: dict[tuple[int, int], str]        # (frame, module_id) -> label
    critical_frames: frozenset[int] = frozenset()

    def validate(self, space: DecisionSpace, frames: int, n: int) -> list[str]:
        """Problems with this table for a run of ``frames`` frames and ``n``
        modules.  Its cost follows the table's size, not ``frames``: missing
        frames are named up to ``MISSING_SHOWN`` and then counted."""
        errors = []
        for frame, label in sorted(self.ground_truth.items()):
            if not 0 <= frame < frames:
                errors.append(f"frame {frame}: no such frame, want 0..{frames - 1}")
            elif label not in space:
                errors.append(f"frame {frame}: ground truth {label!r} not in decision space")
        missing = frames - sum(0 <= frame < frames for frame in self.ground_truth)
        shown = islice((fr for fr in count() if fr not in self.ground_truth), min(missing, MISSING_SHOWN))
        errors += [f"frame {frame}: missing ground truth" for frame in shown]
        if missing > MISSING_SHOWN:
            errors.append(f"{missing - MISSING_SHOWN} more frames missing ground truth")
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


def produce_output(
    profile: FaultProfile,
    frame: int,
    observation: str,
    space: DecisionSpace,
    rng: Optional[random.Random],
):
    """One module's proposal for one frame, per its fault profile.

    Returns a label, None, or for an equivocator a pair of conflicting
    labels (partition assignment is the caller's job).  The caller signs
    what the module sends.  ``rng`` is the module's stream, or None for a
    profile that does not draw.  Slow modules produce normally; their
    delay is applied by the network.
    """
    if observation not in space:
        raise ValueError(f"observation {observation!r} not in decision space")
    if not profile.emits(frame):
        return None
    if profile.kind in ("honest", "slow", "crash"):
        return observation
    if profile.kind == "diverse_honest":
        if rng.random() < profile.error_rate:
            wrong = [l for l in space.labels if l != observation]
            if wrong:
                return space.value(rng.choice(wrong))
        return observation
    if profile.kind == "byzantine_fixed":
        return space.value(profile.bad_label)
    if profile.kind == "byzantine_random":
        return space.value(rng.choice(space.labels))
    if profile.kind == "byzantine_equivocate":
        return (space.value(profile.label_a), space.value(profile.label_b))
    raise AssertionError(profile.kind)
