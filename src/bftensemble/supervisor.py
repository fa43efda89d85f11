"""Cross-frame health monitor: flags persistent deviants, isolates them, and
schedules restart plus state transfer."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Optional

from .core import QuorumConfig

AGREED = "agreed"
DISAGREED = "disagreed"
ABSENT = "absent"


@dataclass
class SupervisorConfig:
    window: int = 10
    flag_threshold: float = 0.3
    restart_delay: int = 2

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError("window must be >= 1")
        if not 0.0 < self.flag_threshold <= 1.0:
            raise ValueError("flag threshold must lie in (0, 1]")
        if self.restart_delay < 0:
            raise ValueError("restart delay must be >= 0")


class IsolationBudgetError(RuntimeError):
    """Raised when honoring an isolation request would leave fewer than 2f+1
    live replicas."""


@dataclass
class DeviationLedger:
    """Per-module ring buffer of agreement flags over the last W frames."""

    cfg: SupervisorConfig
    n: int
    buffers: dict[int, deque] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for m in range(self.n):
            self.buffers.setdefault(m, deque(maxlen=self.cfg.window))

    def record_round(self, frame: int, committed: Optional[str], outputs, equivocators=()) -> list[str]:
        """Mark each module agreed/disagreed/absent against the committed value,
        and return the flags in module order.

        ``outputs`` maps module id to its value (or None for no
        output).  Proven equivocators count as disagreed regardless of value.
        """
        flags = []
        for m in range(self.n):
            value = outputs.get(m)
            if m in equivocators:
                flag = DISAGREED
            elif value is None:
                flag = ABSENT
            elif committed is not None and value == committed:
                flag = AGREED
            else:
                flag = DISAGREED
            self.buffers[m].append(flag)
            flags.append(flag)
        return flags

    def deviation_rate(self, module_id: int) -> Optional[float]:
        buf = self.buffers[module_id]
        if len(buf) < self.cfg.window:
            return None  # incomplete window: not judged yet
        bad = sum(1 for flag in buf if flag != AGREED)
        return bad / self.cfg.window

    def detect_deviants(self) -> set[int]:
        flagged = set()
        for m in range(self.n):
            rate = self.deviation_rate(m)
            if rate is not None and rate >= self.cfg.flag_threshold:
                flagged.add(m)
        return flagged

    def reset(self, module_id: int) -> None:
        self.buffers[module_id].clear()


@dataclass
class Supervisor:
    """Drives the flag -> isolate -> restart -> recover cycle, and is the only
    record of each module's status: a module is active unless it is in
    ``isolated`` or ``restarting``.

    Quorum thresholds stay pinned to the configured f while modules are
    isolated; isolation is an availability action, not a threat-model change.
    """

    quorum_cfg: QuorumConfig
    cfg: SupervisorConfig = field(default_factory=SupervisorConfig)
    ledger: DeviationLedger = None
    isolated: dict[int, int] = field(default_factory=dict)  # module -> frame isolated at
    restarting: set[int] = field(default_factory=set)
    flagged: set[int] = field(default_factory=set)
    events: list[tuple[int, int, str]] = field(default_factory=list)  # (frame, module, event)
    agreement: dict[int, list[int]] = field(init=False)  # module -> [agreed, judged]

    def __post_init__(self) -> None:
        if self.ledger is None:
            self.ledger = DeviationLedger(self.cfg, self.quorum_cfg.n)
        self.agreement = {m: [0, 0] for m in range(self.quorum_cfg.n)}

    @property
    def live_count(self) -> int:
        return self.quorum_cfg.n - len(self.isolated) - len(self.restarting)

    def active(self, module_id: int) -> bool:
        return module_id not in self.isolated and module_id not in self.restarting

    def record_round(self, frame: int, committed, outputs, equivocators=()) -> None:
        """Judge one committed frame: active modules count towards their
        agreement rate; a module we took offline ourselves is not deviating
        by being absent."""
        flags = self.ledger.record_round(frame, committed, outputs, equivocators)
        for m, flag in enumerate(flags):
            if self.active(m):
                self.agreement[m][0] += flag == AGREED
                self.agreement[m][1] += 1
            else:
                self.ledger.reset(m)

    def agreement_rates(self) -> dict[int, float]:
        """Share of judged frames each module agreed on (1.0 if none was judged)."""
        return {m: agreed / judged if judged else 1.0 for m, (agreed, judged) in self.agreement.items()}

    def review(self, frame: int) -> list[int]:
        """Flag deviants and isolate those the availability budget allows."""
        newly_isolated = []
        for m in sorted(self.ledger.detect_deviants()):
            if m in self.isolated or m in self.restarting:
                continue
            if m not in self.flagged:
                self.flagged.add(m)
                self.events.append((frame, m, "flagged"))
            try:
                self.isolate(m, frame)
            except IsolationBudgetError:
                continue
            newly_isolated.append(m)
        return newly_isolated

    def isolate(self, module_id: int, frame: int) -> None:
        if self.live_count - 1 < self.quorum_cfg.quorum:
            raise IsolationBudgetError(
                f"isolating module {module_id} would leave {self.live_count - 1} live replicas "
                f"(< quorum {self.quorum_cfg.quorum})"
            )
        self.isolated[module_id] = frame
        self.ledger.reset(module_id)
        self.events.append((frame, module_id, "isolated"))

    def due_for_restart(self, frame: int) -> list[int]:
        due = [
            m
            for m, at in sorted(self.isolated.items())
            if frame - at >= self.cfg.restart_delay
        ]
        for m in due:
            del self.isolated[m]
            self.restarting.add(m)
            self.events.append((frame, m, "restarting"))
        return due

    def recovered(self, module_id: int, frame: int) -> None:
        self.restarting.discard(module_id)
        self.flagged.discard(module_id)
        self.events.append((frame, module_id, "recovered"))
