"""Cross-frame health monitor: flags persistent deviants, isolates them, and
schedules restart plus state transfer."""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from .core import QuorumConfig


@dataclass(frozen=True)
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
class Supervisor:
    """Drives the flag -> isolate -> restart -> recover cycle, and is the only
    record of each module's status: a module is active unless it is in
    ``isolated`` or ``restarting``.

    Each active module's last ``window`` judged frames are kept as agreed
    flags; a module is judged only once its window is full.  Quorum
    thresholds stay pinned to the configured f while modules are isolated;
    isolation is an availability action, not a threat-model change.
    """

    quorum_cfg: QuorumConfig
    cfg: SupervisorConfig = field(default_factory=SupervisorConfig)
    isolated: dict[int, int] = field(default_factory=dict)  # module -> frame isolated at
    restarting: set[int] = field(default_factory=set)
    flagged: set[int] = field(default_factory=set)
    events: list[tuple[int, int, str]] = field(default_factory=list)  # (frame, module, event)
    agreement: dict[int, list[int]] = field(init=False)  # module -> [agreed, judged]
    windows: dict[int, deque] = field(init=False)  # module -> agreed flags, oldest first

    def __post_init__(self) -> None:
        n = self.quorum_cfg.n
        self.agreement = {m: [0, 0] for m in range(n)}
        self.windows = {m: deque(maxlen=self.cfg.window) for m in range(n)}

    @property
    def live_count(self) -> int:
        return self.quorum_cfg.n - len(self.isolated) - len(self.restarting)

    def active(self, module_id: int) -> bool:
        return module_id not in self.isolated and module_id not in self.restarting

    def record_round(self, frame: int, committed: str, outputs) -> None:
        """Judge one committed frame by each module's output alone: an active
        module agreed if it output the committed value, so no output and an
        equivocator's pair never agree.  A module we took offline ourselves
        is not deviating by being absent: its window starts over instead."""
        for m, window in self.windows.items():
            if not self.active(m):
                window.clear()
                continue
            agreed = outputs.get(m) == committed
            window.append(agreed)
            self.agreement[m][0] += agreed
            self.agreement[m][1] += 1

    def agreement_rates(self) -> dict[int, float]:
        """Share of judged frames each module agreed on (1.0 if none was judged)."""
        return {m: agreed / judged if judged else 1.0 for m, (agreed, judged) in self.agreement.items()}

    def review(self, frame: int) -> list[int]:
        """Flag each active module whose full window deviates at least
        ``flag_threshold`` of the time, and isolate those the availability
        budget allows."""
        window, threshold = self.cfg.window, self.cfg.flag_threshold
        newly_isolated = []
        # a module that is not active has an empty window, so is never judged
        for m, flags in self.windows.items():
            if len(flags) < window or flags.count(False) / window < threshold:
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
        self.windows[module_id].clear()
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
