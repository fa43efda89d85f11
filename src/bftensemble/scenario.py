"""Scenario files: a plain structured-text grammar plus full validation.

Grammar (line-oriented, ``#`` comments):

    name = av_plastic_bag         # top-level key = value pairs
    ...
    [decision_space]              # nested sections
    labels = continue brake
    safe_default = brake
    [modules]
    0 = honest confidence=0.9     # id = profile [key=value ...]
    [network]
    base_delay = 1
    partition = 5:10 0,1|2,3      # repeatable
    [observations]
    0 | continue  | 2:brake       # frame | ground_truth[!] | module:label ...
    1 | continue! |               # '!' marks the frame action-critical

Parsing reports every validation error, not just the first.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional

from .core import DecisionSpace, QuorumConfig, min_replicas
from .harness import FaultProfile, ObservationTable
from .simnet import NetworkPolicy, Partition
from .supervisor import SupervisorConfig
from .voter import VoteStrategy

CONSENSUS_MODES = ("pbft", "vote-only")


class ScenarioError(ValueError):
    def __init__(self, errors: list[str]):
        self.errors = errors
        super().__init__("; ".join(errors))


@dataclass(frozen=True)
class Scenario:
    name: str
    quorum: QuorumConfig
    decision_space: DecisionSpace
    modules: tuple[FaultProfile, ...]
    observations: ObservationTable
    strategy: VoteStrategy
    consensus_mode: str
    network: NetworkPolicy
    timeout_rounds: int
    frames: int
    seed: int
    execution_threshold: Optional[int] = None
    expects_violation: bool = False
    n_override: bool = False
    checkpoint_interval: int = 5
    evidence_fast_path: bool = True
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)
    supervise: bool = True

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed, network=replace(self.network, seed=seed))


def _parse_kv(text: str) -> tuple[str, str]:
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


_PROFILE_KEYS = {
    "error_rate": float,
    "perturb_seed": int,
    "at_frame": int,
    "delay": int,
    "label": str,
    "seed": int,
    "a": str,
    "b": str,
    "confidence": float,
    "on_restart": str,
}


def _parse_profile(text: str, errors: list[str], where: str) -> Optional[FaultProfile]:
    parts = text.split()
    if not parts:
        errors.append(f"{where}: empty module profile")
        return None
    kind = parts[0]
    kwargs = {}
    for item in parts[1:]:
        key, value = _parse_kv(item)
        conv = _PROFILE_KEYS.get(key)
        if conv is None:
            errors.append(f"{where}: unknown profile option {key!r}")
            continue
        try:
            kwargs[key] = conv(value)
        except ValueError:
            errors.append(f"{where}: bad value {value!r} for {key}")
    rename = {
        "delay": "delay_rounds",
        "label": "bad_label",
        "a": "label_a",
        "b": "label_b",
        "confidence": "base_confidence",
    }
    kwargs = {rename.get(k, k): v for k, v in kwargs.items()}
    try:
        return FaultProfile(kind=kind, **kwargs)
    except (ValueError, TypeError) as exc:
        errors.append(f"{where}: {exc}")
        return None


def _parse_partition(text: str, errors: list[str], where: str) -> Optional[Partition]:
    try:
        interval, sides = text.split(None, 1)
        start, end = (int(x) for x in interval.split(":"))
        raw_a, raw_b = sides.split("|")
        side_a = frozenset(int(x) for x in raw_a.split(",") if x.strip())
        side_b = frozenset(int(x) for x in raw_b.split(",") if x.strip())
    except ValueError:
        errors.append(f"{where}: bad partition spec {text!r} (want 'start:end a,b|c,d')")
        return None
    if side_a & side_b:
        errors.append(f"{where}: partition sides overlap: {sorted(side_a & side_b)}")
        return None
    return Partition(start=start, end=end, side_a=side_a, side_b=side_b)


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    errors: list[str] = []
    top: dict[str, str] = {}
    sections: dict[str, list[tuple[int, str]]] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            sections.setdefault(section, [])
            continue
        if section is None:
            key, value = _parse_kv(line)
            if not value and "=" not in line:
                errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
                continue
            top[key] = value
        else:
            sections[section].append((lineno, line))

    def top_get(key, conv, default=None, required=False):
        raw = top.get(key)
        if raw is None:
            if required:
                errors.append(f"missing required key {key!r}")
            return default
        try:
            if conv is bool:
                return raw.lower() in ("1", "true", "yes", "on")
            return conv(raw)
        except ValueError:
            errors.append(f"bad value {raw!r} for key {key!r}")
            return default

    name = top_get("name", str, default=Path(source).stem)
    n = top_get("n", int, required=True)
    f = top_get("f", int, required=True)
    frames = top_get("frames", int, required=True)
    seed = top_get("seed", int, default=0)
    consensus_mode = top_get("consensus_mode", str, default="pbft")
    timeout_rounds = top_get("timeout_rounds", int, default=10)
    execution_threshold = top_get("execution_threshold", int)
    expects_violation = top_get("expects_violation", bool, default=False)
    n_override = top_get("n_override", bool, default=False)
    checkpoint_interval = top_get("checkpoint_interval", int, default=5)
    evidence_fast_path = top_get("evidence_fast_path", bool, default=True)
    supervise = top_get("supervise", bool, default=True)

    strategy = None
    try:
        strategy = VoteStrategy.parse(top.get("strategy", "majority"))
    except ValueError as exc:
        errors.append(str(exc))

    if consensus_mode not in CONSENSUS_MODES:
        errors.append(f"consensus_mode must be one of {CONSENSUS_MODES}, got {consensus_mode!r}")

    # decision space
    space = None
    ds = dict(_parse_kv(line) for _, line in sections.get("decision_space", []))
    labels = tuple(ds.get("labels", "").split())
    safe_default = ds.get("safe_default", labels[0] if labels else "")
    try:
        space = DecisionSpace(labels=labels, safe_default=safe_default)
    except ValueError as exc:
        errors.append(f"[decision_space]: {exc}")

    # modules
    profiles: dict[int, FaultProfile] = {}
    for lineno, line in sections.get("modules", []):
        key, value = _parse_kv(line)
        try:
            module_id = int(key)
        except ValueError:
            errors.append(f"line {lineno}: module id must be an integer, got {key!r}")
            continue
        profile = _parse_profile(value, errors, f"line {lineno}")
        if profile is not None:
            if module_id in profiles:
                errors.append(f"line {lineno}: duplicate module id {module_id}")
            profiles[module_id] = profile

    # network
    net = {"base_delay": 1, "jitter": 0, "drop_rate": 0.0}
    partitions: list[Partition] = []
    for lineno, line in sections.get("network", []):
        key, value = _parse_kv(line)
        if key == "partition":
            p = _parse_partition(value, errors, f"line {lineno}")
            if p is not None:
                partitions.append(p)
        elif key in ("base_delay", "jitter"):
            try:
                net[key] = int(value)
            except ValueError:
                errors.append(f"line {lineno}: bad integer {value!r}")
        elif key == "drop_rate":
            try:
                net[key] = float(value)
            except ValueError:
                errors.append(f"line {lineno}: bad float {value!r}")
        else:
            errors.append(f"line {lineno}: unknown network key {key!r}")
    network = None
    try:
        network = NetworkPolicy(
            base_delay_rounds=net["base_delay"],
            jitter_rounds=net["jitter"],
            drop_rate=net["drop_rate"],
            partitions=tuple(partitions),
            seed=seed,
        )
    except ValueError as exc:
        errors.append(f"[network]: {exc}")

    # supervisor
    sup_kwargs = {}
    for lineno, line in sections.get("supervisor", []):
        key, value = _parse_kv(line)
        try:
            if key == "window":
                sup_kwargs["window"] = int(value)
            elif key == "flag_threshold":
                sup_kwargs["flag_threshold"] = float(value)
            elif key == "restart_delay":
                sup_kwargs["restart_delay"] = int(value)
            else:
                errors.append(f"line {lineno}: unknown supervisor key {key!r}")
        except ValueError:
            errors.append(f"line {lineno}: bad value {value!r} for {key}")
    try:
        supervisor_cfg = SupervisorConfig(**sup_kwargs)
    except ValueError as exc:
        errors.append(f"[supervisor]: {exc}")
        supervisor_cfg = SupervisorConfig()

    # observations
    ground_truth: dict[int, str] = {}
    overrides: dict[tuple[int, int], str] = {}
    critical: set[int] = set()
    for lineno, line in sections.get("observations", []):
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 2:
            errors.append(f"line {lineno}: want 'frame | ground_truth[!] | overrides'")
            continue
        try:
            frame = int(parts[0])
        except ValueError:
            errors.append(f"line {lineno}: bad frame index {parts[0]!r}")
            continue
        truth = parts[1]
        if truth.endswith("!"):
            truth = truth[:-1].strip()
            critical.add(frame)
        ground_truth[frame] = truth
        if len(parts) > 2 and parts[2]:
            for item in parts[2].split():
                mid_raw, _, label = item.partition(":")
                try:
                    overrides[(frame, int(mid_raw))] = label
                except ValueError:
                    errors.append(f"line {lineno}: bad observation override {item!r}")

    observations = ObservationTable(
        ground_truth=ground_truth, overrides=overrides, critical_frames=frozenset(critical)
    )

    # cross-field validation
    if n is not None and f is not None:
        if consensus_mode == "pbft" and not n_override and n != min_replicas(f):
            errors.append(
                f"n={n} with f={f}: pbft mode requires n = 3f+1 = {min_replicas(f)} "
                "(resilience criterion; set n_override = true to run n > 3f+1)"
            )
        if consensus_mode == "pbft" and n < min_replicas(f):
            errors.append(f"n={n} cannot tolerate f={f} Byzantine faults under pbft")
        if profiles and (set(profiles) != set(range(n))):
            errors.append(
                f"[modules] must define exactly ids 0..{n - 1}, got {sorted(profiles)}"
            )
        elif not profiles:
            errors.append("missing [modules] section")

    if space is not None:
        for module_id, profile in sorted(profiles.items()):
            for err in profile.check_labels(space):
                errors.append(f"module {module_id}: {err}")
        if frames is not None and n is not None:
            errors.extend(observations.validate(space, frames, n))

    if execution_threshold is not None and f is not None and execution_threshold < 2 * f + 1:
        errors.append(f"execution_threshold {execution_threshold} below quorum {2 * f + 1}")

    faulty = sum(
        1
        for p in profiles.values()
        if p.kind in FaultProfile.BYZANTINE_KINDS + ("crash", "silent")
    )
    if f is not None and faulty > f and not expects_violation:
        errors.append(
            f"{faulty} Byzantine-class profiles exceed f={f}; "
            "declare expects_violation = true to run outside the fault model"
        )

    if errors:
        raise ScenarioError(errors)

    quorum = QuorumConfig(n=n, f=f, enforce_resilience=(consensus_mode == "pbft"))
    return Scenario(
        name=name,
        quorum=quorum,
        decision_space=space,
        modules=tuple(profiles[m] for m in range(n)),
        observations=observations,
        strategy=strategy,
        consensus_mode=consensus_mode,
        network=network,
        timeout_rounds=timeout_rounds,
        frames=frames,
        seed=seed,
        execution_threshold=execution_threshold,
        expects_violation=expects_violation,
        n_override=n_override,
        checkpoint_interval=checkpoint_interval,
        evidence_fast_path=evidence_fast_path,
        supervisor=supervisor_cfg,
        supervise=supervise,
    )


def parse_scenario(path) -> Scenario:
    return parse_scenario_text(Path(path).read_text(), source=str(path))


def bundled_scenario_path(name: str) -> Path:
    path = Path(__file__).parent / "scenarios" / f"{name}.scn"
    if not path.exists():
        available = sorted(p.stem for p in path.parent.glob("*.scn"))
        raise FileNotFoundError(f"no bundled scenario {name!r}; available: {available}")
    return path


def load_bundled(name: str) -> Scenario:
    return parse_scenario(bundled_scenario_path(name))


def scenario_to_text(s: Scenario) -> str:
    """Serialize a scenario back to the file grammar (round-trip tested)."""
    lines = [
        f"name = {s.name}",
        f"n = {s.quorum.n}",
        f"f = {s.quorum.f}",
        f"frames = {s.frames}",
        f"seed = {s.seed}",
        f"consensus_mode = {s.consensus_mode}",
        f"strategy = {s.strategy.describe()}",
        f"timeout_rounds = {s.timeout_rounds}",
        f"checkpoint_interval = {s.checkpoint_interval}",
        f"evidence_fast_path = {str(s.evidence_fast_path).lower()}",
        f"supervise = {str(s.supervise).lower()}",
    ]
    if s.execution_threshold is not None:
        lines.append(f"execution_threshold = {s.execution_threshold}")
    if s.expects_violation:
        lines.append("expects_violation = true")
    if s.n_override:
        lines.append("n_override = true")
    lines += [
        "",
        "[decision_space]",
        f"labels = {' '.join(s.decision_space.labels)}",
        f"safe_default = {s.decision_space.safe_default}",
        "",
        "[modules]",
    ]
    for module_id, p in enumerate(s.modules):
        opts = []
        if p.kind == "diverse_honest":
            opts += [f"error_rate={p.error_rate}", f"perturb_seed={p.perturb_seed}"]
        if p.kind == "crash":
            opts.append(f"at_frame={p.at_frame}")
        if p.kind == "slow":
            opts.append(f"delay={p.delay_rounds}")
        if p.kind == "byzantine_fixed":
            opts.append(f"label={p.bad_label}")
        if p.kind == "byzantine_random":
            opts.append(f"seed={p.seed}")
        if p.kind == "byzantine_equivocate":
            opts += [f"a={p.label_a}", f"b={p.label_b}"]
        if p.base_confidence is not None:
            opts.append(f"confidence={p.base_confidence}")
        if p.on_restart != "same":
            opts.append(f"on_restart={p.on_restart}")
        lines.append(f"{module_id} = {' '.join([p.kind] + opts)}")
    lines += [
        "",
        "[network]",
        f"base_delay = {s.network.base_delay_rounds}",
        f"jitter = {s.network.jitter_rounds}",
        f"drop_rate = {s.network.drop_rate}",
    ]
    for p in s.network.partitions:
        side_a = ",".join(str(x) for x in sorted(p.side_a))
        side_b = ",".join(str(x) for x in sorted(p.side_b))
        lines.append(f"partition = {p.start}:{p.end} {side_a}|{side_b}")
    lines += [
        "",
        "[supervisor]",
        f"window = {s.supervisor.window}",
        f"flag_threshold = {s.supervisor.flag_threshold}",
        f"restart_delay = {s.supervisor.restart_delay}",
        "",
        "[observations]",
    ]
    for frame in range(s.frames):
        truth = s.observations.ground_truth[frame]
        if frame in s.observations.critical_frames:
            truth += "!"
        row_overrides = " ".join(
            f"{mid}:{label}"
            for (fr, mid), label in sorted(s.observations.overrides.items())
            if fr == frame
        )
        lines.append(f"{frame} | {truth} | {row_overrides}")
    return "\n".join(lines) + "\n"
