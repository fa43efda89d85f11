"""Scenario files: a plain structured-text grammar plus full validation.

Grammar (line-oriented, ``#`` comments):

    name = av_plastic_bag         # top-level key = value pairs
    ...
    [decision_space]              # nested sections
    labels = continue brake
    safe_default = brake
    [modules]
    0 = slow delay=2              # id = profile [key=value ...]
    [network]
    base_delay = 1
    partition = 5:10 0,1|2,3      # repeatable
    [observations]
    0 | continue  | 2:brake       # frame | ground_truth[!] | module:label ...
    1 | continue! |               # '!' marks the frame action-critical

Each section's keys are in its table below; an unknown, repeated or unreadable
key, or an unknown section, is an error.  Parsing reports every error at once.
"""
from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Optional

from .core import DecisionSpace, QuorumConfig, int64, min_replicas
from .harness import FaultProfile, ObservationTable
from .simnet import NetworkPolicy, Partition
from .supervisor import SupervisorConfig
from .voter import MAJORITY, VoteStrategy

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
    network: NetworkPolicy
    frames: int
    seed: int = 0
    consensus_mode: str = "pbft"
    strategy: VoteStrategy = MAJORITY
    timeout_rounds: int = 10
    checkpoint_interval: int = 5
    supervise: bool = True
    expects_violation: bool = False
    supervisor: SupervisorConfig = field(default_factory=SupervisorConfig)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed, network=replace(self.network, seed=seed))


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError("want true or false")
    return text == "true"


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError("must be >= 1")
    return value


# Each section's file keys -> (attribute, reader), in the order the writer
# emits them.  Defaults live on the dataclass each value lands in.
TOP_KEYS = {
    "frames": ("frames", _positive),
    "seed": ("seed", int64),
    "consensus_mode": ("consensus_mode", str),
    "strategy": ("strategy", VoteStrategy.parse),
    "timeout_rounds": ("timeout_rounds", _positive),
    "checkpoint_interval": ("checkpoint_interval", _positive),
    "supervise": ("supervise", _bool),
    "expects_violation": ("expects_violation", _bool),
}
_HEAD_KEYS = {"name": ("name", str), "n": ("n", int), "f": ("f", int)}
_SPACE_KEYS = {"labels": ("labels", str.split), "safe_default": ("safe_default", str)}
NETWORK_KEYS = {
    "base_delay": ("base_delay_rounds", int),
    "jitter": ("jitter_rounds", int),
    "drop_rate": ("drop_rate", float),
}
SUPERVISOR_KEYS = {
    "window": ("window", int64),
    "flag_threshold": ("flag_threshold", float),
    "restart_delay": ("restart_delay", int),
}
_DEFAULTS = {fld.name: fld.default for fld in fields(Scenario) if fld.default is not MISSING}


def _parse_kv(text: str) -> tuple[str, str]:
    key, _, value = text.partition("=")
    return key.strip(), value.strip()


def _read_keys(lines, table: dict, errors: list[str], where: str) -> dict:
    """Read ``key = value`` lines through ``table`` into {attribute: value};
    unknown, repeated and unreadable keys are errors."""
    values, seen = {}, set()
    for lineno, line in lines:
        key, value = _parse_kv(line)
        if "=" not in line:
            errors.append(f"line {lineno}: expected 'key = value', got {line!r}")
        elif key not in table:
            errors.append(f"line {lineno}: unknown key {key!r} in {where}")
        elif key in seen:
            errors.append(f"line {lineno}: duplicate key {key!r} in {where}")
        else:
            seen.add(key)
            attr, read = table[key]
            try:
                values[attr] = read(value)
            except ValueError as exc:
                errors.append(f"line {lineno}: bad value {value!r} for {key}: {exc}")
    return values


def _write_keys(obj, table: dict) -> list[str]:
    """``key = value`` lines for each attribute in ``table``."""
    values = [(key, getattr(obj, attr)) for key, (attr, _) in table.items()]
    return [f"{key} = {str(v).lower() if isinstance(v, bool) else v}" for key, v in values]


def _parse_profile(text: str, lineno: int, errors: list[str]) -> Optional[FaultProfile]:
    kind, *items = text.split() or [""]
    if kind not in FaultProfile.KIND_OPTIONS:
        errors.append(f"line {lineno}: unknown fault profile {kind!r}")
        return None
    options = FaultProfile.options(kind)
    kwargs = _read_keys([(lineno, item) for item in items], options, errors, f"the {kind} profile")
    try:
        return FaultProfile(kind=kind, **kwargs)
    except ValueError as exc:
        errors.append(f"line {lineno}: {exc}")
        return None


def _profile_text(p: FaultProfile) -> str:
    """A profile as its kind and options: the kind's own options always, the
    common ones where they differ from the field default."""
    own = FaultProfile.KIND_OPTIONS[p.kind]
    opts = [
        f"{key}={getattr(p, attr)}"
        for key, (attr, _) in FaultProfile.options(p.kind).items()
        if key in own or getattr(p, attr) != getattr(FaultProfile, attr)
    ]
    return " ".join([p.kind] + opts)


def _parse_partition(text: str, where: str, n, errors: list[str]) -> Optional[Partition]:
    try:
        interval, sides = text.split(None, 1)
        start, end = (int(x) for x in interval.split(":"))
        raw_a, raw_b = sides.split("|")
        side_a = frozenset(int(x) for x in raw_a.split(",") if x.strip())
        side_b = frozenset(int(x) for x in raw_b.split(",") if x.strip())
    except ValueError:
        errors.append(f"{where}: bad partition spec {text!r} (want 'start:end a,b|c,d')")
        return None
    outside = n is not None and any(not 0 <= m < n for m in side_a | side_b)
    checks = (
        (side_a & side_b, f"partition sides overlap: {sorted(side_a & side_b)}"),
        (start > end, f"partition starts at round {start}, after its end {end}"),
        (outside, "partition names a module outside 0..n-1"),
    )
    problems = [why for bad, why in checks if bad]
    errors.extend(f"{where}: {why}" for why in problems)
    return None if problems else Partition(start=start, end=end, side_a=side_a, side_b=side_b)


def _split_sections(text: str, errors: list[str]) -> dict[str, list[tuple[int, str]]]:
    """Non-blank lines by section; top-level lines sit under ``""``."""
    names = ("", "decision_space", "modules", "network", "supervisor", "observations")
    sections: dict[str, list] = {name: [] for name in names}
    section = ""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in sections:
                errors.append(f"line {lineno}: unknown section [{section}]")
                sections[section] = []
            continue
        sections[section].append((lineno, line))
    return sections


def parse_scenario_text(text: str, source: str = "<string>") -> Scenario:
    errors: list[str] = []
    sections = _split_sections(text, errors)
    keys = {**_HEAD_KEYS, **TOP_KEYS}
    found = _read_keys(sections[""], keys, errors, "the top level")
    found = {"name": Path(source).stem, **_DEFAULTS, **found}
    given = {_parse_kv(line)[0] for _, line in sections[""]}
    missing = [key for key, (attr, _) in keys.items() if attr not in found and key not in given]
    errors += [f"missing required key {key!r}" for key in missing]
    top = SimpleNamespace(**{attr: found.get(attr) for attr, _ in keys.values()})
    n, f = top.n, top.f

    space = None
    ds = _read_keys(sections["decision_space"], _SPACE_KEYS, errors, "[decision_space]")
    labels = tuple(ds.get("labels", ()))
    try:
        space = DecisionSpace(labels, ds.get("safe_default", labels[0] if labels else ""))
    except ValueError as exc:
        errors.append(f"[decision_space]: {exc}")

    profiles: dict[int, FaultProfile] = {}
    for lineno, line in sections["modules"]:
        key, value = _parse_kv(line)
        try:
            module_id = int(key)
        except ValueError:
            errors.append(f"line {lineno}: module id must be an integer, got {key!r}")
            continue
        profile = _parse_profile(value, lineno, errors)
        if profile is not None:
            if module_id in profiles:
                errors.append(f"line {lineno}: duplicate module id {module_id}")
            profiles[module_id] = profile

    partitions: list[Partition] = []
    net_lines = []
    for lineno, line in sections["network"]:
        key, value = _parse_kv(line)
        if key == "partition":
            partitions.append(_parse_partition(value, f"line {lineno}", n, errors))
        else:
            net_lines.append((lineno, line))
    net = _read_keys(net_lines, NETWORK_KEYS, errors, "[network]")
    network = None
    try:
        network = NetworkPolicy(**net, partitions=tuple(p for p in partitions if p), seed=top.seed)
    except ValueError as exc:
        errors.append(f"[network]: {exc}")

    supervisor_cfg = None
    sup = _read_keys(sections["supervisor"], SUPERVISOR_KEYS, errors, "[supervisor]")
    try:
        supervisor_cfg = SupervisorConfig(**sup)
    except ValueError as exc:
        errors.append(f"[supervisor]: {exc}")

    ground_truth: dict[int, str] = {}
    overrides: dict[tuple[int, int], str] = {}
    critical: set[int] = set()
    for lineno, line in sections["observations"]:
        parts = [p.strip() for p in line.split("|")]
        if len(parts) < 2:
            errors.append(f"line {lineno}: want 'frame | ground_truth[!] | overrides'")
            continue
        try:
            frame = int(parts[0])
        except ValueError:
            errors.append(f"line {lineno}: bad frame index {parts[0]!r}")
            continue
        if frame in ground_truth:
            errors.append(f"line {lineno}: second observation row for frame {frame}")
            continue
        ground_truth[frame] = parts[1].removesuffix("!").strip()
        if parts[1].endswith("!"):
            critical.add(frame)
        for item in parts[2].split() if len(parts) > 2 else ():
            mid_raw, _, label = item.partition(":")
            try:
                overrides[(frame, int(mid_raw))] = label
            except ValueError:
                errors.append(f"line {lineno}: bad observation override {item!r}")

    observations = ObservationTable(ground_truth, overrides, frozenset(critical))

    # cross-field validation
    if top.consensus_mode not in CONSENSUS_MODES:
        errors.append(f"consensus_mode {top.consensus_mode!r} is not one of {CONSENSUS_MODES}")
    pbft = top.consensus_mode == "pbft"
    if n is not None and top.strategy.kind == "k_of_n" and top.strategy.k > n:
        errors.append(f"strategy {top.strategy} needs {top.strategy.k} votes for a value, more than n={n}")
    if pbft and top.strategy.kind != "majority":
        errors.append(f"strategy {top.strategy} is vote-only: pbft mode takes only majority (2f+1 Commits)")
    if n is not None and f is not None:
        if pbft and n != min_replicas(f):
            errors.append(f"n={n} with f={f}: pbft mode requires n = 3f+1 = {min_replicas(f)}")
        # the ids are distinct, so n of them in 0..n-1 are exactly 0..n-1
        if profiles and (len(profiles) != n or any(not 0 <= m < n for m in profiles)):
            errors.append(f"[modules] must define exactly ids 0..{n - 1}, got {sorted(profiles)}")
        elif not profiles:
            errors.append("missing [modules] section")

    if space is not None:
        for module_id, profile in sorted(profiles.items()):
            for err in profile.check_labels(space):
                errors.append(f"module {module_id}: {err}")
        if top.frames is not None and n is not None:
            errors.extend(observations.validate(space, top.frames, n))

    faulty = sum(1 for p in profiles.values() if p.faulty)
    if f is not None and faulty > f and not top.expects_violation:
        errors.append(
            f"{faulty} Byzantine-class profiles exceed f={f}; "
            "declare expects_violation = true to run outside the fault model"
        )

    if errors:
        raise ScenarioError(errors)

    return Scenario(
        **{attr: getattr(top, attr) for attr, _ in TOP_KEYS.values()},
        name=top.name,
        quorum=QuorumConfig(n=n, f=f),
        decision_space=space,
        modules=tuple(profiles[m] for m in range(n)),
        observations=observations,
        network=network,
        supervisor=supervisor_cfg,
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
    lines = [f"name = {s.name}", f"n = {s.quorum.n}", f"f = {s.quorum.f}"]
    lines += _write_keys(s, TOP_KEYS)
    lines += [
        "",
        "[decision_space]",
        f"labels = {' '.join(s.decision_space.labels)}",
        f"safe_default = {s.decision_space.safe_default}",
        "",
        "[modules]",
    ]
    lines += [f"{module_id} = {_profile_text(p)}" for module_id, p in enumerate(s.modules)]
    lines += ["", "[network]"] + _write_keys(s.network, NETWORK_KEYS)
    for p in s.network.partitions:
        side_a = ",".join(str(x) for x in sorted(p.side_a))
        side_b = ",".join(str(x) for x in sorted(p.side_b))
        lines.append(f"partition = {p.start}:{p.end} {side_a}|{side_b}")
    lines += ["", "[supervisor]"] + _write_keys(s.supervisor, SUPERVISOR_KEYS)
    lines += ["", "[observations]"]
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
