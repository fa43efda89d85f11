"""Closed-loop fuzz-campaign benchmark for bftensemble.

Run from the repository root (standard library only; the package is imported
from ``src/`` of the same checkout):

    python3 bench/run.py --workload fuzz_n7 --seed 1 --seconds 30 --trace 0

Each workload is a fixed set of fuzz episodes over one base scenario: the
leading episodes of the fuzz campaign at seed 2026, the campaign the
acceptance tests run, drawn exactly as ``campaign.fuzz_campaign`` draws them.
One caller runs them one at a time: one process, no threads, the next episode
starts when the previous one returns.  ``--seed`` shuffles the order of each
pass over the set.

``--trace 0`` runs passes over the set for ``--seconds`` and prints the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes and
prints the per-layer metrics.  Human-readable lines come first; the last line
of stdout is one JSON object.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import inspect
import itertools
import json
import math
import os
import platform
import random
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from tracer import TRACED_NAMES, Tracer

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
PACKAGE = "bftensemble"
MODULES = (
    "core", "messages", "simnet", "consensus", "voter", "harness",
    "supervisor", "scenario", "episode", "campaign",
)

CAMPAIGN_SEED = 2026     # the seed of the acceptance tests' fuzz campaigns
# setup_s is the median of set-ups in fresh processes spread over the whole
# run, so that they see the same machine phases as the episodes do
SETUP_INTERVAL_S = 1.0
MIN_PASSES = 2
# The timing metrics are scaled to a machine on which reference() takes
# REFERENCE_S.  The speed of a shared host changes by up to 2x from one
# second to the next, and reference() timed between episodes tracks it.
REFERENCE_S = 0.0015
REFERENCE_WINDOW = 9     # reference times in each rolling median
FIDELITY_EPISODES = 5    # compared against fuzz_campaign


@dataclass(frozen=True)
class Workload:
    base: str       # bundled scenario name, or a .scn path relative to BENCH_DIR
    episodes: int   # size of the set; two passes put 10 or more runs beyond episode_ms_p95
    skip_kind: str = ""  # draws that give a module this fault kind are left out


# Fixed sets, not open-ended campaigns at --seed, so that no episode fails:
# fuzz_n7's rare liveness failures lie outside the start of the acceptance
# tests' campaign, and on fuzz_long_n4 every episode that draws a silent module
# raises, so those draws are left out and counted in a note.  Both are known
# defects (see README.md).
WORKLOADS = {
    "fuzz_n7": Workload("fuzz_base_n7", episodes=200),
    "fuzz_long_n4": Workload("scenarios/fuzz_long_n4.scn", episodes=100, skip_kind="silent"),
    "vote_fastpath": Workload("scenarios/vote_fastpath.scn", episodes=300),
}


@dataclass(frozen=True)
class Draw:
    index: int        # episode index in the campaign
    seed: int         # episode seed
    rng_state: tuple  # the campaign RNG's state before this episode's faults are drawn


@dataclass(frozen=True)
class Episode:
    index: int
    seed: int
    wall_s: float
    records: tuple[tuple[int, int, str], ...]  # (rounds_to_commit, view_changes, verdict)
    delivered: int
    agreement_violations: int
    liveness_failures: int
    failure: str | None  # exception type, "agreement" or "liveness"
    where: str           # file:line an exception was raised at
    isolations: int
    recoveries: int
    digest: bytes        # over decision.log and event.log, or the exception type

    @property
    def frames(self) -> int:
        return len(self.records)

    @property
    def raised(self) -> bool:
        return bool(self.where)


# --- set-up -------------------------------------------------------------------


def base_arg(workload: Workload) -> str:
    """The base as ``parse_scenario`` path or ``load_bundled`` name."""
    return str(BENCH_DIR / workload.base) if workload.base.endswith(".scn") else workload.base


def load(workload: Workload):
    """Import the package and build the base scenario: ({module name: module}, base)."""
    mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in MODULES}
    mods[PACKAGE] = sys.modules[PACKAGE]
    base = base_arg(workload)
    if base.endswith(".scn"):
        return mods, mods["scenario"].parse_scenario(base)
    return mods, mods["scenario"].load_bundled(base)


def campaign_draws(mods, base):
    """The fuzz campaign's episodes at CAMPAIGN_SEED, in order, as (draw, scenario).

    Seeds and fault draws follow ``fuzz_campaign``.  The benchmark's own
    calls use the untraced ``canonical`` and ``digest``, so a tracer installed
    later counts only the timed calls."""
    core, campaign = mods["core"], mods["campaign"]
    canonical, digest = inspect.unwrap(core.canonical), inspect.unwrap(core.digest)
    rng = random.Random(CAMPAIGN_SEED)
    for index in itertools.count():
        episode_seed = int.from_bytes(digest(canonical("fuzz", CAMPAIGN_SEED, index))[:8], "big") % 2**31
        state = rng.getstate()
        yield Draw(index, episode_seed, state), campaign.randomize_episode(base, rng, episode_seed)


def draw_set(mods, base, workload: Workload) -> tuple[list[Draw], int]:
    """The workload's episodes, in campaign order, and how many draws were left out."""
    draws: list[Draw] = []
    skipped = 0
    for draw, scenario in campaign_draws(mods, base):
        if len(draws) == workload.episodes:
            return draws, skipped
        if any(p.kind == workload.skip_kind for p in scenario.modules):
            skipped += 1
        else:
            draws.append(draw)


def setup(workload: Workload):
    """Everything done before the first timed episode: (mods, base, draws, skipped)."""
    mods, base = load(workload)
    return (mods, base, *draw_set(mods, base, workload))


# What a fresh process does before its first episode.
SETUP_CODE = """
import sys
sys.path[:0] = sys.argv[1:3]
import run
run.setup(run.WORKLOADS[sys.argv[3]])
"""


def time_setup(name: str) -> float:
    """Wall seconds for a fresh interpreter to set workload ``name`` up,
    start-up and exit included.  The package needs only the standard
    library, so the child skips site-packages (-S) and the environment (-I)."""
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-S", "-c", SETUP_CODE, str(SRC_DIR), str(BENCH_DIR), name],
        check=True,
    )
    return perf_counter() - start


# --- the closed loop ------------------------------------------------------------


def reference() -> float:
    """Wall seconds for a fixed piece of standard-library Python work of the
    kinds the package does most (tuples, dicts, string formatting, sorting,
    hashing).  It runs with the collector off, so that the package's heap
    does not change it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter()
        table: dict = {}
        for i in range(1500):
            key = ("k", i % 97, i)
            table[key] = table.get(key, 0) + i
            hash(f"{i}:{i * 7}|{key[1]}")
        ordered = sorted(table.items(), key=lambda item: (item[1], item[0][2]))
        hashlib.blake2b(repr(ordered[:100]).encode()).digest()
        return perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def rolling_median(values: list[float], window: int) -> list[float]:
    half = window // 2
    return [statistics.median(values[max(0, i - half) : i + half + 1]) for i in range(len(values))]


def visit(mods, base, draws: list[Draw]):
    """Run the given episodes in order, timing each one.

    Only ``randomize_episode`` and ``run_episode`` are timed; both are looked
    up on their modules at every call, so an installed tracer sees them."""
    campaign, episode = mods["campaign"], mods["episode"]
    bound = episode.liveness_bound(base.quorum.f, base.timeout_rounds)
    for draw in draws:
        rng = random.Random()
        rng.setstate(draw.rng_state)
        start = perf_counter()
        try:
            scenario = campaign.randomize_episode(base, rng, draw.seed)
            result = episode.run_episode(scenario)
        except Exception as exc:  # a raising episode is a failed one; it is itemised
            wall = perf_counter() - start
            frame = traceback.extract_tb(exc.__traceback__)[-1]
            name = type(exc).__name__
            yield Episode(
                draw.index, draw.seed, wall, (), 0, 0, 0, name,
                f"{Path(frame.filename).name}:{frame.lineno}", 0, 0,
                hashlib.blake2b(name.encode()).digest(),
            )
            continue
        wall = perf_counter() - start
        records = tuple((r.rounds_to_commit, r.view_changes, r.verdict) for r in result.records)
        slow = any(v == "decided" and rounds > bound for rounds, _, v in records)
        failure = None
        if result.agreement_violations:
            failure = "agreement"
        elif result.liveness_failures or slow:
            failure = "liveness"
        events = Counter(event for _, _, event in result.supervisor_events)
        yield Episode(
            draw.index, draw.seed, wall, records, len(result.event_log),
            len(result.agreement_violations), len(result.liveness_failures), failure, "",
            events["isolated"], events["recovered"],
            hashlib.blake2b(
                (result.decision_log_text + "\0" + result.event_log_text).encode()
            ).digest(),
        )


def by_index(eps) -> list[Episode]:
    return sorted(eps, key=lambda ep: ep.index)


def percentile(values, p: float):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def binned_percentile(values, p: float) -> float:
    """Percentile of integer data, interpolated within each value's bin
    [v - 0.5, v + 0.5).  Rounds to commit cluster on a few integers, so this
    moves by a fraction when the share of each integer moves."""
    counts = Counter(values)
    target = p / 100 * len(values)
    below = 0
    for value in sorted(counts):
        if below + counts[value] >= target:
            return value - 0.5 + (target - below) / counts[value]
        below += counts[value]
    raise ValueError("no values")


def protocol_figures(eps: list[Episode]) -> dict:
    """Figures that depend only on the episodes, never on speed, order or tracing."""
    rounds = [r for ep in eps for r, _, _ in ep.records]
    frames = sum(ep.frames for ep in eps)
    return {
        "rounds_p50": binned_percentile(rounds, 50),
        "rounds_p99": binned_percentile(rounds, 99),
        "msgs_per_frame": sum(ep.delivered for ep in eps) / frames,
        "failed_frac": sum(ep.failure is not None for ep in eps) / len(eps),
        "output_digest": hashlib.blake2b(b"".join(ep.digest for ep in eps)).hexdigest(),
    }


def pass_problems(base, passes: list[list[Episode]]) -> list[str]:
    """Every completed episode closes all its frames, and every pass gives
    the first pass's protocol figures."""
    problems = [
        f"episode {ep.index} (seed {ep.seed}) closed {ep.frames} of {base.frames} frames"
        for ep in passes[0]
        if not ep.raised and ep.frames != base.frames
    ]
    reference = protocol_figures(passes[0])
    for number, eps in enumerate(passes[1:], 2):
        figures = protocol_figures(eps)
        if figures != reference:
            problems.append(f"pass {number} figures {figures} differ from the first pass {reference}")
    return problems


# --- fidelity against fuzz_campaign ----------------------------------------------


def campaign_report(mods, base, seed: int, eps: list[Episode]):
    """Aggregate the loop's episodes the way ``fuzz_campaign`` does."""
    bound = mods["episode"].liveness_bound(base.quorum.f, base.timeout_rounds)
    rounds_hist: Counter = Counter()
    vc_hist: Counter = Counter()
    failures = []
    for ep in eps:
        if ep.agreement_violations:
            failures.append((ep.seed, ep.index))
        if ep.liveness_failures:
            failures.append((ep.seed, ep.index))
        for rounds, vc, verdict in ep.records:
            rounds_hist[rounds] += 1
            vc_hist[vc] += 1
            if verdict == "decided" and rounds > bound:
                failures.append((ep.seed, ep.index))
    return mods["campaign"].CampaignReport(
        base_name=base.name,
        episodes=len(eps),
        seed=seed,
        agreement_violations=sum(ep.agreement_violations for ep in eps),
        liveness_failures=sum(ep.liveness_failures for ep in eps),
        frames_total=sum(ep.frames for ep in eps),
        rounds_histogram=dict(rounds_hist),
        view_change_histogram=dict(vc_hist),
        max_view_changes=max(vc_hist, default=0),
        max_rounds=max(rounds_hist, default=0),
        failures=failures,
    )


def fidelity_problems(mods, base, draws: list[Draw], k: int = FIDELITY_EPISODES) -> list[str]:
    """The loop must reproduce fuzz_campaign's report digest over the
    campaign's first ``k`` episodes, which must all be in the set, and the
    campaign at the next seed must give another digest."""
    head = draws[:k]
    if [d.index for d in head] != list(range(k)):
        return [f"the campaign's first {k} episodes are not all in the set"]
    eps = list(visit(mods, base, head))
    ours = campaign_report(mods, base, CAMPAIGN_SEED, eps).digest_hex()
    fuzz_campaign = mods["campaign"].fuzz_campaign
    theirs = fuzz_campaign(base, episodes=k, seed=CAMPAIGN_SEED, strict=False).digest_hex()
    if ours != theirs:
        return [f"loop digest {ours} != fuzz_campaign digest {theirs}"]
    if fuzz_campaign(base, episodes=k, seed=CAMPAIGN_SEED + 1, strict=False).digest_hex() == ours:
        return [f"campaign seeds {CAMPAIGN_SEED} and {CAMPAIGN_SEED + 1} gave the same digest"]
    return []


# --- the two modes ---------------------------------------------------------------------


def measure(mods, base, draws: list[Draw], name: str, seed: int, seconds: float):
    """Untraced passes over the set for ``seconds``: end-to-end metrics.

    ``reference()`` is timed after every episode, and a set-up in a fresh
    process every SETUP_INTERVAL_S.  Each episode and set-up is scaled by the
    rolling median of the reference times around it."""
    order = random.Random(seed)
    passes: list[list[Episode]] = []
    scaled_ms: dict[int, list[float]] = {draw.index: [] for draw in draws}
    setups: list[tuple[float, float]] = []  # (raw, scaled) seconds
    all_refs: list[float] = []
    start = next_setup = perf_counter()
    while True:
        pass_start = perf_counter()
        eps, refs, setup_at = [], [], []
        for ep in visit(mods, base, order.sample(draws, len(draws))):
            eps.append(ep)
            refs.append(reference())
            if perf_counter() >= next_setup:
                setup_at.append((len(refs) - 1, time_setup(name)))
                next_setup = perf_counter() + SETUP_INTERVAL_S
        local = rolling_median(refs, REFERENCE_WINDOW)
        for ep, ref in zip(eps, local):
            scaled_ms[ep.index].append(ep.wall_s * 1e3 * REFERENCE_S / ref)
        setups += [(wall, wall * REFERENCE_S / local[at]) for at, wall in setup_at]
        all_refs += refs
        passes.append(by_index(eps))
        now = perf_counter()
        if len(passes) >= MIN_PASSES and now - start + (now - pass_start) > seconds:
            break
    figures = protocol_figures(passes[0])
    all_ms = [ms for v in scaled_ms.values() for ms in v]
    frame_ms = sum(statistics.median(v) for v in scaled_ms.values())
    metrics = {
        "frames_per_s": (sum(ep.frames for ep in passes[0]) / frame_ms * 1e3, "1/s"),
        "episode_ms_p50": (percentile(all_ms, 50), "ms"),
        "episode_ms_p95": (percentile(all_ms, 95), "ms"),
        "rounds_p50": (figures["rounds_p50"], "rounds"),
        "rounds_p99": (figures["rounds_p99"], "rounds"),
        "msgs_per_frame": (figures["msgs_per_frame"], "msgs/frame"),
        "setup_s": (statistics.median(scaled for _, scaled in setups), "s"),
    }
    raw_ms = [ep.wall_s * 1e3 for eps in passes for ep in eps]
    notes = [
        f"{len(passes)} passes of {len(draws)} episodes, {len(setups)} set-ups",
        f"unscaled: episode_ms_p95 {percentile(raw_ms, 95):.6g}, "
        f"setup_s {statistics.median(raw for raw, _ in setups):.6g}, "
        f"reference ms {statistics.median(all_refs) * 1e3:.6g} (scaled to {REFERENCE_S * 1e3:g})",
        f"failed_frac {figures['failed_frac']}",
        f"output_digest {figures['output_digest']} in every pass",
    ]
    return passes, metrics, notes, pass_problems(base, passes)


def trace_layers(mods, base, draws: list[Draw], seed: int, seconds: float):
    """Pairs of untraced and traced passes in the same order: per-layer metrics."""
    tracer = Tracer(mods)
    order = random.Random(seed)
    problems: list[str] = []
    plain_passes, traced_passes = [], []
    self_ns = {name: [] for name in TRACED_NAMES}
    counts = None
    start = perf_counter()
    while True:
        pair_start = perf_counter()
        ordered = order.sample(draws, len(draws))
        plain_passes.append(by_index(visit(mods, base, ordered)))
        tracer.reset()
        tracer.install()
        try:
            traced_passes.append(by_index(visit(mods, base, ordered)))
        finally:
            tracer.uninstall()
        pass_counts = (
            {name: rec[0] for name, rec in tracer.stats.items()}, dict(tracer.counts)
        )
        if counts is None:
            counts = pass_counts
        elif pass_counts != counts:
            problems.append("traced call counts differ between passes")
        for name, rec in tracer.stats.items():
            self_ns[name].append(rec[1])
        now = perf_counter()
        if now - start + (now - pair_start) > seconds:
            break

    passes = plain_passes + traced_passes
    problems = pass_problems(base, passes) + problems
    plain = plain_passes[0]
    untraced_s = [sum(ep.wall_s for ep in eps) for eps in plain_passes]
    traced_s = [sum(ep.wall_s for ep in eps) for eps in traced_passes]
    kinds = list(mods["messages"].KIND_NAMES.values()) + ["output"]
    metrics = layer_metrics(plain, counts, self_ns, kinds)
    metrics["trace.overhead_frac"] = (
        statistics.median(traced_s) / statistics.median(untraced_s) - 1, "ratio"
    )
    figures = protocol_figures(plain)
    metrics["failed_frac"] = (figures["failed_frac"], "ratio")
    notes = [
        f"{len(plain_passes)} untraced and {len(traced_passes)} traced passes of {len(draws)} episodes",
        f"output_digest {figures['output_digest']} in every pass",
    ]
    return passes, metrics, notes, problems


def layer_metrics(eps: list[Episode], counts, self_ns, kinds) -> dict:
    calls, extra = counts
    frames = sum(ep.frames for ep in eps)
    completed = sum(not ep.raised for ep in eps)
    metrics = {}
    for name in sorted(calls):
        metrics[f"{name}.calls_per_frame"] = (calls[name] / frames, "calls/frame")
        metrics[f"{name}.self_us_per_frame"] = (
            statistics.median(self_ns[name]) / 1e3 / frames, "us/frame"
        )

    def ratio(num, den):
        return num / den if den else 0.0

    metrics["core.canonical.bytes_per_frame"] = (extra.get("core.canonical.bytes", 0) / frames, "B/frame")
    metrics["messages.payload_per_signed"] = (
        ratio(calls["messages.payload"], extra.get("messages.sign_message", 0)), "ratio"
    )
    delivered = extra.get("simnet.delivered", 0)
    metrics["messages.verify_per_delivered"] = (ratio(calls["messages.Signed.verify"], delivered), "ratio")
    metrics["simnet.queue_scanned_per_frame"] = (extra.get("simnet.scanned", 0) / frames, "envelopes/frame")
    metrics["simnet.due_ratio"] = (ratio(delivered, extra.get("simnet.scanned", 0)), "ratio")
    metrics["simnet.dropped_per_frame"] = (extra.get("simnet.dropped", 0) / frames, "envelopes/frame")
    for kind in kinds:
        metrics[f"simnet.delivered.{kind}_per_frame"] = (
            extra.get("simnet.kind." + kind, 0) / frames, "msgs/frame"
        )
    metrics["consensus.view_changes_per_frame"] = (
        sum(vc for ep in eps for _, vc, _ in ep.records) / frames, "count/frame"
    )
    metrics["voter.fastpath_hit_ratio"] = (
        ratio(extra.get("voter.fastpath_hits", 0), calls["voter.fast_path_agree"]), "ratio"
    )
    metrics["supervisor.isolations_per_episode"] = (
        sum(ep.isolations for ep in eps) / completed, "count/episode"
    )
    metrics["supervisor.recoveries_per_episode"] = (
        sum(ep.recoveries for ep in eps) / completed, "count/episode"
    )
    return metrics


# --- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC_DIR))
    try:
        mods, base, draws, skipped = setup(workload)
    except ImportError as exc:
        print(f"cannot import {PACKAGE} from {SRC_DIR}: {exc}", file=sys.stderr)
        return 2
    origin = Path(mods["core"].__file__).resolve()
    if SRC_DIR.resolve() not in origin.parents:
        print(f"{PACKAGE} was imported from {origin}, not from {SRC_DIR}", file=sys.stderr)
        return 2

    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} nproc={cpus}"
    )
    problems = fidelity_problems(mods, base, draws)
    if args.trace:
        passes, metrics, notes, more = trace_layers(mods, base, draws, args.seed, args.seconds)
    else:
        passes, metrics, notes, more = measure(
            mods, base, draws, args.workload, args.seed, args.seconds
        )
    problems += more
    if skipped:
        notes.append(
            f"left out {skipped} of the campaign's first {len(draws) + skipped} draws: "
            f"each gives a module the fault kind {workload.skip_kind!r} (known defect, see README.md)"
        )

    for name, (value, unit) in metrics.items():
        print(f"{name:<44} {value:>14.6g} {unit}")
    for note in notes:
        print(f"# {note}")
    eps = [ep for one_pass in passes for ep in one_pass]
    for ep in eps:
        if ep.failure is not None:
            print(f"failure episode={ep.index} seed={ep.seed} {ep.failure} {ep.where}".rstrip())
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": len(eps),
        "failed": sum(ep.failure is not None for ep in eps),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
