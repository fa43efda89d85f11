"""Checks on the benchmark's own closed loop and tracer.

Run from the repository root:

    python3 -m pytest -q bench/test_bench.py
"""
import itertools
import random
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR.parent / "src"), str(BENCH_DIR)]

import run  # noqa: E402
from tracer import TRACED_NAMES, Tracer  # noqa: E402

EPISODES = {"fuzz_n7": 6, "fuzz_long_n4": 16, "vote_fastpath": 24}


def prepared(workload):
    mods, base, draws, _ = run.setup(run.WORKLOADS[workload])
    return mods, base, draws


@pytest.fixture(scope="module", params=sorted(EPISODES))
def traced_pass(request):
    """One untraced and one traced pass over the same episodes."""
    mods, base, draws = prepared(request.param)
    head = draws[: EPISODES[request.param]]
    plain = list(run.visit(mods, base, head))
    tracer = Tracer(mods)
    tracer.install()
    try:
        traced = list(run.visit(mods, base, head))
    finally:
        tracer.uninstall()
    return request.param, plain, traced, tracer


@pytest.mark.parametrize("workload", sorted(EPISODES))
def test_loop_reproduces_fuzz_campaign(workload):
    mods, base, draws = prepared(workload)
    assert run.fidelity_problems(mods, base, draws) == []


def test_fidelity_check_notices_a_different_sequence():
    mods, base, draws = prepared("fuzz_n7")
    k = run.FIDELITY_EPISODES
    eps = list(run.visit(mods, base, draws[1 : k + 1]))
    ours = run.campaign_report(mods, base, run.CAMPAIGN_SEED, eps).digest_hex()
    theirs = mods["campaign"].fuzz_campaign(base, k, run.CAMPAIGN_SEED).digest_hex()
    assert ours != theirs
    assert run.fidelity_problems(mods, base, draws[1:]) != []


@pytest.mark.parametrize("workload", sorted(EPISODES))
def test_set_leaves_out_only_the_skipped_kind(workload):
    spec = run.WORKLOADS[workload]
    mods, base, draws, skipped = run.setup(spec)
    drawn = itertools.islice(run.campaign_draws(mods, base), spec.episodes + skipped)
    kept = [d for d, scenario in drawn if spec.skip_kind not in {p.kind for p in scenario.modules}]
    assert kept == draws
    assert len(draws) == spec.episodes
    assert (skipped > 0) == bool(spec.skip_kind)


def test_skipped_draws_still_raise():
    """fuzz_long_n4 leaves out silent draws only because they raise.  When
    this test fails, the defect is fixed and ``skip_kind`` should go."""
    mods, base = run.load(run.WORKLOADS["fuzz_long_n4"])
    silent = next(
        d for d, scenario in run.campaign_draws(mods, base)
        if any(p.kind == "silent" for p in scenario.modules)
    )
    (ep,) = run.visit(mods, base, [silent])
    assert ep.failure == "AttributeError"


def test_tracing_does_not_change_behaviour(traced_pass):
    _, plain, traced, _ = traced_pass
    assert run.protocol_figures(traced) == run.protocol_figures(plain)


def test_self_times_add_up_to_the_episode_wall_time(traced_pass):
    _, _, traced, tracer = traced_pass
    self_ns = sum(rec[1] for rec in tracer.stats.values())
    wall_ns = sum(ep.wall_s for ep in traced) * 1e9
    assert self_ns == tracer.root_ns
    assert abs(self_ns - wall_ns) <= 0.03 * wall_ns


def test_predicted_bypasses(traced_pass):
    workload, _, traced, tracer = traced_pass
    calls = {name: rec[0] for name, rec in tracer.stats.items()}
    isolations = sum(ep.isolations for ep in traced)
    if workload == "vote_fastpath":
        assert calls["consensus.Replica.handle"] == 0
        assert calls["voter.fast_path_agree"] > 0
    else:
        assert calls["voter.tally"] == calls["voter.fast_path_agree"] == 0
        assert calls["consensus.Replica.handle"] > 0
    if workload == "fuzz_n7":
        assert calls["consensus.Replica.make_checkpoint"] == 0
        assert isolations == 0
    if workload == "fuzz_long_n4":
        assert calls["consensus.Replica.make_checkpoint"] > 0
        assert isolations > 0


def test_install_rebinds_every_import_and_uninstall_restores_it():
    mods, _ = run.load(run.WORKLOADS["fuzz_n7"])
    core, messages, consensus = mods["core"], mods["messages"], mods["consensus"]
    originals = {
        (id(mod), attr): value
        for mod in mods.values()
        for attr, value in vars(mod).items()
        if callable(value)
    }
    wrapped = {id(f) for f in (core.canonical, core.digest, messages.sign_message,
                                mods["voter"].tally, mods["voter"].fast_path_agree,
                                mods["harness"].produce_output)}
    tracer = Tracer(mods)
    tracer.install()
    try:
        for mod in mods.values():
            for attr, value in vars(mod).items():
                assert id(value) not in wrapped, f"{mod.__name__}.{attr} escaped the trace"
        for cls in (consensus.Replica, consensus.EquivocatingReplica):
            assert hasattr(vars(cls)["handle"], "__wrapped__")
            assert hasattr(vars(cls)["on_round"], "__wrapped__")
    finally:
        tracer.uninstall()
    for mod in mods.values():
        for attr, value in vars(mod).items():
            if callable(value):
                assert originals[(id(mod), attr)] is value
    assert not hasattr(vars(consensus.EquivocatingReplica)["handle"], "__wrapped__")


def test_trace_counts_only_the_timed_calls():
    """The loop's own work (restoring each draw's RNG) must not count as the program's."""
    mods, base, draws = prepared("vote_fastpath")
    campaign, episode = mods["campaign"], mods["episode"]
    tracer = Tracer(mods)
    tracer.install()
    try:
        list(run.visit(mods, base, draws[:3]))
        in_loop = {name: rec[0] for name, rec in tracer.stats.items()}
        tracer.reset()
        rng = random.Random()
        for draw in draws[:3]:
            rng.setstate(draw.rng_state)
            episode.run_episode(campaign.randomize_episode(base, rng, draw.seed))
        direct = {name: rec[0] for name, rec in tracer.stats.items()}
    finally:
        tracer.uninstall()
    assert in_loop == direct


def test_setup_is_timed_in_a_fresh_process():
    for name in run.WORKLOADS:
        assert 0 < run.time_setup(name) < 30


def test_canonical_is_counted_once_per_outermost_call():
    mods, _ = run.load(run.WORKLOADS["fuzz_n7"])
    tracer = Tracer(mods)
    tracer.install()
    try:
        out = mods["core"].canonical("a", ("b", ("c", 1)), [2])
    finally:
        tracer.uninstall()
    assert out == mods["core"].canonical("a", ("b", ("c", 1)), [2])
    assert tracer.stats["core.canonical"][0] == 1
    assert tracer.counts["core.canonical.bytes"] == len(out)
    assert set(tracer.stats) == set(TRACED_NAMES)
