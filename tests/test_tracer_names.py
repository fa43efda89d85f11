"""Every name the benchmark's tracer (`bench/tracer.py`) wraps resolves in the
package, so renaming a traced function or method fails here and not only in
the benchmark's own jobs."""
import importlib
import importlib.util
from dataclasses import replace
from pathlib import Path

import pytest

from bftensemble.scenario import load_bundled
from bftensemble.voter import VoteStrategy

TRACER_PATH = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"
MODULES = (
    "core", "messages", "simnet", "consensus", "voter", "harness",
    "supervisor", "scenario", "episode", "campaign",
)


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER_PATH)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


TRACER = load_tracer()


def module(name):
    return importlib.import_module(f"bftensemble.{name}")


@pytest.mark.parametrize("mod, fn", TRACER.FUNCTIONS, ids=[".".join(row) for row in TRACER.FUNCTIONS])
def test_a_traced_function_exists(mod, fn):
    assert callable(getattr(module(mod), fn))


@pytest.mark.parametrize("row", TRACER.METHODS, ids=lambda row: ".".join(row[:3]))
def test_a_traced_method_is_defined_on_its_class(row):
    mod, cls, meth = row[:3]
    # the tracer wraps only a method the class itself defines
    assert callable(vars(getattr(module(mod), cls)).get(meth))


def test_traced_episodes_reach_the_dedicated_wrappers():
    """Installed, the tracer counts a PBFT and a fast-path episode through
    the wrappers that read what the package returns; uninstalled, it leaves
    the package as it was."""
    mods = {name: module(name) for name in MODULES}
    mods["package"] = importlib.import_module("bftensemble")
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    fastpath = replace(load_bundled("av_plastic_bag"), strategy=VoteStrategy("fastpath"))
    tracer = TRACER.Tracer(mods)
    try:
        tracer.install()
        for scenario in (load_bundled("fuzz_base_n4"), fastpath):
            mods["episode"].run_episode(scenario)
    finally:
        tracer.uninstall()
    calls = {name: rec[0] for name, rec in tracer.stats.items()}
    for name in ("voter.fast_path_agree", "simnet.World.send", "consensus.Replica.handle"):
        assert calls[name] > 0, name
    assert tracer.counts["simnet.delivered"] > 0
    assert {name: dict(vars(mod)) for name, mod in mods.items()} == before
