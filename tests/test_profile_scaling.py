"""``benchmarks/profile_scaling.py --compare``: a fair table, not a fast one.

The lazy ÷ vector ratio this table prints is what ROADMAP 1(c) is decided on,
so the test pins the two things that biased it: no timed run may build
scenario ingredients another gets from the process memo, and no engine may
always go first.  Nothing here asserts on seconds.
"""

import importlib.util
from pathlib import Path

from repro.protocols.runner import scenario_cache_info
from repro.runtime import clear_process_caches
from repro.simnet.flows import resolve_shared_engine
from repro.simnet.vector_sched import vector_available

SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "profile_scaling.py"


def _load():
    spec = importlib.util.spec_from_file_location("profile_scaling", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _built():
    return sum(layer["misses"] for layer in scenario_cache_info().values())


def test_compare_times_every_engine_on_a_warm_scenario_in_alternating_order(capsys, monkeypatch):
    profile_scaling = _load()
    clear_process_caches()
    timed = []
    execute_spec = profile_scaling.execute_spec

    def spying_execute_spec(spec):
        timed.append((resolve_shared_engine(), _built()))
        return execute_spec(spec)

    monkeypatch.setattr(profile_scaling, "execute_spec", spying_execute_spec)
    walls = profile_scaling.compare_engines(authorities=5, relay_count=30, repeats=3)

    assert [engine for engine, _built_so_far in timed] == [
        "lazy", "vector", "vector", "lazy", "lazy", "vector",
    ]
    # Everything was built before the first timed run, and nothing since.
    assert {built for _engine, built in timed} == {_built()}
    assert {engine: len(times) for engine, times in walls.items()} == {"lazy": 3, "vector": 3}

    header, _rule, lazy, vector = capsys.readouterr().out.splitlines()[1:]
    assert "median (s)" in header and "min-max (s)" in header
    assert header.split()[-2:] == ["passes/msg", "rated/msg"]
    passes, rated = map(float, lazy.split()[-2:])  # per message, both counted
    assert lazy.split()[0] == "lazy" and passes > 0 and rated > 0
    assert vector.split()[0] == "vector"
    if vector_available():
        assert vector.split()[-2:] == ["-", "-"]  # the vector engine does not count them
    else:
        assert "lazy (fallback)" in vector
