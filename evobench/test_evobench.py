"""Tests of the benchmark itself: ladder, tracer, runner and metric names."""

from __future__ import annotations

import importlib
import json
import re
import signal
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from evobench import run

_problem = run.use_checkout_sources()
if _problem is not None:
    raise RuntimeError(_problem)

from evobench import ladder, speed, tracer  # noqa: E402
from evogrid.scenario import load_scenario  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMOKE = ladder.Workload(
    "witness-smoke", "verify", ("algebra", "spectral", "conjugation", "dynamics"),
    "built-in witness scenario; not a workload", builtin="witness",
)


@pytest.mark.parametrize(
    "name, shape", [("demo", (12, 8)), ("geometry-5x2", (32, 32)), ("dense-3x5", (125, 8)), ("compute-3x8", (512, 8))]
)
def test_ladder_reproduces_rung_shapes(name, shape):
    workload = ladder.WORKLOADS[name]
    source, override = workload.source(ladder.DEFAULT_SEED)
    if isinstance(source, dict):
        # the conjugator does not change N or the subsets; leaving it out keeps
        # the 512 x 512 Haar draw out of the test
        source = {k: v for k, v in source.items() if k != "conjugator"}
    scn = load_scenario(source, seed_override=override)
    assert (scn.rep_space.dimension, len(scn.frame.admissible())) == shape == workload.shape()


def test_default_seed_is_the_reference_ladder():
    cfg = ladder.ladder_config(5, 2)
    assert cfg["seed"] == 42
    assert cfg["conjugator"] == {"haar": {"seed": 91}}
    assert [cfg["grids"][t]["haar"]["seed"] for t in cfg["time_frame"]["times"]] == [101, 102, 103, 104, 105]
    assert cfg["time_frame"]["weights"] == {"1": "0.5", "2": "0.5", "3": "0.5", "4": "0.5", "5": "0"}
    other = ladder.ladder_config(5, 2, seed=7)
    assert other == ladder.ladder_config(5, 2, seed=7)
    assert other["seed"] != 42 and other["conjugator"] != cfg["conjugator"]
    assert len({other["grids"][t]["haar"]["seed"] for t in other["time_frame"]["times"]}) == 5


def _bindings():
    """Identity of every evogrid module global and class attribute."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "evogrid" and not mod_name.startswith("evogrid."):
            continue
        for attr, value in vars(mod).items():
            out[(mod_name, attr)] = value
            if isinstance(value, type) and value.__module__ == mod_name:
                for cattr, cvalue in vars(value).items():
                    out[(mod_name, attr, cattr)] = cvalue
    return out


def test_tracer_restores_every_original_attribute():
    for layer in tracer.LAYERS:
        importlib.import_module(f"evogrid.{layer}")
    before = _bindings()
    t = tracer.Tracer()
    t.install()
    try:
        during = _bindings()
        changed = [k for k in before if during[k] is not before[k]]
        assert ("evogrid.suites", "evolution_unitary") in changed  # rebinding via `from ... import`
        assert ("evogrid.evolution", "TimeFrame", "position") in changed
    finally:
        t.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_is_duration_minus_children():
    t = tracer.Tracer()
    spans = {
        "name": np.array([0, 0, 0]),
        "parent": np.array([-1, 0, 1]),
        "start": np.array([0.0, 1.0, 2.0]),
        "end": np.array([10.0, 5.0, 3.0]),
    }
    assert list(t.self_times(spans)) == [6.0, 3.0, 1.0]


def test_every_printed_name_is_well_formed():
    names = list(run.END_TO_END) + run.per_layer_names() + list(ladder.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name) and len(name) <= 64, name
    for name in run.per_layer_names():
        run.unit_of(name)


def test_benchmark_json_lists_what_the_runner_prints():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == [(w.name, w.why) for w in ladder.WORKLOADS.values()]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in spec["per_layer"]] == run.per_layer_names()
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])


def test_smoke_run_on_witness(tmp_path: Path, capsys):
    result = run.run_untraced(run.Runner(SMOKE, ladder.DEFAULT_SEED, tmp_path), seconds=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert "report_sha256=" in capsys.readouterr().out


def test_traced_counts_repeat_exactly(tmp_path: Path):
    first = run.run_traced(run.Runner(SMOKE, ladder.DEFAULT_SEED, tmp_path), tmp_path)
    second = run.run_traced(run.Runner(SMOKE, ladder.DEFAULT_SEED, tmp_path), tmp_path)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == run.per_layer_names()
    exact = [k for k, m in first["metrics"].items() if m["unit"] in ("count", "bytes")]
    assert "evolution.position_calls" in exact and "rng.haar_entries" in exact
    assert {k: first["metrics"][k] for k in exact} == {k: second["metrics"][k] for k in exact}
    assert first["metrics"]["dynamics.commutant_witness_calls"]["value"] > 0
    assert (tmp_path / f"trace-{SMOKE.name}-{ladder.DEFAULT_SEED}.npz").is_file()


def test_speedometer_ticks_during_a_sample_and_restores_the_timer():
    before = signal.getsignal(signal.SIGALRM)
    with speed.Speedometer() as meter:
        start = meter.clock()
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            sum(range(1000))
        end = meter.clock()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t in meter.ticks if start <= t <= end]
    assert len(inside) >= 5
    # the handler's own time is left out of the sample
    assert end - start <= 0.2 - sum(meter.times[1:]) + 0.01
    assert meter.factor(start, end) > 0
