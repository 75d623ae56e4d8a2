"""Checks of the benchmark itself: seeded generation, the correctness gate,
self-time accounting and the removal of every tracing wrapper.

    python3 -m pytest -q bench/tests
"""

import json
import random
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import harness  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def tg():
    return run.package_modules()


def toggle_instance(spec="(finally p0)", program=None):
    return {
        "id": "toggle", "kind": "verify", "theory": "toggle1",
        "program": program or {"act": "set_p0"}, "spec": spec, "budget": 50, "k": 1,
    }


def small_plan(unrealizable):
    rng = random.Random(1)
    return workloads.transform_instance(rng, "plan", 4, range(1, 5), 3, unrealizable)


# --- generation ------------------------------------------------------------------------


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_instances(workload, tg, tmp_path):
    first = workloads.generate(workload, 11)
    assert json.dumps(first) == json.dumps(workloads.generate(workload, 11))
    harness.prepare(tg, first, tmp_path / "a")
    harness.prepare(tg, workloads.generate(workload, 11), tmp_path / "b")
    files = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert files == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in files:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_seed_changes_only_the_order(workload):
    def key(inst):
        return json.dumps(inst, sort_keys=True)

    one, two = workloads.generate(workload, 1), workloads.generate(workload, 2)
    assert sorted(map(key, one)) == sorted(map(key, two))
    if len(one) > 10:
        assert one != two


def test_verify_corpus_shape():
    corpus = workloads.generate("verify-corpus", 0)
    assert len(corpus) >= 100
    assert any(inst["loop"] for inst in corpus)
    assert {inst["theory"] for inst in corpus} == {"camera", "toggle1", "toggle2"}


# --- the correctness gate --------------------------------------------------------------


def test_gate_accepts_the_real_verdict(tg, tmp_path):
    (prep,) = harness.prepare(tg, [toggle_instance()], tmp_path)
    outcome = harness.decide(tg, prep)
    assert outcome.payload["verdict"] == "unsafe"
    assert harness.check(tg, prep, outcome)[0] == harness.OK


def test_gate_catches_flipped_verify_verdicts(tg, tmp_path):
    unsafe, safe = harness.prepare(
        tg, [toggle_instance(), {**toggle_instance("(finally (not p0))"), "id": "safe"}],
        tmp_path)
    flipped = harness.Outcome(0, {"verdict": "safe", "nodes": 1}, None)
    assert harness.check(tg, unsafe, flipped)[0] == harness.WRONG
    assert harness.check(tg, safe, harness.decide(tg, safe))[0] == harness.OK
    bogus = harness.Outcome(1, {"verdict": "unsafe", "counterexample": [
        {"action": "clear_p0", "t": "0"}]}, None)
    assert harness.check(tg, unsafe, bogus)[0] == harness.WRONG
    not_violating = harness.Outcome(1, {"verdict": "unsafe", "counterexample": [
        {"action": "set_p0", "t": "1"}]}, None)
    assert harness.check(tg, safe, not_violating)[0] == harness.WRONG


def test_gate_catches_flipped_transform_and_synth_verdicts(tg, tmp_path):
    realizable, planted = harness.prepare(
        tg, [small_plan(False), {**small_plan(True), "id": "planted"}], tmp_path)
    outcome = harness.decide(tg, realizable)
    assert harness.check(tg, realizable, outcome)[0] == harness.OK
    assert harness.check(tg, planted, outcome)[0] == harness.WRONG
    unrealizable = harness.Outcome(1, {"verdict": "unrealizable"}, None)
    assert harness.check(tg, realizable, unrealizable)[0] == harness.WRONG
    assert harness.check(tg, planted, unrealizable)[0] == harness.OK
    synth = harness.Prepared(workloads.synth_camera()[0], [])
    assert harness.check(tg, synth, harness.Outcome(1, {"verdict": "no-controller"}, None))[0] \
        == harness.WRONG


def test_planted_plan_is_unrealizable(tg, tmp_path):
    (prep,) = harness.prepare(tg, [small_plan(True)], tmp_path)
    assert harness.decide(tg, prep).payload["verdict"] == "unrealizable"


def test_errors_count_as_failures(tg, tmp_path):
    (prep,) = harness.prepare(tg, [toggle_instance()], tmp_path)
    status, reason = harness.check(tg, prep, harness.Outcome(None, None, "ResourceError: x"))
    assert status == harness.FAIL and reason.startswith("ResourceError")


# --- tracing ---------------------------------------------------------------------------


def test_self_time_on_a_synthetic_span_tree():
    #   root [0,10] -> a [1,4] -> b [2,3]
    #               -> c [5,9]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 5.0]
    end = [10.0, 4.0, 3.0, 9.0]
    assert tracer.self_times(parent, start, end).tolist() == [3.0, 2.0, 1.0, 4.0]


def snapshot(modules: dict) -> dict:
    state = {}
    for name, module in modules.items():
        for key, value in vars(module).items():
            state[name, key] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    state[name, key, attr] = member
    return state


def test_traced_run_restores_every_attribute(tg, tmp_path):
    modules = run.traced_modules(tg)
    before = snapshot(modules)
    prepared = harness.prepare(tg, [toggle_instance(), small_plan(False)], tmp_path)
    with tracer.Tracer(modules) as tr:
        assert tg.synthesis.time_successors is not before["synthesis", "time_successors"]
        assert tg.synthesis.time_successors is tg.temporal.time_successors
        assert tg.timed_automata.Zone.canonicalized.__wrapped__ is \
            before["timed_automata", "Zone", "canonicalized"]
        for k, prep in enumerate(prepared):
            with tr.root(k):
                harness.decide(tg, prep)
    after = snapshot(modules)
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    metrics = tr.metrics(untraced_wall_s=0.0)
    assert metrics["synthesis.build_graph.calls"] == 1
    assert metrics["timed_automata.zone_reach.calls"] == 1
    assert metrics["synthesis.nodes"] > 0 and metrics["plantrans.encoding_locations"] > 0
    assert metrics["trace.wall_s"] > 0
    assert tracer.attributed_total(metrics) == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    spans = tr.spans()
    assert set(np.unique(spans["instance"])) == {0, 1}


def test_tracer_restores_after_a_failed_install(tg):
    modules = run.traced_modules(tg)
    before = snapshot(modules)
    broken = tracer.Tracer({**modules, "golog": object()})
    with pytest.raises(Exception):
        broken.__enter__()
    after = snapshot(modules)
    assert [key for key in before if after[key] is not before[key]] == []


# --- the benchmark definition ----------------------------------------------------------


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.metric_units()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
