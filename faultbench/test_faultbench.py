"""The benchmark's own tests.

Run from the repository root (they start real benchmark runs, about two
minutes in all)::

    python3 -m pytest faultbench/test_faultbench.py -q
"""

import json
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: Counts that must not depend on whether a campaign is traced.
EXACT = (
    "campaign.words",
    "campaign.sim_cycles",
    "core.bn_potential",
    "core.bn_executed",
    "core.bn_explicit_elim",
    "core.bn_implicit_elim",
    "result_cache.writes",
)


def _current(target):
    owner, name = target.resolve()
    return vars(owner)[name] if isinstance(owner, type) else getattr(owner, name)


def test_patched_restores_every_original_attribute():
    """Every patched attribute is the original object again, even after a raise."""
    targets = workloads.layer_targets()
    before = [_current(target) for target in targets]
    tracer = tracing.Tracer()
    with pytest.raises(RuntimeError):
        with tracing.patched(tracer, targets):
            assert all(_current(t) is not b for t, b in zip(targets, before))
            raise RuntimeError("traced code failed")
    assert all(_current(t) is b for t, b in zip(targets, before))


def test_self_time_excludes_direct_children_and_exports_chrome_trace():
    """Self time subtracts direct children; the export is Chrome Trace JSON."""
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda: sum(range(20000)))
    outer = tracer.wrap("outer", lambda: [inner() for _ in range(3)])
    outer()
    spans = {span.name: span for span in tracer.spans}
    children = sum(s.end_ns - s.start_ns for s in tracer.spans if s.name == "inner")
    total = spans["outer"].end_ns - spans["outer"].start_ns
    assert spans["outer"].self_ns == total - children
    assert tracer.totals()["inner"][1] == 3
    document = json.loads(json.dumps(tracer.chrome_trace(label="unit")))
    complete = [e for e in document["traceEvents"] if e["ph"] == "X"]
    assert len(complete) == 4
    assert all(e["dur"] >= 0 and e["ts"] >= 0 for e in complete)


def test_benchmark_json_matches_the_metric_tables():
    """BENCHMARK.json names exactly the workloads and metrics run.py reports."""
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_seeds_give_different_inputs(workload):
    """The same seed rebuilds the same inputs; another seed builds others."""
    first, second = workloads.make_inputs(workload, 1), workloads.make_inputs(workload, 2)
    again = workloads.make_inputs(workload, 1)

    def shape(inputs):
        stimulus = inputs.stimulus
        vectors = [sorted(stimulus.vector(c).items()) for c in range(stimulus.num_cycles())]
        return vectors, [f.name for f in inputs.faults], inputs.cached

    assert shape(first) == shape(again)
    assert shape(first) != shape(second)


def test_cache_seeder_refuses_a_template_it_could_not_write(tmp_path, monkeypatch):
    """A failed template write stops the run instead of timing a cold cache."""
    inputs = workloads.make_inputs("hash_mp_delta", 1)
    monkeypatch.setattr(workloads.ResultCache, "store", lambda self, *args, **kwargs: False)
    with pytest.raises(OSError):
        workloads.CacheSeeder(inputs, {}, str(tmp_path))


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_and_untraced_runs_count_the_same_work(workload):
    """Tracing changes no verdict and no exact work count on the same seed."""
    plain = run.run(workload, seed=3, seconds=0, trace=False, samples=1)
    traced = run.run(workload, seed=3, seconds=0, trace=True, samples=1)
    for outcome in (plain, traced):
        assert outcome["correct"] and outcome["failed"] == 0
        assert outcome["attempted"] > 0
    counts = [{k: c[k] for k in EXACT} for c in plain["exact"] + traced["exact"]]
    assert all(c == counts[0] for c in counts)
    assert traced["metrics"]["campaign.sim_cycles"]["value"] == counts[0]["campaign.sim_cycles"]
    assert set(plain["metrics"]) == {name for name, _, _ in run.END_TO_END}
    assert set(traced["metrics"]) == {name for name, _, _ in run.PER_LAYER}
    assert all(m["value"] > 0 for m in plain["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_another_seed_still_matches_the_reference(workload):
    """A second seed's inputs still match the reference fault by fault."""
    outcome = run.run(workload, seed=4, seconds=0, trace=False, samples=1)
    assert outcome["correct"] and outcome["failed"] == 0
    provenance = outcome["provenance"]
    simulated = provenance["faults"] - provenance["cached_faults"]
    assert outcome["attempted"] == len(outcome["samples"]["campaign_s"]) * simulated


def test_run_refuses_without_the_program_source(tmp_path, monkeypatch):
    """Without ``src/repro`` a run fails before producing any result."""
    monkeypatch.setattr(run, "ROOT", tmp_path)
    with pytest.raises(run.BenchError):
        run.run("hash_full", seed=1, seconds=0, trace=False, samples=1)


def test_times_are_rescaled_to_the_reference_host_speed():
    """A sample timed while the host ran at half the reference speed counts half."""
    slow = {"wall_s": 2.0, "loop_s": 2 * run.REFERENCE_LOOP_S}
    assert run.reference_s(slow, "wall_s") == pytest.approx(1.0)
    assert run.reference_s({"setup_s": 0.3, "loop_s": run.REFERENCE_LOOP_S}, "setup_s") == 0.3
