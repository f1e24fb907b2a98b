"""Fault-campaign benchmark: one workload, one seed, every metric by name.

Run from the repository root::

    python3 faultbench/run.py --workload hash_full --seed 1 --seconds 20 --trace 0

One run makes its inputs from ``--seed``, then runs, each in a fresh
interpreter:

1. :data:`SETUP_SAMPLES` set-up samples, each against its own empty codegen
   cache (``setup_s`` is their median);
2. the reference verdicts, from an engine other than the campaign's;
3. one untimed warm-up campaign, then timed campaigns for ``--seconds``
   (``fault_cycles_per_s`` is the median), each checked fault by fault
   against the reference.  A one-process campaign runs in one process per
   CPU at once (:data:`MAX_STREAMS` at most), each pinned to its CPU, and
   the median pools their samples.  With ``--trace 1`` every timed campaign
   is followed by a traced one, and the per-layer split replaces the
   end-to-end metrics in the output.

Times are reported in seconds of a reference host.  A shared host's speed
moves by tens of percent within a minute, independently on each vCPU, and
no number of samples inside one run averages that out.  So every timed
set-up and campaign is bracketed by a short pure-Python calibration loop
on the CPUs it runs on, and its time is rescaled by
:data:`REFERENCE_LOOP_S` over the loop's time around it.  The loop runs no
program code, so a faster or slower program still moves the metrics in
full; a comment line gives the unscaled host-time figures as well.

Linux only (CPU affinity, process groups, ``ru_maxrss`` in KiB).  Comment
lines (``#``) give the machine fingerprint and what was simulated; the last
line is one JSON object with ``correct``, ``attempted`` (verdicts of
simulated faults checked), ``failed`` (verdicts or detection cycles that
differ from the reference) and ``metrics``.  Everything the run writes stays under
``faultbench/_work``; the latest traced run's Chrome trace of one campaign
(open it in Perfetto) is kept as ``faultbench/_work/traces/WORKLOAD.trace.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / "_work"

WORKLOADS = ("hash_full", "cpu_tail", "eraser_hv", "hash_mp_delta")

#: Fresh-interpreter set-up samples per run.
SETUP_SAMPLES = 11

#: Concurrent processes a one-process campaign workload runs in, one per CPU.
MAX_STREAMS = 2

#: The calibration loop's median time on the reference host, the 2-vCPU
#: Xeon VM (2.1 GHz) the bounds were set on.  Timed set-ups and campaigns
#: are reported in that host's seconds: each is rescaled by this over the
#: loop's time around it (see ``child._loop_s``).
REFERENCE_LOOP_S = 0.025

#: A run must finish within this many seconds; children share the budget.
RUN_BUDGET_S = 170.0

#: ``(name, unit, better)`` of every metric; BENCHMARK.json lists the same.
END_TO_END = (
    ("fault_cycles_per_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)
PER_LAYER = (
    ("setup.import_pct", "%", "lower"),
    ("hdl.compile_pct", "%", "lower"),
    ("fault.generate_pct", "%", "lower"),
    ("setup.codegen.load_pct", "%", "lower"),
    ("setup.engine.init_pct", "%", "lower"),
    ("codegen.load_pct", "%", "lower"),
    ("codegen.load.calls", "count", "lower"),
    ("codegen.hit_ratio", "ratio", "higher"),
    ("engine.init_pct", "%", "lower"),
    ("engine.init.calls", "count", "lower"),
    ("engine.settle_pct", "%", "lower"),
    ("engine.settle.calls", "count", "lower"),
    ("engine.compact_pct", "%", "lower"),
    ("engine.compact.calls", "count", "lower"),
    ("fault.observe_pct", "%", "lower"),
    ("fault.observe.calls", "count", "lower"),
    ("campaign.simulate_pct", "%", "lower"),
    ("campaign.words", "count", "lower"),
    ("campaign.sim_cycles", "count", "lower"),
    ("parallel.run_pct", "%", "lower"),
    ("parallel.supervise_pct", "%", "lower"),
    ("parallel.chunks", "count", "lower"),
    ("parallel.chunks_skipped", "count", "higher"),
    ("verdict_plane_pct", "%", "lower"),
    ("verdict_plane.calls", "count", "lower"),
    ("result_cache.lookup_pct", "%", "lower"),
    ("result_cache.store_pct", "%", "lower"),
    ("result_cache.hit_ratio", "ratio", "higher"),
    ("result_cache.writes", "count", "lower"),
    ("core.run_pct", "%", "lower"),
    ("core.behavioral_pct", "%", "lower"),
    ("core.rtl_pct", "%", "lower"),
    ("core.redundancy_check_pct", "%", "lower"),
    ("core.redundancy_check.calls", "count", "lower"),
    ("cfg.walk_pct", "%", "lower"),
    ("core.bn_potential", "count", "lower"),
    ("core.bn_executed", "count", "lower"),
    ("core.bn_explicit_elim", "count", "higher"),
    ("core.bn_implicit_elim", "count", "higher"),
    ("core.elim_ratio", "ratio", "higher"),
    ("trace.overhead_pct", "%", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + PER_LAYER}

#: Set-up spans reported as shares of the set-up sample: ``(span, metric)``.
_SETUP_SPANS = (
    ("hdl.compile", "hdl.compile_pct"),
    ("fault.generate", "fault.generate_pct"),
    ("codegen.load", "setup.codegen.load_pct"),
    ("engine.init", "setup.engine.init_pct"),
)

#: Traced-campaign spans: ``<span>_pct`` is the median self-time share of
#: the campaign's wall time and ``<span>.calls`` the call count, where
#: PER_LAYER names them.
_CAMPAIGN_SPANS = (
    "codegen.load",
    "engine.init",
    "engine.settle",
    "engine.compact",
    "fault.observe",
    "campaign.simulate",
    "parallel.run",
    "parallel.supervise",
    "verdict_plane",
    "result_cache.lookup",
    "result_cache.store",
    "core.run",
    "core.redundancy_check",
    "cfg.walk",
)

#: Exact work counts every campaign reports (see ``workloads.exact_counts``).
_COUNTS = (
    "campaign.words",
    "campaign.sim_cycles",
    "parallel.chunks",
    "parallel.chunks_skipped",
    "result_cache.writes",
    "core.bn_potential",
    "core.bn_executed",
    "core.bn_explicit_elim",
    "core.bn_implicit_elim",
)


class BenchError(Exception):
    """A run that cannot produce a result (exit non-zero, print nothing)."""


# ------------------------------------------------------------------ children
def _reap_group(pgid: int) -> None:
    """Kill whatever is left of a child's process group and wait it out."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 5.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def run_children(jobs: Sequence[tuple], deadline: float) -> List[dict]:
    """Run ``child.py`` roles at once, each in its own session; return their outputs.

    ``jobs`` holds ``(args, env, out)`` triples; a child's standard error
    goes to ``out`` with the suffix ``.err``.  Every child is waited for and
    its process group reaped on every way out, a failed sibling's too.
    """
    processes = []
    try:
        for args, env, out in jobs:
            command = [sys.executable, str(BENCH_DIR / "child.py"), *args, str(out)]
            with open(out.with_suffix(".err"), "wb") as stderr:
                process = subprocess.Popen(
                    command,
                    cwd=ROOT,
                    env=env,
                    stdout=subprocess.DEVNULL,
                    stderr=stderr,
                    start_new_session=True,
                )
            processes.append((args[0], process, out))
        errors = []
        for role, process, out in processes:
            try:
                process.wait(timeout=max(1.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise BenchError(f"child {role} exceeded the run's time budget") from None
            if process.returncode != 0:
                stderr = out.with_suffix(".err").read_text(errors="replace")
                errors.append(f"child {role} failed:\n{stderr}")
        if errors:
            raise BenchError("\n".join(errors))
    finally:
        for _, process, _ in processes:
            if process.poll() is None:
                process.kill()
                process.wait()
            _reap_group(process.pid)
    outputs = []
    for _, _, out in jobs:
        with open(out, encoding="utf-8") as handle:
            outputs.append(json.load(handle))
    return outputs


def run_child(args: Sequence[str], env: Dict[str, str], out: Path, deadline: float) -> dict:
    """Run one ``child.py`` role in its own session; return its JSON output."""
    return run_children([(args, env, out)], deadline)[0]


def child_env(work: Path, codegen: Path) -> Dict[str, str]:
    """Environment keeping every cache and temp file under ``work``."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ)
    env.update(
        PYTHONPATH=str(ROOT / "src"),
        REPRO_CODEGEN_CACHE=str(codegen),
        REPRO_RESULT_CACHE=str(work / "result-cache-default"),
        TMPDIR=str(tmp),
    )
    env.pop("REPRO_PARALLEL_CHAOS", None)
    return env


# ------------------------------------------------------------------- metrics
def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def _span(sample: dict, span: str) -> List[float]:
    return sample.get("spans", {}).get(span, [0.0, 0])


def _share(part: float, whole: float) -> float:
    return 100.0 * part / whole


def reference_s(sample: dict, key: str) -> float:
    """``sample[key]`` in seconds of the reference host, at its speed then."""
    return sample[key] * REFERENCE_LOOP_S / sample["loop_s"]


def _median_s(samples: List[dict], key: str) -> float:
    return _median([reference_s(sample, key) for sample in samples])


def layer_metrics(setups: List[dict], campaign: dict) -> Dict[str, float]:
    """The per-layer split: shares of set-up and campaign time, exact counts.

    Layer times are self-time shares (%) of the sample they were measured
    in, so a layer's share bounds what speeding it up can save; absolute
    seconds follow from the end-to-end metrics of the same workload.
    """
    values: Dict[str, float] = {}
    values["setup.import_pct"] = _median([_share(s["import_s"], s["setup_s"]) for s in setups])
    for span, name in _SETUP_SPANS:
        values[name] = _median([_share(_span(s, span)[0], s["setup_s"]) for s in setups])
    traced = campaign["traced"]
    last = traced[-1]
    for span in _CAMPAIGN_SPANS:
        values[f"{span}_pct"] = _median([_share(_span(s, span)[0], s["wall_s"]) for s in traced])
        values[f"{span}.calls"] = _span(last, span)[1]
    loads = values["codegen.load.calls"]
    hits = last["counters"].get("codegen.load.hits", 0)
    values["codegen.hit_ratio"] = hits / loads if loads else 0.0
    for name in ("core.behavioral", "core.rtl"):
        values[f"{name}_pct"] = _median([_share(s["stats"][name], s["wall_s"]) for s in traced])
    exact = last["exact"]
    for name in _COUNTS:
        values[name] = exact[name]
    lookups = exact["result_cache.hits"] + exact["result_cache.misses"]
    values["result_cache.hit_ratio"] = exact["result_cache.hits"] / lookups if lookups else 0.0
    potential = exact["core.bn_potential"]
    eliminated = exact["core.bn_explicit_elim"] + exact["core.bn_implicit_elim"]
    values["core.elim_ratio"] = eliminated / potential if potential else 0.0
    plain_s = _median_s(campaign["plain"], "wall_s")
    traced_s = _median_s(traced, "wall_s")
    values["trace.overhead_pct"] = _share(traced_s - plain_s, plain_s)
    return {name: values[name] for name, _, _ in PER_LAYER}


def end_to_end_metrics(setups: List[dict], campaign: dict) -> Dict[str, float]:
    """Throughput (median campaign), set-up time (median sample), peak RSS.

    Times are the reference host's seconds (see :data:`REFERENCE_LOOP_S`).
    """
    work = campaign["provenance"]["faults"] * campaign["provenance"]["cycles"]
    return {
        "fault_cycles_per_s": work / _median_s(campaign["plain"], "wall_s"),
        "setup_s": _median_s(setups, "setup_s"),
        "peak_rss_mb": campaign["peak_rss_mb"],
    }


# ----------------------------------------------------------------------- run
def _children(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    samples: int,
    work: Path,
    trace_path: Path,
):
    """Run the set-up samples, the reference and the campaign; return outputs."""
    deadline = time.monotonic() + RUN_BUDGET_S
    # byte-compile the program once per checkout so set-up samples time an
    # installed package's import, not first-run compilation
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=RUN_BUDGET_S,
    )
    flag = "1" if trace else "0"
    setups = []
    for index in range(samples):
        env = child_env(work, work / f"setup-{index}" / "codegen")
        out = work / f"setup-{index}.json"
        args = ["setup", workload, str(seed), flag, str(index)]
        setups.append(run_child(args, env, out, deadline))
    reference = work / "reference.json"
    env = child_env(work, work / "reference-codegen")
    workers = run_child(["reference", workload, str(seed)], env, reference, deadline)["workers"]
    # a one-process campaign runs on every CPU at once, one pinned process
    # each (at most two), so a run samples every vCPU for all its seconds;
    # a pooled campaign runs alone and spreads over the CPUs itself
    streams = min(MAX_STREAMS, len(os.sched_getaffinity(0))) if workers == 1 else 1
    jobs = []
    for stream in range(streams):
        args = [
            "campaign",
            workload,
            str(seed),
            str(seconds),
            flag,
            str(stream if workers == 1 else -1),
            str(reference),
            str(work / f"campaign-{stream}"),
            str(trace_path) if stream == 0 else "",
        ]
        env = child_env(work, work / f"campaign-{stream}" / "codegen")
        (work / f"campaign-{stream}").mkdir()
        jobs.append((args, env, work / f"campaign-{stream}.json"))
    return setups, merge_campaigns(run_children(jobs, deadline))


def merge_campaigns(outputs: List[dict]) -> dict:
    """Pool the samples and checks of concurrent campaign processes."""
    merged = dict(outputs[0])
    for name in ("plain", "traced"):
        merged[name] = [sample for output in outputs for sample in output[name]]
    for name in ("attempted", "failed", "partial", "cache_errors"):
        merged[name] = sum(output[name] for output in outputs)
    merged["peak_rss_mb"] = max(output["peak_rss_mb"] for output in outputs)
    return merged


def run(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    samples: int = SETUP_SAMPLES,
) -> dict:
    """One benchmark run; returns the result object the CLI prints."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise BenchError(f"no program source under {ROOT / 'src'}; run from a full checkout")
    traces = WORK_DIR / "traces"
    traces.mkdir(parents=True, exist_ok=True)
    trace_path = traces / f"{workload}.trace.json"  # the latest traced run
    work = WORK_DIR / f"{workload}-{seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        setups, campaign = _children(workload, seed, seconds, trace, samples, work, trace_path)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if trace:
        metrics = layer_metrics(setups, campaign)
    else:
        metrics = end_to_end_metrics(setups, campaign)
    # every campaign of a run, traced or not, must do the same countable work
    exact = [s["exact"] for s in campaign["plain"] + campaign["traced"]]
    failed = campaign["failed"]
    work = campaign["provenance"]["faults"] * campaign["provenance"]["cycles"]
    host_time = {
        "fault_cycles_per_s": work / _median([s["wall_s"] for s in campaign["plain"]]),
        "setup_s": _median([s["setup_s"] for s in setups]),
    }
    whole = campaign["partial"] == 0 and campaign["cache_errors"] == 0
    return {
        "correct": failed == 0 and whole and exact.count(exact[0]) == len(exact),
        "attempted": campaign["attempted"],
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()},
        "provenance": campaign["provenance"],
        "samples": {
            "campaign_s": [s["wall_s"] for s in campaign["plain"]],
            "campaign_loop_s": [s["loop_s"] for s in campaign["plain"]],
            "traced_campaign_s": [s["wall_s"] for s in campaign["traced"]],
            "setup_s": [s["setup_s"] for s in setups],
            "setup_loop_s": [s["loop_s"] for s in setups],
        },
        "host_time": host_time,
        "exact": exact,
        "trace_file": str(trace_path.relative_to(ROOT)) if trace else None,
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Command-line entry point; see the module docstring."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        outcome = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as error:
        print(f"faultbench: {error}", file=sys.stderr)
        return 1
    provenance = outcome["provenance"]
    machine = ("nproc", "python", "numpy")
    print("# machine " + " ".join(f"{key}={provenance[key]}" for key in machine))
    inputs = [f"{key}={value}" for key, value in provenance.items() if key not in machine]
    print("# inputs " + " ".join(inputs))
    for name, values in outcome["samples"].items():
        if values:
            print(f"# samples {name} n={len(values)} " + " ".join(f"{v:.5f}" for v in values))
    host_time = " ".join(f"{name}={value:.5g}" for name, value in outcome["host_time"].items())
    print(f"# unscaled host time: {host_time}")
    if outcome["trace_file"]:
        print(f"# trace {outcome['trace_file']}")
    result = {key: outcome[key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
