"""The benchmark's subprocess roles, one fresh interpreter each.

::

    python3 child.py setup     WORKLOAD SEED TRACE INDEX OUT
    python3 child.py reference WORKLOAD SEED OUT
    python3 child.py campaign  WORKLOAD SEED SECONDS TRACE CPU REFERENCE WORKDIR TRACEFILE OUT

``setup`` times what a user pays per invocation after editing the design:
``import repro``, the HDL front end, the fault list and the first kernel,
against the empty codegen cache its parent points ``REPRO_CODEGEN_CACHE``
at.  ``reference`` computes the reference verdicts and says how many
processes the workload's campaign runs.  ``campaign`` runs one untimed
warm-up campaign, then timed campaigns for ``SECONDS``, checking each one's
verdicts against the reference (and, on a result-cache workload, that
exactly the seeded half came from the cache, unchanged), and reports its
own peak RSS.  A ``CPU`` of 0 or more pins it to that entry of the sorted
CPU affinity list (-1: no pinning); an empty ``TRACEFILE`` writes no trace.
Every timed set-up and campaign is bracketed by a calibration loop on the
CPUs it runs on (``loop_s``, the mean of the two), which the parent uses to
rescale its time to the reference host's speed.
Each role writes one JSON document to ``OUT``.  The module body only
defines functions: spawned pool workers re-import it as ``__mp_main__``.
"""

import gc
import json
import os
import resource
import sys
import time

#: Iterations of the host-speed calibration loop (about 30 ms).
CALIBRATION_LOOPS = 300_000


def _write(path, document):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)


def _pin(index):
    """Run on the ``index``-th CPU of the affinity list, round robin.

    Each vCPU of a shared host slows down on its own, so successive set-up
    samples alternate CPUs and one-process campaigns run on every CPU at
    once: a run's median then sees every one of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpus[index % len(cpus)]})


def _time_loop():
    start = time.perf_counter()
    total = 0
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
    return time.perf_counter() - start


def _loop_s(cpus=()):
    """Time a fixed pure-Python loop, averaged over ``cpus`` (none: where it runs).

    The loop runs no program code, so its time follows only the host's
    speed, which a shared host moves by tens of percent within a minute.
    """
    if not cpus:
        return _time_loop()
    times = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times.append(_time_loop())
    os.sched_setaffinity(0, set(cpus))
    return sum(times) / len(times)


def setup_role(workload, seed, trace, index, out):
    """Time one invocation's set-up, from ``import repro`` to the first kernel."""
    _pin(index)
    before = _loop_s()
    start = time.perf_counter()
    import repro  # noqa: F401  (timed: the import is part of set-up)

    imported = time.perf_counter()
    import tracing
    import workloads

    tracer = tracing.Tracer()
    targets = workloads.layer_targets() if trace else ()
    with tracing.patched(tracer, targets):
        inputs = workloads.make_inputs(workload, seed)
        workloads.build_first_kernel(inputs)
    end = time.perf_counter()
    document = {
        "setup_s": end - start,
        "loop_s": (before + _loop_s()) / 2,
        "import_s": imported - start,
        "spans": tracer.totals(),
        "counters": tracer.counters,
    }
    _write(out, document)


def reference_role(workload, seed, out):
    """Write the reference engine's verdicts and the campaign's process count."""
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    document = {
        "detections": workloads.reference_detections(inputs),
        "workers": workloads.WORKLOADS[workload].workers,
    }
    _write(out, document)


def _mismatches(detections, reference, names):
    """Faults whose verdict or detection cycle differs from the reference."""
    return sum(1 for name in names if detections.get(name) != reference.get(name))


def campaign_role(workload, seed, seconds, trace, cpu, reference_path, workdir, trace_path, out):
    """Warm up, then run checked campaigns for ``seconds``; write their samples."""
    if cpu >= 0:
        _pin(cpu)
    import tracing
    import workloads

    inputs = workloads.make_inputs(workload, seed)
    with open(reference_path, encoding="utf-8") as handle:
        reference = json.load(handle)["detections"]
    # the cached half is the reference's own verdicts: it checks the cache
    # round trip, not a simulation, so only the simulated delta is attempted
    cached = set(inputs.cached)
    delta = [fault.name for fault in inputs.faults if fault.name not in cached]
    seeder = workloads.CacheSeeder(inputs, reference, workdir) if cached else None
    tracer = tracing.Tracer()
    layers = workloads.layer_targets()
    checked = {"attempted": 0, "failed": 0, "partial": 0, "cache_errors": 0}
    # a pinned campaign calibrates on its CPU, a pooled one on all of them
    cpus = () if cpu >= 0 else sorted(os.sched_getaffinity(0))

    def campaign(traced):
        cache = seeder.restore() if seeder is not None else None
        tracer.reset()
        gc.collect()  # every campaign starts from the same heap, not its predecessor's garbage
        before = _loop_s(cpus)
        with tracing.patched(tracer, layers if traced else workloads.WORD_TARGETS):
            begin = time.perf_counter()
            result = workloads.run_campaign(inputs, cache)
            wall = time.perf_counter() - begin
        loop = (before + _loop_s(cpus)) / 2
        detections = result.coverage.detections
        checked["attempted"] += len(delta)
        checked["failed"] += _mismatches(detections, reference, delta)
        checked["partial"] += int(bool(result.partial))
        checked["cache_errors"] += _mismatches(detections, reference, inputs.cached)
        checked["cache_errors"] += int(result.stats.cache_hits != len(cached))
        exact = workloads.exact_counts(result)
        exact["campaign.words"] = tracer.counters.get("campaign.words", 0)
        sample = {"wall_s": wall, "loop_s": loop, "exact": exact}
        sample["stats"] = workloads.stats_times(result)
        if traced:
            sample["spans"] = tracer.totals()
            sample["counters"] = dict(tracer.counters)
        return sample

    campaign(False)  # warm-up: fills the codegen cache and the compile memo
    checked.update(attempted=0, failed=0, partial=0, cache_errors=0)
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(campaign(False))
        if trace:
            traced.append(campaign(True))
            if len(traced) == 1 and trace_path:
                _write(trace_path, tracer.chrome_trace(f"{workload} seed {seed}"))
        if time.perf_counter() >= deadline:
            break
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    _stop_resource_tracker()
    document = {
        "provenance": workloads.provenance(inputs),
        "plain": plain,
        "traced": traced,
        "peak_rss_mb": max(own, workers) / 1024.0,  # ru_maxrss is KiB on Linux
        **checked,
    }
    _write(out, document)


def _stop_resource_tracker():
    """Join multiprocessing's resource tracker, started by the verdict plane.

    It would otherwise outlive this process briefly; the benchmark waits for
    every process it starts.
    """
    if "multiprocessing.resource_tracker" not in sys.modules:
        return
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv):
    """Dispatch to the role ``argv[0]`` names (see the module docstring)."""
    role, workload, seed = argv[0], argv[1], int(argv[2])
    if role == "setup":
        setup_role(workload, seed, argv[3] == "1", int(argv[4]), argv[5])
    elif role == "reference":
        reference_role(workload, seed, argv[3])
    elif role == "campaign":
        campaign_role(workload, seed, float(argv[3]), argv[4] == "1", int(argv[5]), *argv[6:10])
    else:
        raise SystemExit(f"unknown role {role!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
