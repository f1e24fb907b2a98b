"""The four fault-campaign workloads: seeded inputs, timed campaign, reference.

Every workload is a (design, stimulus, fault list) triple the benchmark
builds from its ``--seed``; the program only ever sees those inputs, handed
to its public entry points (``load_benchmark``, ``generate_stuck_at_faults``,
``run_multiprocess``, ``EraserSimulator``, ``ResultCache``).  Why each
workload exists:

``hash_full``
    sha256_c2v, full 14,734-fault list, 120 cycles, the default packed
    runner on one process.  RTL-node dominated and highly active: most
    faults drop within a few dozen cycles, so per-word engine set-up, the
    codegen-cache reload every word pays and ``comb_once`` dominate.  The
    seed draws the hashed message words.
``cpu_tail``
    riscv_mini, full 4,008-fault list, 400 cycles, ``runner=("auto", {})``.
    A mostly idle CPU that leaves about 40% of its faults undetected, so
    every lane word runs the whole stimulus: the per-cycle settle and
    observation do the work and per-word set-up barely matters.  The core's
    program stimulus is fixed, so the seed draws the fault *order*; with
    hundreds of undetected faults in every word the order moves no cost.
``eraser_hv``
    sha256_hv, 300 cycles, a seeded systematic sample of :data:`ERASER_SAMPLE`
    faults (both stuck-at values of every sampled bit), the interpreted
    ERASER framework (``EraserMode.FULL``).  Behavioral-node processing is
    almost all of its time, so it exercises ``core/`` and ``cfg/`` and
    bypasses codegen, packed and parallel.
``hash_mp_delta``
    The ``hash_full`` inputs through ``run_multiprocess(workers=2,
    runner=("auto", {}), cache=...)`` with the result cache pre-seeded with
    a seeded half of the reference verdicts before every campaign.  It is
    the only workload that runs cache reads and writes, the spawn pool,
    chunking, the verdict plane, the supervisor and the merge.

Each workload's reference verdicts come from a *different* engine than the
one its campaign runs (:attr:`Shape.reference`), computed once, untimed.
"""

from __future__ import annotations

import os
import platform
import random
import shutil
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy
import repro
from repro import EraserMode, EraserSimulator, ResultCache, StuckAtFault, stimulus_hash
from repro.api import (
    EraserCodegenSimulator,
    FaultList,
    PackedCodegenEngine,
    PackedCodegenSimulator,
    VectorCodegenEngine,
    VectorFaultSimulator,
)
from repro.sim.codegen import design_fingerprint
from repro.sim.emitter import resolve_engine
from repro.sim.packed import DEFAULT_WORD_WIDTH
from repro.sim.vector import DEFAULT_VECTOR_WIDTH

from tracing import Target, Tracer

#: Faults sampled for ``eraser_hv``: about 1 s per interpreted campaign on
#: a 2-vCPU x86 container, so a run's median is taken over some twenty
#: campaigns, and the sample's cost moves by about 3% from seed to seed.
ERASER_SAMPLE = 256


@dataclass(frozen=True)
class Shape:
    """Everything that defines one workload; the seed fills in the inputs."""

    benchmark: str
    cycles: int
    runner: str  # "packed" or "auto" (run_multiprocess), or "eraser-interp"
    reference: str  # engine of the reference verdicts, never the campaign's
    workers: int = 1  # campaign processes (1: the campaign runs in-process)
    sample: int = 0  # faults sampled from the list (0: the whole list)
    shuffle: bool = False  # seeded fault order
    cache_split: bool = False  # seed the result cache with half the verdicts


#: ``auto`` resolves to packed-numpy on ``cpu_tail`` and ``hash_mp_delta``,
#: hence their packed / eraser-codegen references.
WORKLOADS: Dict[str, Shape] = {
    "hash_full": Shape("sha256_c2v", 120, "packed", "packed-numpy"),
    "cpu_tail": Shape("riscv_mini", 400, "auto", "eraser-codegen", shuffle=True),
    "eraser_hv": Shape("sha256_hv", 300, "eraser-interp", "packed", sample=ERASER_SAMPLE),
    "hash_mp_delta": Shape("sha256_c2v", 120, "auto", "packed", workers=2, cache_split=True),
}


@dataclass
class Inputs:
    """One workload's generated inputs for one seed."""

    workload: str
    seed: int
    stimulus_seed: int
    design: object
    stimulus: object
    faults: FaultList
    cached: Tuple[str, ...]  # fault names pre-seeded into the result cache


def _copy(faults) -> FaultList:
    """A fresh dense-id fault list over the same sites, in the given order."""
    return FaultList([StuckAtFault(f.signal, f.bit, f.value) for f in faults])


def make_inputs(workload: str, seed: int) -> Inputs:
    """Build ``workload``'s inputs from ``seed`` (same seed, same inputs).

    The stimulus seed depends on the design and the seed only, so
    ``hash_full`` and ``hash_mp_delta`` simulate identical inputs.
    """
    spec = WORKLOADS[workload]
    stimulus_seed = random.Random(f"{spec.benchmark}:{seed}").getrandbits(32)
    rng = random.Random(f"{workload}:{seed}")
    design, stimulus = repro.load_benchmark(spec.benchmark, cycles=spec.cycles, seed=stimulus_seed)
    faults = repro.generate_stuck_at_faults(design)
    if spec.sample:
        # systematic sample of fault sites (signal, bit) from a seeded
        # offset, both stuck-at values of each: every signal keeps its share
        # of faults and both polarities stay balanced (an even stride over
        # the fault list would pick one polarity only), so the sample's cost
        # moves far less from seed to seed than a simple random sample's
        sites = list(dict.fromkeys((fault.signal.name, fault.bit) for fault in faults))
        step = len(sites) // (spec.sample // 2)
        offset = rng.randrange(step)
        picked = set(sites[offset::step][: spec.sample // 2])
        faults = _copy(f for f in faults if (f.signal.name, f.bit) in picked)
    if spec.shuffle:
        order = list(faults)
        rng.shuffle(order)
        faults = _copy(order)
    cached: Tuple[str, ...] = ()
    if spec.cache_split:
        names = [fault.name for fault in faults]
        cached = tuple(sorted(rng.sample(names, len(names) // 2)))
    return Inputs(workload, seed, stimulus_seed, design, stimulus, faults, cached)


def campaign_engine(inputs: Inputs) -> str:
    """The engine the timed campaign's simulating code runs."""
    runner = WORKLOADS[inputs.workload].runner
    if runner != "auto":
        return runner
    simulated = len(inputs.faults) - len(inputs.cached)
    return resolve_engine(inputs.design, fault_count=simulated)


def run_campaign(inputs: Inputs, cache: Optional[str] = None):
    """Run the workload's campaign once; returns the program's FaultSimResult."""
    spec = WORKLOADS[inputs.workload]
    design, stimulus, faults = inputs.design, inputs.stimulus, inputs.faults
    if spec.runner == "eraser-interp":
        simulator = EraserSimulator(design, mode=EraserMode.FULL, engine="interp")
        return simulator.run(stimulus, faults)
    runner = ("auto", {}) if spec.runner == "auto" else None  # None: the default packed runner
    workers = spec.workers
    return repro.run_multiprocess(design, stimulus, faults, workers, runner=runner, cache=cache)


def reference_detections(inputs: Inputs) -> Dict[str, int]:
    """Verdicts of the workload's reference engine (untimed)."""
    engine = WORKLOADS[inputs.workload].reference
    design = inputs.design
    if engine == "packed-numpy":
        simulator = VectorFaultSimulator(design)
    elif engine == "eraser-codegen":
        simulator = EraserCodegenSimulator(design)
    else:
        simulator = PackedCodegenSimulator(design)
    result = simulator.run(inputs.stimulus, inputs.faults)
    return dict(result.coverage.detections)


def build_first_kernel(inputs: Inputs) -> object:
    """Build what the campaign builds first: its first lane word's kernel.

    For ``eraser_hv`` that is the interpreted simulator itself (redundancy
    checker and visibility graphs included).
    """
    engine = campaign_engine(inputs)
    faults = list(inputs.faults)
    if engine == "eraser-interp":
        return EraserSimulator(inputs.design, mode=EraserMode.FULL, engine="interp")
    if engine == "packed-numpy":
        return VectorCodegenEngine(inputs.design, faults=faults[:DEFAULT_VECTOR_WIDTH])
    word = faults[:DEFAULT_WORD_WIDTH]
    return PackedCodegenEngine(inputs.design, faults=word, lanes=len(word) + 1)


class CacheSeeder:
    """The ``hash_mp_delta`` result cache: a template restored per campaign.

    The template holds the seeded half of the reference verdicts (``None``
    for a fault the reference proves undetected); :meth:`restore` copies it
    over the live cache directory so every campaign starts from the same
    50% hit ratio instead of the previous campaign's writes.
    """

    def __init__(self, inputs: Inputs, reference: Dict[str, int], workdir: str) -> None:
        """Write the template under ``workdir`` from the reference verdicts."""
        self.template = os.path.join(workdir, "result-cache-template")
        self.live = os.path.join(workdir, "result-cache")
        verdicts = {name: reference.get(name) for name in inputs.cached}
        stimulus = inputs.stimulus
        stored = ResultCache(self.template).store(
            design_fingerprint(inputs.design),
            stimulus_hash(stimulus),
            verdicts,
            design_name=inputs.design.name,
            clock=stimulus.clock,
            cycles=stimulus.num_cycles(),
        )
        if not stored:  # the store is best-effort; a cold cache would time other work
            raise OSError(f"cannot write the result-cache template under {self.template}")

    def restore(self) -> str:
        """Reset the live cache to the template; returns its directory."""
        shutil.rmtree(self.live, ignore_errors=True)
        shutil.copytree(self.template, self.live)
        return self.live


def provenance(inputs: Inputs) -> Dict[str, object]:
    """Machine fingerprint plus what this run simulated and how."""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": inputs.workload,
        "seed": inputs.seed,
        "stimulus_seed": inputs.stimulus_seed,
        "design": inputs.design.name,
        "faults": len(inputs.faults),
        "cycles": inputs.stimulus.num_cycles(),
        "cached_faults": len(inputs.cached),
        "auto_resolves_to": resolve_engine(inputs.design, fault_count=len(inputs.faults)),
        "campaign_engine": campaign_engine(inputs),
        "reference_engine": WORKLOADS[inputs.workload].reference,
    }


def exact_counts(result) -> Dict[str, int]:
    """Work counts of one campaign that must repeat exactly on a seed."""
    stats = result.stats
    return {
        "detected": len(result.coverage.detections),
        "campaign.sim_cycles": stats.cycles,
        "core.bn_potential": stats.bn_potential_executions,
        "core.bn_executed": stats.bn_fault_executions,
        "core.bn_explicit_elim": stats.bn_explicit_eliminations,
        "core.bn_implicit_elim": stats.bn_implicit_eliminations,
        "parallel.chunks": stats.chunks_simulated,
        "parallel.chunks_skipped": stats.chunks_skipped,
        "result_cache.hits": stats.cache_hits,
        "result_cache.misses": stats.cache_misses,
        "result_cache.writes": stats.cache_writes,
    }


def stats_times(result) -> Dict[str, float]:
    """The interpreted framework's own layer timers in seconds (zero elsewhere)."""
    stats = result.stats
    return {"core.behavioral": stats.time_behavioral, "core.rtl": stats.time_rtl}


# ------------------------------------------------------------------ layers
def _count_hits(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("codegen.load.hits", int(bool(result[3])))  # type: ignore[index]


def _count_words(tracer: Tracer, args: tuple, result: object) -> None:
    tracer.count("campaign.words", args[0].passes)


#: ``(span, module, attribute)`` of every traced entry point, the span named
#: after the pipeline layer it belongs to.  ``run_multiprocess`` appears under
#: both names: the benchmark calls ``repro.run_multiprocess``, and the cached
#: path re-enters the module-level function for the delta.
_LAYERS = (
    ("hdl.compile", "repro", "load_benchmark"),
    ("fault.generate", "repro", "generate_stuck_at_faults"),
    ("codegen.load", "repro.sim.codegen", "load_kernel_variant"),
    ("engine.init", "repro.sim.packed", "PackedCodegenEngine.__init__"),
    ("engine.init", "repro.sim.vector", "VectorCodegenEngine.__init__"),
    ("engine.settle", "repro.sim.packed", "PackedCodegenEngine.settle"),
    ("engine.settle", "repro.sim.vector", "VectorCodegenEngine.settle"),
    ("engine.compact", "repro.sim.packed", "PackedCodegenEngine.compact"),
    ("engine.compact", "repro.sim.vector", "VectorCodegenEngine.compact"),
    ("fault.observe", "repro.fault.detection", "ObservationManager.observe_packed"),
    ("fault.observe", "repro.fault.detection", "ObservationManager.observe_vector"),
    ("campaign.simulate", "repro.sim.packed", "PackedCodegenSimulator.run"),
    ("campaign.simulate", "repro.sim.vector", "VectorFaultSimulator.run"),
    ("parallel.run", "repro", "run_multiprocess"),
    ("parallel.run", "repro.sim.parallel", "run_multiprocess"),
    ("parallel.supervise", "repro.sim.resilience", "ChunkSupervisor.run"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.create"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.seed"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.mark"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.is_detected"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.detected_flags"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.detected_count"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.named_detections"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.close"),
    ("verdict_plane", "repro.sim.verdict_plane", "VerdictPlane.unlink"),
    ("result_cache.lookup", "repro.sim.result_cache", "ResultCache.lookup"),
    ("result_cache.store", "repro.sim.result_cache", "ResultCache.store"),
    ("core.run", "repro.core.framework", "EraserSimulator.run"),
    ("core.redundancy_check", "repro.core.redundancy", "ImplicitRedundancyChecker.is_redundant"),
    ("cfg.walk", "repro.cfg.vdg", "VisibilityDependencyGraph.walk_is_redundant"),
)

#: Counters some spans feed from their call's arguments or result.
_HOOKS = {"codegen.load": _count_hits, "campaign.simulate": _count_words}


def layer_targets() -> List[Target]:
    """Every traced entry point, each with the counter hook its span feeds."""
    return [Target(span, module, attr, _HOOKS.get(span)) for span, module, attr in _LAYERS]


#: The per-campaign word counter: the only wrappers untraced campaigns
#: carry (one call per campaign), so ``campaign.words`` is exact in both.
WORD_TARGETS = [target for target in layer_targets() if target.span == "campaign.simulate"]
