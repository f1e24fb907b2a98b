"""Central workload definitions shared by every experiment.

The paper runs full fault lists for thousands of cycles on a compiled C++
engine; a pure-Python substrate cannot do that in interactive time, so each
experiment here runs a deterministic, seeded *sample* of the fault list for a
reduced cycle count.  Two profiles are provided:

* ``QUICK_PROFILE`` — used by the pytest-benchmark suite and the examples;
  finishes in minutes on a laptop.
* ``FULL_PROFILE``  — larger fault samples and the designs' full default
  stimulus lengths; used to produce the numbers recorded in EXPERIMENTS.md.

Crucially, every simulator (Eraser and all baselines/ablations) receives the
*identical* design, stimulus and fault list, so relative comparisons are fair
regardless of the absolute scale.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, NamedTuple, Optional

from repro.designs.registry import BENCHMARK_NAMES, get_benchmark
from repro.fault.faultlist import FaultList, generate_stuck_at_faults, sample_faults
from repro.ir.design import Design
from repro.sim.stimulus import Stimulus


class WorkloadProfile(NamedTuple):
    """Per-profile scaling knobs."""

    name: str
    cycles: Dict[str, int]
    fault_samples: Dict[str, int]
    seed: int


#: Cycle counts per benchmark for the quick profile (enough for the slowest
#: design to produce observable activity at its outputs).
_QUICK_CYCLES = {
    "alu": 60,
    "fpu": 60,
    "sha256_hv": 120,
    "apb": 60,
    "sodor": 80,
    "riscv_mini": 100,
    "picorv32": 120,
    "conv_acc": 80,
    "sha256_c2v": 120,
    "mips": 80,
}

_QUICK_FAULTS = {name: 40 for name in BENCHMARK_NAMES}

_FULL_CYCLES = {
    "alu": 200,
    "fpu": 200,
    "sha256_hv": 300,
    "apb": 200,
    "sodor": 300,
    "riscv_mini": 400,
    "picorv32": 500,
    "conv_acc": 300,
    "sha256_c2v": 300,
    "mips": 300,
}

_FULL_FAULTS = {name: 120 for name in BENCHMARK_NAMES}

QUICK_PROFILE = WorkloadProfile("quick", _QUICK_CYCLES, _QUICK_FAULTS, seed=2025)
FULL_PROFILE = WorkloadProfile("full", _FULL_CYCLES, _FULL_FAULTS, seed=2025)


class ExperimentWorkload(NamedTuple):
    """One ready-to-run benchmark workload."""

    name: str
    paper_name: str
    design: Design
    stimulus: Stimulus
    faults: FaultList
    total_fault_population: int
    #: Good-machine kernel selected for this workload (``repro.api.ENGINES``
    #: name); resolved from the registry spec unless overridden.
    engine: str = "codegen"
    #: Campaign executor for :meth:`run_faults` (``repro.api.EXECUTORS``
    #: name): ``serial`` = inline in this process, ``process`` = multi-core
    #: packed words.
    executor: str = "serial"
    #: Pool bound for the process executor (``None``: cpu count).
    workers: Optional[int] = None
    #: Campaign resilience knobs (``None``: inherit the session defaults
    #: installed with :func:`repro.sim.parallel.set_campaign_defaults`); see
    #: ``docs/resilience.md``.
    retries: Optional[object] = None
    chunk_timeout: Optional[float] = None
    checkpoint: Optional[str] = None
    checkpoint_interval: Optional[float] = None
    chaos: Optional[object] = None
    #: Persistent result cache (a :class:`~repro.sim.result_cache.ResultCache`,
    #: a directory path, or ``True`` for the default directory) and its mode
    #: (``"off"``/``"read"``/``"readwrite"``); ``None`` inherits the session
    #: defaults.  See ``docs/caching.md``.
    cache: Optional[object] = None
    cache_mode: Optional[str] = None

    def make_engine(self, force_hook=None):
        """Instantiate the workload's selected good-machine kernel."""
        from repro.api import make_engine

        return make_engine(self.design, self.engine, force_hook=force_hook)

    def workload_spec(self):
        """A picklable recipe for re-opening this workload in worker processes."""
        from repro.sim.parallel import WorkloadSpec

        return WorkloadSpec.from_benchmark(self.name).with_stimulus(self.stimulus)

    def run_faults(self, width: Optional[int] = None, early_exit: bool = True):
        """Run the packed fault campaign through the selected executor.

        One :func:`repro.sim.parallel.run_multiprocess` call serves every
        executor: ``serial`` runs it inline (``workers=1``), ``process`` over
        ``workers`` spawned processes.  Verdicts are executor-independent;
        only wall-clock changes.  ``width`` is the PPSFP fault-word width
        (default: the packed simulator's).  ``engine == "auto"`` hands the
        campaign an ``("auto", {})`` runner, resolved once against the full
        fault list.  Knobs left ``None`` — and the progress callback
        installed with :func:`repro.sim.parallel.set_default_progress` (the
        harness ``--progress`` flag) — inherit the session defaults.
        """
        from repro.errors import UnknownOptionError
        from repro.sim.kernel import EXECUTORS
        from repro.sim.packed import DEFAULT_WORD_WIDTH
        from repro.sim.parallel import WorkloadSpec, run_multiprocess

        if self.executor not in EXECUTORS:
            raise UnknownOptionError.for_option("executor", self.executor, EXECUTORS)
        knobs = {
            name: value
            for name, value in (
                ("retries", self.retries),
                ("chunk_timeout", self.chunk_timeout),
                ("checkpoint", self.checkpoint),
                ("checkpoint_interval", self.checkpoint_interval),
                ("chaos", self.chaos),
                ("cache", self.cache),
                ("cache_mode", self.cache_mode),
            )
            if value is not None  # None: inherit the session defaults
        }
        return run_multiprocess(
            self.design,
            self.stimulus,
            self.faults,
            workers=1 if self.executor == "serial" else self.workers,
            width=width or DEFAULT_WORD_WIDTH,
            early_exit=early_exit,
            spec=WorkloadSpec.from_benchmark(self.name),
            runner=("auto", {}) if self.engine == "auto" else None,
            **knobs,
        )


def prepare_workload(
    benchmark: str,
    profile: WorkloadProfile = QUICK_PROFILE,
    cycles: Optional[int] = None,
    fault_count: Optional[int] = None,
    engine: Optional[str] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
    retries: Optional[object] = None,
    chunk_timeout: Optional[float] = None,
    checkpoint: Optional[str] = None,
    checkpoint_interval: Optional[float] = None,
    chaos: Optional[object] = None,
    cache: Optional[object] = None,
    cache_mode: Optional[str] = None,
) -> ExperimentWorkload:
    """Compile a benchmark and build its stimulus + sampled fault list.

    ``engine`` overrides the benchmark spec's default good-machine kernel
    (any :data:`repro.api.ENGINES` name, including ``"auto"`` — which also
    makes :meth:`ExperimentWorkload.run_faults` pick the campaign substrate
    from the documented policy and enable survivor re-packing); ``executor``
    and ``workers`` select how :meth:`ExperimentWorkload.run_faults`
    distributes the fault campaign (``"serial"`` or ``"process"``).  The
    resilience knobs (``retries``, ``chunk_timeout``, ``checkpoint``,
    ``checkpoint_interval``, ``chaos``) and the result-cache knobs
    (``cache``, ``cache_mode``) are forwarded to
    :func:`repro.sim.parallel.run_multiprocess` on either executor; ``None``
    inherits the session defaults (see ``docs/resilience.md`` and
    ``docs/caching.md``).
    """
    if executor is not None:
        from repro.errors import UnknownOptionError
        from repro.sim.kernel import EXECUTORS

        if executor not in EXECUTORS:
            raise UnknownOptionError.for_option("executor", executor, EXECUTORS)
    if engine is not None:
        from repro.api import ENGINES
        from repro.errors import UnknownOptionError

        if engine not in ENGINES:
            raise UnknownOptionError.for_option("engine", engine, ENGINES)
    spec = get_benchmark(benchmark)
    design = spec.compile()
    stimulus = spec.stimulus(cycles=cycles or profile.cycles[benchmark], seed=profile.seed)
    population = generate_stuck_at_faults(design)
    sample = sample_faults(
        population, fault_count or profile.fault_samples[benchmark], seed=profile.seed
    )
    return ExperimentWorkload(
        name=benchmark,
        paper_name=spec.paper_name,
        design=design,
        stimulus=stimulus,
        faults=sample,
        total_fault_population=len(population),
        engine=engine or spec.default_engine,
        executor=executor or "serial",
        workers=workers,
        retries=retries,
        chunk_timeout=chunk_timeout,
        checkpoint=checkpoint,
        checkpoint_interval=checkpoint_interval,
        chaos=chaos,
        cache=cache,
        cache_mode=cache_mode,
    )


def prepare_workloads(
    benchmarks: Optional[Iterable[str]] = None,
    profile: WorkloadProfile = QUICK_PROFILE,
    engine: Optional[str] = None,
    executor: Optional[str] = None,
    workers: Optional[int] = None,
) -> List[ExperimentWorkload]:
    """Prepare workloads for several benchmarks (all of them by default)."""
    names = list(benchmarks) if benchmarks is not None else list(BENCHMARK_NAMES)
    return [
        prepare_workload(name, profile, engine=engine, executor=executor, workers=workers)
        for name in names
    ]


#: The subset of circuits the paper uses in the ablation study (Fig. 7 /
#: Table III).
ABLATION_BENCHMARKS = [
    "alu",
    "fpu",
    "sha256_hv",
    "apb",
    "riscv_mini",
    "picorv32",
    "sha256_c2v",
]
