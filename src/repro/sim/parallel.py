"""Fault campaigns: the one runner behind every executor and seam.

:func:`run_multiprocess` is the only fault-campaign runner in the package:
the ``serial`` executor runs it inline (``workers=1``, no pool), the
``process`` executor fans packed fault words out over a
``ProcessPoolExecutor`` — real wall-clock scaling, which a thread pool cannot
give GIL-bound pure-Python kernels.
``SerialFaultSimulator(executor="process")``,
``ExperimentWorkload.run_faults`` and :class:`ParallelFaultSimulator` each
reach it with one call.  The pieces:

* :class:`WorkloadSpec` — a picklable recipe for re-opening the *identical*
  (design, stimulus) pair inside a worker process: a benchmark registry name,
  raw Verilog source + top module, or a pickled :class:`~repro.ir.design.Design`
  as a last resort, plus the stimulus flattened to explicit per-cycle vectors.
  Live kernels are never pickled — each worker recompiles the design (tens of
  milliseconds) and hydrates the generated packed kernel from the shared
  on-disk codegen cache (source + bytecode sidecar), so cold workers warm up
  for roughly the cost of an import.
* :func:`run_multiprocess` — the campaign runner: chunks the fault list into
  word-aligned slices, oversubscribes the pool (~4 chunks per worker by
  default) so fast words never leave a core idle, and merges verdicts through
  a shared-memory :class:`~repro.sim.verdict_plane.VerdictPlane` that workers
  write lane-granularly the moment each fault is detected.  Inside a worker
  each chunk runs the ordinary
  :class:`~repro.sim.packed.PackedCodegenSimulator` (or the vector/serial
  runner a :data:`RunnerSpec` selects), so lane-granular dropping and the
  first-difference detection cycles are exactly the single-process semantics
  — the test-suite checks verdicts *and* cycles against
  ``SerialFaultSimulator(engine="codegen")``.
* :class:`ParallelFaultSimulator` — the class-shaped wrapper with the same
  ``run(stimulus, faults)`` interface as every other fault simulator.

The verdict plane buys four things on top of zero-copy merging:

* **Cross-chunk fault dropping** (``cross_drop=``): workers consult the global
  detection flags at chunk start, at every word fill, and every
  ``drop_stride`` cycles mid-run, retiring faults some other process already
  detected.  Dropping only ever *removes* redundant work — lanes are
  independent, so surviving verdicts and cycles are untouched.  Within one
  campaign chunks are disjoint, so this fires through the shared seams:
  ``resume_from=`` pre-seeds the plane with verdicts from an earlier
  (interrupted or incremental) run, and ``plane=`` lets several concurrent
  campaigns over the same fault list share one plane.
* **Streaming progress** (``on_progress=``): the parent polls the plane while
  futures are in flight and emits :class:`CampaignProgress` events — live
  detected counts, coverage %, chunk counts and an ETA — without touching the
  workers.
* **Partial-result salvage** (``salvage=``): when a worker dies mid-campaign
  (OOM killer, segfault, ``kill -9``) every verdict written before the crash
  is still in the plane; the campaign returns a
  :class:`~repro.fault.result.FaultSimResult` with ``partial=True`` instead
  of discarding completed work.  ``salvage=False`` restores the old
  fail-fast :class:`~repro.errors.SimulationError`.
* **Warm resume**: feed a previous result's ``coverage.detections`` back in
  as ``resume_from=`` and only the still-unknown faults are simulated.

Salvage is the *last* resort, not the first response: the pooled path runs
under a :class:`~repro.sim.resilience.ChunkSupervisor` that retries failed
chunks across rebuilt pools (``retries=``), times out hung workers
(``chunk_timeout=`` or an adaptive watchdog), quarantines chunks that keep
killing workers and finishes them inline in the parent (``degrade=``), and
periodically snapshots the verdict plane to disk (``checkpoint=`` /
``checkpoint_interval=``) so a killed parent resumes without resimulating
proven faults.  All of it is exercised deterministically by the structured
fault-injection plans in :mod:`repro.sim.chaos` (``chaos=`` or the
``REPRO_PARALLEL_CHAOS`` environment variable), which replace the old
single-purpose crash hook.  Chunk idempotency is what makes the whole ladder
verdict-safe: re-running any chunk can only rewrite the same bytes.

Above all of that sits the persistent result cache (``cache=`` /
``cache_mode=``; :mod:`repro.sim.result_cache`): verdicts are pure functions
of (design fingerprint, stimulus hash, fault), so campaigns first resolve
their fault list against the on-disk shard for that key and only simulate the
delta — a repeated campaign schedules zero chunks, an overlapping one only
its new faults — then write fresh verdicts (including proven-undetected
faults, when the run completed) back atomically.  See ``docs/caching.md``.

Workers are spawned (never forked): spawn is the only start method that is
safe on every platform the CI matrix covers (macOS defaults to it, fork is
unsound under threads), and the disk cache makes the usual spawn penalty —
re-importing and re-deriving everything — a non-issue here.

Every campaign keeps its verdicts in one plane, and every path — inline,
pooled, quarantined — marks each completed chunk's returned detections into
it, so progress, salvage, checkpoints and the final verdicts all read the
same bytes.  Where POSIX shared memory is unavailable (``VerdictPlane.create``
raising ``OSError``), the plane is process-local
(:meth:`~repro.sim.verdict_plane.VerdictPlane.local`): workers cannot attach,
so verdicts reach it only as chunks complete.  They stay exact; only
streaming granularity and cross-chunk dropping degrade.
"""

from __future__ import annotations

import inspect
import math
import os
import pickle
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Set, TextIO, Tuple

from repro.errors import SimulationError, UnknownOptionError
from repro.ir.design import Design
from repro.sim.chaos import ChaosPlan
from repro.sim.codegen import design_fingerprint
from repro.sim.packed import DEFAULT_WORD_WIDTH, PackedCodegenSimulator, pack_fault_words
from repro.sim.result_cache import CACHE_MODES, DEFAULT_CACHE_MODE, ResultCache, stimulus_hash
from repro.sim.resilience import (
    ChunkState,
    ChunkSupervisor,
    RetryPolicy,
    require_at_least,
    require_positive,
)
from repro.sim.stimulus import Stimulus, VectorStimulus
from repro.sim.verdict_plane import VerdictPlane, campaign_fingerprint

if TYPE_CHECKING:  # imported lazily at runtime to avoid a package import cycle
    from repro.fault.faultlist import FaultList
    from repro.fault.result import FaultSimResult

#: Chunks submitted per worker: oversubscription is the dynamic load balancer.
#: Words are unequal (early exit drops fully-detected words mid-stimulus), so
#: one chunk per worker would leave cores idle behind the slowest chunk;
#: ~4x lets fast workers pull extra work from the queue.
DEFAULT_OVERSUBSCRIBE = 4

#: Cycles between mid-run consults of the shared verdict plane.  Each consult
#: is a handful of byte reads per live lane, so small strides are cheap; the
#: default keeps the consult cost well under the per-cycle simulation cost
#: even on the smallest corpus designs.
DEFAULT_DROP_STRIDE = 32

#: Seconds between streaming progress events while chunk futures are in
#: flight (only consulted when an ``on_progress`` callback is installed).
DEFAULT_PROGRESS_INTERVAL = 0.5

#: Default retry budget: submissions after the first attempt a failed chunk
#: may consume before it is quarantined (or, with ``degrade=False``, failed).
DEFAULT_RETRIES = 2

#: Seconds between periodic checkpoint snapshots while ``checkpoint=`` is set.
DEFAULT_CHECKPOINT_INTERVAL = 30.0

#: Sentinel distinguishing "knob not passed" from any real value, so
#: process-wide defaults installed via :func:`set_campaign_defaults` only fill
#: genuinely-omitted arguments.
_UNSET = object()

#: Process-wide resilience-knob defaults (the harness CLI installs these so
#: ``--retries``/``--checkpoint`` reach campaigns buried behind other layers
#: without threading arguments through every call site).
_CAMPAIGN_DEFAULTS: Dict[str, object] = {}

#: The knobs :func:`set_campaign_defaults` accepts, with their hard defaults.
_CAMPAIGN_KNOBS: Dict[str, object] = {
    "retries": DEFAULT_RETRIES,
    "chunk_timeout": None,
    "checkpoint": None,
    "checkpoint_interval": DEFAULT_CHECKPOINT_INTERVAL,
    "chaos": None,
    "degrade": True,
    "cache": None,
    "cache_mode": DEFAULT_CACHE_MODE,
}


def set_campaign_defaults(**knobs: object) -> Dict[str, object]:
    """Install process-wide defaults for the campaign resilience knobs.

    Recognized names: ``retries``, ``chunk_timeout``, ``checkpoint``,
    ``checkpoint_interval``, ``chaos``, ``degrade``, ``cache``,
    ``cache_mode``.  Passing ``None`` resets
    a knob to its hard default.  Explicit ``run_multiprocess`` arguments
    always win.  Returns the previous mapping (for save/restore in tests).
    """
    previous = dict(_CAMPAIGN_DEFAULTS)
    for name, value in knobs.items():
        if name not in _CAMPAIGN_KNOBS:
            raise UnknownOptionError.for_option(
                "campaign default", name, _CAMPAIGN_KNOBS
            )
        if value is None:
            _CAMPAIGN_DEFAULTS.pop(name, None)
        else:
            _CAMPAIGN_DEFAULTS[name] = value
    return previous


def _resolve_knob(name: str, value: object) -> object:
    """An explicit argument, else the installed default, else the hard default."""
    if value is not _UNSET:
        return value
    return _CAMPAIGN_DEFAULTS.get(name, _CAMPAIGN_KNOBS[name])

#: One stuck-at fault as it crosses the process boundary: (signal name, bit,
#: stuck-at value).  Names are the stable cross-process identity — fault ids
#: are re-assigned densely inside each worker.
FaultSite = Tuple[str, int, int]

#: What a worker should run over its chunk: ``("packed", {width, early_exit})``,
#: ``("vector", {width, early_exit})`` (the NumPy lane backend — word sizes of
#: 512-4096 faults are reasonable there) or ``("serial", {engine, early_exit})``.
#: Callers may also pass ``("auto", {...})``, which :func:`run_multiprocess`
#: resolves to packed or vector before anything runs.
RunnerSpec = Tuple[str, Dict[str, object]]

#: The runner kinds a worker can build.
_RUNNER_KINDS = ("packed", "vector", "serial")

#: Result labels of the lane runners; other kinds report ``<kind>-MP``.
_RUNNER_LABELS = {"packed": "PackedPPSFP-MP", "vector": "VectorPPSFP-MP"}


class WorkloadSpec:
    """Picklable recipe for re-opening a (design, stimulus) pair in a worker.

    Exactly one design mode is set:

    * ``benchmark`` — a :mod:`repro.designs.registry` name; the worker
      recompiles from the packaged Verilog corpus,
    * ``source``/``top`` — raw Verilog text; the worker parses and elaborates,
    * ``design_blob`` — a pickled :class:`~repro.ir.design.Design`, the
      fallback for hand-built designs with no compile provenance.

    All three reproduce the identical content fingerprint, so the worker's
    packed kernel is a disk-cache hit for anything the parent already ran.
    The stimulus travels as explicit per-cycle vectors (``with_stimulus``), so
    non-picklable stimuli (``per_cycle`` lambdas) flatten losslessly.
    """

    __slots__ = ("benchmark", "source", "top", "design_blob", "clock", "vectors")

    def __init__(
        self,
        benchmark: Optional[str] = None,
        source: Optional[str] = None,
        top: Optional[str] = None,
        design_blob: Optional[bytes] = None,
        clock: Optional[str] = None,
        vectors: Optional[List[Dict[str, int]]] = None,
    ) -> None:
        """Validate that exactly one design mode is given and store the recipe."""
        modes = (benchmark is not None) + (source is not None) + (design_blob is not None)
        if modes != 1:
            raise SimulationError(
                "WorkloadSpec needs exactly one of benchmark=, source= or design_blob="
            )
        if source is not None and top is None:
            raise SimulationError("WorkloadSpec(source=...) also needs top=")
        self.benchmark = benchmark
        self.source = source
        self.top = top
        self.design_blob = design_blob
        self.clock = clock
        self.vectors = vectors

    # -------------------------------------------------------------- builders
    @classmethod
    def from_benchmark(cls, name: str) -> "WorkloadSpec":
        """Spec for a registry benchmark (the cheapest mode to pickle)."""
        return cls(benchmark=name)

    @classmethod
    def from_source(cls, source: str, top: str) -> "WorkloadSpec":
        """Spec carrying raw Verilog source text."""
        return cls(source=source, top=top)

    @classmethod
    def from_design(cls, design: Design) -> "WorkloadSpec":
        """Infer a spec from a design's compile provenance.

        Designs built through :func:`repro.api.compile_design` or the
        benchmark registry carry an ``origin`` recipe; anything else (a
        hand-assembled IR graph) falls back to pickling the design itself.
        """
        origin = getattr(design, "origin", None)
        if origin:
            if origin[0] == "benchmark":
                return cls(benchmark=origin[1])
            if origin[0] == "source":
                return cls(source=origin[1], top=origin[2])
        return cls(design_blob=pickle.dumps(design))

    def with_stimulus(self, stimulus: Stimulus) -> "WorkloadSpec":
        """A copy carrying ``stimulus`` flattened to explicit vectors."""
        vectors = [dict(stimulus.vector(c)) for c in range(stimulus.num_cycles())]
        return WorkloadSpec(
            benchmark=self.benchmark,
            source=self.source,
            top=self.top,
            design_blob=self.design_blob,
            clock=stimulus.clock,
            vectors=vectors,
        )

    # --------------------------------------------------------------- opening
    def build(self) -> Tuple[Design, Optional[Stimulus]]:
        """Re-open the design (and stimulus, if captured) from the recipe."""
        if self.benchmark is not None:
            from repro.designs.registry import get_benchmark

            design = get_benchmark(self.benchmark).compile()
        elif self.source is not None:
            from repro.api import compile_design

            design = compile_design(self.source, top=self.top)
        else:
            design = pickle.loads(self.design_blob)
        stimulus: Optional[Stimulus] = None
        if self.vectors is not None:
            stimulus = VectorStimulus(self.vectors, clock=self.clock)
        return design, stimulus

    def __repr__(self) -> str:
        """The design mode plus the number of captured stimulus cycles."""
        if self.benchmark is not None:
            what = f"benchmark={self.benchmark}"
        elif self.source is not None:
            what = f"source top={self.top}"
        else:
            what = f"design_blob={len(self.design_blob)}B"
        cycles = len(self.vectors) if self.vectors is not None else 0
        return f"WorkloadSpec({what}, {cycles} stimulus cycles)"


# ------------------------------------------------------------------- progress
class CampaignProgress:
    """One streaming progress event from a running fault campaign.

    Attributes
    ----------
    detected:
        Faults detected so far, campaign-wide (monotonically non-decreasing
        across the events of one campaign; includes ``resume_from`` seeds).
    total:
        Total faults in the campaign.
    chunks_done / chunks_total:
        Completed vs submitted word-aligned chunks.
    elapsed:
        Seconds since the campaign started.
    eta:
        Estimated seconds remaining (chunk-rate extrapolation), or ``None``
        before the first chunk completes and on the final event.
    final:
        True on the last event of the campaign (exactly one is emitted).
    partial:
        True when the campaign broke mid-run and the verdicts are salvaged.
    """

    __slots__ = (
        "detected",
        "total",
        "chunks_done",
        "chunks_total",
        "elapsed",
        "eta",
        "final",
        "partial",
    )

    def __init__(
        self,
        detected: int,
        total: int,
        chunks_done: int,
        chunks_total: int,
        elapsed: float,
        eta: Optional[float] = None,
        final: bool = False,
        partial: bool = False,
    ) -> None:
        """Snapshot one instant of a campaign; see the class docstring."""
        self.detected = detected
        self.total = total
        self.chunks_done = chunks_done
        self.chunks_total = chunks_total
        self.elapsed = elapsed
        self.eta = eta
        self.final = final
        self.partial = partial

    @property
    def coverage(self) -> float:
        """Detected faults as a percentage of the campaign total."""
        if not self.total:
            return 0.0
        return 100.0 * self.detected / self.total

    def __repr__(self) -> str:
        """Detected/total, chunk counts and the final/partial markers."""
        flags = ("", " final")[self.final] + ("", " partial")[self.partial]
        return (
            f"CampaignProgress({self.detected}/{self.total} detected, "
            f"chunks {self.chunks_done}/{self.chunks_total}{flags})"
        )


def progress_printer(stream: Optional[TextIO] = None) -> Callable[[CampaignProgress], None]:
    """An ``on_progress`` callback that prints one status line per event.

    Writes to ``stream`` (default ``sys.stderr``, resolved per event so
    pytest's capture and CLI redirection both behave).  This is what the
    harness ``--progress`` flag installs.
    """

    def emit(event: CampaignProgress) -> None:
        """Print one progress/done status line for ``event``."""
        out = stream if stream is not None else sys.stderr
        head = "done" if event.final else "progress"
        eta = f", eta {event.eta:.1f}s" if event.eta is not None else ""
        partial = " [PARTIAL: campaign broke mid-run]" if event.partial else ""
        print(
            f"{head}: {event.detected}/{event.total} faults detected "
            f"({event.coverage:.1f}%), chunks {event.chunks_done}/"
            f"{event.chunks_total}, {event.elapsed:.1f}s{eta}{partial}",
            file=out,
            flush=True,
        )

    return emit


#: Process-wide default ``on_progress`` callback (a one-slot holder so the
#: harness CLI can switch streaming on without threading a callback through
#: every call site).  ``run_multiprocess(on_progress=...)`` wins when given.
_DEFAULT_PROGRESS: List[Optional[Callable[[CampaignProgress], None]]] = [None]


def set_default_progress(
    callback: Optional[Callable[[CampaignProgress], None]],
) -> Optional[Callable[[CampaignProgress], None]]:
    """Install a process-wide default progress callback; returns the previous one."""
    previous = _DEFAULT_PROGRESS[0]
    _DEFAULT_PROGRESS[0] = callback
    return previous


# ----------------------------------------------------------------- worker side
#: Per-process workload: the spawn initializer populates it once, chunk tasks
#: only look it up.  One pool serves one campaign, so a single slot suffices.
_WORKER_WORKLOAD: Dict[str, object] = {}


def _worker_init(spec: WorkloadSpec, plane_name: Optional[str] = None) -> None:
    """Spawn initializer: re-open the workload (and verdict plane) once per worker."""
    design, stimulus = spec.build()
    if stimulus is None:
        raise SimulationError("worker received a WorkloadSpec without a stimulus")
    _WORKER_WORKLOAD["design"] = design
    _WORKER_WORKLOAD["stimulus"] = stimulus
    _WORKER_WORKLOAD["plane"] = (
        VerdictPlane.attach(plane_name) if plane_name is not None else None
    )


def make_campaign_runner(
    design: Design,
    runner: RunnerSpec,
    on_detect: Optional[Callable[[int, int], None]] = None,
    drop_hook: Optional[Callable[[List[int]], List[int]]] = None,
    drop_stride: int = 0,
):
    """Instantiate the fault simulator a concrete :data:`RunnerSpec` describes.

    ``on_detect``/``drop_hook``/``drop_stride`` wire the packed and vector
    runners into the shared verdict plane (streaming detection writes plus
    word-fill and mid-run drop consults).  The serial baselines have no lane
    hooks — for them the chunk-start filter in :func:`_run_chunk` and the
    parent's marking of every returned detection provide the same campaign
    semantics, so the hooks are accepted and ignored here.  ``"auto"`` specs
    never reach this function: :func:`run_multiprocess` resolves them first.
    """
    kind, options = runner
    if kind == "packed":
        return PackedCodegenSimulator(
            design,
            width=int(options.get("width", DEFAULT_WORD_WIDTH)),
            early_exit=bool(options.get("early_exit", True)),
            on_detect=on_detect,
            drop_hook=drop_hook,
            drop_stride=drop_stride,
            repack=bool(options.get("repack", False)),
        )
    if kind == "vector":
        from repro.sim.vector import DEFAULT_VECTOR_WIDTH, VectorFaultSimulator

        return VectorFaultSimulator(
            design,
            width=int(options.get("width", DEFAULT_VECTOR_WIDTH)),
            early_exit=bool(options.get("early_exit", True)),
            on_detect=on_detect,
            drop_hook=drop_hook,
            drop_stride=drop_stride,
        )
    if kind == "serial":
        from repro.baselines.base import SerialFaultSimulator

        return SerialFaultSimulator(
            design,
            early_exit=bool(options.get("early_exit", True)),
            engine=str(options["engine"]),
        )
    raise UnknownOptionError.for_option("campaign runner kind", kind, _RUNNER_KINDS)


def _materialize_faults(design: Design, sites: Sequence[FaultSite]):
    """Rebuild a dense-id :class:`FaultList` from wire-format fault sites."""
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault

    return FaultList(
        [StuckAtFault(design.signal(name), bit, value) for name, bit, value in sites]
    )


def _run_chunk(
    design: Design,
    stimulus: Stimulus,
    faults,
    runner: RunnerSpec,
    plane: Optional[VerdictPlane],
    base: int,
    cross_drop: bool,
    drop_stride: int,
) -> Tuple[Dict[str, int], int]:
    """Fault-simulate one consecutive chunk against the (optional) shared plane.

    ``faults`` is a dense-id :class:`FaultList` whose local id ``j`` is the
    campaign's global fault index ``base + j`` (chunks are consecutive slices
    of the packed word order).  With a plane and ``cross_drop`` the chunk is
    filtered at start against the global detection flags — re-packing the
    survivors is verdict-safe because lanes are independent — and the runner
    gets word-fill/mid-run drop hooks plus a streaming ``on_detect`` writer.
    Returns ``(detection cycle by global fault index, simulated cycles)``;
    the campaign parent marks those detections into its plane.
    """
    gmap = list(range(base, base + len(faults)))
    if plane is not None and cross_drop:
        flags = plane.detected_flags(base, len(faults))
        if any(flags):
            from repro.fault.faultlist import FaultList
            from repro.fault.model import StuckAtFault

            survivors = [(i, f) for i, f in enumerate(faults) if not flags[i]]
            if not survivors:
                return {}, 0
            gmap = [base + i for i, _ in survivors]
            # fresh fault objects: FaultList.add assigns dense local ids and
            # must not clobber the caller's fault_id fields
            faults = FaultList(
                [StuckAtFault(f.signal, f.bit, f.value) for _, f in survivors]
            )
    on_detect: Optional[Callable[[int, int], None]] = None
    drop_hook: Optional[Callable[[List[int]], List[int]]] = None
    if plane is not None:
        mark = plane.mark

        def _stream_detection(fault_id: int, cycle: int) -> None:
            mark(gmap[fault_id], cycle)

        on_detect = _stream_detection
        if cross_drop:
            is_detected = plane.is_detected

            def _consult_plane(fault_ids: List[int]) -> List[int]:
                return [fid for fid in fault_ids if is_detected(gmap[fid])]

            drop_hook = _consult_plane

    simulator = make_campaign_runner(
        design,
        runner,
        on_detect=on_detect,
        drop_hook=drop_hook,
        drop_stride=drop_stride if cross_drop else 0,
    )
    result = simulator.run(stimulus, faults)
    global_index = {fault.name: gmap[fault.fault_id] for fault in faults}
    detections = {global_index[name]: cycle for name, cycle in result.coverage.detections.items()}
    return detections, result.stats.cycles


def _simulate_chunk(
    sites: Sequence[FaultSite],
    runner: RunnerSpec,
    base: int = 0,
    cross_drop: bool = False,
    drop_stride: int = 0,
    chunk_index: int = 0,
    attempt: int = 0,
    chaos: Optional[ChaosPlan] = None,
) -> Tuple[Dict[int, int], int, float]:
    """Worker task: fault-simulate one word-aligned chunk.

    ``base`` is the chunk's first global fault index; ``chunk_index`` and
    ``attempt`` (0-based) identify the submission for the chaos plan, which
    the parent resolves once and ships with every task so attempt-aware
    triggers see the supervisor's counters.  Detections stream into the
    worker's attached verdict plane as they happen; the returned
    ``(detections by global fault index, simulated cycles, wall seconds)``
    tuple — small, plain and picklable — is what the parent marks into its
    plane (the only way verdicts reach a process-local plane) and feeds the
    supervisor's adaptive watchdog.
    """
    begin = time.perf_counter()
    if chaos is not None:
        chaos.apply(chunk_index, base, attempt)
    design: Design = _WORKER_WORKLOAD["design"]  # type: ignore[assignment]
    stimulus: Stimulus = _WORKER_WORKLOAD["stimulus"]  # type: ignore[assignment]
    plane: Optional[VerdictPlane] = _WORKER_WORKLOAD.get("plane")  # type: ignore[assignment]
    faults = _materialize_faults(design, sites)
    detections, cycles = _run_chunk(
        design, stimulus, faults, runner, plane, base, cross_drop, drop_stride
    )
    return detections, cycles, time.perf_counter() - begin


def _degraded_inline_runner(runner: RunnerSpec) -> RunnerSpec:
    """The quarantine rung's runner: vector degrades to packed without NumPy.

    Quarantined chunks run in the campaign parent, which may lack the
    optional NumPy dependency a ``("vector", ...)`` spec needs; the packed
    bigint runner takes any lane width, so the degraded spec keeps the same
    word geometry (and therefore the same verdicts and cycles).
    """
    if runner[0] != "vector":
        return runner
    try:
        import numpy  # noqa: F401
    except Exception:
        return ("packed", dict(runner[1]))
    return runner


# ----------------------------------------------------------------- parent side
def chunk_fault_sites(
    faults: "FaultList", word_size: int, max_chunks: int
) -> List[List[FaultSite]]:
    """Split a fault list into at most ``max_chunks`` word-aligned site chunks.

    Chunks are *consecutive* runs of whole fault words, so a worker packs
    exactly the words the single-process :class:`PackedCodegenSimulator` would
    pack — chunking can never change which faults share a word, which is what
    keeps the merged verdicts bit-exact.  Consecutiveness is also what maps a
    chunk's local fault ids onto the campaign's global fault indexes (chunk
    base + local id), the coordinate system of the shared verdict plane.
    """
    words = pack_fault_words(faults, max(1, word_size))
    chunks = max(1, min(max_chunks, len(words)))
    per_chunk = math.ceil(len(words) / chunks)
    sites: List[List[FaultSite]] = []
    for start in range(0, len(words), per_chunk):
        group = words[start : start + per_chunk]
        sites.append(
            [(f.signal.name, f.bit, f.value) for word in group for f in word]
        )
    return sites


def _merge_chunk_verdicts(plane: VerdictPlane, merged: Set[int], chunk: Dict[int, int]) -> None:
    """Mark one chunk's returned verdicts into the plane, asserting disjointness.

    This is the one path by which a completed chunk's verdicts reach the
    campaign plane, whether or not its worker could attach to it: marks are
    idempotent (detection cycles are deterministic, so a worker that already
    streamed into a shared plane wrote the same bytes).  A fault returned by
    two chunks can only mean the chunking produced overlapping chunks (or a
    worker simulated the wrong slice), which must surface as an error, not a
    quietly-wrong cycle.
    """
    overlap = merged.intersection(chunk)
    if overlap:
        shown = ", ".join(str(index) for index in sorted(overlap)[:3])
        raise SimulationError(
            f"chunk verdicts overlap on {len(overlap)} fault(s) (global "
            f"indexes {shown}...); chunks must partition the fault list"
        )
    merged.update(chunk)
    mark = plane.mark
    for index, cycle in chunk.items():
        mark(index, cycle)


def _resolve_runner(
    design: Design,
    runner: Optional[RunnerSpec],
    width: int,
    early_exit: bool,
    fault_count: int,
) -> Tuple[RunnerSpec, int]:
    """The campaign's concrete runner spec and its lane-word size.

    ``None`` is the packed runner at ``width``/``early_exit``.  An
    ``("auto", {...})`` spec resolves the documented policy
    (:func:`repro.sim.emitter.resolve_engine`) against ``fault_count`` — the
    campaign's full fault list, before any cache lookup — to vector lanes
    when it picks ``packed-numpy``, packed words with survivor re-packing
    otherwise.  Resolving once, in the parent, means chunking, the result
    label, cold and warm cache replays and quarantine degradation all see
    the same substrate.  The word size is the chunking grain: the runner's
    lane-word width (for the vector runner the array lane count), or 1 for
    the one-fault-at-a-time serial runner.
    """
    if runner is None:
        return ("packed", {"width": width, "early_exit": early_exit}), width
    kind, options = runner
    if kind == "auto":
        from repro.sim.emitter import resolve_engine

        options = dict(options)
        options.setdefault("early_exit", early_exit)
        if resolve_engine(design, fault_count=fault_count) == "packed-numpy":
            from repro.sim.vector import DEFAULT_VECTOR_WIDTH

            options.setdefault("width", DEFAULT_VECTOR_WIDTH)
            options.pop("repack", None)
            kind = "vector"
        else:
            options.setdefault("width", width)
            options.setdefault("repack", True)
            kind = "packed"
    if kind == "packed":
        return (kind, options), int(options.get("width", DEFAULT_WORD_WIDTH))
    if kind == "vector":
        from repro.sim.vector import DEFAULT_VECTOR_WIDTH

        return (kind, options), int(options.get("width", DEFAULT_VECTOR_WIDTH))
    if kind == "serial":
        return (kind, options), 1
    raise UnknownOptionError.for_option("campaign runner kind", kind, _RUNNER_KINDS + ("auto",))


def run_multiprocess(
    design: Design,
    stimulus: Stimulus,
    faults: "FaultList",
    workers: Optional[int] = None,
    width: int = DEFAULT_WORD_WIDTH,
    early_exit: bool = True,
    spec: Optional[WorkloadSpec] = None,
    oversubscribe: int = DEFAULT_OVERSUBSCRIBE,
    runner: Optional[RunnerSpec] = None,
    label: Optional[str] = None,
    on_progress: Optional[Callable[[CampaignProgress], None]] = None,
    progress_interval: float = DEFAULT_PROGRESS_INTERVAL,
    cross_drop: bool = True,
    drop_stride: int = DEFAULT_DROP_STRIDE,
    resume_from: Optional[Dict[str, int]] = None,
    plane: Optional[VerdictPlane] = None,
    salvage: bool = True,
    retries=_UNSET,
    chunk_timeout=_UNSET,
    checkpoint=_UNSET,
    checkpoint_interval=_UNSET,
    chaos=_UNSET,
    degrade=_UNSET,
    cache=_UNSET,
    cache_mode=_UNSET,
) -> "FaultSimResult":
    """Fault-simulate ``faults`` inline or across a pool of worker *processes*.

    The fault list is cut into word-aligned chunks (``~oversubscribe`` chunks
    per worker, so fast words do not idle a core behind a slow one) and each
    chunk runs a full packed (PPSFP) campaign inside a spawned worker.
    Verdicts cross the process boundary through a shared-memory
    :class:`~repro.sim.verdict_plane.VerdictPlane`: workers write each
    detection the moment its lane drops, the parent reads the same bytes
    zero-copy.  Verdicts and detection cycles are exact against a
    single-process run — dropping and chunking only remove redundant work.

    ``spec`` tells workers how to re-open the design; when omitted it is
    inferred from the design's compile provenance (see
    :meth:`WorkloadSpec.from_design`).  ``runner`` overrides what each worker
    runs over its chunk (default: the packed simulator at ``width`` /
    ``early_exit``); an ``("auto", {...})`` spec is resolved once, in the
    parent, against the campaign's full fault count (see
    :func:`_resolve_runner`).  ``label`` names the result (default: the
    resolved runner's, e.g. ``PackedPPSFP-MP``).  ``workers=None`` uses
    ``os.cpu_count()``; a resolved pool of one runs the campaign inline with
    no pool at all (still honoring the plane, dropping, resume, checkpoint,
    cache and progress parameters).

    Campaign-level parameters (see the module docstring for the design):

    * ``on_progress`` — a :class:`CampaignProgress` callback: one event at
      submission, one per poll wake-up / chunk completion while futures are
      in flight, and exactly one ``final=True`` event.  Detected counts are
      monotonically non-decreasing and include cached verdicts.  Defaults to
      the process-wide callback installed via :func:`set_default_progress`,
      if any.
    * ``cross_drop`` / ``drop_stride`` — cross-chunk fault dropping against
      the shared plane (chunk-start, word-fill and every ``drop_stride``
      cycles mid-run).  Never changes a verdict or cycle.
    * ``resume_from`` — ``fault name -> detection cycle`` verdicts already
      known (e.g. a previous partial result's ``coverage.detections``); they
      seed the plane, are dropped from simulation, and appear in the final
      report.  Unknown fault names are an error.
    * ``plane`` — an externally created :class:`VerdictPlane` sized to this
      fault list, letting concurrent campaigns share verdicts; the caller
      keeps ownership (this function will not unlink it).
    * ``salvage`` — when a chunk still cannot be finished after supervision
      is exhausted, return the verdicts accumulated so far as a
      ``FaultSimResult(partial=True)`` instead of raising.

    Resilience knobs (each defaults through :func:`set_campaign_defaults`;
    see :mod:`repro.sim.resilience` for the machinery):

    * ``retries`` — an int (extra submissions per failed chunk, default
      :data:`DEFAULT_RETRIES`) or a full
      :class:`~repro.sim.resilience.RetryPolicy`.  On a worker death, stall
      or in-chunk exception the pool is rebuilt and only still-unproven
      chunks are requeued, with exponential backoff + jitter.
    * ``chunk_timeout`` — hard per-chunk watchdog deadline in seconds;
      ``None`` arms an adaptive deadline from observed chunk wall-times.
    * ``degrade`` — quarantine a chunk blamed for ``max_attempts`` failures
      and finish it inline in the parent (the graceful-degradation ladder);
      ``False`` restores fail-fast/salvage at the end of the retry budget.
    * ``checkpoint`` — path for periodic atomic snapshots of the verdict
      plane (every ``checkpoint_interval`` seconds, plus once at exit on
      *every* path).  An existing, fingerprint-matching checkpoint at that
      path seeds the campaign exactly like ``resume_from=``, so a killed
      parent resumes without resimulating proven faults.
    * ``chaos`` — a :class:`~repro.sim.chaos.ChaosPlan` (or plan string)
      injecting worker crashes/hangs/slowdowns/raises for testing; also
      drivable via ``REPRO_PARALLEL_CHAOS`` in the environment.
    * ``cache`` / ``cache_mode`` — the persistent result cache
      (:class:`~repro.sim.result_cache.ResultCache`, a directory path, or
      ``True`` for the default ``~/.cache/repro-results``): faults whose
      verdicts are already on disk for this exact (design fingerprint,
      stimulus hash) key are resolved before any chunk is scheduled and only
      the delta is simulated; with ``cache_mode="readwrite"`` (the default —
      ``"read"`` never writes, ``"off"`` disables a configured cache) fresh
      verdicts are merged back atomically, and a complete run also caches
      proven-*undetected* faults so a fully-warm replay simulates nothing at
      all.  Ignored when an external ``plane=`` is passed (the plane is
      indexed by the full fault list).  See ``docs/caching.md``.

    The result's ``stats.cycles`` is the *sum of cycles simulated across all
    workers* — a work metric that shrinks as dropping bites.  It is not
    wall-clock cycles: chunks run concurrently, so the sum exceeds any
    single timeline (``wall_time`` is the wall-clock measure).
    """
    from repro.core.stats import SimulationStats
    from repro.fault.coverage import FaultCoverageReport
    from repro.fault.faultlist import FaultList
    from repro.fault.model import StuckAtFault
    from repro.fault.result import FaultSimResult

    design.check_finalized()
    stimulus.validate(design)
    retries = _resolve_knob("retries", retries)
    chunk_timeout = _resolve_knob("chunk_timeout", chunk_timeout)
    checkpoint = _resolve_knob("checkpoint", checkpoint)
    checkpoint_interval = _resolve_knob("checkpoint_interval", checkpoint_interval)
    chaos = _resolve_knob("chaos", chaos)
    degrade = bool(_resolve_knob("degrade", degrade))
    cache_mode = _resolve_knob("cache_mode", cache_mode)
    if cache_mode not in CACHE_MODES:
        raise UnknownOptionError.for_option("cache_mode", cache_mode, CACHE_MODES)
    store = ResultCache.coerce(_resolve_knob("cache", cache))
    # fail on bad knobs here, naming the argument — not deep in the pool loop
    if workers is not None:
        require_at_least("workers", workers, 1)
    require_at_least("width", width, 1)
    require_at_least("oversubscribe", oversubscribe, 1)
    require_at_least("drop_stride", drop_stride, 0)
    require_positive("progress_interval", progress_interval)
    require_positive("checkpoint_interval", checkpoint_interval)
    if chunk_timeout is not None:
        require_positive("chunk_timeout", chunk_timeout)
    policy = RetryPolicy.from_retries(retries)
    chaos_plan = ChaosPlan.coerce(chaos)
    if chaos_plan is None:
        chaos_plan = ChaosPlan.from_environment()
    runner, word_size = _resolve_runner(design, runner, width, early_exit, len(faults))
    if label is None:
        label = _RUNNER_LABELS.get(runner[0], f"{runner[0]}-MP")
    if on_progress is None:
        on_progress = _DEFAULT_PROGRESS[0]
    seeds: Dict[str, int] = dict(resume_from) if resume_from else {}
    if seeds:
        known = {fault.name for fault in faults}
        unknown = sorted(name for name in seeds if name not in known)
        if unknown:
            raise SimulationError(
                f"resume_from names faults not in this campaign: {unknown[:5]}"
            )

    # the result cache resolves what it can before anything is scheduled:
    # only the delta (a fresh, densely re-numbered list) is simulated, so a
    # fully-warm replay builds no plane, no chunks and no pool at all
    campaign = faults
    stats = SimulationStats()
    use_cache = store is not None and cache_mode != "off" and plane is None and len(faults) > 0
    cached: Dict[str, Optional[int]] = {}
    if use_cache:
        design_key = design_fingerprint(design)
        stimulus_key = stimulus_hash(stimulus)
        cached = store.lookup(design_key, stimulus_key, [f.name for f in faults])
        if cached:
            faults = FaultList(
                [StuckAtFault(f.signal, f.bit, f.value) for f in faults if f.name not in cached]
            )
            seeds = {name: cycle for name, cycle in seeds.items() if name not in cached}
        stats.cache_hits = len(cached)
        stats.cache_misses = len(faults)
    cached_detections = {name: cycle for name, cycle in cached.items() if cycle is not None}

    fingerprint: Optional[str] = None
    if checkpoint is not None and len(faults):
        fingerprint = campaign_fingerprint(design, faults)
        if os.path.exists(checkpoint):
            snapshot = VerdictPlane.load(checkpoint, expect_fingerprint=fingerprint)
            try:
                for name, seed_cycle in snapshot.named_detections(faults).items():
                    seeds.setdefault(name, seed_cycle)
            finally:
                snapshot.close()
    work_units = math.ceil(len(faults) / max(1, word_size))
    if workers is None:
        workers = os.cpu_count() or 1
    workers = max(1, min(workers, work_units))

    owned_plane = plane is None
    if plane is not None:
        if plane.n_faults != len(faults):
            raise SimulationError(
                f"verdict plane is sized for {plane.n_faults} faults but the "
                f"campaign has {len(faults)}"
            )
    elif len(faults):
        try:
            plane = VerdictPlane.create(len(faults))
        except OSError:
            # no POSIX shared memory here: the parent keeps the plane and
            # marks every returned chunk into it; workers cannot attach
            plane = VerdictPlane.local(len(faults))
    if seeds:
        index_by_name = {fault.name: i for i, fault in enumerate(faults)}
        for name, seed_cycle in seeds.items():
            plane.seed(index_by_name[name], seed_cycle)

    start = time.perf_counter()
    merged: Set[int] = set()
    cycles = 0
    partial = False
    chunks_done = 0
    chunks_total = 0
    last_checkpoint = start
    checkpoint_final = False

    def save_checkpoint() -> None:
        """Atomically snapshot the plane to the checkpoint path, stamped."""
        nonlocal last_checkpoint
        if checkpoint is None or plane is None:
            return
        plane.save(checkpoint, fingerprint)
        stats.checkpoints_written += 1
        last_checkpoint = time.perf_counter()

    def emit(final: bool = False) -> None:
        """Snapshot the campaign into one CampaignProgress event, if streaming."""
        if on_progress is None:
            return
        elapsed = time.perf_counter() - start
        detected = len(cached_detections)
        if plane is not None:
            detected += plane.detected_count()
        eta = None
        if not final and chunks_done:
            # clamped: a retried chunk can push elapsed past the naive
            # extrapolation, and an ETA below zero is just noise
            eta = max(0.0, elapsed * (chunks_total - chunks_done) / chunks_done)
        on_progress(
            CampaignProgress(
                detected=detected,
                total=len(campaign),
                chunks_done=chunks_done,
                chunks_total=chunks_total,
                elapsed=elapsed,
                eta=eta,
                final=final,
                partial=partial,
            )
        )

    try:
        if plane is not None and workers == 1:
            # tiny campaigns and debugging skip pool startup entirely (the
            # plane still drives resume seeding, dropping, checkpoints and
            # the final verdicts; chaos never fires in the parent process)
            chunks_total = 1
            emit()
            detections, cycles = _run_chunk(
                design, stimulus, faults, runner, plane, 0, cross_drop, drop_stride
            )
            _merge_chunk_verdicts(plane, merged, detections)
            chunks_done = 1
            stats.chunks_simulated = 1
        elif plane is not None:
            spec = (
                spec if spec is not None else WorkloadSpec.from_design(design)
            ).with_stimulus(stimulus)
            chunks = chunk_fault_sites(faults, word_size, workers * oversubscribe)
            chunks_total = len(chunks)
            states: List[ChunkState] = []
            base = 0
            for index, chunk in enumerate(chunks):
                states.append(ChunkState(index, chunk, base))
                base += len(chunk)
            emit()
            plane_name = plane.name if plane.shared else None
            ship_plan = chaos_plan if chaos_plan else None

            def make_pool() -> ProcessPoolExecutor:
                """A fresh spawn pool; one is built per supervision generation."""
                return ProcessPoolExecutor(
                    max_workers=workers,
                    mp_context=get_context("spawn"),
                    initializer=_worker_init,
                    initargs=(spec, plane_name),
                )

            def submit(pool: ProcessPoolExecutor, state: ChunkState):
                """Submit one chunk attempt (0-based attempt for the chaos plan)."""
                return pool.submit(
                    _simulate_chunk,
                    state.sites,
                    runner,
                    state.base,
                    cross_drop,
                    drop_stride,
                    state.index,
                    state.attempts - 1,
                    ship_plan,
                )

            def run_inline(state: ChunkState) -> Tuple[Dict[int, int], int, float]:
                """Quarantine fallback: run the chunk in this process, no chaos."""
                begin = time.perf_counter()
                detections, chunk_cycles = _run_chunk(
                    design,
                    stimulus,
                    _materialize_faults(design, state.sites),
                    _degraded_inline_runner(runner),
                    plane,
                    state.base,
                    cross_drop,
                    drop_stride,
                )
                return detections, chunk_cycles, time.perf_counter() - begin

            def chunk_proven(state: ChunkState) -> bool:
                """Is every fault of this chunk already flagged on the plane?"""
                if not state.sites:
                    return False
                flags = plane.detected_flags(state.base, len(state.sites))
                return len(flags) == len(state.sites) and all(flags)

            chunk_event = [False]
            last_emit = [start]

            def on_complete(
                state: ChunkState, detections: Dict[int, int], chunk_cycles: int
            ) -> None:
                """Merge one resolved chunk into the plane and the counters."""
                nonlocal cycles, chunks_done
                _merge_chunk_verdicts(plane, merged, detections)
                cycles += chunk_cycles
                chunks_done += 1
                if state.outcome == "skipped":
                    stats.chunks_skipped += 1
                else:
                    stats.chunks_simulated += 1
                chunk_event[0] = True

            def on_tick() -> None:
                """Per-poll cadence: progress events and periodic checkpoints."""
                now = time.perf_counter()
                if chunk_event[0] or now - last_emit[0] >= progress_interval:
                    chunk_event[0] = False
                    last_emit[0] = now
                    emit()
                if checkpoint is not None and now - last_checkpoint >= checkpoint_interval:
                    save_checkpoint()

            supervisor = ChunkSupervisor(
                states,
                policy,
                make_pool,
                submit,
                run_inline,
                chunk_proven,
                on_complete,
                on_tick,
                chunk_timeout=chunk_timeout,
                degrade=degrade,
            )
            supervisor.run()
            stats.chunk_retries = sum(max(0, s.attempts - 1) for s in states)
            stats.chunks_quarantined = sum(1 for s in states if s.quarantined)
            failed = [s for s in states if s.outcome == "failed"]
            stats.chunks_failed = len(failed)
            if failed:
                if not salvage:
                    raise SimulationError(
                        f"a worker process died while fault-simulating "
                        f"{design.name!r} (workers={workers}, "
                        f"chunks={chunks_total}): {len(failed)} chunk(s) "
                        f"unfinished after {policy.max_attempts} attempt(s); "
                        f"the campaign was aborted and its partial verdicts "
                        f"discarded"
                    ) from failed[0].error
                # every verdict written before the failures is still in the
                # plane (streamed, or marked from completed chunks); salvage
                partial = True
        wall = time.perf_counter() - start
        detections = plane.named_detections(faults) if plane is not None else {}
        save_checkpoint()
        checkpoint_final = True
        emit(final=True)
    finally:
        if checkpoint is not None and plane is not None and not checkpoint_final:
            # the campaign is dying (salvage raise, KeyboardInterrupt...):
            # best-effort final snapshot so a restart can resume
            try:
                save_checkpoint()
            except Exception:  # pragma: no cover - snapshot is best-effort here
                pass
        if owned_plane and plane is not None:
            plane.close()
            plane.unlink()

    if use_cache:
        # write fresh verdicts back; proven-undetected faults only from a
        # complete run, because a salvaged campaign cannot tell
        # "undetected" from "never simulated"
        fresh: Dict[str, Optional[int]] = {}
        for fault in faults:
            if fault.name in detections:
                fresh[fault.name] = detections[fault.name]
            elif not partial:
                fresh[fault.name] = None
        if cache_mode == "readwrite" and fresh:
            wrote = store.store(
                design_key,
                stimulus_key,
                fresh,
                design_name=design.name,
                clock=stimulus.clock,
                cycles=stimulus.num_cycles(),
            )
            if wrote:
                stats.cache_writes = len(fresh)
        detections.update(cached_detections)
    coverage = FaultCoverageReport.from_named_detections(
        design.name, campaign, detections, simulator=label
    )
    stats.cycles = cycles
    stats.time_total = wall
    return FaultSimResult(label, coverage, wall, stats, partial=partial)


class ParallelFaultSimulator:
    """Multi-core PPSFP fault simulation with the standard ``run`` interface.

    The class-shaped face of :func:`run_multiprocess`, interchangeable with
    :class:`~repro.sim.packed.PackedCodegenSimulator` and the serial
    baselines.  ``campaign`` holds any of :func:`run_multiprocess`'s
    keywords (``workers``, ``width``, ``spec``, ``on_progress``,
    ``resume_from``, the resilience and cache knobs, ...).  They are bound
    against its signature here, so a misspelt knob fails at construction,
    and forwarded verbatim by :meth:`run`.
    """

    name = "PackedPPSFP-MP"

    def __init__(self, design: Design, **campaign: object) -> None:
        """Capture the campaign configuration; nothing runs until :meth:`run`."""
        from repro.core.stats import SimulationStats

        design.check_finalized()
        inspect.signature(run_multiprocess).bind(design, None, None, **campaign)
        require_at_least("width", campaign.get("width", DEFAULT_WORD_WIDTH), 1)
        self.design = design
        self.campaign = campaign
        self.stats = SimulationStats()

    def run(self, stimulus: Stimulus, faults: "FaultList") -> "FaultSimResult":
        """Run the configured campaign over ``faults``; see :func:`run_multiprocess`."""
        result = run_multiprocess(self.design, stimulus, faults, **self.campaign)
        self.stats = result.stats
        return result


__all__ = [
    "CampaignProgress",
    "DEFAULT_CHECKPOINT_INTERVAL",
    "DEFAULT_DROP_STRIDE",
    "DEFAULT_OVERSUBSCRIBE",
    "DEFAULT_PROGRESS_INTERVAL",
    "DEFAULT_RETRIES",
    "ParallelFaultSimulator",
    "VerdictPlane",
    "WorkloadSpec",
    "chunk_fault_sites",
    "make_campaign_runner",
    "progress_printer",
    "run_multiprocess",
    "set_campaign_defaults",
    "set_default_progress",
]
