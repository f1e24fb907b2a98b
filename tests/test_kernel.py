"""Tests for the shared cycle-driver kernel layer (repro.sim.kernel)."""


from repro.baselines.ifsim import IFsimSimulator
from repro.core.framework import EraserSimulator
from repro.fault.faultlist import generate_stuck_at_faults
from repro.sim.compiled import CompiledEngine
from repro.sim.engine import EventDrivenEngine
from repro.fault.faultlist import FaultList
from repro.fault.model import StuckAtFault
from repro.sim.kernel import CycleDriver, SimulationKernel


def test_every_simulator_implements_the_kernel_protocol(counter_design):
    for kernel in (
        EventDrivenEngine(counter_design),
        CompiledEngine(counter_design),
        EraserSimulator(counter_design),
    ):
        assert isinstance(kernel, SimulationKernel)
        for method in ("initialize", "apply_input", "settle", "observe"):
            assert callable(getattr(kernel, method)), method


def test_cycle_driver_runs_full_stimulus(counter_design, counter_stimulus):
    engine = EventDrivenEngine(counter_design)
    stopped_at = CycleDriver(engine, counter_stimulus).run()
    assert stopped_at is None  # ran to completion


def test_cycle_driver_observer_stops_early(counter_design, counter_stimulus):
    engine = EventDrivenEngine(counter_design)
    seen = []

    def observer(cycle):
        seen.append(cycle)
        return cycle == 7

    assert CycleDriver(engine, counter_stimulus).run(observer) == 7
    assert seen == list(range(8))


def test_cycle_driver_drives_eraser_simulator_directly(
    counter_design, counter_stimulus
):
    """The framework docstring advertises direct driving: initialize() must
    self-prepare (empty fault list) so the good machine can be advanced
    without going through run()."""
    simulator = EraserSimulator(counter_design)
    assert CycleDriver(simulator, counter_stimulus).run() is None
    assert simulator.stats.cycles == counter_stimulus.num_cycles()
    # the good machine actually advanced: the counter is not stuck at reset
    assert simulator.store.values[counter_design.signal("count")] != 0


def test_cycle_driver_gives_identical_traces_on_both_engines(
    counter_design, counter_stimulus
):
    event = EventDrivenEngine(counter_design).run(counter_stimulus)
    compiled = CompiledEngine(counter_design).run(counter_stimulus)
    assert event == compiled


def test_eraser_verdicts_are_partition_invariant(counter_design, counter_stimulus):
    """Stuck-at faults never interact: the union of independent
    EraserSimulator runs over three slices of a fault list equals one full
    run, which in turn agrees with the serial IFsim reference."""
    faults = generate_stuck_at_faults(counter_design)
    full = EraserSimulator(counter_design).run(counter_stimulus, faults)
    union = {}
    for index in range(3):
        # fresh fault objects: each slice gets its own dense fault ids
        piece = FaultList(
            [StuckAtFault(f.signal, f.bit, f.value) for f in list(faults)[index::3]]
        )
        detections = EraserSimulator(counter_design).run(
            counter_stimulus, piece
        ).coverage.detections
        assert not union.keys() & detections.keys()
        union.update(detections)
    assert union == full.coverage.detections
    serial = IFsimSimulator(counter_design).run(counter_stimulus, faults)
    assert full.coverage.same_verdicts(serial.coverage)
