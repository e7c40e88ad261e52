"""The endurance simulator: workload x balance config x iterations -> wear.

Reproduces the paper's methodology (Section 4): "Due to temporally
fine-grained hardware based re-mapping, each repetition (iteration) of a
benchmark can have a different write distribution. Hence, it is necessary
to fully simulate a large number of iterations. We simulate each benchmark
100,000 times to obtain an estimate of the overall write distribution over
time."

The simulation is exact, not sampled: between software recompiles the
logical wear profile is constant, so an epoch's contribution is an outer
product (``repro.array.executor.accumulate_assignment``); hardware
re-mapping within an epoch is resolved in closed form by the permutation-
cycle algebra (``repro.balance.hardware``). Both paths are property-tested
against naive instruction-by-instruction replay.

Epoch semantics: software strategies re-map at recompile boundaries (every
``recompile_interval`` iterations); recompilation reinstalls the full
logical-to-physical mapping, so hardware re-mapping state restarts from
the new software mapping. Configurations without any software re-mapping
(``St x St``) never recompile and run as one continuous epoch.
"""

from __future__ import annotations

import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.array.architecture import PIMArchitecture
from repro.array.executor import accumulate_assignment
from repro.array.geometry import Orientation
from repro.array.state import ArrayState, lane_runs
from repro.balance.config import BalanceConfig
from repro.balance.hardware import HardwareRemapper, remapper_for
from repro.balance.software import StrategyKind, wear_aware_permutation
from repro.core.kernel import (
    accumulation_dtype,
    epoch_lengths,
    kernel_path,
    make_epoch_maps,
    run_batched_epochs,
)
from repro.core.scratch import POOL
from repro.core.settings import SimulationSettings
from repro.core.writedist import WriteDistribution
from repro.telemetry.core import get_telemetry
from repro.verify.api import VerificationError, verify_mapping
from repro.workloads.base import Workload, WorkloadMapping

#: Bound on :func:`mapping_for`'s memo: enough for a grid over a few
#: workloads on a few architectures, small enough that a long sweep
#: over many workloads keeps only its recent mappings alive.
MAPPING_MEMO_SIZE = 8

_MAPPINGS: "OrderedDict[tuple, WorkloadMapping]" = OrderedDict()


def mapping_for(
    workload: Workload, architecture: PIMArchitecture
) -> WorkloadMapping:
    """The :class:`WorkloadMapping` of ``workload`` on ``architecture``.

    The one place a mapping is built for simulation. Builds are memoized
    process-wide in a least-recently-used table of
    :data:`MAPPING_MEMO_SIZE` entries, keyed on content rather than
    object identity: the workload's parameter ``signature`` (two
    instances sharing a name may build different mappings), its display
    ``name`` (the mapping carries it as ``workload_name``), and the
    architecture by value. Every sweep cell, engine job and fresh
    simulator over the same content therefore shares one lowering, and
    the ``mapping_compile`` phase times only the builds that happen.

    Mappings are treated as immutable once built; callers must not
    modify the returned object.
    """
    key = (workload.signature, workload.name, architecture)
    tele = get_telemetry()
    mapping = _MAPPINGS.get(key)
    if mapping is not None:
        _MAPPINGS.move_to_end(key)
        tele.count("mapping.memo_hits")
        return mapping
    tele.count("mapping.memo_misses")
    with tele.timed_phase("mapping_compile", workload=workload.name):
        mapping = workload.build(architecture)
    _MAPPINGS[key] = mapping
    while len(_MAPPINGS) > MAPPING_MEMO_SIZE:
        _MAPPINGS.popitem(last=False)
    return mapping


#: Per pooled counter plane, keyed on ``(slot, shape, dtype)`` as
#: :data:`POOL` keys it: a weak reference to the plane, and the
#: orientation and lanes of the last run on it, kept only once that run
#: finished without an error. Every lane outside them is still zero, so
#: :func:`_pooled_plane` clears just these.
_WRITTEN_LANES: Dict[tuple, Tuple[weakref.ref, Orientation, np.ndarray]] = {}

#: A plane whose last run wrote more than ``lane count // ZERO_RUNS_DIVISOR``
#: runs of consecutive lanes is zeroed whole. At 1024x1024 one
#: column-parallel plane fills in 0.37 ms, and 32 one-lane runs clear
#: in 0.26 ms (a strided column each); a run of 512 lanes takes 0.26 ms.
ZERO_RUNS_DIVISOR = 32


def _pooled_plane(
    slot: str, shape: Tuple[int, int], dtype: np.dtype
) -> Tuple[np.ndarray, Callable[[], None]]:
    """The pool's ``dtype`` counter plane ``slot`` and the call that
    zeroes it, which the run's state makes only if its first product
    does not overwrite the plane (:meth:`ArrayState.from_counts`).

    When the last run on this very plane finished and wrote few runs
    of lanes (a trace cell's programs), the call clears only those
    (none at all after a run that wrote none); otherwise (a new plane,
    a run that raised part-way, or lanes scattered by random
    shuffling) it clears the whole plane. Until :func:`_note_written`
    records the coming run's lanes, the plane counts as wholly dirty.
    """
    plane = POOL.get(slot, shape, dtype)
    ref, orientation, lanes = _WRITTEN_LANES.pop(
        (slot, shape, plane.dtype.str), (None, None, None)
    )
    whole = partial(plane.fill, 0)
    if ref is None or ref() is not plane:
        return plane, whole
    by_lane = plane if orientation is Orientation.COLUMN_PARALLEL else plane.T
    runs = lane_runs(lanes)
    if len(runs) > by_lane.shape[1] // ZERO_RUNS_DIVISOR:
        return plane, whole

    def clear() -> None:
        for start, stop in runs:
            first = int(lanes[start])
            by_lane[:, first : first + stop - start] = 0

    return plane, clear


def _note_written(
    state: ArrayState,
    orientation: Orientation,
    lanes: np.ndarray,
    track_reads: bool,
) -> None:
    """Record that a finished run on the pooled planes of ``state``
    wrote only ``lanes`` of them (along ``orientation``'s lane axis);
    the state's columns (:meth:`ArrayState.add_every_lane`) never
    reach the planes."""
    planes = [("state.writes", state.write_counts)]
    if track_reads:
        planes.append(("state.reads", state.read_counts))
    for slot, plane in planes:
        _WRITTEN_LANES[(slot, plane.shape, plane.dtype.str)] = (
            weakref.ref(plane), orientation, lanes
        )


@dataclass
class SimulationResult:
    """Everything one simulation run produced, simulated or restored.

    Attributes:
        workload_name: Benchmark label.
        config: The balance configuration simulated.
        architecture: Target architecture.
        iterations: Iterations simulated.
        epochs: Software-remapping epochs the run spanned.
        state: The run's finished per-cell counters: exact unsigned
            integers in packed form (:meth:`ArrayState.finish`).
        iteration_latency_s: One iteration's latency (3 ns per
            sequential op, Section 4).
        lane_utilization: Average lane utilization (Table 3), from the
            mapping's schedule.
        mapping: The workload mapping (schedule, utilization, programs);
            ``None`` on a result restored from disk
            (:func:`repro.core.io.restore_result`), which stores only
            what the mapping determines.
    """

    workload_name: str
    config: BalanceConfig
    architecture: PIMArchitecture
    iterations: int
    epochs: int
    state: ArrayState
    iteration_latency_s: float
    lane_utilization: float
    mapping: Optional[WorkloadMapping] = None

    @property
    def write_distribution(self) -> WriteDistribution:
        """The accumulated write distribution."""
        return WriteDistribution(
            self.state.write_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label}",
        )

    @property
    def read_distribution(self) -> WriteDistribution:
        """The accumulated read distribution (same machinery)."""
        return WriteDistribution(
            self.state.read_counts,
            self.iterations,
            self.architecture.orientation,
            label=f"{self.workload_name} {self.config.label} (reads)",
        )

    @property
    def max_writes_per_iteration(self) -> float:
        """Hottest cell's write rate — the paper's Eq. 4 denominator."""
        return self.state.max_writes / self.iterations


@dataclass
class _PreparedRun:
    """A verified run's inputs: mapping, zeroed counters and streams."""

    architecture: PIMArchitecture
    mapping: WorkloadMapping
    state: ArrayState
    rng: np.random.Generator
    groups: Dict[int, Tuple[object, np.ndarray]]
    remappers: Optional[Dict[int, HardwareRemapper]]
    lane_loads: Optional[np.ndarray]
    track_reads: bool

    def result(
        self,
        config: BalanceConfig,
        iterations: int,
        epochs: int,
        lanes: Optional[np.ndarray] = None,
    ) -> SimulationResult:
        """Wrap the accumulated counters as a :class:`SimulationResult`,
        narrowed to their packed integer form (:meth:`ArrayState.finish`;
        ``lanes``, the lanes of the planes the run wrote, as there).

        Raises:
            repro.array.state.InexactCountError: if a count is not an
                exact non-negative integer.
        """
        return SimulationResult(
            workload_name=self.mapping.workload_name,
            config=config,
            architecture=self.architecture,
            iterations=iterations,
            epochs=epochs,
            state=self.state.finish(
                self.architecture.orientation, lanes, self.track_reads
            ),
            iteration_latency_s=self.mapping.iteration_latency_s,
            lane_utilization=self.mapping.lane_utilization,
            mapping=self.mapping,
        )


class EnduranceSimulator:
    """Drives workloads through balance configurations on one architecture.

    Args:
        architecture: The PIM array design under test.
        settings: The run's :class:`SimulationSettings` (seed and read
            tracking); defaults to ``SimulationSettings()``.
    """

    def __init__(
        self,
        architecture: PIMArchitecture,
        settings: Optional[SimulationSettings] = None,
    ) -> None:
        self.settings = (
            settings if settings is not None else SimulationSettings()
        )
        self.architecture = architecture

    @property
    def seed(self) -> int:
        """The settings' base RNG seed."""
        return self.settings.seed

    def run(
        self,
        workload: Workload,
        config: BalanceConfig,
        iterations: int = 100_000,
        settings: Optional[SimulationSettings] = None,
    ) -> SimulationResult:
        """Simulate ``iterations`` repetitions under ``config``.

        Every run goes through :func:`repro.core.kernel.run_batched_epochs`,
        which fast-forwards configs periodic on both axes and folds a
        config's one periodic axis before each GEMM.

        Args:
            workload: The benchmark kernel.
            config: Load-balancing configuration.
            iterations: Repetitions ("as soon as it computes the final
                results a new set of inputs is loaded and the process
                repeats", Section 4).
            settings: Per-call settings override; defaults to the
                simulator's own :class:`SimulationSettings`.
        """
        effective = settings if settings is not None else self.settings
        tele = get_telemetry()
        start = time.perf_counter()
        run = self._prepare(workload, config, iterations, effective)
        path = kernel_path(config)
        written = np.zeros(self.architecture.lane_count, dtype=bool)
        with tele.timed_phase("kernel", kernel=path):
            epochs = run_batched_epochs(
                self.architecture,
                config,
                run.state,
                run.rng,
                run.groups,
                iterations,
                remappers=run.remappers,
                lane_loads=run.lane_loads,
                track_reads=effective.track_reads,
                written=written,
            )

        elapsed = time.perf_counter() - start
        tele.count("sim.runs")
        tele.count("sim.iterations", iterations)
        tele.count("sim.epochs", epochs)
        tele.gauge("sim.epochs_per_s", epochs / elapsed if elapsed > 0 else 0.0)
        lanes = np.flatnonzero(written)
        result = run.result(config, iterations, epochs, lanes)
        _note_written(
            run.state, self.architecture.orientation, lanes,
            effective.track_reads,
        )
        if tele.enabled:
            # Full-array reductions are only worth paying for when the
            # event is actually going somewhere.
            tele.emit(
                "simulation",
                workload=run.mapping.workload_name,
                config=config.label,
                iterations=iterations,
                epochs=epochs,
                kernel=path,
                seed=effective.seed,
                seconds=round(elapsed, 6),
                epochs_per_s=round(epochs / elapsed, 2) if elapsed > 0 else 0.0,
                writes=result.state.total_writes,
                reads=result.state.total_reads,
            )
        return result

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _prepare(
        self,
        workload: Workload,
        config: BalanceConfig,
        iterations: int,
        settings: SimulationSettings,
    ) -> "_PreparedRun":
        """Validate, map and verify a run; set up its state and streams.

        The counters accumulate in the run's accumulation dtype, picked
        here once from its per-cell bound
        (:func:`repro.core.kernel.accumulation_dtype`): float32 when
        that proves every partial sum exact there, else float64. They
        live in the process pool's per-geometry workspaces of that
        dtype, handed to the state with the call that zeroes them —
        after a finished run, only the lanes that run wrote
        (:func:`_pooled_plane`) — which it skips where its first
        product overwrites a plane:
        :meth:`_PreparedRun.result` narrows them into the result's own
        arrays, so no run keeps a workspace and a grid of runs allocates
        one per dtype. Reads untracked, the read plane is a broadcast
        zero plane.
        """
        if iterations <= 0:
            raise ValueError("iterations must be positive")
        if config.within is StrategyKind.WEAR_AWARE:
            raise ValueError(
                "wear-aware mapping applies between lanes only (within-lane "
                "roles are identical across a lane, so there is no load "
                "signal to sort by)"
            )
        architecture = self.architecture
        mapping = mapping_for(workload, architecture)
        self._verify(mapping, config, iterations, settings.track_reads)
        groups = mapping.roles
        remappers = None
        if config.hardware:
            remappers = {
                key: remapper_for(
                    program, architecture.lane_size, architecture.presets_output
                )
                for key, (program, _) in groups.items()
            }
        lane_loads = (
            mapping.lane_loads()
            if config.between is StrategyKind.WEAR_AWARE
            else None
        )
        dtype = accumulation_dtype(
            architecture, config, groups, remappers, iterations,
            settings.track_reads,
        )
        geometry = architecture.geometry
        shape = (geometry.rows, geometry.cols)
        planes = {"write": _pooled_plane("state.writes", shape, dtype)}
        if settings.track_reads:
            planes["read"] = _pooled_plane("state.reads", shape, dtype)
        return _PreparedRun(
            architecture=architecture,
            mapping=mapping,
            state=ArrayState.from_counts(
                geometry,
                planes["write"][0],
                planes["read"][0] if settings.track_reads else None,
                unzeroed={kind: zero for kind, (_, zero) in planes.items()},
            ),
            rng=np.random.default_rng(settings.seed),
            groups=groups,
            remappers=remappers,
            lane_loads=lane_loads,
            track_reads=settings.track_reads,
        )

    def _run_epoch_loop(
        self,
        workload: Workload,
        config: BalanceConfig,
        iterations: int,
        settings: Optional[SimulationSettings] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SimulationResult:
        """The sequential per-epoch simulation — the kernel's slow oracle.

        Reached only from tests, which pin :meth:`run` to it bit for
        bit. Every epoch is simulated on its own: permutations come from
        :func:`make_epoch_maps` one epoch at a time (consuming the random
        stream exactly as the kernel's chunked draws do), wear-aware
        assignments are resolved against the full state, and each epoch
        lands as outer products into a fresh (unpooled) float64 state,
        packed at the end by scanning for its written lanes. ``rng``
        overrides the stream seeded from ``settings.seed``, so a test
        can inspect what is left of it.
        """
        settings = settings if settings is not None else self.settings
        run = self._prepare(workload, config, iterations, settings)
        if rng is not None:
            run.rng = rng
        architecture = self.architecture
        orientation = architecture.orientation
        # A fresh state: the oracle shares no workspace with the kernel.
        state = run.state = ArrayState(architecture.geometry)
        lengths = epoch_lengths(config, iterations)
        for epoch, length in enumerate(lengths.tolist()):
            within_maps, between_maps = make_epoch_maps(
                config.within,
                config.between,
                architecture.lane_size,
                architecture.lane_count,
                1,
                run.rng,
                epoch_start=epoch,
            )
            within = within_maps[0]
            if between_maps is None:  # wear-aware: resolved against state
                wear = state.lane_view(state.write_counts, orientation).sum(
                    axis=0
                )
                between = wear_aware_permutation(run.lane_loads, wear)
            else:
                between = between_maps[0]
            if config.hardware:
                for key, (_, lanes) in run.groups.items():
                    writes, reads = run.remappers[key].profile(length, within)
                    lane_weights = np.zeros(architecture.lane_count)
                    np.add.at(lane_weights, between[np.asarray(lanes)], 1.0)
                    state.add_lane_profile(
                        writes, lane_weights, orientation, "write"
                    )
                    if settings.track_reads:
                        state.add_lane_profile(
                            reads, lane_weights, orientation, "read"
                        )
            else:
                accumulate_assignment(
                    architecture,
                    run.mapping.assignment,
                    state,
                    within_map=within,
                    between_map=between,
                    repetitions=float(length),
                    track_reads=settings.track_reads,
                )
        return run.result(config, iterations, int(lengths.size))

    def _verify(
        self,
        mapping: WorkloadMapping,
        config: BalanceConfig,
        iterations: int,
        track_reads: bool,
    ) -> None:
        """Statically check the mapping/config pair before simulating.

        Runs :func:`repro.verify.verify_mapping` in wear-only mode (value
        semantics are warnings — a wear simulation never executes gate
        values) over the run's horizon (RPR019 refuses one whose write
        counters, or read counters when ``track_reads``, would leave
        float64's exact integers) and rejects the run on any error.
        Every run verifies;
        the expensive per-program passes are memoized on the programs
        themselves, so a repeat pays only the cheap bounds, schedule and
        configuration checks.

        Raises:
            VerificationError: if the static checks report errors.
        """
        with get_telemetry().timed_phase(
            "verify", workload=mapping.workload_name
        ):
            report = verify_mapping(
                mapping,
                config,
                functional=False,
                iterations=iterations,
                track_reads=track_reads,
            )
        if report.errors:
            raise VerificationError(report)
