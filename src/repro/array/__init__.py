"""The PIM array substrate: geometry, state, architectures, execution, faults.

Models the memory array the paper simulates: an ``N x N`` grid of
nonvolatile cells organized into *lanes* (rows or columns, depending on the
architecture's parallelism — Section 2.2), with per-cell read/write
counters (the simulator is "instruction-level accurate, and each write to
each memory cell is counted", Section 4) and failed-cell analysis
(Section 3.3).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ArrayGeometry": "repro.array.geometry",
        "Orientation": "repro.array.geometry",
        "ArrayState": "repro.array.state",
        "PIMArchitecture": "repro.array.architecture",
        "LogicStyle": "repro.array.architecture",
        "default_architecture": "repro.array.architecture",
        "CRAM_COLUMN": "repro.array.architecture",
        "CRAM_ROW": "repro.array.architecture",
        "PINATUBO": "repro.array.architecture",
        "MAGIC_RRAM": "repro.array.architecture",
        "replay_assignment": "repro.array.executor",
        "accumulate_assignment": "repro.array.executor",
        "usable_offsets": "repro.array.faults",
        "expected_usable_fraction": "repro.array.faults",
        "usable_fraction_curve": "repro.array.faults",
        "plan_lane_sets": "repro.array.faults",
        "LaneSetPlan": "repro.array.faults",
    },
)
