"""Nonvolatile memory device models.

This subpackage models the three representative resistive NVM technologies
the paper considers (Section 2.1): MRAM (magnetic tunnel junctions), RRAM
(metal-insulator-metal filamentary cells), and PCM (phase-change memory).
Each technology is described by a :class:`~repro.devices.technology.Technology`
record carrying write endurance, per-operation latency, and per-operation
energy. Endurance itself can be modelled as uniform across cells (the paper's
pessimistic assumption) or as a lognormal per-cell distribution
(:mod:`repro.devices.endurance`).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "Technology": "repro.devices.technology",
        "MRAM": "repro.devices.technology",
        "RRAM": "repro.devices.technology",
        "RRAM_OPTIMISTIC": "repro.devices.technology",
        "PCM": "repro.devices.technology",
        "TECHNOLOGIES": "repro.devices.technology",
        "technology_by_name": "repro.devices.technology",
        "EnduranceModel": "repro.devices.endurance",
        "UniformEndurance": "repro.devices.endurance",
        "LognormalEndurance": "repro.devices.endurance",
        "EnergyModel": "repro.devices.energy",
        "OperationCosts": "repro.devices.energy",
    },
)
