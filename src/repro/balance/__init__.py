"""Load balancing (wear leveling) for NVPIM.

Implements the paper's strategy space (Section 3.2):

* **Software** re-mapping of the logical-to-physical bit map, within lanes
  and between lanes, applied at recompile time: Static (``St``), Random
  shuffling (``Ra``), Byte-shifting (``Bs``) — 9 combinations;
* **Hardware** re-mapping (``Hw``): spare-bit register renaming applied on
  every write/gate, modelled exactly via a permutation-cycle algebra;
* **Memory-access-aware** re-mapping: COPY-gate shuffling whose gate
  overhead reproduces Table 2;
* **Standard-NVM baselines** (Start-Gap, table-based remap) plus the
  Fig. 6 demonstration of why word-granularity remapping breaks PIM.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "identity_permutation": "repro.balance.mapping",
        "random_permutation": "repro.balance.mapping",
        "byte_shift_permutation": "repro.balance.mapping",
        "StrategyKind": "repro.balance.software",
        "make_permutation": "repro.balance.software",
        "HardwareRemapper": "repro.balance.hardware",
        "shuffle_copy_gates": "repro.balance.access_aware",
        "shuffle_overhead_percent": "repro.balance.access_aware",
        "table2_rows": "repro.balance.access_aware",
        "StartGapRemapper": "repro.balance.nvm_baselines",
        "TableBasedRemapper": "repro.balance.nvm_baselines",
        "pim_and_after_remap": "repro.balance.nvm_baselines",
        "BalanceConfig": "repro.balance.config",
        "all_configurations": "repro.balance.config",
    },
)
