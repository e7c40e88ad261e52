"""repro.verify — whole-system static analysis without execution.

Checks programs, configurations, and now whole campaigns without
executing them: an IR dataflow pass over the lane-program instruction
stream, a hazard pass over the compiled gate levels, a wear-invariant
pass over profiles, permutations, and schedules, an RNG
stream-discipline pass (:mod:`~repro.verify.streams`), versioned artifact schema validation
(:mod:`~repro.verify.schemas`), and an AST self-lint over the repo's
own invariants (:mod:`~repro.verify.lint`). Findings carry stable
``RPR0xx`` codes and render as text or JSON; the ``repro-endurance
verify`` CLI subcommand and the simulator's and fleet's pre-run
gates are built on these entry points.
"""

from repro.verify.api import (
    FUNCTIONAL_CODES,
    VerificationError,
    verify_fleet_spec,
    verify_mapping,
    verify_network,
    verify_program,
    verify_self,
)
from repro.verify.dataflow import (
    check_bounds,
    check_dataflow,
    check_level_segments,
    check_levels,
)
from repro.verify.diagnostics import (
    CODES,
    Diagnostic,
    Location,
    Severity,
    VerifyReport,
)
from repro.verify.lint import self_lint
from repro.verify.schemas import (
    check_checkpoint,
    check_manifest,
    check_trace,
)
from repro.verify.streams import (
    check_stream_keys,
    check_streams,
    derive_stream_keys,
)
from repro.verify.wear import (
    check_config,
    check_permutation_rows,
    check_profile_conservation,
    check_schedule,
)

__all__ = [
    "CODES",
    "Diagnostic",
    "FUNCTIONAL_CODES",
    "Location",
    "Severity",
    "VerificationError",
    "VerifyReport",
    "check_bounds",
    "check_checkpoint",
    "check_config",
    "check_dataflow",
    "check_level_segments",
    "check_levels",
    "check_manifest",
    "check_permutation_rows",
    "check_profile_conservation",
    "check_schedule",
    "check_stream_keys",
    "check_streams",
    "check_trace",
    "derive_stream_keys",
    "self_lint",
    "verify_fleet_spec",
    "verify_mapping",
    "verify_network",
    "verify_program",
    "verify_self",
]
