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

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "CODES": "repro.verify.diagnostics",
        "Diagnostic": "repro.verify.diagnostics",
        "Location": "repro.verify.diagnostics",
        "Severity": "repro.verify.diagnostics",
        "VerifyReport": "repro.verify.diagnostics",
        "FUNCTIONAL_CODES": "repro.verify.api",
        "VerificationError": "repro.verify.api",
        "verify_fleet_spec": "repro.verify.api",
        "verify_mapping": "repro.verify.api",
        "verify_network": "repro.verify.api",
        "verify_program": "repro.verify.api",
        "verify_self": "repro.verify.api",
        "check_bounds": "repro.verify.dataflow",
        "check_dataflow": "repro.verify.dataflow",
        "check_level_segments": "repro.verify.dataflow",
        "check_levels": "repro.verify.dataflow",
        "check_checkpoint": "repro.verify.schemas",
        "check_manifest": "repro.verify.schemas",
        "check_trace": "repro.verify.schemas",
        "check_config": "repro.verify.wear",
        "check_permutation_rows": "repro.verify.wear",
        "check_profile_conservation": "repro.verify.wear",
        "check_schedule": "repro.verify.wear",
        "check_stream_keys": "repro.verify.streams",
        "check_streams": "repro.verify.streams",
        "derive_stream_keys": "repro.verify.streams",
        "self_lint": "repro.verify.lint",
    },
)
