"""Synthesis of arithmetic into in-memory gate programs.

PIM architectures decompose complex operations (addition, multiplication,
comparison) into sequences of basic logic gates performed within a lane
(paper Section 2.2). This subpackage builds those sequences as executable
:class:`~repro.synth.program.LaneProgram` objects:

* :mod:`repro.synth.bits` — logical-bit allocation with a free list,
  mirroring the paper's simulator semantics ("for each gate in the program,
  1 new bit of logical memory is allocated for the output; logical bits are
  freed once they are no longer needed", Section 4);
* :mod:`repro.synth.program` — the program container and builder;
* :mod:`repro.synth.adders` — half/full adders and the ripple-carry adder
  ("optimal for PIM as it uses the fewest gates");
* :mod:`repro.synth.multiplier` — the carry-save array ("DADDA" in the
  paper's terminology) multiplier with exactly ``b^2-2b`` full adds, ``b``
  half adds and ``b^2`` AND gates;
* :mod:`repro.synth.comparator` — subtractor-based magnitude comparison
  (the BNN threshold non-linearity);
* :mod:`repro.synth.analysis` — closed-form gate/read/write counts matching
  the paper's Section 3.1 arithmetic.
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "BitAllocator": "repro.synth.bits",
        "BitVector": "repro.synth.bits",
        "LaneCapacityError": "repro.synth.bits",
        "CompiledProgram": "repro.synth.compiled",
        "compile_program": "repro.synth.compiled",
        "LaneProgram": "repro.synth.program",
        "LaneProgramBuilder": "repro.synth.program",
        "WriteInstr": "repro.synth.program",
        "ReadInstr": "repro.synth.program",
        "full_adder": "repro.synth.adders",
        "half_adder": "repro.synth.adders",
        "ripple_carry_add": "repro.synth.adders",
        "multiply": "repro.synth.multiplier",
        "compare_ge": "repro.synth.comparator",
        "OperationCounts": "repro.synth.analysis",
        "multiplier_counts": "repro.synth.analysis",
        "adder_counts": "repro.synth.analysis",
        "conventional_multiplication_counts": "repro.synth.analysis",
        "pim_vs_conventional_write_ratio": "repro.synth.analysis",
    },
)
