"""The paper's benchmark workloads (Section 4).

"We use three representative case studies which cover extreme ends of
potential computations: 1) Embarrassingly parallel multiplications, 2)
Neural network (NN) inference (convolution), and 3) Vector dot-products."

* :class:`~repro.workloads.multiply.ParallelMultiplication` — the ideal
  case: one independent multiplication per lane, no communication;
* :class:`~repro.workloads.dotproduct.DotProduct` — the non-ideal case:
  parallel multiplies followed by a reduction that funnels partial sums
  into low-index lanes;
* :class:`~repro.workloads.convolution.Convolution` — the middle ground:
  grouped lanes computing neuron-weight products with a per-group
  reduction and a comparison non-linearity;
* :mod:`repro.workloads.conventional` — the CPU+memory baseline the paper
  compares against in Section 3.1.

Beyond the hand-built kernels, :mod:`repro.workloads.registry` is the
single name-resolution path (``register`` / ``get_workload`` /
``available_workloads``) every consumer shares, and
:mod:`repro.workloads.trace` turns PIMulator-style instruction traces
into workloads (:class:`~repro.workloads.trace.TraceWorkload`).
"""

from repro.lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "Phase": "repro.workloads.base",
        "Workload": "repro.workloads.base",
        "WorkloadMapping": "repro.workloads.base",
        "evaluate_networked": "repro.workloads.base",
        "evaluate_networked_batch": "repro.workloads.base",
        "ParallelMultiplication": "repro.workloads.multiply",
        "DotProduct": "repro.workloads.dotproduct",
        "Convolution": "repro.workloads.convolution",
        "ConventionalBaseline": "repro.workloads.conventional",
        "VectorAdd": "repro.workloads.vectoradd",
        "BinaryNeuron": "repro.workloads.bnn",
        "MatrixVectorProduct": "repro.workloads.matvec",
        "UnknownWorkloadError": "repro.workloads.registry",
        "WorkloadEntry": "repro.workloads.registry",
        "WorkloadRegistrationError": "repro.workloads.registry",
        "available_workloads": "repro.workloads.registry",
        "get_workload": "repro.workloads.registry",
        "get_workload_factory": "repro.workloads.registry",
        "register": "repro.workloads.registry",
        "unregister": "repro.workloads.registry",
        "workload_entries": "repro.workloads.registry",
        "AddressMapping": "repro.workloads.trace.addressing",
        "TraceLoweringError": "repro.workloads.trace.lowering",
        "TraceWorkload": "repro.workloads.trace.lowering",
        "TraceParseError": "repro.workloads.trace.parser",
    },
)
