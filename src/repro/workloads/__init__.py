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

from repro.workloads.base import (
    Phase,
    Workload,
    WorkloadMapping,
    evaluate_networked,
    evaluate_networked_batch,
)
from repro.workloads.multiply import ParallelMultiplication
from repro.workloads.dotproduct import DotProduct
from repro.workloads.convolution import Convolution
from repro.workloads.conventional import ConventionalBaseline
from repro.workloads.vectoradd import VectorAdd
from repro.workloads.bnn import BinaryNeuron
from repro.workloads.matvec import MatrixVectorProduct
from repro.workloads.registry import (
    UnknownWorkloadError,
    WorkloadEntry,
    WorkloadRegistrationError,
    available_workloads,
    get_workload,
    get_workload_factory,
    register,
    unregister,
    workload_entries,
)
from repro.workloads.trace import (
    AddressMapping,
    TraceLoweringError,
    TraceParseError,
    TraceWorkload,
)

__all__ = [
    "Phase",
    "Workload",
    "WorkloadMapping",
    "evaluate_networked",
    "evaluate_networked_batch",
    "ParallelMultiplication",
    "DotProduct",
    "Convolution",
    "ConventionalBaseline",
    "VectorAdd",
    "BinaryNeuron",
    "MatrixVectorProduct",
    # registry
    "UnknownWorkloadError",
    "WorkloadEntry",
    "WorkloadRegistrationError",
    "available_workloads",
    "get_workload",
    "get_workload_factory",
    "register",
    "unregister",
    "workload_entries",
    # trace frontend
    "AddressMapping",
    "TraceLoweringError",
    "TraceParseError",
    "TraceWorkload",
]
