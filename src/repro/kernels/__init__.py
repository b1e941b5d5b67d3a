"""The SpMV kernel pool.

Nine kernels with identical semantics (``u[rows] = A[rows, :] @ v``) but
different thread organisations, exactly the paper's §III-B candidate
pool:

- ``serial`` -- one thread per row (Algorithm 3),
- ``subvector2 ... subvector128`` -- ``X`` threads per row with LDS
  staging and segmented parallel reduction (Algorithm 4).  The paper
  lists X in {2, 4, 16, 32, 64, 128} but counts *nine* kernels total;
  we include X = 8 so that serial + 7 subvector variants + vector = 9
  (discrepancy documented in DESIGN.md),
- ``vector`` -- the whole 256-thread work-group per row (Algorithm 5).

Every kernel exposes:

- :meth:`~repro.kernels.base.Kernel.compute` -- the actual arithmetic,
  with an ``emulate=True`` mode that reproduces the OpenCL kernel's
  staging loops and tree-reduction association order lane by lane, and a
  vectorised fast path (identical up to FP rounding) that sums each row
  as the simulated device's one compute pass does -- the device itself
  computes ``y`` once per request and never calls a kernel's
  ``compute``;
- :meth:`~repro.kernels.base.Kernel.cost` -- the analytical
  :class:`~repro.device.dispatch.DispatchStats` of launching the kernel
  over a bin with the given row lengths, or over a batch of bins in one
  pass.
"""

from repro.kernels.base import Kernel
from repro.kernels.registry import (
    DEFAULT_KERNEL_NAMES,
    SUBVECTOR_WIDTHS,
    get_kernel,
    kernel_registry,
)
from repro.kernels.serial import SerialKernel
from repro.kernels.subvector import SubvectorKernel
from repro.kernels.vector import VectorKernel

__all__ = [
    "Kernel",
    "SerialKernel",
    "SubvectorKernel",
    "VectorKernel",
    "kernel_registry",
    "get_kernel",
    "DEFAULT_KERNEL_NAMES",
    "SUBVECTOR_WIDTHS",
]
