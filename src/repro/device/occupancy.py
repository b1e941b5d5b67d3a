"""Occupancy model: how many work-groups fit on a compute unit.

Occupancy limits latency hiding: a dispatch that can only keep a few
wavefronts resident per CU exposes DRAM latency on every dependent load.
GCN occupancy is bounded by wavefront slots, work-group slots and LDS
capacity; register pressure is ignored (the paper's kernels are small).
"""

from __future__ import annotations

import numpy as np

from repro.device.spec import DeviceSpec
from repro.errors import DeviceError

__all__ = ["workgroup_occupancy", "resident_waves"]


def workgroup_occupancy(spec: DeviceSpec, lds_bytes_per_wg: int = 0) -> int:
    """Maximum work-groups simultaneously resident on one CU.

    Bounded by the wavefront-slot budget, the work-group slot budget and
    (when the kernel stages into local memory) the LDS budget.
    """
    if lds_bytes_per_wg < 0:
        raise DeviceError(f"lds_bytes_per_wg must be >= 0, got {lds_bytes_per_wg}")
    by_waves = spec.max_waves_per_cu // spec.waves_per_workgroup
    by_slots = spec.max_workgroups_per_cu
    if lds_bytes_per_wg > 0:
        if lds_bytes_per_wg > spec.lds_bytes_per_cu:
            raise DeviceError(
                f"work-group requests {lds_bytes_per_wg} B LDS, CU has "
                f"{spec.lds_bytes_per_cu} B"
            )
        by_lds = spec.lds_bytes_per_cu // lds_bytes_per_wg
    else:
        by_lds = by_slots
    return max(1, min(by_waves, by_slots, by_lds))


def resident_waves(
    spec: DeviceSpec, n_waves: float, lds_bytes_per_wg: int = 0
) -> float:
    """Average wavefronts resident per CU for a dispatch of ``n_waves``.

    The latency-hiding capability of the dispatch: capped below by 1
    (something is always running while work remains) and above by the
    occupancy limit.  Elementwise over an array of wave counts.
    """
    batch = isinstance(n_waves, np.ndarray)
    if not batch and n_waves <= 0:
        return 0.0
    cap = workgroup_occupancy(spec, lds_bytes_per_wg) * spec.waves_per_workgroup
    per_cu = n_waves / spec.num_cus
    if batch:
        return np.where(n_waves > 0, np.maximum(1.0, np.minimum(per_cu, cap)), 0.0)
    return float(max(1.0, min(per_cu, cap)))
