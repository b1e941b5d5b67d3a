"""Per-bin pricing formulas, frozen as the reference for batched pricing.

These are the cost models of Kernel-Serial, Kernel-SubvectorX and
Kernel-Vector and the roofline of ``dispatch_breakdown`` exactly as they
priced one bin at a time, with the device-memory helpers and occupancy
they call.  Nothing under ``src/`` imports this module: the tests price
every bin both ways and compare ``repr`` of every field.
"""

from __future__ import annotations

import numpy as np

from repro.device.dispatch import DispatchStats
from repro.device.spec import DeviceSpec

__all__ = ["reference_cost", "reference_breakdown", "reference_seconds"]

ROW_OVERHEAD_INSTR = 2.0
WAVE_OVERHEAD_INSTR = 8.0
SERIAL_INSTR_PER_ITER = 6.0
FACTOR = 4
BASE_INSTR_PER_ROUND = 2.0 * FACTOR + 4.0
INSTR_PER_REDUCE_STEP = 2.0
INSTR_PER_BARRIER = 2.0
INSTR_PER_CROSS_WAVE_BARRIER = 12.0
CSR_ELEMENT_BYTES = 12
VALUE_BYTES = 8


# -- device-memory helpers ------------------------------------------------
def _stream_lines(total_bytes, spec):
    return np.ceil(np.asarray(total_bytes, dtype=np.float64)
                   / spec.cacheline_bytes)


def _gather_lines(nnz, locality, spec):
    locality = float(np.clip(locality, 0.0, 1.0))
    per_line = spec.cacheline_bytes / VALUE_BYTES
    lines_local = np.asarray(nnz, dtype=np.float64) / per_line
    lines_scattered = np.asarray(nnz, dtype=np.float64)
    return locality * lines_local + (1.0 - locality) * lines_scattered


def _strided_waste_factor(group_width, mean_row_len, spec):
    mean_row_len = np.asarray(mean_row_len, dtype=np.float64)
    max_waste = spec.cacheline_bytes / (CSR_ELEMENT_BYTES * group_width)
    if max_waste <= 1.0:
        return np.ones_like(mean_row_len)
    return np.clip(mean_row_len / group_width, 1.0, max_waste)


def _pad_reshape(values, width, fill=0):
    values = np.asarray(values)
    n = len(values)
    n_win = -(-n // width) if n else 0
    padded = np.full(n_win * width, fill, dtype=values.dtype)
    padded[:n] = values
    return padded.reshape(n_win, width)


# -- kernels --------------------------------------------------------------
def _serial(lengths, locality, spec):
    n_rows = len(lengths)
    w = spec.wavefront_size
    windows = _pad_reshape(lengths, w)
    iters = windows.max(axis=1)
    elems = windows.sum(axis=1)
    compute = float(
        (iters * SERIAL_INSTR_PER_ITER).sum()
        + len(iters) * WAVE_OVERHEAD_INSTR
        + n_rows * ROW_OVERHEAD_INSTR
    )
    longest = float(iters.max() * SERIAL_INSTR_PER_ITER + WAVE_OVERHEAD_INSTR)
    mean_len = elems / w
    matrix_lines = float(
        (
            _stream_lines(elems * CSR_ELEMENT_BYTES, spec)
            * _strided_waste_factor(1, mean_len, spec)
        ).sum()
    )
    vec_lines = float(_gather_lines(elems, locality, spec).sum())
    aux_lines = float(_stream_lines(n_rows * (3 * VALUE_BYTES), spec))
    return DispatchStats(
        compute_instructions=compute,
        longest_wave_instructions=longest,
        longest_dependent_iterations=float(iters.max()),
        memory_lines=matrix_lines + vec_lines + aux_lines,
        n_waves=float(len(iters)),
        n_workgroups=float(-(-n_rows // spec.workgroup_size)),
        lds_bytes_per_wg=0,
    )


def _subvector(x, lengths, locality, spec):
    n_rows = len(lengths)
    chunk = FACTOR * x
    rounds = np.ceil(np.maximum(lengths, 1) / chunk)
    barrier = (INSTR_PER_BARRIER if x <= spec.wavefront_size
               else INSTR_PER_CROSS_WAVE_BARRIER)
    mean_len = float(lengths.mean()) if n_rows else 0.0
    staging_iters = float(np.clip(np.ceil(mean_len / x), 1.0, FACTOR))
    instr_per_round = (
        2.0 * staging_iters
        + 4.0
        + INSTR_PER_REDUCE_STEP * np.log2(x)
        + 2.0 * barrier
    )
    w = spec.wavefront_size
    if x <= w:
        rows_per_wave = w // x
        windows = _pad_reshape(rounds, rows_per_wave)
        wave_rounds = windows.max(axis=1)
        n_waves = len(wave_rounds)
        waves_per_row = 1.0
    else:
        waves_per_row = x / w
        wave_rounds = rounds
        n_waves = int(n_rows * waves_per_row)
    n_workgroups = -(-(n_rows * x) // spec.workgroup_size)
    compute = float(
        (wave_rounds * instr_per_round).sum() * waves_per_row
        + n_workgroups * WAVE_OVERHEAD_INSTR
        + n_waves * 2.0
        + n_rows * ROW_OVERHEAD_INSTR
    )
    longest = float(wave_rounds.max() * instr_per_round + WAVE_OVERHEAD_INSTR)
    total_elems = float(lengths.sum())
    multi = rounds > 1.0
    multi_elems = float(lengths[multi].sum())
    if total_elems > 0 and multi_elems > 0:
        frac_multi = multi_elems / total_elems
        mean_multi = float(lengths[multi].mean())
        waste = (1.0 - frac_multi) + frac_multi * float(
            _strided_waste_factor(x, mean_multi, spec)
        )
    else:
        waste = 1.0
    matrix_lines = float(
        _stream_lines(lengths.sum() * CSR_ELEMENT_BYTES, spec) * waste
        + n_workgroups
    )
    vec_lines = float(_gather_lines(lengths, locality, spec).sum())
    aux_lines = float(_stream_lines(n_rows * (3 * VALUE_BYTES), spec))
    return DispatchStats(
        compute_instructions=compute,
        longest_wave_instructions=longest,
        longest_dependent_iterations=float(rounds.max()),
        memory_lines=matrix_lines + vec_lines + aux_lines,
        n_waves=float(n_waves),
        n_workgroups=float(n_workgroups),
        lds_bytes_per_wg=spec.workgroup_size * FACTOR * VALUE_BYTES,
    )


def _vector(lengths, locality, spec):
    n_rows = len(lengths)
    group = spec.workgroup_size
    waves_per_row = spec.waves_per_workgroup
    chunk = FACTOR * group
    rounds = np.ceil(np.maximum(lengths, 1) / chunk)
    cross_wave_steps = np.log2(group / spec.wavefront_size) + 2.0
    instr_per_round = (
        BASE_INSTR_PER_ROUND
        + INSTR_PER_REDUCE_STEP * np.log2(group)
        + cross_wave_steps * INSTR_PER_CROSS_WAVE_BARRIER
    )
    compute = float(
        (rounds * instr_per_round).sum() * waves_per_row
        + n_rows * waves_per_row * WAVE_OVERHEAD_INSTR
        + n_rows * ROW_OVERHEAD_INSTR
    )
    longest = float(rounds.max() * instr_per_round + WAVE_OVERHEAD_INSTR)
    matrix_lines = float(
        (
            _stream_lines(lengths * CSR_ELEMENT_BYTES, spec)
            + rounds * waves_per_row
        ).sum()
    )
    vec_lines = float(_gather_lines(lengths, locality, spec).sum())
    aux_lines = float(_stream_lines(n_rows * (3 * VALUE_BYTES), spec))
    return DispatchStats(
        compute_instructions=compute,
        longest_wave_instructions=longest,
        longest_dependent_iterations=float(rounds.max()),
        memory_lines=matrix_lines + vec_lines + aux_lines,
        n_waves=float(n_rows * waves_per_row),
        n_workgroups=float(n_rows),
        lds_bytes_per_wg=group * FACTOR * VALUE_BYTES,
    )


def reference_cost(kernel_name: str, row_lengths, locality: float,
                   spec: DeviceSpec) -> DispatchStats:
    """One bin's statistics under the named kernel, priced alone."""
    lengths = np.asarray(row_lengths, dtype=np.float64)
    if len(lengths) == 0:
        return DispatchStats.empty()
    if kernel_name == "serial":
        return _serial(lengths, locality, spec)
    if kernel_name == "vector":
        return _vector(lengths, locality, spec)
    return _subvector(int(kernel_name[len("subvector"):]), lengths,
                      locality, spec)


# -- roofline -------------------------------------------------------------
def _workgroup_occupancy(spec, lds_bytes_per_wg):
    by_waves = spec.max_waves_per_cu // spec.waves_per_workgroup
    by_slots = spec.max_workgroups_per_cu
    by_lds = (spec.lds_bytes_per_cu // lds_bytes_per_wg
              if lds_bytes_per_wg > 0 else by_slots)
    return max(1, min(by_waves, by_slots, by_lds))


def _resident_waves(spec, n_waves, lds_bytes_per_wg):
    if n_waves <= 0:
        return 0.0
    cap = (_workgroup_occupancy(spec, lds_bytes_per_wg)
           * spec.waves_per_workgroup)
    per_cu = n_waves / spec.num_cus
    return float(max(1.0, min(per_cu, cap)))


def reference_breakdown(stats: DispatchStats, spec: DeviceSpec) -> tuple:
    """``(compute, bandwidth, latency, overhead, total, resident_waves)``
    cycles of one launch, as ``dispatch_breakdown`` combined them."""
    if stats.n_waves <= 0:
        return (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    simd_slots = spec.num_cus * spec.simd_per_cu
    fill = min(1.0, stats.n_waves / simd_slots)
    issue = spec.issue_rate * max(fill, 1.0 / simd_slots)
    compute = stats.compute_instructions / issue
    longest_wave_cycles = stats.longest_wave_instructions * 4.0
    compute = max(compute, longest_wave_cycles)
    bandwidth = (stats.memory_lines * spec.cacheline_bytes
                 / spec.bytes_per_cycle)
    hiding = _resident_waves(spec, stats.n_waves, stats.lds_bytes_per_wg)
    latency = (stats.longest_dependent_iterations * spec.mem_latency_cycles
               / max(hiding, 1.0))
    primary = max(compute, bandwidth, latency)
    secondary = compute + bandwidth + latency - primary
    cycles = primary + spec.overlap_penalty * secondary
    overhead = (stats.n_workgroups * spec.workgroup_launch_cycles
                / spec.num_cus)
    return (float(compute), float(bandwidth), float(latency),
            float(overhead), float(cycles + overhead), float(hiding))


def reference_seconds(stats: DispatchStats, spec: DeviceSpec) -> float:
    """Simulated seconds of one launch (no fixed launch cost)."""
    return spec.seconds(reference_breakdown(stats, spec)[4])
