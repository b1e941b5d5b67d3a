"""Sharded execution and request coalescing (``repro.shard``).

The paper balances work *inside* one dispatch (binning rows, one kernel
per bin); this package scales the same idea *past* one dispatch:

- :mod:`repro.shard.partition` -- cut a matrix into ``K`` row-shards
  (ROWS or NNZ-balanced), each a zero-copy-where-possible sub-CSR, so
  the tuner plans every shard independently;
- :mod:`repro.shard.executor` -- execute per-shard plans on one
  simulated device per shard (inline or in a process pool), reusing
  each structure's cached shard set and shard plans, scatter-gather
  the output, degrade a failing shard to serial without poisoning its
  siblings;
- :mod:`repro.shard.scheduler` -- coalesce concurrent same-matrix SpMV
  requests into one multi-RHS dispatch behind an admission-controlled
  queue.

Import note: only the partition layer is imported eagerly.
:mod:`repro.device.cpu` imports this package for ``row_partition``
while the executor/scheduler layers import the serve layer (which
imports ``device.cpu``); loading them eagerly here would complete that
cycle.  The executor/scheduler names resolve lazily on first attribute
access (PEP 562).
"""

from __future__ import annotations

from repro.shard.partition import (
    PartitionStrategy,
    Shard,
    ShardDescriptor,
    extract_row_block,
    make_shards,
    row_partition,
)

__all__ = [
    "PartitionStrategy",
    "row_partition",
    "ShardDescriptor",
    "Shard",
    "extract_row_block",
    "make_shards",
    "ShardingPolicy",
    "ShardSummary",
    "ShardedResult",
    "ShardExecutorStats",
    "ShardedExecutor",
    "ExecutionBackend",
    "WorkerCrashError",
    "SharedMatrixStore",
    "ShardTaskSpec",
    "ShardRunReport",
    "CoalescePolicy",
    "ScheduledResult",
    "SchedulerStats",
    "RequestScheduler",
]

_EXECUTOR_NAMES = {
    "ShardingPolicy",
    "ShardSummary",
    "ShardedResult",
    "ShardExecutorStats",
    "ShardedExecutor",
}
_SCHEDULER_NAMES = {
    "CoalescePolicy",
    "ScheduledResult",
    "SchedulerStats",
    "RequestScheduler",
}
_BACKEND_NAMES = {
    "ExecutionBackend",
    "WorkerCrashError",
    "SharedMatrixStore",
    "ShardTaskSpec",
    "ShardRunReport",
}


def __getattr__(name: str):
    """Resolve executor/scheduler exports lazily (breaks the import cycle)."""
    if name in _EXECUTOR_NAMES:
        from repro.shard import executor

        return getattr(executor, name)
    if name in _BACKEND_NAMES:
        from repro.shard import backend

        return getattr(backend, name)
    if name in _SCHEDULER_NAMES:
        from repro.shard import scheduler

        return getattr(scheduler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
