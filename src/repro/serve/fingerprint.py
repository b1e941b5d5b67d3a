"""Structural matrix fingerprints: recognise a sparsity pattern cheaply.

Everything the planner decides -- binning scheme, per-bin kernels,
partition boundaries -- depends only on the matrix *structure*
(``rowptr``/``colidx`` and the shape), never on the stored values.  Two
matrices with the same pattern therefore share one
:class:`~repro.core.plan.ExecutionPlan`, which is exactly what lets a
serving layer amortise tuning cost across repeated traffic (the
inspector--executor trade-off): fingerprint once, plan once, execute
many times.

The fingerprint is a SHA-256 digest, truncated to 16 bytes, over the
shape and the raw index arrays, read in place from their buffers.
Hashing is one sequential pass whose speed depends on the CPU's SHA
instructions: on an x86 CPU with them (``sha_ni``) a 2.16 MB buffer
hashes in about 1.6 ms, against about 3 ms for BLAKE2b; without them
SHA-256 runs in software and took about 5.4 ms.  Either way a hash can
cost more than the SpMV it keys, so
:class:`FingerprintCache` resolves a request in one of three tiers: the
same object again (identity), a fresh object whose index arrays equal a
structure hashed recently (an exact comparison against stored copies),
and only then a hash.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
import zlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.formats.csr import CSRMatrix

__all__ = [
    "MatrixFingerprint",
    "fingerprint_matrix",
    "FingerprintCache",
    "FingerprintCacheStats",
]

#: Digest width in bytes; 16 (128 bits) makes accidental collisions
#: across any realistic working set vanishingly unlikely.
_DIGEST_SIZE = 16


@dataclass(frozen=True)
class MatrixFingerprint:
    """Hashable identity of one sparsity pattern.

    Shape and nnz ride along undigested: they make collisions across
    differently-sized matrices structurally impossible, give the cache
    human-readable keys, and let stats report what was cached.
    """

    digest: str
    shape: Tuple[int, int]
    nnz: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.shape[0]}x{self.shape[1]}/{self.nnz}:{self.digest[:8]}"


def fingerprint_matrix(matrix: CSRMatrix) -> MatrixFingerprint:
    """Hash the structure (not the values) of ``matrix``.

    Equal fingerprints <=> identical ``shape``, ``rowptr`` and
    ``colidx``.  The value array deliberately never enters the hash:
    iterative solvers re-submit the same pattern with evolving values on
    every step, and those calls must all hit the same cached plan.
    """
    h = hashlib.sha256()
    m, n = matrix.shape
    h.update(np.int64(m).tobytes())
    h.update(np.int64(n).tobytes())
    # rowptr/colidx are canonical contiguous int64 by CSRMatrix
    # construction, so the byte stream is deterministic; their buffers
    # are hashed in place, without a copy.
    h.update(np.ascontiguousarray(matrix.rowptr))
    h.update(np.ascontiguousarray(matrix.colidx))
    return MatrixFingerprint(
        digest=h.digest()[:_DIGEST_SIZE].hex(), shape=(m, n), nnz=matrix.nnz
    )


@dataclass(frozen=True)
class FingerprintCacheStats:
    """Point-in-time accounting of one :class:`FingerprintCache`."""

    #: Full structural hashes actually computed.
    hashes: int
    #: Requests served from the object-identity fast path (no hashing).
    identity_hits: int
    #: Requests served by an exact match against a stored structure.
    structure_hits: int
    #: Explicit invalidations honoured.
    invalidations: int
    #: Live identity entries (weak refs prune automatically on GC).
    size: int
    #: Structures whose index-array copies are held (at most capacity).
    structures: int

    @property
    def hit_rate(self) -> float:
        """Share of fingerprint requests served without hashing."""
        hits = self.identity_hits + self.structure_hits
        total = self.hashes + hits
        return hits / total if total else 0.0


class FingerprintCache:
    """Two tiers in front of :func:`fingerprint_matrix`.

    - **Identity.**  Keyed by ``id(matrix)``: a hit needs the weak ref
      to point at this exact object and its ``rowptr``/``colidx``
      array *objects* to be unchanged (a structure swapped in via new
      arrays misses).  Solver traffic, which re-submits one object,
      pays a dict lookup.
    - **Structure.**  An LRU of at most ``capacity`` structures already
      hashed, held as private copies of ``rowptr`` and ``colidx`` with
      their fingerprint, keyed by ``(shape, nnz, crc32(rowptr))``.  A
      fresh object whose index arrays compare exactly equal to a stored
      copy gets the stored fingerprint; the key only finds the
      candidate, never decides a hit.  A hit costs the CRC and the
      comparison; each stored structure costs ``8 * (nrows + 1 + nnz)``
      bytes.

    Anything else -- including a structure that merely collides on the
    key -- is hashed and stored.  Either way the object is recorded in
    the identity tier, so its next request is an identity hit.

    Correctness notes:

    - The fingerprint is structure-only by design, so in-place *value*
      mutation does not stale it -- every consumer of values reads the
      live array (the direct path executes on ``matrix.val`` directly;
      the process backend re-copies values into shared memory per
      lease; the coalescing scheduler digests values fresh per submit).
    - Stored structures are copies, never the caller's arrays: a caller
      may mutate its index arrays in place after a request, and a copy
      still describes the structure that was hashed.  Nothing writes
      the copies, so the comparison runs outside the lock.
    - ``id()`` reuse after garbage collection is defused twice over:
      a weakref finalizer drops the entry when the matrix dies, and the
      stored-ref identity check rejects any new tenant of a recycled id.
    - :class:`~repro.formats.csr.CSRMatrix` is a frozen dataclass with
      ndarray fields -- unhashable, so ``WeakKeyDictionary`` cannot hold
      it; the id-keyed dict plus finalizer is the equivalent shape.

    Thread-safe.  ``invalidate`` forces the next fingerprint of that
    object, and of any fresh copy of its structure, to re-hash (the
    belt-and-braces hook for callers that rebuilt a matrix's arrays in
    place); ``clear`` empties both tiers.
    """

    def __init__(self, capacity: int = 128):
        if capacity <= 0:
            raise ValueError(f"capacity must be > 0, got {capacity}")
        self.capacity = int(capacity)
        self._lock = threading.Lock()
        #: id(matrix) -> (weakref, rowptr obj, colidx obj, fingerprint)
        self._entries: Dict[int, tuple] = {}
        #: (shape, nnz, crc32(rowptr)) -> (rowptr copy, colidx copy,
        #: fingerprint), least recently used first.
        self._structures: "OrderedDict[tuple, tuple]" = OrderedDict()
        self._hashes = 0
        self._identity_hits = 0
        self._structure_hits = 0
        self._invalidations = 0

    def fingerprint(self, matrix: CSRMatrix) -> MatrixFingerprint:
        """Memoised :func:`fingerprint_matrix`: identity, structure, hash."""
        key = id(matrix)
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                ref, rowptr, colidx, fp = entry
                if (ref() is matrix and rowptr is matrix.rowptr
                        and colidx is matrix.colidx):
                    self._identity_hits += 1
                    return fp
        skey = (matrix.shape, matrix.nnz, zlib.crc32(matrix.rowptr))
        with self._lock:
            stored = self._structures.get(skey)
        hit = (stored is not None
               and np.array_equal(stored[0], matrix.rowptr)
               and np.array_equal(stored[1], matrix.colidx))
        if hit:
            fp = stored[2]
        else:
            fp = fingerprint_matrix(matrix)
            stored = (matrix.rowptr.copy(), matrix.colidx.copy(), fp)
        try:
            ref = weakref.ref(matrix, lambda _r, k=key: self._evict(k))
        except TypeError:  # pragma: no cover - non-weakref-able subclass
            ref = None
        with self._lock:
            if hit:
                self._structure_hits += 1
                # Refresh recency only if no invalidate/clear dropped it.
                if self._structures.get(skey) is stored:
                    self._structures.move_to_end(skey)
            else:
                self._hashes += 1
                self._structures[skey] = stored
                self._structures.move_to_end(skey)
                if len(self._structures) > self.capacity:
                    self._structures.popitem(last=False)
            if ref is not None:
                self._entries[key] = (ref, matrix.rowptr, matrix.colidx, fp)
        return fp

    def _evict(self, key: int) -> None:
        with self._lock:
            self._entries.pop(key, None)

    def invalidate(self, matrix: CSRMatrix) -> bool:
        """Drop this object's entry and its structure's stored copy; the
        next fingerprint of the object or of a copy re-hashes."""
        with self._lock:
            entry = self._entries.pop(id(matrix), None)
            if entry is None:
                return False
            for skey in [k for k, stored in self._structures.items()
                         if stored[2] == entry[3]]:
                del self._structures[skey]
            self._invalidations += 1
            return True

    def clear(self) -> None:
        """Drop every identity entry and stored structure (counters survive)."""
        with self._lock:
            self._entries.clear()
            self._structures.clear()

    def stats(self) -> FingerprintCacheStats:
        """Immutable snapshot of the cache counters."""
        with self._lock:
            return FingerprintCacheStats(
                hashes=self._hashes,
                identity_hits=self._identity_hits,
                structure_hits=self._structure_hits,
                invalidations=self._invalidations,
                size=len(self._entries),
                structures=len(self._structures),
            )
