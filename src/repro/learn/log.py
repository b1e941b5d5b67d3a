"""Bounded, append-only decision log for the online selector.

Every serving decision the :class:`~repro.learn.selector.OnlineSelector`
takes is recorded here: the feature bucket it was keyed under, the arm
chosen, the prior that seeded the arm, the latency actually observed
(simulated and wall), and how the request ended.  The log is the
training set for :func:`~repro.learn.retrain.retrain` -- the C5.0 tree
regenerated from *live* traffic instead of the offline corpus -- and
the audit trail for "why did the server pick that kernel".

Bounded means bounded: the log is a
:class:`~repro.observe.ring.BoundedRing` of ``capacity`` records and
old decisions fall off the front (counted, never silently).  Export is
the ring's JSONL -- one decision per line, stable key order -- so logs
from long runs stream instead of ballooning one JSON document.

Wall latency is the one nondeterministic field; :meth:`replay_digest`
therefore hashes only the deterministic fields, which is what the
benchmark's replay gate compares across two seeded runs.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, Tuple

from repro.observe.ring import BoundedRing

__all__ = ["DecisionRecord", "DecisionLog", "DecisionLogStats"]


@dataclass(frozen=True)
class DecisionRecord:
    """One serving decision and its observed outcome."""

    #: Monotone sequence number (survives ring eviction).
    seq: int
    #: Structural fingerprint digest of the matrix served.
    digest: str
    #: (bin-scheme, Table-I feature bucket) key the arms were keyed by.
    key: str
    #: Arm chosen (``"tree"`` or ``"u<U>:<kernel>"``).
    arm: str
    #: True when the arm was an exploration, not the exploit choice.
    explored: bool
    #: Prior that seeded this arm: its plan's bound
    #: ``predicted_seconds()``, the simulated seconds a run is charged.
    prior_seconds: float
    #: Simulated seconds the execution was accounted.
    simulated_seconds: float
    #: Wall seconds the request took end to end (nondeterministic).
    wall_seconds: float
    #: ``"ok"`` / ``"degraded"`` / ``"error"``.
    outcome: str
    #: Table-I feature vector of the matrix (retrain's ``X`` row).
    features: Tuple[float, ...]
    #: Selector model version the decision was taken under.
    model_version: int

    def as_dict(self) -> Dict[str, Any]:
        """JSON-ready representation (stable key order)."""
        return {
            "seq": self.seq,
            "digest": self.digest,
            "key": self.key,
            "arm": self.arm,
            "explored": self.explored,
            "prior_seconds": self.prior_seconds,
            "simulated_seconds": self.simulated_seconds,
            "wall_seconds": self.wall_seconds,
            "outcome": self.outcome,
            "features": list(self.features),
            "model_version": self.model_version,
        }

    def replay_fields(self) -> Dict[str, Any]:
        """The deterministic subset (everything but wall latency)."""
        d = self.as_dict()
        del d["wall_seconds"]
        return d


@dataclass(frozen=True)
class DecisionLogStats:
    """Point-in-time accounting of a decision log."""

    appended: int
    dropped: int
    size: int
    capacity: int


class DecisionLog(BoundedRing[DecisionRecord]):
    """Thread-safe bounded ring of :class:`DecisionRecord`.

    Append-only from the caller's point of view: records are never
    mutated or reordered, only evicted oldest-first once ``capacity``
    is exceeded (the eviction count is kept truthful in
    :meth:`stats`).
    """

    def __init__(self, capacity: int = 4096):
        super().__init__(capacity)

    def stats(self) -> DecisionLogStats:
        """Appended, displaced and retained counts from one read."""
        appended, dropped, size = self.counts()
        return DecisionLogStats(
            appended=appended,
            dropped=dropped,
            size=size,
            capacity=self.capacity,
        )

    def replay_digest(self) -> str:
        """SHA-256 over the deterministic fields of every record.

        Two seeded runs of the same workload must produce equal digests
        -- the decision stream (keys, arms, priors, simulated latency,
        outcomes) is deterministic even though wall latency is not.
        """
        h = hashlib.sha256()
        for r in self.records():
            h.update(
                json.dumps(r.replay_fields(), sort_keys=True).encode("utf-8")
            )
        return h.hexdigest()
