"""Structured events: the one-off happenings metrics can't carry.

Counters answer "how many"; events answer "what exactly happened" --
which fingerprint got evicted, which matrix overflowed the last coarse
bin, when the server fell back to the heuristic planner.  An event is a
name plus a flat field dict; sinks registered on a
:class:`~repro.observe.registry.MetricsRegistry` receive every emission
synchronously (logging, test capture, or forwarding to a real pipeline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.observe.ring import BoundedRing

__all__ = ["Event", "RecordingSink"]


@dataclass(frozen=True)
class Event:
    """One structured happening: a name plus arbitrary flat fields."""

    name: str
    fields: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kv = " ".join(f"{k}={v}" for k, v in sorted(self.fields.items()))
        return f"{self.name} {kv}".strip()


class RecordingSink(BoundedRing[Event]):
    """Event sink that keeps what it sees (tests and the CLI).

    Unbounded by default (the historical behaviour tests rely on);
    pass ``max_events`` to turn it into a ring buffer that keeps only
    the newest events -- a sink left attached to a long-lived server
    must not grow without limit under sustained load.  ``dropped``
    counts the events the ring displaced; pass ``registry`` (duck-typed
    -- this module sits *below* :mod:`repro.observe.registry` in the
    import graph) to also surface the loss as
    ``observe_events_dropped_total``, so silent telemetry loss shows up
    on the same scrape as everything else.
    """

    def __init__(self, max_events: Optional[int] = None, *,
                 registry=None) -> None:
        counter = None
        if registry is not None:
            counter = registry.counter(
                "observe_events_dropped_total",
                help_text="Events displaced from a bounded recording "
                          "sink's ring.",
            )
        super().__init__(max_events, dropped_counter=counter)

    @property
    def events(self) -> List[Event]:
        """Recorded events, oldest first (a copy; safe to mutate)."""
        return self.records()

    def __call__(self, event: Event) -> None:
        self.append(event)

    def named(self, name: str) -> List[Event]:
        """All recorded events with this name, in emission order."""
        return [e for e in self.records() if e.name == name]
