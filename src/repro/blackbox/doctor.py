"""The incident report renderer behind ``python -m repro doctor``.

Takes one loaded :class:`~repro.blackbox.bundle.DebugBundle` and turns
it into the page an on-call human actually wants: what fired and when,
which (tenant, matrix, arm) combinations own the latency tail, whether
the plan cache or the online selector misbehaved, and whether the
exemplar trace ids in the bundled metrics resolve to spans in the
bundled trace export (the aggregate-to-request link working end to
end).  Pure text in, pure text out -- no server required, so a bundle
scp'd off a production box reads the same as a local one.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.blackbox.bundle import DebugBundle

__all__ = ["render_report"]

#: Flag a pattern's hit rate below this, given enough requests to judge.
_LOW_HIT_RATE = 0.5
_MIN_REQUESTS_FOR_ANOMALY = 4
_TOP_OFFENDERS = 5


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return float("nan")
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[idx]


def _ms(seconds: Any) -> str:
    try:
        value = float(seconds)
    except (TypeError, ValueError):
        return "n/a"
    if math.isnan(value):
        return "n/a"
    return f"{value * 1e3:.3f} ms"


def _detail_text(detail: Dict[str, Any]) -> str:
    return ", ".join(
        f"{k}={v}" for k, v in sorted(detail.items())
    ) or "-"


def _trigger_section(bundle: DebugBundle) -> List[str]:
    manifest = bundle.manifest
    lines = [
        f"trigger      : {manifest.get('reason', '?')} "
        f"(bundle #{manifest.get('seq', '?')} at clock "
        f"{manifest.get('triggered_at', '?')})",
        f"  detail     : {_detail_text(manifest.get('detail') or {})}",
    ]
    history = manifest.get("trigger_history") or []
    if history:
        dropped = manifest.get("trigger_history_dropped") or 0
        lines.append(f"trigger timeline ({len(history)} entries"
                     + (f", {dropped} older displaced" if dropped else "")
                     + "):")
        for entry in history:
            lines.append(
                f"  t={entry.get('at', '?'):<12} "
                f"{entry.get('reason', '?'):<12} "
                f"[{entry.get('action', '?')}] "
                f"{_detail_text(entry.get('detail') or {})}"
            )
    return lines


def _flight_section(bundle: DebugBundle) -> List[str]:
    flight = bundle.flight
    if not flight:
        return ["flight tail  : empty (no requests recorded)"]
    walls = [float(r.get("wall_seconds", 0.0)) for r in flight]
    degraded = sum(1 for r in flight if r.get("degraded"))
    explored = sum(1 for r in flight if r.get("explored"))
    misses = sum(1 for r in flight if not r.get("cache_hit"))
    tenants = sorted({str(r.get("tenant", "?")) for r in flight})
    patterns = {str(r.get("digest", "?")) for r in flight}
    lines = [
        f"flight tail  : {len(flight)} requests, "
        f"{len(patterns)} patterns, tenants: {', '.join(tenants)}",
        f"  wall       : p50 {_ms(_quantile(walls, 0.50))}, "
        f"p95 {_ms(_quantile(walls, 0.95))}, "
        f"p99 {_ms(_quantile(walls, 0.99))}, "
        f"max {_ms(max(walls))}",
        f"  outcomes   : {degraded} degraded, {explored} explored, "
        f"{misses} cache misses",
    ]
    return lines


def _offenders_section(bundle: DebugBundle) -> List[str]:
    groups: Dict[Tuple[str, str, str], List[float]] = defaultdict(list)
    for r in bundle.flight:
        key = (
            str(r.get("tenant", "?")),
            str(r.get("digest", "?"))[:8],
            str(r.get("arm") or "-"),
        )
        groups[key].append(float(r.get("wall_seconds", 0.0)))
    if not groups:
        return []
    ranked = sorted(
        groups.items(),
        key=lambda kv: _quantile(kv[1], 0.95),
        reverse=True,
    )[:_TOP_OFFENDERS]
    lines = ["top offenders by tail wall latency (tenant, matrix, arm):"]
    for rank, ((tenant, digest, arm), walls) in enumerate(ranked, start=1):
        lines.append(
            f"  {rank}. tenant={tenant:<12} matrix={digest:<8} "
            f"arm={arm:<16} n={len(walls):<4} "
            f"p95 {_ms(_quantile(walls, 0.95))}, max {_ms(max(walls))}"
        )
    return lines


def _cache_section(bundle: DebugBundle) -> List[str]:
    per_digest: Dict[str, List[bool]] = defaultdict(list)
    for r in bundle.flight:
        per_digest[str(r.get("digest", "?"))].append(
            bool(r.get("cache_hit"))
        )
    anomalies = []
    for digest, hits in sorted(per_digest.items()):
        if len(hits) < _MIN_REQUESTS_FOR_ANOMALY:
            continue
        rate = sum(hits) / len(hits)
        if rate < _LOW_HIT_RATE:
            anomalies.append(
                f"  pattern {digest[:8]}: hit rate {rate:.0%} over "
                f"{len(hits)} requests (expected warm cache; look for "
                f"invalidation churn or arm flapping)"
            )
    lines = ["plan-cache anomalies:"]
    if anomalies:
        lines.extend(anomalies)
    else:
        lines.append("  none (every busy pattern served warm)")
    return lines


def _exploration_section(bundle: DebugBundle) -> List[str]:
    flight = bundle.flight
    if not flight:
        return []
    explored = [r for r in flight if r.get("explored")]
    degraded_arms = sorted({
        str(r.get("arm")) for r in flight
        if r.get("degraded") and r.get("arm")
    })
    lines = [
        f"exploration  : {len(explored)}/{len(flight)} requests explored "
        f"({len(explored) / len(flight):.1%})",
    ]
    if degraded_arms:
        lines.append(
            f"  arms serving degraded requests: {', '.join(degraded_arms)}"
        )
    if bundle.decisions:
        outcomes: Dict[str, int] = defaultdict(int)
        for d in bundle.decisions:
            outcomes[str(d.get("outcome", "?"))] += 1
        summary = ", ".join(
            f"{k}={n}" for k, n in sorted(outcomes.items())
        )
        lines.append(
            f"  decision log tail: {len(bundle.decisions)} decisions "
            f"({summary})"
        )
    return lines


def _exemplar_section(bundle: DebugBundle) -> List[str]:
    exemplars = bundle.exemplar_trace_ids()
    if not exemplars:
        return ["exemplars    : none in the bundled metrics"]
    spans = bundle.span_trace_ids()
    resolved = sum(1 for tid in exemplars if tid in spans)
    status = "all resolve" if resolved == len(exemplars) else (
        "TRACE GAP" if bundle.trace is not None
        else "no trace export in bundle"
    )
    return [
        f"exemplars    : {resolved}/{len(exemplars)} exemplar trace ids "
        f"resolve to bundled spans ({status})",
    ]


def _server_section(bundle: DebugBundle) -> List[str]:
    doc = bundle.server or {}
    lines: List[str] = []
    health = doc.get("health")
    if isinstance(health, dict):
        quantiles = health.get("quantiles") or {}
        shown = ", ".join(
            f"{name}={_ms(value)}" for name, value in quantiles.items()
        )
        lines.append(
            f"SLO health   : {health.get('status', '?')} "
            f"(window {health.get('window', '?')}; {shown})"
        )
    stats = doc.get("stats") or {}
    cache = stats.get("cache") or {}
    if cache:
        hits = cache.get("hits", 0)
        misses = cache.get("misses", 0)
        total = hits + misses
        rate = hits / total if total else 0.0
        lines.append(
            f"plan cache   : {hits} hits / {misses} misses "
            f"({rate:.1%}), {cache.get('evictions', 0)} evictions"
        )
    frontdoor = stats.get("frontdoor")
    if isinstance(frontdoor, dict):
        lines.append(
            f"front door   : {frontdoor.get('admitted', '?')} admitted, "
            f"{frontdoor.get('shed', '?')} shed"
        )
    resilience = stats.get("resilience")
    if isinstance(resilience, dict):
        lines.append(
            f"resilience   : {resilience.get('retries', '?')} retries, "
            f"{resilience.get('breaker_opens', '?')} breaker opens, "
            f"fallbacks {resilience.get('fallbacks', {})}"
        )
    return lines


def render_report(bundle: DebugBundle,
                  siblings: Optional[Sequence[Any]] = None) -> str:
    """Render the full incident report for one bundle as plain text.

    ``siblings`` (paths or names of other bundles in the same output
    directory, the diagnosed bundle included or not) adds a closing
    "other bundles" line so the on-call reader knows there is more
    history to page through.
    """
    sections: List[List[str]] = [
        [f"== incident report: {bundle.name} =="],
        _trigger_section(bundle),
        _flight_section(bundle),
        _offenders_section(bundle),
        _cache_section(bundle),
        _exploration_section(bundle),
        _exemplar_section(bundle),
        _server_section(bundle),
    ]
    others = [
        name for name in
        (getattr(s, "name", None) or str(s) for s in siblings or ())
        if name != bundle.name
    ]
    if others:
        sections.append([
            f"other bundles in this directory: {', '.join(others)}",
        ])
    return "\n".join(
        "\n".join(section) for section in sections if section
    )
