"""Debug-bundle directories: write on trigger, load for the doctor.

A bundle is one directory of plain files -- JSON, JSONL and Prometheus
text -- so it can be tarred off a box, attached to an incident ticket
and read without this package installed:

- ``manifest.json``  -- schema version, trigger reason + detail,
  trigger history (and how many older entries it displaced), server
  configuration (written **last**: a bundle
  without a manifest is a partial write and the loader says so);
- ``metrics.json`` / ``metrics.prom`` -- full registry snapshot in
  both export formats (the ``.prom`` text carries exemplars);
- ``flight.jsonl``   -- flight-recorder tail, one request per line;
- ``trace.json``     -- Chrome trace-event export (tracing servers);
- ``decisions.jsonl``-- decision-log tail (learning servers);
- ``server.json``    -- ``ServerStats`` snapshot + SLO health.

Loading is forgiving about *missing* optional files (an untraced server
writes no ``trace.json``) and loud about *broken* ones: every parse
failure raises :class:`BundleError` naming the file, never a raw
traceback from ``json``.
"""

from __future__ import annotations

import json
import re
import shutil
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Set, Union

from repro.errors import ReproError

__all__ = ["BundleError", "DebugBundle", "write_bundle", "load_bundle",
           "find_bundles", "MANIFEST_NAME", "BUNDLE_SCHEMA"]

#: Bumped when the bundle layout changes incompatibly.
BUNDLE_SCHEMA = 1
MANIFEST_NAME = "manifest.json"

#: OpenMetrics exemplar suffix: ``# {trace_id="..."} value``.
_EXEMPLAR_RE = re.compile(r'# \{trace_id="([^"]*)"\}')


class BundleError(ReproError):
    """A debug bundle is missing, partial, or unparseable."""


def write_bundle(root: Union[str, Path], name: str,
                 files: Dict[str, str], *,
                 max_bundles: Optional[int] = None) -> Path:
    """Write one bundle directory under ``root``; returns its path.

    ``files`` maps file name to text content and must include
    :data:`MANIFEST_NAME`, which is written last so a crash mid-write
    leaves a recognisably partial bundle.  With ``max_bundles``, the
    oldest sibling bundles (name-sorted; names embed a zero-padded
    sequence) are pruned to keep at most that many.
    """
    if MANIFEST_NAME not in files:
        raise ValueError(f"bundle files must include {MANIFEST_NAME}")
    root = Path(root)
    bundle_dir = root / name
    bundle_dir.mkdir(parents=True, exist_ok=True)
    for filename, content in files.items():
        if filename == MANIFEST_NAME:
            continue
        (bundle_dir / filename).write_text(content, encoding="utf-8")
    (bundle_dir / MANIFEST_NAME).write_text(
        files[MANIFEST_NAME], encoding="utf-8"
    )
    if max_bundles is not None and max_bundles > 0:
        siblings = find_bundles(root, complete_only=False)
        for stale in siblings[:-max_bundles]:
            shutil.rmtree(stale, ignore_errors=True)
    return bundle_dir


def find_bundles(root: Union[str, Path], *,
                 complete_only: bool = True) -> List[Path]:
    """Bundle directories under ``root``, oldest first (name order).

    Bundle names embed a zero-padded sequence number, so lexicographic
    order is creation order.  ``complete_only`` skips directories with
    no manifest (partial writes).
    """
    root = Path(root)
    if not root.is_dir():
        return []
    out = []
    for child in sorted(root.iterdir()):
        if not child.is_dir():
            continue
        if complete_only and not (child / MANIFEST_NAME).is_file():
            continue
        out.append(child)
    return out


@dataclass(frozen=True)
class DebugBundle:
    """One loaded bundle; optional files are ``None`` when absent."""

    path: Path
    manifest: Dict[str, Any]
    metrics: Optional[Dict[str, Any]] = None
    metrics_text: Optional[str] = None
    flight: List[Dict[str, Any]] = field(default_factory=list)
    trace: Optional[Dict[str, Any]] = None
    decisions: List[Dict[str, Any]] = field(default_factory=list)
    server: Optional[Dict[str, Any]] = None

    @property
    def name(self) -> str:
        return self.path.name

    def exemplar_trace_ids(self) -> List[str]:
        """Distinct trace ids referenced by exemplars in the bundled
        Prometheus text, in first-appearance order."""
        if not self.metrics_text:
            return []
        seen: Dict[str, None] = {}
        for tid in _EXEMPLAR_RE.findall(self.metrics_text):
            seen.setdefault(_unescape_label(tid))
        return list(seen)

    def span_trace_ids(self) -> Set[str]:
        """Trace ids present in the bundled Chrome trace export."""
        if not self.trace:
            return set()
        out: Set[str] = set()
        for event in self.trace.get("traceEvents", []):
            tid = (event.get("args") or {}).get("trace_id")
            if tid:
                out.add(str(tid))
        return out


def _unescape_label(value: str) -> str:
    return (value.replace("\\n", "\n")
                 .replace('\\"', '"')
                 .replace("\\\\", "\\"))


def _load_json(path: Path) -> Any:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"cannot read {path.name}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:
        raise BundleError(
            f"{path.name} in bundle {path.parent.name!r} is not valid "
            f"JSON ({exc}); the bundle is corrupt or was written by an "
            f"incompatible version"
        ) from exc


def _load_jsonl(path: Path) -> List[Dict[str, Any]]:
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise BundleError(f"cannot read {path.name}: {exc}") from exc
    rows = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            rows.append(json.loads(line))
        except ValueError as exc:
            raise BundleError(
                f"{path.name} line {lineno} in bundle "
                f"{path.parent.name!r} is not valid JSON ({exc})"
            ) from exc
    return rows


def load_bundle(path: Union[str, Path]) -> DebugBundle:
    """Load one bundle directory; raises :class:`BundleError` on problems."""
    path = Path(path)
    if not path.is_dir():
        raise BundleError(f"no such bundle directory: {path}")
    manifest_path = path / MANIFEST_NAME
    if not manifest_path.is_file():
        raise BundleError(
            f"{path} has no {MANIFEST_NAME} -- either it is not a debug "
            f"bundle, or the write was interrupted (partial bundle)"
        )
    manifest = _load_json(manifest_path)
    if not isinstance(manifest, dict):
        raise BundleError(
            f"{MANIFEST_NAME} in bundle {path.name!r} must be a JSON "
            f"object, got {type(manifest).__name__}"
        )
    schema = manifest.get("schema")
    if schema != BUNDLE_SCHEMA:
        raise BundleError(
            f"bundle {path.name!r} has schema {schema!r}; this reader "
            f"understands schema {BUNDLE_SCHEMA}"
        )
    metrics = metrics_text = trace = server = None
    if (path / "metrics.json").is_file():
        metrics = _load_json(path / "metrics.json")
    if (path / "metrics.prom").is_file():
        try:
            metrics_text = (path / "metrics.prom").read_text(
                encoding="utf-8"
            )
        except OSError as exc:
            raise BundleError(f"cannot read metrics.prom: {exc}") from exc
    flight = (_load_jsonl(path / "flight.jsonl")
              if (path / "flight.jsonl").is_file() else [])
    if (path / "trace.json").is_file():
        trace = _load_json(path / "trace.json")
        if not isinstance(trace, dict):
            raise BundleError(
                f"trace.json in bundle {path.name!r} must be a JSON "
                f"object, got {type(trace).__name__}"
            )
    decisions = (_load_jsonl(path / "decisions.jsonl")
                 if (path / "decisions.jsonl").is_file() else [])
    if (path / "server.json").is_file():
        server = _load_json(path / "server.json")
    return DebugBundle(
        path=path,
        manifest=manifest,
        metrics=metrics,
        metrics_text=metrics_text,
        flight=flight,
        trace=trace,
        decisions=decisions,
        server=server,
    )
