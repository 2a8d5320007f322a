"""Exporters: Chrome trace-event JSON, Prometheus text, JSON snapshot.

Three read-only views over one :class:`~repro.telemetry.spans.Telemetry`
hub:

* :func:`to_chrome_trace` — the Chrome trace-event format (Perfetto and
  ``chrome://tracing`` load it directly).  Each span track (one per
  device site, channel, bus) becomes a named thread; spans are ``"X"``
  complete events, instants are ``"i"`` marks.
* :func:`to_prometheus_text` — the Prometheus text exposition format
  for the metrics registry (``# HELP``/``# TYPE`` + samples, histograms
  as cumulative ``_bucket``/``_sum``/``_count``).
* :func:`to_json_snapshot` — a machine-readable dump of everything
  (spans, events, metrics) for programmatic diffing.

Determinism: ids are counters, timestamps are sim time, and all JSON is
emitted with sorted keys — two runs with the same seed produce
byte-identical artifacts (``tests/test_telemetry_export.py`` pins this).

The validators (:func:`validate_chrome_trace`,
:func:`validate_prometheus_text`) are the CLI's and CI's malformed-output
oracle: cheap structural checks that a consumer (Perfetto, a Prometheus
scraper) would choke without.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import Telemetry

__all__ = ["to_chrome_trace", "to_prometheus_text", "to_json_snapshot",
           "write_artifacts", "validate_chrome_trace",
           "validate_prometheus_text"]

_PID = 1


def _tracks(telemetry: Telemetry) -> Dict[str, int]:
    """Stable track -> tid mapping (sorted by name, tids from 1)."""
    names = {span.track for span in telemetry.spans}
    names.update(event.track for event in telemetry.events)
    return {name: tid for tid, name in enumerate(sorted(names), start=1)}


def _args(attrs: Optional[Dict[str, Any]], trace_id: Optional[int],
          span_id: Optional[int] = None,
          parent_id: Optional[int] = None) -> Dict[str, Any]:
    args: Dict[str, Any] = dict(attrs) if attrs else {}
    if trace_id is not None:
        args["trace_id"] = trace_id
    if span_id is not None:
        args["span_id"] = span_id
    if parent_id is not None:
        args["parent_id"] = parent_id
    return args


def to_chrome_trace(telemetry: Telemetry) -> Dict[str, Any]:
    """The hub's spans/instants as a Chrome trace-event object.

    ``ts``/``dur`` are microseconds (float, from integer sim ns), the
    format's native unit.  Span identity and causality ride in ``args``
    (``trace_id``/``span_id``/``parent_id``) so a loaded trace can be
    queried for a single invocation's tree.
    """
    tracks = _tracks(telemetry)
    events: List[Dict[str, Any]] = [
        {"name": "process_name", "ph": "M", "pid": _PID,
         "args": {"name": "repro-sim"}},
    ]
    for name, tid in tracks.items():
        events.append({"name": "thread_name", "ph": "M", "pid": _PID,
                       "tid": tid, "args": {"name": name}})
    spans = sorted(telemetry.spans,
                   key=lambda s: (s.start_ns, s.span_id))
    for span in spans:
        events.append({
            "name": span.name, "cat": span.category, "ph": "X",
            "pid": _PID, "tid": tracks[span.track],
            "ts": span.start_ns / 1000.0,
            "dur": span.duration_ns / 1000.0,
            "args": _args(span.attrs, span.trace_id, span.span_id,
                          span.parent_id),
        })
    marks = sorted(telemetry.events,
                   key=lambda e: (e.time_ns, e.event_id))
    for event in marks:
        events.append({
            "name": event.name, "cat": event.category, "ph": "i",
            "pid": _PID, "tid": tracks[event.track],
            "ts": event.time_ns / 1000.0, "s": "t",
            "args": _args(event.attrs, event.trace_id,
                          parent_id=event.parent_id),
        })
    return {"traceEvents": events, "displayTimeUnit": "ns",
            "otherData": {"dropped_spans": telemetry.dropped_spans,
                          "dropped_events": telemetry.dropped_events}}


def _format_value(value: float) -> str:
    if isinstance(value, float) and not value.is_integer():
        return repr(value)
    return str(int(value))


def _format_labels(names, values) -> str:
    if not names:
        return ""
    pairs = ",".join(
        '%s="%s"' % (name,
                     value.replace("\\", r"\\").replace('"', r'\"'))
        for name, value in zip(names, values))
    return "{" + pairs + "}"


def to_prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format.

    Collectors run first, so derived values are current.
    """
    registry.collect()
    lines: List[str] = []
    for family in registry.families():
        if family.help:
            lines.append(f"# HELP {family.name} {family.help}")
        lines.append(f"# TYPE {family.name} {family.kind}")
        for label_values, child in family.samples():
            labels = _format_labels(family.label_names, label_values)
            if family.kind == "histogram":
                for le, count in child.cumulative():
                    le_text = "+Inf" if le == float("inf") else str(le)
                    bucket_labels = _format_labels(
                        family.label_names + ("le",),
                        label_values + (le_text,))
                    lines.append(
                        f"{family.name}_bucket{bucket_labels} {count}")
                lines.append(f"{family.name}_sum{labels} "
                             f"{_format_value(child.sum)}")
                lines.append(f"{family.name}_count{labels} {child.count}")
            else:
                lines.append(f"{family.name}{labels} "
                             f"{_format_value(child.value)}")
    return "\n".join(lines) + "\n"


def to_json_snapshot(telemetry: Telemetry) -> Dict[str, Any]:
    """Everything the hub holds, as plain JSON-ready data."""
    return {
        "metrics": telemetry.registry.snapshot(),
        "spans": [
            {"name": s.name, "category": s.category, "track": s.track,
             "trace_id": s.trace_id, "span_id": s.span_id,
             "parent_id": s.parent_id, "start_ns": s.start_ns,
             "end_ns": s.end_ns, "attrs": s.attrs or {}}
            for s in sorted(telemetry.spans,
                            key=lambda s: (s.start_ns, s.span_id))],
        "events": [
            {"name": e.name, "category": e.category, "track": e.track,
             "time_ns": e.time_ns, "trace_id": e.trace_id,
             "parent_id": e.parent_id, "attrs": e.attrs or {}}
            for e in sorted(telemetry.events,
                            key=lambda e: (e.time_ns, e.event_id))],
        "dropped_spans": telemetry.dropped_spans,
        "dropped_events": telemetry.dropped_events,
    }


def write_artifacts(telemetry: Telemetry, out_dir: str,
                    prefix: str = "telemetry") -> Dict[str, str]:
    """Write all three artifact files; returns format -> path.

    ``<prefix>.trace.json`` (Perfetto), ``<prefix>.metrics.prom``
    (Prometheus text), ``<prefix>.snapshot.json`` (full JSON dump).
    JSON is sorted-key so same-seed runs are byte-identical.
    """
    import os
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "chrome": os.path.join(out_dir, f"{prefix}.trace.json"),
        "prometheus": os.path.join(out_dir, f"{prefix}.metrics.prom"),
        "snapshot": os.path.join(out_dir, f"{prefix}.snapshot.json"),
    }
    with open(paths["chrome"], "w") as fh:
        json.dump(to_chrome_trace(telemetry), fh, sort_keys=True,
                  indent=1)
        fh.write("\n")
    with open(paths["prometheus"], "w") as fh:
        fh.write(to_prometheus_text(telemetry.registry))
    with open(paths["snapshot"], "w") as fh:
        json.dump(to_json_snapshot(telemetry), fh, sort_keys=True,
                  indent=1)
        fh.write("\n")
    return paths


# -- validation ------------------------------------------------------------------


def validate_chrome_trace(trace: Dict[str, Any],
                          strict_nesting: bool = False) -> List[str]:
    """Structural checks a trace viewer would choke without.

    Always checked: the ``traceEvents`` envelope, required keys per
    phase, non-negative ``ts``/``dur``, per-track ``ts`` monotonicity
    (the emitter sorts by start time), and causality — a child span
    cannot start before its parent.  ``strict_nesting`` additionally
    requires every child interval to lie fully inside its parent's;
    deterministic single-flow scenarios satisfy it, but proxies using
    deadline policies may abandon an attempt whose channel work outlives
    the attempt span, so it is opt-in.
    """
    problems: List[str] = []
    events = trace.get("traceEvents")
    if not isinstance(events, list):
        return ["traceEvents missing or not a list"]
    spans: Dict[int, Dict[str, Any]] = {}
    last_ts = -1.0
    for i, event in enumerate(events):
        ph = event.get("ph")
        if ph not in ("X", "M", "i"):
            problems.append(f"event {i}: unknown phase {ph!r}")
            continue
        if "name" not in event or "pid" not in event:
            problems.append(f"event {i}: missing name/pid")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"event {i}: bad ts {ts!r}")
            continue
        if ph == "X":
            dur = event.get("dur")
            if not isinstance(dur, (int, float)) or dur < 0:
                problems.append(f"event {i}: bad dur {dur!r}")
                continue
            if ts < last_ts:
                problems.append(
                    f"event {i}: span ts not monotonic ({ts} < {last_ts})")
            last_ts = ts
            args = event.get("args") or {}
            span_id = args.get("span_id")
            if span_id is not None:
                spans[span_id] = event
    for span_id, event in spans.items():
        parent_id = (event.get("args") or {}).get("parent_id")
        if parent_id is None:
            continue
        parent = spans.get(parent_id)
        if parent is None:
            problems.append(
                f"span {span_id}: parent {parent_id} not in trace")
            continue
        if event["ts"] < parent["ts"]:
            problems.append(
                f"span {span_id}: starts before parent {parent_id}")
        if strict_nesting:
            child_end = event["ts"] + event["dur"]
            parent_end = parent["ts"] + parent["dur"]
            if child_end > parent_end:
                problems.append(
                    f"span {span_id}: ends after parent {parent_id} "
                    f"({child_end} > {parent_end})")
    return problems


_PROM_SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9].*$")
_PROM_COMMENT_RE = re.compile(r"^# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* ")


def validate_prometheus_text(text: str) -> List[str]:
    """Line-level checks of the text exposition format."""
    problems: List[str] = []
    if not text.endswith("\n"):
        problems.append("exposition must end with a newline")
    typed = set()
    for i, line in enumerate(text.splitlines()):
        if not line:
            continue
        if line.startswith("#"):
            if not _PROM_COMMENT_RE.match(line):
                problems.append(f"line {i}: malformed comment: {line!r}")
            elif line.startswith("# TYPE "):
                typed.add(line.split()[2])
            continue
        if not _PROM_SAMPLE_RE.match(line):
            problems.append(f"line {i}: malformed sample: {line!r}")
            continue
        name = re.split(r"[{ ]", line, maxsplit=1)[0]
        base = re.sub(r"_(bucket|sum|count)$", "", name)
        if name not in typed and base not in typed:
            problems.append(f"line {i}: sample {name!r} has no # TYPE")
    return problems
