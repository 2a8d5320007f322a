"""repro.telemetry — end-to-end offload tracing, metrics, exporters.

The measurement layer HYDRA's evaluation implies: causal spans
(:mod:`~repro.telemetry.spans`) follow one remote invocation from proxy
through marshal, channel, batch, bus and device execution to the reply;
a labelled metrics registry (:mod:`~repro.telemetry.metrics`), one per
simulator (``sim.metrics``), is the store every subsystem counts into;
and exporters
(:mod:`~repro.telemetry.export`) turn a run into Perfetto-loadable
Chrome trace JSON, Prometheus text and a JSON snapshot.

Enable by attaching a hub::

    from repro.telemetry import Telemetry
    tel = Telemetry.attach(sim)         # or TestbedConfig(telemetry=True)
    ... run ...
    from repro.telemetry.export import write_artifacts
    write_artifacts(tel, "artifacts/")

or run a packaged scenario: ``python -m repro.telemetry --scenario
tivopc``.
"""

from repro.telemetry.merge import merge_snapshots
from repro.telemetry.metrics import (Counter, Gauge, Histogram,
                                     MetricFamily, MetricsRegistry)
from repro.telemetry.spans import (Span, SpanContext, Telemetry,
                                   TelemetryEvent)

__all__ = ["Counter", "Gauge", "Histogram", "MetricFamily",
           "MetricsRegistry", "Span", "SpanContext", "Telemetry",
           "TelemetryEvent", "merge_snapshots"]
