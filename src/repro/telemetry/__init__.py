"""Observability for the reproduction: metrics, spans, run manifests.

The paper's methodology is bookkeeping-heavy -- fluence accounting,
per-session logs, effective beam hours -- and this package gives the
simulated campaigns the same discipline:

* :class:`MetricsRegistry` -- counters, gauges and fixed-bucket
  histograms cheap enough for the injector hot path;
* :class:`Tracer` / ``span()`` -- nestable timed stages recording
  wall-clock starts and monotonic durations;
* :class:`RunManifest` -- seed, time scale, executor, package version,
  config hash and per-stage durations, persisted as ``manifest.json``;
* exporters -- JSON, Prometheus text format, and a human console
  summary;
* :class:`Telemetry` -- the facade runners accept, with
  :data:`NULL_TELEMETRY` as the all-no-op default.

Determinism contract: telemetry never touches an RNG stream, so
instrumentation on vs. off produces byte-identical campaign results;
and because work units carry their own registry snapshots back to the
parent for a submission-order merge, metric *counts* are bit-identical
between serial and parallel runs, while timings stay quarantined in
histograms/spans that no determinism-checked artifact contains.
"""

from .exporters import console_summary, metrics_to_prometheus
from .manifest import RunManifest, stable_config_hash
from .metrics import (
    Counter,
    DEFAULT_BUCKETS,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from .runtime import NULL_TELEMETRY, Telemetry
from .tracing import Span, Tracer

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_TELEMETRY",
    "RunManifest",
    "Span",
    "Telemetry",
    "Tracer",
    "console_summary",
    "metrics_to_prometheus",
    "stable_config_hash",
]
