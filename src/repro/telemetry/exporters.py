"""Telemetry exporters: JSON, Prometheus text format, console summary.

Three consumers, three formats:

* machines replaying a run read the JSON snapshot (also what
  ``manifest.json`` embeds);
* a scrape endpoint (or ``promtool``-style tooling) reads the
  Prometheus text exposition, with metric names sanitized to
  ``repro_``-prefixed underscore form;
* humans read :func:`console_summary`, a compact account of what a run
  did and where its time went.
"""

from __future__ import annotations

import re
from typing import List, Optional, Union

from .manifest import RunManifest
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .tracing import Span

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")
_LABEL_RE = re.compile(r"[^a-zA-Z0-9_]")


def metrics_to_prometheus(
    metrics: Union[MetricsRegistry, dict], prefix: str = "repro"
) -> str:
    """The registry in the Prometheus text exposition format (0.0.4).

    Counters gain the conventional ``_total`` suffix, histograms expand
    into cumulative ``_bucket{le=...}`` series plus ``_sum``/``_count``,
    and all names are sanitized to ``[a-zA-Z0-9_:]``.
    """
    registry = _as_registry(metrics)
    lines: List[str] = []
    typed: set = set()

    def declare(name: str, kind: str) -> None:
        # One TYPE line per metric family, however many label sets.
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for counter in registry.counters():
        name = _metric_name(prefix, counter.name, "_total")
        declare(name, "counter")
        lines.append(f"{name}{_label_set(counter.labels)} {counter.value}")
    for gauge in registry.gauges():
        name = _metric_name(prefix, gauge.name)
        declare(name, "gauge")
        lines.append(f"{name}{_label_set(gauge.labels)} {_fmt(gauge.value)}")
    for hist in registry.histograms():
        name = _metric_name(prefix, hist.name)
        declare(name, "histogram")
        cumulative = 0
        for upper, n in zip(hist.buckets, hist.counts):
            cumulative += n
            lines.append(
                f"{name}_bucket"
                f"{_label_set(hist.labels, le=_fmt(upper))} {cumulative}"
            )
        lines.append(
            f"{name}_bucket{_label_set(hist.labels, le='+Inf')} {hist.count}"
        )
        lines.append(f"{name}_sum{_label_set(hist.labels)} {_fmt(hist.sum)}")
        lines.append(f"{name}_count{_label_set(hist.labels)} {hist.count}")
    return "\n".join(lines) + ("\n" if lines else "")


def console_summary(
    metrics: Union[MetricsRegistry, dict, None] = None,
    manifest: Optional[RunManifest] = None,
) -> str:
    """A human-readable summary of a run's telemetry.

    Either argument may be omitted; a manifest that embeds a metrics
    snapshot supplies both run bookkeeping and the counts.
    """
    registry = None
    if metrics is not None:
        registry = _as_registry(metrics)
    elif manifest is not None and manifest.metrics:
        registry = _as_registry(manifest.metrics)

    sections: List[str] = []
    if manifest is not None:
        sections.append(_manifest_section(manifest))
    if registry is not None:
        sections.append(_metrics_section(registry))
        pool = _pool_section(registry)
        if pool:
            sections.append(pool)
    if manifest is not None and manifest.spans:
        sections.append(_spans_section(manifest.spans))
    if not sections:
        return "telemetry: nothing recorded"
    return "\n\n".join(sections)


# -- section renderers --------------------------------------------------------------


def _manifest_section(manifest: RunManifest) -> str:
    lines = [
        "Run manifest",
        f"  created      {manifest.created_iso}",
        f"  seed         {manifest.seed}",
        f"  time_scale   {manifest.time_scale}",
        f"  executor     {manifest.executor} (workers={manifest.workers})",
        f"  version      repro {manifest.version}",
        f"  config_hash  {manifest.config_hash}",
    ]
    if manifest.command:
        lines.append(f"  command      {manifest.command}")
    if manifest.stages:
        lines.append("  stages:")
        for path, seconds in sorted(manifest.stages.items()):
            lines.append(f"    {path:<40} {seconds * 1e3:10.1f} ms")
    return "\n".join(lines)


def _metrics_section(registry: MetricsRegistry) -> str:
    lines = ["Metrics"]
    counters = registry.counters()
    gauges = registry.gauges()
    histograms = registry.histograms()
    if counters:
        lines.append("  counters:")
        for counter in counters:
            lines.append(
                f"    {_pretty_key(counter):<48} {counter.value:>12}"
            )
    if gauges:
        lines.append("  gauges:")
        for gauge in gauges:
            lines.append(
                f"    {_pretty_key(gauge):<48} {_fmt(gauge.value):>12}"
            )
    if histograms:
        lines.append("  histograms:")
        for hist in histograms:
            lines.append(
                f"    {_pretty_key(hist):<48} "
                f"n={hist.count} mean={hist.mean * 1e3:.2f}ms"
            )
    if len(lines) == 1:
        lines.append("  (empty)")
    return "\n".join(lines)


def _pool_section(registry: MetricsRegistry) -> str:
    """Digest of the warm worker pool's behaviour, or "" without one.

    Raw ``engine.pool.*`` counters already appear in the metrics
    section; this renders the two questions an operator actually asks
    -- did the pool stay warm (spawns vs reuses) and did workers see
    pre-built state (warm-chunk hit rate) -- as ratios.
    """
    values = {
        c.name: c.value
        for c in registry.counters()
        if c.name.startswith("engine.pool.") and not c.labels
    }
    if not values:
        return ""
    lines = ["Worker pool"]
    spawns = values.get("engine.pool.spawns", 0)
    reuses = values.get("engine.pool.reuses", 0)
    batches = spawns + reuses
    if batches:
        lines.append(
            f"  pool reuse    {reuses}/{batches} batch(es) on a warm pool"
            f" ({spawns} spawn(s))"
        )
    respawns = values.get("engine.pool.respawns", 0)
    kills = values.get("engine.pool.kills", 0)
    if respawns or kills:
        lines.append(
            f"  recoveries    {respawns} respawn(s), {kills} kill(s)"
        )
    warm = values.get("engine.pool.warm_hits", 0)
    cold = values.get("engine.pool.cold_chunks", 0)
    if warm + cold:
        rate = 100.0 * warm / (warm + cold)
        lines.append(
            f"  warm chunks   {warm}/{warm + cold} ({rate:.1f}% hit pre-built"
            f" worker state)"
        )
    chunks = values.get("engine.pool.chunks", 0)
    if chunks:
        lines.append(f"  dispatch      {chunks} chunk(s)")
    pickle_bytes = values.get("engine.pool.pickle_bytes", 0)
    if pickle_bytes:
        lines.append(f"  transport     {pickle_bytes} pickled byte(s)")
    if len(lines) == 1:
        return ""
    return "\n".join(lines)


def _spans_section(spans: List[dict]) -> str:
    lines = ["Spans"]
    for encoded in spans:
        for depth, span in Span.from_dict(encoded).walk():
            label = " ".join(
                f"{k}={v}" for k, v in sorted(span.labels.items())
            )
            suffix = f"  [{label}]" if label else ""
            lines.append(
                f"  {'  ' * depth}{span.name:<30} "
                f"{span.duration_s * 1e3:10.1f} ms{suffix}"
            )
    return "\n".join(lines)


# -- helpers ------------------------------------------------------------------------


def _as_registry(metrics: Union[MetricsRegistry, dict]) -> MetricsRegistry:
    if isinstance(metrics, MetricsRegistry):
        return metrics
    return MetricsRegistry.from_dict(metrics)


def _metric_name(prefix: str, name: str, suffix: str = "") -> str:
    return _NAME_RE.sub("_", f"{prefix}_{name}") + suffix


def _label_set(labels, **extra: str) -> str:
    pairs = [(_LABEL_RE.sub("_", k), v) for k, v in labels] + [
        (k, v) for k, v in extra.items()
    ]
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return f"{{{inner}}}"


def _escape(value: str) -> str:
    return str(value).replace("\\", r"\\").replace('"', r"\"")


def _pretty_key(instrument: Union[Counter, Gauge, Histogram]) -> str:
    if not instrument.labels:
        return instrument.name
    inner = ",".join(f"{k}={v}" for k, v in instrument.labels)
    return f"{instrument.name}{{{inner}}}"


def _fmt(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))
