"""Prometheus text format and console summary exporters."""

from repro.telemetry import (
    MetricsRegistry,
    RunManifest,
    Tracer,
    console_summary,
    metrics_to_prometheus,
)


def populated_registry():
    registry = MetricsRegistry()
    registry.counter("injector.events", level="L2").inc(3)
    registry.counter("injector.events", level="L3").inc(5)
    registry.gauge("vmin.safe_mv", freq_mhz=2400).set(920)
    hist = registry.histogram("engine.unit_seconds", buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 2.0):
        hist.observe(value)
    return registry


class TestPrometheus:
    def test_counter_total_suffix_and_values(self):
        text = metrics_to_prometheus(populated_registry())
        assert 'repro_injector_events_total{level="L2"} 3' in text
        assert 'repro_injector_events_total{level="L3"} 5' in text

    def test_one_type_line_per_family(self):
        text = metrics_to_prometheus(populated_registry())
        type_lines = [l for l in text.splitlines() if l.startswith("# TYPE")]
        assert (
            type_lines.count("# TYPE repro_injector_events_total counter")
            == 1
        )
        assert len(type_lines) == len(set(type_lines))

    def test_gauge_line(self):
        text = metrics_to_prometheus(populated_registry())
        assert "# TYPE repro_vmin_safe_mv gauge" in text
        assert 'repro_vmin_safe_mv{freq_mhz="2400"} 920' in text

    def test_histogram_buckets_are_cumulative(self):
        text = metrics_to_prometheus(populated_registry())
        assert 'repro_engine_unit_seconds_bucket{le="0.1"} 1' in text
        assert 'repro_engine_unit_seconds_bucket{le="1"} 2' in text
        assert 'repro_engine_unit_seconds_bucket{le="+Inf"} 3' in text
        assert "repro_engine_unit_seconds_count 3" in text
        assert "repro_engine_unit_seconds_sum 2.55" in text

    def test_names_are_sanitized(self):
        registry = MetricsRegistry()
        registry.counter("weird.name-with chars", a_b="x y").inc()
        text = metrics_to_prometheus(registry)
        assert "repro_weird_name_with_chars_total" in text
        assert 'a_b="x y"' in text

    def test_empty_registry_renders_empty(self):
        assert metrics_to_prometheus(MetricsRegistry()) == ""

    def test_custom_prefix(self):
        text = metrics_to_prometheus(populated_registry(), prefix="xg2")
        assert text.startswith("# TYPE xg2_")


class TestConsoleSummary:
    def test_metrics_only(self):
        text = console_summary(metrics=populated_registry())
        assert "Metrics" in text
        assert "injector.events{level=L2}" in text
        assert "vmin.safe_mv{freq_mhz=2400}" in text
        assert "engine.unit_seconds" in text

    def test_manifest_and_spans(self):
        tracer = Tracer()
        with tracer.span("campaign.run"):
            with tracer.span("fly_session", label="s1"):
                pass
        manifest = RunManifest(
            seed=2023,
            time_scale=0.05,
            executor="parallel",
            workers=4,
            version="1.0.0",
            config_hash="deadbeefdeadbeef",
            stages=tracer.stage_durations(),
            spans=tracer.to_list(),
            command="repro-campaign run out --workers 4",
        )
        text = console_summary(manifest=manifest)
        assert "Run manifest" in text
        assert "seed         2023" in text
        assert "parallel (workers=4)" in text
        assert "deadbeefdeadbeef" in text
        assert "repro-campaign run out --workers 4" in text
        assert "campaign.run/fly_session" in text
        assert "Spans" in text
        assert "label=s1" in text

    def test_manifest_embedding_metrics_supplies_both(self):
        manifest = RunManifest(
            seed=1,
            time_scale=0.1,
            executor="serial",
            workers=1,
            version="1.0.0",
            config_hash="cafe",
            metrics=populated_registry().to_dict(),
        )
        text = console_summary(manifest=manifest)
        assert "Run manifest" in text and "injector.events" in text

    def test_nothing_recorded(self):
        assert "nothing recorded" in console_summary()
