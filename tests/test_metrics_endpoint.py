"""STATS reply shape and METRICS Prometheus exposition output."""

import asyncio
import random
import re

import pytest

from repro.core.mccls import McCLS
from repro.obs import ListEventSink
from repro.obs.exposition import (
    PrometheusRenderer,
    escape_label_value,
    render_prometheus,
    sanitize_metric_name,
)
from repro.pairing.bn import toy_curve
from repro.pairing.groups import PairingContext
from repro.service.client import ServiceClient
from repro.service.server import STATS_SCHEMA_VERSION, VerificationGateway

CURVE_BITS = 32

#: one Prometheus sample line: name{labels} value
_SAMPLE = re.compile(
    r"^(?P<name>[a-zA-Z_:][a-zA-Z0-9_:]*)"
    r"(?:\{(?P<labels>[^}]*)\})? (?P<value>[-+0-9.eEinfna]+)$"
)


def run(coro_factory, **gateway_kwargs):
    async def main():
        gateway = VerificationGateway(
            curve=toy_curve(CURVE_BITS), seed=5, port=0, **gateway_kwargs
        )
        await gateway.start()
        try:
            return await coro_factory(gateway)
        finally:
            await gateway.stop()

    return asyncio.run(main())


async def drive_traffic(gateway, requests=3):
    client = await ServiceClient(gateway.host, gateway.port).connect()
    keys = await client.enroll("metrics@manet")
    for i in range(requests):
        message = b"m%d" % i
        signature = client.sign(message, keys)
        assert await client.verify(
            "metrics@manet", keys.public_key, message, signature, trace_id=i + 1
        )
    return client


def parse_exposition(text):
    """Parse exposition text into {key: value} + the declared TYPE lines."""
    samples, types = {}, {}
    for line in text.splitlines():
        if not line:
            continue
        if line.startswith("# TYPE "):
            _, _, name, kind = line.split(" ")
            types[name] = kind
            continue
        assert not line.startswith("#"), f"unexpected comment: {line}"
        match = _SAMPLE.match(line)
        assert match, f"unparseable sample line: {line!r}"
        key = match.group("name")
        if match.group("labels"):
            key += "{" + match.group("labels") + "}"
        samples[key] = float(match.group("value"))
    return samples, types


class TestStatsShape:
    def test_stats_document_schema(self):
        async def body(gateway):
            client = await drive_traffic(gateway)
            stats = await client.stats()
            await client.close()
            return stats

        stats = run(body)
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert stats["counters"]["verify_requests"] == 3
        assert stats["counters"]["traced_requests"] == 3
        assert stats["queue_depth"] == 0
        assert stats["queue_size"] > 0
        # every stage summary carries counts and the quantile ladder
        for stage in ("request", "queue_wait", "verify", "serialize"):
            summary = stats["latency_ms"][stage]
            assert summary["count"] >= 1
            for key in ("p50", "p90", "p95", "p99", "min", "max", "mean"):
                assert isinstance(summary[key], float), (stage, key)
            assert summary["min"] <= summary["p50"] <= summary["max"]
        assert stats["batch"]["size"]["count"] >= 1
        assert set(stats["cache"]) == {
            "pairing",
            "miller",
            "hash_g2",
        }

    def test_stats_survives_json_round_trip_unchanged(self):
        import json

        async def body(gateway):
            client = await drive_traffic(gateway)
            stats = await client.stats()
            await client.close()
            return stats

        stats = run(body)
        assert json.loads(json.dumps(stats)) == stats


class TestMetricsExposition:
    def test_metrics_opcode_returns_parseable_exposition(self):
        async def body(gateway):
            client = await drive_traffic(gateway)
            text = await client.metrics()
            await client.close()
            return text

        text = run(body)
        assert text.endswith("\n")
        samples, types = parse_exposition(text)
        # stable counter names with the _total convention
        assert samples["repro_service_verify_requests_total"] == 3.0
        assert samples["repro_service_requests_total"] >= 4.0
        assert types["repro_service_verify_requests_total"] == "counter"
        # per-stage summaries carry quantile labels
        for stage in ("request", "queue_wait", "verify", "serialize"):
            key = f'repro_service_stage_ms{{quantile="0.5",stage="{stage}"}}'
            assert key in samples, sorted(samples)[:20]
            assert samples[f'repro_service_stage_ms_count{{stage="{stage}"}}'] >= 1
        assert types["repro_service_stage_ms"] == "summary"
        # gauges and cache families
        assert samples["repro_service_queue_depth"] == 0.0
        assert types["repro_service_queue_depth"] == "gauge"
        assert 'repro_cache_hits_total{cache="miller"}' in samples
        assert samples["repro_service_enrolled"] == 1.0

    def test_metric_names_are_prometheus_legal(self):
        async def body(gateway):
            client = await drive_traffic(gateway)
            text = await client.metrics()
            await client.close()
            return text

        text = run(body)
        legal = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
        for line in text.splitlines():
            if not line or line.startswith("#"):
                continue
            name = line.split("{")[0].split(" ")[0]
            assert legal.match(name), name


class TestTopDashboard:
    def test_poll_rates_from_counter_deltas(self):
        from repro.service.top import poll_rates

        previous = {"counters": {"requests": 100, "verify_requests": 80}}
        current = {"counters": {"requests": 150, "verify_requests": 100}}
        rates = poll_rates(previous, current, 2.0)
        assert rates["requests"] == pytest.approx(25.0)
        assert rates["verifies"] == pytest.approx(10.0)
        assert poll_rates(None, current, 2.0) == {
            "requests": 0.0,
            "verifies": 0.0,
        }

    def test_render_dashboard_from_live_stats(self):
        from repro.service.top import poll_rates, render_dashboard

        async def body(gateway):
            client = await drive_traffic(gateway)
            stats = await client.stats()
            await client.close()
            return stats

        stats = run(body)
        lines = render_dashboard(
            stats, poll_rates(None, stats, 2.0), target="host:1"
        )
        text = "\n".join(lines)
        assert "repro top - gateway host:1" in text
        assert "req/s" in text
        assert "p50" in text and "p99" in text
        assert "queue 0/" in text
        assert "cache" in text
        assert "enrolled  1" in text

    def test_poll_loop_iterations_bounded(self):
        import repro.service.top as top_mod

        async def body(gateway):
            outputs = []
            code = await top_mod._poll_loop(
                gateway.host,
                gateway.port,
                interval_s=0.01,
                iterations=2,
                clear=False,
                out=outputs.append,
            )
            return code, outputs

        code, outputs = run(body)
        assert code == 0
        assert len(outputs) == 2
        assert all(o.startswith("repro top") for o in outputs)


class TestRendererPrimitives:
    def test_sanitize_metric_name(self):
        assert sanitize_metric_name("service.queue_wait_ms", "repro") == (
            "repro_service_queue_wait_ms"
        )
        assert sanitize_metric_name("weird métric!") == "weird_m_tric_"
        assert sanitize_metric_name("9lives").startswith("_")

    def test_label_values_escaped(self):
        assert escape_label_value('say "hi"\n\\') == 'say \\"hi\\"\\n\\\\'
        renderer = PrometheusRenderer()
        renderer.gauge("g", 1.0, {"path": 'a\\b"c"\nd'})
        rendered = renderer.render()
        assert 'path="a\\\\b\\"c\\"\\nd"' in rendered
        # one TYPE line, one sample, trailing newline
        assert rendered == (
            "# TYPE repro_g gauge\n"
            'repro_g{path="a\\\\b\\"c\\"\\nd"} 1.0\n'
        )

    def test_render_prometheus_convenience(self):
        text = render_prometheus(
            counters=[("hits", {"cache": "miller"}, 3)],
            gauges=[("depth", {}, 0)],
        )
        samples, types = parse_exposition(text)
        assert samples['repro_hits_total{cache="miller"}'] == 3.0
        assert samples["repro_depth"] == 0.0
        assert types["repro_hits_total"] == "counter"

    def test_families_sorted_and_grouped(self):
        renderer = PrometheusRenderer()
        renderer.gauge("b_metric", 2.0)
        renderer.gauge("a_metric", 1.0)
        renderer.gauge("b_metric", 3.0, {"x": "2"})
        lines = renderer.render().splitlines()
        assert lines[0].startswith("# TYPE repro_a_metric")
        # both b_metric samples sit under one TYPE header
        assert sum(1 for l in lines if l.startswith("# TYPE")) == 2
