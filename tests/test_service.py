"""Tests for the compression service: HTTP surface, sessions, errors.

Covers the service-boundary contracts:

* one-shot compress/decompress/verify round trips over the wire;
* multi-tenant session isolation — interleaved tenants produce archives
  *byte-identical* to their serial single-tenant equivalents, and their
  telemetry never cross-talks;
* lifecycle edges — idle expiry after a client disconnect leaves a
  salvage-readable spool file; graceful shutdown seals every live
  session into a ``verify``-clean archive;
* backpressure — over-capacity requests get structured 429s with
  ``Retry-After``, draining servers answer 503;
* the structured error contract — stable ``{code, message, detail}``
  bodies, with the CLI's ``error: [<code>]`` lines using the same code
  strings (one vocabulary across both surfaces).

Everything runs the real server on an ephemeral port through the real
client — no mocked transport.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

import numpy as np
import pytest

from repro.core.config import MDZConfig
from repro.cli import main
from repro.exceptions import (
    CompressionError,
    ContainerFormatError,
    DecompressionError,
    ReproError,
)
from repro.io.container import verify_container
from repro.service import (
    CompressionService,
    ServiceClient,
    ServiceConfig,
    error_body,
    error_code,
)
from repro.stream import StreamingReader, StreamingWriter


def _trajectory(seed: int, snapshots: int = 12, atoms: int = 40) -> np.ndarray:
    """A level-structured trajectory the compressor does well on."""
    rng = np.random.default_rng(seed)
    levels = rng.integers(0, 6, (atoms, 3)) * 1.5
    return (levels[None] + rng.normal(0, 0.02, (snapshots, atoms, 3))).astype(
        np.float64
    )


@contextlib.asynccontextmanager
async def running_service(**overrides):
    """A started service on an ephemeral port, shut down afterwards."""
    config = ServiceConfig(port=0, **overrides)
    service = CompressionService(config)
    await service.start()
    try:
        yield service
    finally:
        if not service._shutting_down:
            await service.shutdown()


def run(coro):
    return asyncio.run(coro)


class TestOneShotEndpoints:
    def test_compress_decompress_verify_round_trip(self):
        traj = _trajectory(0)

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    resp = await client.post_array(
                        "/v1/compress?error_bound=0.001&buffer_size=4", traj
                    )
                    assert resp.status == 200
                    blob = resp.body
                    verify = await client.request(
                        "POST", "/v1/verify", {}, blob
                    )
                    assert verify.status == 200
                    assert verify.json()["intact"] is True
                    restored = await client.request(
                        "POST", "/v1/decompress", {}, blob
                    )
                    assert restored.status == 200
                    shape = tuple(
                        int(d)
                        for d in restored.headers["x-mdz-shape"].split(",")
                    )
                    dtype = restored.headers["x-mdz-dtype"]
                    return np.frombuffer(
                        restored.body, dtype=dtype
                    ).reshape(shape)

        restored = run(main())
        bound = 1e-3 * float(traj.max() - traj.min())
        assert restored.shape == traj.shape
        assert np.abs(restored - traj).max() <= bound

    def test_healthz_and_stats(self):
        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    health = await client.get_json("/v1/healthz")
                    stats = await client.get_json("/v1/stats")
                    trace = await client.get_json("/v1/trace")
                    return health.json(), stats.json(), trace.json()

        health, stats, trace = run(main())
        assert health["status"] == "ok"
        assert health["sessions"]["open"] == 0
        assert stats["telemetry"]["counters"]["service.requests"] >= 1
        assert "traceEvents" in trace


class TestSessions:
    def test_session_lifecycle_and_archive(self):
        traj = _trajectory(1)

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    created = await client.post_json(
                        "/v1/sessions",
                        {"error_bound": 1e-3, "buffer_size": 4},
                    )
                    assert created.status == 201
                    token = created.json()["token"]
                    for snapshot in traj:
                        fed = await client.post_array(
                            f"/v1/sessions/{token}/feed", snapshot
                        )
                        assert fed.status == 200
                    closed = await client.request(
                        "POST", f"/v1/sessions/{token}/close"
                    )
                    assert closed.status == 200
                    archive = await client.request(
                        "GET", f"/v1/sessions/{token}/archive"
                    )
                    assert archive.status == 200
                    tenant_stats = await client.get_json(
                        f"/v1/sessions/{token}/stats"
                    )
                    tenant_trace = await client.get_json(
                        f"/v1/sessions/{token}/trace"
                    )
                    return (
                        closed.json(),
                        archive.body,
                        tenant_stats.json(),
                        tenant_trace.json(),
                    )

        stats, blob, tenant_stats, tenant_trace = run(main())
        # The close body is exactly StreamStats.to_dict() + identifiers.
        from repro.stream.writer import StreamStats

        for key in StreamStats().to_dict():
            assert key in stats, key
        assert stats["snapshots"] == len(traj)
        assert verify_container(blob)["intact"] is True
        restored = StreamingReader(blob).read_all()
        bound = 1e-3 * float(traj[:4].max() - traj[:4].min())
        assert np.abs(restored - traj).max() <= bound
        # Per-tenant telemetry carries the tenant's own stream counters
        # and a Perfetto-loadable span trace.
        counters = tenant_stats["telemetry"]["counters"]
        assert counters["stream.chunks_written"] == stats["chunks"]
        assert any(
            event["ph"] == "X" for event in tenant_trace["traceEvents"]
        )

    def test_batched_feed_matches_single_feeds(self):
        """Request batching: one (T, N, axes) feed == T single feeds."""
        traj = _trajectory(2, snapshots=8)

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    archives = []
                    for batched in (False, True):
                        created = await client.post_json(
                            "/v1/sessions",
                            {"error_bound": 1e-3, "buffer_size": 4},
                        )
                        token = created.json()["token"]
                        if batched:
                            resp = await client.post_array(
                                f"/v1/sessions/{token}/feed", traj
                            )
                            assert resp.status == 200
                            assert resp.json()["snapshots"] == len(traj)
                        else:
                            for snapshot in traj:
                                await client.post_array(
                                    f"/v1/sessions/{token}/feed", snapshot
                                )
                        await client.request(
                            "POST", f"/v1/sessions/{token}/close"
                        )
                        archive = await client.request(
                            "GET", f"/v1/sessions/{token}/archive"
                        )
                        archives.append(archive.body)
                    return archives

        single, batched = run(main())
        assert single == batched

    def test_concurrent_tenants_byte_identical_to_serial(self):
        """Two interleaved tenants == two serial single-tenant runs."""
        traj_a = _trajectory(10, snapshots=9)
        traj_b = _trajectory(20, snapshots=9) * 2.5

        async def main():
            async with running_service() as svc:
                async def tenant(traj):
                    async with ServiceClient(
                        "127.0.0.1", svc.port
                    ) as client:
                        created = await client.post_json(
                            "/v1/sessions",
                            {"error_bound": 1e-3, "buffer_size": 3},
                        )
                        token = created.json()["token"]
                        for snapshot in traj:
                            resp = await client.post_array(
                                f"/v1/sessions/{token}/feed", snapshot
                            )
                            assert resp.status == 200
                            # Force interleaving between the tenants.
                            await asyncio.sleep(0)
                        await client.request(
                            "POST", f"/v1/sessions/{token}/close"
                        )
                        archive = await client.request(
                            "GET", f"/v1/sessions/{token}/archive"
                        )
                        stats = await client.get_json(
                            f"/v1/sessions/{token}/stats"
                        )
                        return archive.body, stats.json()

                return await asyncio.gather(tenant(traj_a), tenant(traj_b))

        (blob_a, stats_a), (blob_b, stats_b) = run(main())
        import io

        for traj, blob in ((traj_a, blob_a), (traj_b, blob_b)):
            sink = io.BytesIO()
            with StreamingWriter(
                sink, MDZConfig(error_bound=1e-3, buffer_size=3)
            ) as writer:
                writer.feed_many(traj)
            assert blob == sink.getvalue()
        # Telemetry stayed per-tenant: each recorder saw exactly its own
        # chunk count (9 snapshots / 3 per buffer x 3 axes = 9 chunks).
        assert stats_a["telemetry"]["counters"]["stream.chunks_written"] == 9
        assert stats_b["telemetry"]["counters"]["stream.chunks_written"] == 9

    def test_disconnected_session_expires_to_salvageable_file(self):
        traj = _trajectory(3, snapshots=5)

        async def main():
            async with running_service(session_ttl=60.0) as svc:
                client = ServiceClient("127.0.0.1", svc.port)
                created = await client.post_json(
                    "/v1/sessions", {"error_bound": 1e-3, "buffer_size": 2}
                )
                token = created.json()["token"]
                for snapshot in traj:
                    await client.post_array(
                        f"/v1/sessions/{token}/feed", snapshot
                    )
                # The client vanishes without closing the session.
                await client.close()
                session = svc.sessions.get(token)
                session.last_active -= 61.0
                expired = await svc.sessions.expire_idle()
                assert expired == [token]
                async with ServiceClient("127.0.0.1", svc.port) as c2:
                    resp = await c2.post_array(
                        f"/v1/sessions/{token}/feed", traj[0]
                    )
                return session.path, resp.status, resp.json()

        path, status, body = run(main())
        assert status == 410
        assert body["error"]["code"] == "session_gone"
        # The abandoned spool file keeps every committed chunk: 5
        # snapshots at buffer_size=2 -> 2 full buffers (4 snapshots)
        # were fenced in, the 5th was still buffered in memory.
        blob = open(path, "rb").read()
        reader = StreamingReader(blob, salvage=True)
        report = reader.salvage_report()
        assert report.readable_snapshots == 4
        assert report.lost_snapshots == []
        restored = np.concatenate(
            [buf for _, _, buf in reader.iter_salvaged()]
        )
        bound = 1e-3 * float(traj[:2].max() - traj[:2].min())
        assert np.abs(restored - traj[:4]).max() <= bound

    def test_graceful_shutdown_seals_live_sessions(self):
        traj = _trajectory(4, snapshots=5)

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    created = await client.post_json(
                        "/v1/sessions",
                        {"error_bound": 1e-3, "buffer_size": 2},
                    )
                    token = created.json()["token"]
                    for snapshot in traj:
                        await client.post_array(
                            f"/v1/sessions/{token}/feed", snapshot
                        )
                # Stop the server with the session still open and a
                # partial buffer (the 5th snapshot) unflushed.
                report = await svc.shutdown()
                session = svc.sessions._sessions[token]
                return report, token, session.path

        report, token, path = run(main())
        assert report["finalized"] == [token]
        blob = open(path, "rb").read()
        assert verify_container(blob)["intact"] is True
        restored = StreamingReader(blob).read_all()
        assert restored.shape == traj.shape  # nothing torn, nothing lost

    def test_empty_session_shutdown_aborts_cleanly(self):
        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    created = await client.post_json("/v1/sessions", {})
                    token = created.json()["token"]
                report = await svc.shutdown()
                return report, token

        report, token = run(main())
        assert report["finalized"] == []
        assert report["aborted"] == [token]


class TestMetricsEndpoint:
    def test_exposition_validates_and_quality_survives_retirement(self):
        """`GET /metrics` is parser-clean, labels live sessions, and
        keeps quality counters monotonic after the session closes."""
        traj = _trajectory(2)

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    created = await client.post_json(
                        "/v1/sessions",
                        {
                            "error_bound": 1e-3,
                            "buffer_size": 4,
                            "audit_interval": 1,
                        },
                    )
                    assert created.status == 201
                    token = created.json()["token"]
                    fed = await client.post_array(
                        f"/v1/sessions/{token}/feed", traj
                    )
                    assert fed.status == 200
                    live = await client.request("GET", "/metrics")
                    closed = await client.request(
                        "POST", f"/v1/sessions/{token}/close"
                    )
                    assert closed.status == 200
                    retired = await client.request("GET", "/metrics")
                    return token, live, retired

        token, live, retired = run(main())
        from repro.telemetry import prom

        assert live.status == 200
        assert live.headers["content-type"].startswith(
            "text/plain; version=0.0.4"
        )
        families = prom.validate(live.body.decode("utf-8"))
        types = {entry["type"] for entry in families.values()}
        assert {"counter", "gauge", "histogram"} <= types
        live_tokens = {
            labels["session"]
            for entry in families.values()
            for (_, labels, _) in entry["samples"]
            if "session" in labels
        }
        assert live_tokens == {token}
        # After close the tenant's series leave the exposition, but its
        # quality counters fold into the unlabeled server families —
        # bound-violation alerts must see a monotonic counter.
        after = prom.validate(retired.body.decode("utf-8"))
        audits = [
            value
            for (_, labels, value) in
            after["mdz_quality_audits_total"]["samples"]
            if "session" not in labels
        ]
        # 12 snapshots / buffer_size 4 = 3 buffers, 3 axes, interval 1.
        assert sum(audits) == 9


class TestBackpressure:
    def test_over_capacity_yields_structured_429(self):
        async def main():
            async with running_service(max_pending=1) as svc:
                release = asyncio.Event()
                original = svc._compress_sync

                def slow_compress(config, data):
                    # Runs on a worker thread; hold the admission slot
                    # until the test has observed the rejection.
                    asyncio.run_coroutine_threadsafe(
                        release.wait(), loop
                    ).result()
                    return original(config, data)

                loop = asyncio.get_running_loop()
                svc._compress_sync = slow_compress
                traj = _trajectory(5, snapshots=4, atoms=10)
                async with ServiceClient("127.0.0.1", svc.port) as c1:
                    first = asyncio.create_task(
                        c1.post_array(
                            "/v1/compress?buffer_size=2", traj
                        )
                    )
                    # Wait until the first request holds the slot.
                    while svc._inflight == 0:
                        await asyncio.sleep(0.01)
                    async with ServiceClient(
                        "127.0.0.1", svc.port
                    ) as c2:
                        rejected = await c2.post_array(
                            "/v1/compress?buffer_size=2", traj
                        )
                    release.set()
                    accepted = await first
                    return accepted, rejected

        accepted, rejected = run(main())
        assert accepted.status == 200
        assert rejected.status == 429
        assert rejected.json()["error"]["code"] == "over_capacity"
        assert int(rejected.headers["retry-after"]) >= 1

    def test_draining_server_answers_503(self):
        async def main():
            async with running_service() as svc:
                svc._shutting_down = True
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    compress = await client.post_array(
                        "/v1/compress", _trajectory(6, snapshots=2, atoms=5)
                    )
                    svc._shutting_down = False  # let teardown run clean
                    return compress

        resp = run(main())
        assert resp.status == 503
        assert resp.json()["error"]["code"] == "shutting_down"
        assert "retry-after" in resp.headers


class TestStructuredErrors:
    def _one(self, coro_factory):
        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    return await coro_factory(client)

        return run(main())

    def test_non_finite_input_is_structured_400(self):
        bad = np.array([[np.nan, 1.0], [2.0, 3.0]])
        resp = self._one(
            lambda c: c.post_array("/v1/compress", bad[None])
        )
        assert resp.status == 400
        body = resp.json()["error"]
        assert body["code"] == "compression_failed"
        assert "non-finite" in body["message"]

    def test_non_finite_feed_does_not_kill_the_session(self):
        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    created = await client.post_json(
                        "/v1/sessions",
                        {"error_bound": 1e-3, "buffer_size": 2},
                    )
                    token = created.json()["token"]
                    good = _trajectory(7, snapshots=4)
                    await client.post_array(
                        f"/v1/sessions/{token}/feed", good[0]
                    )
                    bad = good[1].copy()
                    bad[0, 0] = np.inf
                    rejected = await client.post_array(
                        f"/v1/sessions/{token}/feed", bad
                    )
                    for snapshot in good[1:]:
                        ok = await client.post_array(
                            f"/v1/sessions/{token}/feed", snapshot
                        )
                        assert ok.status == 200
                    closed = await client.request(
                        "POST", f"/v1/sessions/{token}/close"
                    )
                    return rejected, closed

        rejected, closed = run(main())
        assert rejected.status == 400
        assert rejected.json()["error"]["code"] == "compression_failed"
        assert closed.status == 200
        assert closed.json()["snapshots"] == 4

    def test_framing_errors_have_specific_codes(self):
        cases = self._one_framing_cases()
        assert cases["missing"] == (400, "missing_header")
        assert cases["dtype"] == (400, "bad_dtype")
        assert cases["mismatch"] == (400, "payload_size_mismatch")
        assert cases["config"] == (400, "bad_config_key")

    def _one_framing_cases(self):
        async def main():
            out = {}
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    resp = await client.request(
                        "POST", "/v1/compress", {}, b"\x00" * 8
                    )
                    out["missing"] = (
                        resp.status, resp.json()["error"]["code"]
                    )
                    resp = await client.request(
                        "POST",
                        "/v1/compress",
                        {"X-MDZ-Dtype": "object", "X-MDZ-Shape": "2,2"},
                        b"\x00" * 8,
                    )
                    out["dtype"] = (resp.status, resp.json()["error"]["code"])
                    resp = await client.request(
                        "POST",
                        "/v1/compress",
                        {"X-MDZ-Dtype": "float64", "X-MDZ-Shape": "4,4"},
                        b"\x00" * 8,
                    )
                    out["mismatch"] = (
                        resp.status, resp.json()["error"]["code"]
                    )
                    resp = await client.post_json(
                        "/v1/sessions", {"bogus_knob": 1}
                    )
                    out["config"] = (
                        resp.status, resp.json()["error"]["code"]
                    )
            return out

        return run(main())

    def test_malformed_container_maps_to_container_code(self):
        resp = self._one(
            lambda c: c.request("POST", "/v1/verify", {}, b"not a container")
        )
        assert resp.status == 400
        assert resp.json()["error"]["code"] == "container_malformed"

    def test_forged_headers_are_container_malformed(self, forged_headers):
        """A hostile header is the archive's fault, never a 500 and never
        the request's ``invalid_config``."""

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    return {
                        case: await client.request(
                            "POST", "/v1/decompress", {}, blob
                        )
                        for case, (_, blob) in forged_headers.items()
                    }

        for case, resp in run(main()).items():
            error = resp.json()["error"]
            assert resp.status == 400, (case, error)
            assert error["code"] == "container_malformed", (case, error)

    def test_hostile_counts_are_client_errors(self, hostile_counts):
        """Hostile header counts are the archive's fault: 400, never
        500."""

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    return {
                        case: await client.request(
                            "POST", "/v1/decompress", {}, blob
                        )
                        for case, blob in hostile_counts.items()
                    }

        for case, resp in run(main()).items():
            error = resp.json()["error"]
            assert resp.status == 400, (case, error)
            assert error["code"] in (
                "container_malformed",
                "decompression_failed",
            ), (case, error)

    def test_forged_payloads_are_decompression_failed(self, forged_payloads):
        """A forged member payload field or a codebook deeper than the
        encoder writes is the archive's fault: 400
        ``decompression_failed``, never 500 nor a decoded array."""

        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    return {
                        case: await client.request(
                            "POST", "/v1/decompress", {}, blob
                        )
                        for case, blob in forged_payloads.items()
                    }

        for case, resp in run(main()).items():
            assert resp.status == 400, (case, resp.status)
            error = resp.json()["error"]
            assert error["code"] == "decompression_failed", (case, error)

    def test_unknown_routes_and_methods(self):
        async def main():
            async with running_service() as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    missing = await client.get_json("/v1/nope")
                    wrong = await client.request("DELETE", "/v1/compress")
                    return missing, wrong

        missing, wrong = run(main())
        assert missing.status == 404
        assert missing.json()["error"]["code"] == "not_found"
        assert wrong.status == 405
        assert wrong.json()["error"]["code"] == "method_not_allowed"

    def test_cli_and_http_agree_on_code_strings(self, tmp_path, capsys):
        """The CLI's bracketed codes are the HTTP bodies' codes."""
        # HTTP side: the mapping function the service serializes with.
        for exc, expected in (
            (CompressionError("x"), "compression_failed"),
            (DecompressionError("x"), "decompression_failed"),
            (ContainerFormatError("x"), "container_malformed"),
            (ReproError("x"), "repro_error"),
            (FileNotFoundError("x"), "io_error"),
        ):
            assert error_code(exc) == expected
            assert error_body(exc)["error"]["code"] == expected
        # CLI side: a run that raises CompressionError prints the same
        # code string the HTTP surface would serialize.
        bad = tmp_path / "bad.npy"
        np.save(bad, np.array([[[np.nan, 1.0, 2.0]]]))
        assert main(["compress", str(bad), str(tmp_path / "out.mdz")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "[compression_failed]" in err
        # And a missing input maps to io_error on both surfaces.
        assert main(["info", str(tmp_path / "gone.mdz")]) == 1
        err = capsys.readouterr().err
        assert "[io_error]" in err


class TestPayloadLimits:
    def test_oversized_body_is_rejected_with_413(self):
        async def main():
            async with running_service(max_body=1024) as svc:
                async with ServiceClient("127.0.0.1", svc.port) as client:
                    return await client.post_array(
                        "/v1/compress", np.zeros((4, 64, 3))
                    )

        resp = run(main())
        assert resp.status == 413
        assert resp.json()["error"]["code"] == "payload_too_large"

    def test_malformed_http_gets_structured_400(self):
        async def main():
            async with running_service() as svc:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", svc.port
                )
                writer.write(b"THIS IS NOT HTTP\r\n\r\n")
                await writer.drain()
                raw = await reader.read()
                writer.close()
                return raw

        raw = run(main())
        assert b"400" in raw.split(b"\r\n", 1)[0]
        body = json.loads(raw.split(b"\r\n\r\n", 1)[1])
        assert body["error"]["code"] == "protocol_error"
