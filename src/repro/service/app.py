"""The compression service: routing, admission control, lifecycle.

:class:`CompressionService` glues the pieces together:

* **endpoints** — one-shot ``compress``/``decompress``/``verify`` plus
  the session API (``POST /v1/sessions``, ``.../feed``, ``.../close``,
  ``.../archive``, ``.../stats``, ``.../trace``) and server-wide
  ``healthz``/``stats``/``trace`` plus the Prometheus scrape endpoint
  ``GET /metrics``; see ``docs/service.md`` for the wire reference;
* **backpressure** — the executor's bounded-queue discipline applied at
  the network edge: at most ``max_pending`` CPU-bound requests are
  admitted at once.  Where the in-process executor *blocks* its
  producer, an HTTP server must not (a blocked accept loop is unbounded
  memory in the kernel instead of the heap), so over-capacity requests
  are rejected immediately with ``429 + Retry-After`` and a structured
  ``over_capacity`` body.  Request *batching* rides the same discipline:
  a ``(T, N, axes)``-shaped feed carries T snapshots through one
  admission slot, so clients amortize both the HTTP and the queue cost;
* **multi-tenancy** — per-session recorders (context-local, see
  :mod:`repro.telemetry.recorder`) keep tenants' telemetry and traces
  isolated; a server-wide :class:`TracingRecorder` aggregates the
  service-level counters (``service.requests``/``errors``/``rejected``)
  and per-endpoint latency timers surfaced by ``GET /v1/stats``;
* **graceful shutdown** — stop accepting, drain in-flight requests,
  then walk every live session through ``StreamingWriter.close()`` so
  each archive is sealed behind its commit fence; no tenant ever
  receives a torn file for a request the server acknowledged.

CPU-bound work runs on worker threads (``asyncio.to_thread``) so the
event loop stays responsive to health checks and admission decisions
while numpy crunches.
"""

from __future__ import annotations

import asyncio
import contextlib
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .. import __version__
from ..core.mdz import MDZ
from ..exceptions import ReproError
from ..io.container import verify_container
from ..telemetry import recording, to_chrome_trace
from ..telemetry import prom
from ..telemetry.logging import configure_json_logging, get_logger
from ..telemetry.tracing import TracingRecorder
from . import http
from .errors import (
    ServiceError,
    bad_request,
    conflict,
    method_not_allowed,
    not_found,
    over_capacity,
    shutting_down,
)
from .payload import decode_array, encode_array
from .sessions import CLOSED, OPEN, SessionManager, config_from_request

_log = get_logger("service")


@dataclass
class ServiceConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 8321
    #: Spool directory for session archives; ``None`` = a fresh tempdir.
    spool_dir: str | None = None
    #: Admission cap: CPU-bound requests in flight at once.  Mirrors the
    #: executor's ``max_pending = 4 * workers`` queue discipline.
    max_pending: int = 16
    #: Request body cap, bytes.
    max_body: int = 64 * 1024 * 1024
    #: Idle seconds before an open session is expired.
    session_ttl: float = 300.0
    #: Seconds between idle-session sweeps.
    sweep_interval: float = 5.0
    #: Seconds to wait for in-flight requests during shutdown.
    drain_timeout: float = 10.0
    #: Emit structured JSON logs on the ``mdz`` logger tree
    #: (``mdz serve --log-json``); see :mod:`repro.telemetry.logging`.
    log_json: bool = False


class CompressionService:
    """One asyncio HTTP compression service instance."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        if self.config.spool_dir is None:
            self._tempdir = tempfile.TemporaryDirectory(prefix="mdz-service-")
            spool = Path(self._tempdir.name)
        else:
            self._tempdir = None
            spool = Path(self.config.spool_dir)
            spool.mkdir(parents=True, exist_ok=True)
        self.spool_dir = spool
        self.recorder = TracingRecorder()
        self.sessions = SessionManager(
            spool,
            ttl=self.config.session_ttl,
            on_retire=self._fold_session_quality,
        )
        self.port: int | None = None  # actual bound port after start()
        self._server: asyncio.base_events.Server | None = None
        self._sweeper: asyncio.Task | None = None
        self._inflight = 0
        self._idle = asyncio.Event()
        self._idle.set()
        self._started = time.monotonic()
        self._shutting_down = False

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        """Bind and start serving; ``self.port`` is the actual port."""
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started = time.monotonic()
        self._sweeper = asyncio.create_task(self._sweep_idle_sessions())
        _log.info(
            "service listening",
            extra={"host": self.config.host, "port": self.port},
        )

    async def shutdown(self) -> dict:
        """Graceful stop: drain requests, finalize every live session."""
        self._shutting_down = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._sweeper is not None:
            self._sweeper.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._sweeper
        with contextlib.suppress(asyncio.TimeoutError):
            await asyncio.wait_for(
                self._idle.wait(), timeout=self.config.drain_timeout
            )
        report = await self.sessions.shutdown()
        self.recorder.count("service.shutdowns")
        _log.info("service shut down", extra={"report": report})
        return report

    async def serve_forever(self) -> None:
        """Start and serve until cancelled; shuts down gracefully."""
        await self.start()
        try:
            await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        finally:
            await self.shutdown()

    def _fold_session_quality(self, session) -> None:
        """Keep quality counters durable as a session leaves the live set.

        Per-session series vanish from ``GET /metrics`` at retirement;
        folding ``quality.*`` counters into the server recorder keeps
        ``mdz_quality_bound_violations_total`` monotonic across session
        lifecycles — the property the alerting recipe in
        ``docs/service.md`` relies on.
        """
        for name, value in session.recorder.counters().items():
            if name.startswith("quality.") and value:
                self.recorder.count(name, value)

    async def _sweep_idle_sessions(self) -> None:
        while True:
            await asyncio.sleep(self.config.sweep_interval)
            expired = await self.sessions.expire_idle()
            if expired:
                self.recorder.count("service.sessions_expired", len(expired))
                _log.warning(
                    "expired %d idle session(s)",
                    len(expired),
                    extra={"tokens": expired},
                )

    # -- connection handling --------------------------------------------

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            while True:
                try:
                    request = await http.read_request(
                        reader, self.config.max_body
                    )
                except http.ProtocolError as exc:
                    await http.write_response(
                        writer,
                        http.error_response(
                            bad_request(str(exc), code="protocol_error")
                        ),
                        keep_alive=False,
                    )
                    return
                except ServiceError as exc:  # payload_too_large
                    await http.write_response(
                        writer, http.error_response(exc), keep_alive=False
                    )
                    return
                if request is None:
                    return
                response = await self._dispatch(request)
                keep_alive = request.keep_alive and not self._shutting_down
                await http.write_response(writer, response, keep_alive)
                if not keep_alive:
                    return
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished mid-exchange; sessions survive it
        finally:
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _dispatch(self, request: http.Request) -> http.Response:
        self.recorder.count("service.requests")
        start = time.perf_counter()
        try:
            response = await self._route(request)
        except ServiceError as exc:
            if exc.code == "over_capacity":
                self.recorder.count("service.rejected")
            else:
                self.recorder.count("service.errors")
            response = http.error_response(exc)
        except (ReproError, OSError) as exc:
            self.recorder.count("service.errors")
            response = http.error_response(exc)
        except Exception as exc:  # noqa: BLE001 — a bug must not kill the server
            self.recorder.count("service.errors")
            self.recorder.event("service.internal_error", repr(exc))
            _log.error(
                "unhandled error serving %s %s",
                request.method,
                request.path,
                exc_info=exc,
            )
            response = http.error_response(exc, status=500)
        self.recorder.observe(
            f"service.request.{request.method} {_route_label(request.path)}",
            time.perf_counter() - start,
        )
        return response

    # -- admission control ----------------------------------------------

    @contextlib.asynccontextmanager
    async def _admit(self):
        """One bounded admission slot for a CPU-bound request.

        The same discipline as the executor's ``max_pending`` queue,
        surfaced as 429/503 instead of producer blocking.
        """
        if self._shutting_down:
            raise shutting_down()
        if self._inflight >= self.config.max_pending:
            raise over_capacity(self._inflight, self.config.max_pending)
        self._inflight += 1
        self._idle.clear()
        self.recorder.gauge("service.inflight", self._inflight)
        try:
            yield
        finally:
            self._inflight -= 1
            self.recorder.gauge("service.inflight", self._inflight)
            if self._inflight == 0:
                self._idle.set()

    # -- routing --------------------------------------------------------

    async def _route(self, request: http.Request) -> http.Response:
        parts = [p for p in request.path.split("/") if p]
        method = request.method
        if parts == ["v1", "healthz"]:
            _require(method, "GET")
            return self._healthz()
        if parts == ["v1", "stats"]:
            _require(method, "GET")
            return self._stats()
        if parts == ["metrics"]:
            _require(method, "GET")
            return self._metrics()
        if parts == ["v1", "trace"]:
            _require(method, "GET")
            return http.json_response(to_chrome_trace(self.recorder.snapshot()))
        if parts == ["v1", "compress"]:
            _require(method, "POST")
            return await self._compress(request)
        if parts == ["v1", "decompress"]:
            _require(method, "POST")
            return await self._decompress(request)
        if parts == ["v1", "verify"]:
            _require(method, "POST")
            return await self._verify(request)
        if parts == ["v1", "sessions"]:
            _require(method, "POST")
            return self._session_create(request)
        if len(parts) == 3 and parts[:2] == ["v1", "sessions"]:
            token = parts[2]
            if method == "DELETE":
                return await self._session_delete(token)
            raise method_not_allowed(f"{method} not supported on a session")
        if len(parts) == 4 and parts[:2] == ["v1", "sessions"]:
            token, verb = parts[2], parts[3]
            if verb == "feed":
                _require(method, "POST")
                return await self._session_feed(token, request)
            if verb == "close":
                _require(method, "POST")
                return await self._session_close(token)
            if verb == "archive":
                _require(method, "GET")
                return self._session_archive(token)
            if verb == "stats":
                _require(method, "GET")
                return self._session_stats(token)
            if verb == "trace":
                _require(method, "GET")
                return self._session_trace(token)
        raise not_found(f"no route {method} {request.path}")

    # -- one-shot endpoints ---------------------------------------------

    def _healthz(self) -> http.Response:
        return http.json_response(
            {
                "status": "draining" if self._shutting_down else "ok",
                "version": __version__,
                "uptime_seconds": time.monotonic() - self._started,
                "sessions": self.sessions.counts(),
                "inflight": self._inflight,
            }
        )

    def _stats(self) -> http.Response:
        snapshot = self.recorder.snapshot()
        return http.json_response(
            {
                "sessions": self.sessions.counts(),
                "inflight": self._inflight,
                "max_pending": self.config.max_pending,
                # Rolling 1m/5m rates and windowed percentiles, lifted to
                # the top level so dashboards need not dig into telemetry.
                "windows": snapshot.get("windows", {}),
                "telemetry": snapshot,
            }
        )

    def _metrics(self) -> http.Response:
        """Prometheus exposition: server-wide plus per-tenant series.

        The server recorder renders unlabeled; each live session
        contributes its counters and gauges labeled
        ``{session="<token>"}``.  Session timers are left out, because
        per-tenant bucket series would multiply cardinality by the
        session count.  Nothing else exports them: session recorders
        never merge into the server recorder (a retiring session folds
        in only its ``quality.*`` counters), so the server's histograms
        are its own ``service.request.*`` timers and the compress-path
        stage timers do not reach ``/metrics``.
        """
        parts: list[tuple[dict, dict | None]] = [
            (self.recorder.snapshot(), None)
        ]
        for session in self.sessions.live():
            snap = session.recorder.snapshot()
            parts.append(
                (
                    {
                        "counters": snap.get("counters", {}),
                        "gauges": snap.get("gauges", {}),
                        "gauge_age_seconds": snap.get("gauge_age_seconds", {}),
                    },
                    {"session": session.token},
                )
            )
        return http.text_response(
            prom.render_many(parts),
            content_type="text/plain; version=0.0.4; charset=utf-8",
        )

    async def _compress(self, request: http.Request) -> http.Response:
        data = decode_array(request.headers, request.body)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise bad_request(
                f"compress expects (snapshots, atoms[, axes]) data, "
                f"got shape {data.shape}",
                code="bad_shape",
            )
        config = config_from_request(
            {k: v for k, v in request.query.items()}
        )
        async with self._admit():
            blob = await asyncio.to_thread(self._compress_sync, config, data)
        return http.binary_response(
            {"X-MDZ-Raw-Bytes": str(data.astype(np.float32).nbytes)}, blob
        )

    def _compress_sync(self, config, data) -> bytes:
        with recording(self.recorder):
            return MDZ(config).compress(np.asarray(data, dtype=np.float64))

    async def _decompress(self, request: http.Request) -> http.Response:
        if not request.body:
            raise bad_request("decompress needs a container body")
        async with self._admit():
            data = await asyncio.to_thread(
                self._decompress_sync, request.body
            )
        headers, body = encode_array(data)
        return http.binary_response(headers, body)

    def _decompress_sync(self, blob: bytes) -> np.ndarray:
        with recording(self.recorder):
            return MDZ().decompress(blob)

    async def _verify(self, request: http.Request) -> http.Response:
        if not request.body:
            raise bad_request("verify needs a container body")
        async with self._admit():
            report = await asyncio.to_thread(verify_container, request.body)
        return http.json_response(report)

    # -- session endpoints ----------------------------------------------

    def _session_create(self, request: http.Request) -> http.Response:
        if self._shutting_down:
            raise shutting_down()
        config = config_from_request(request.json())
        session = self.sessions.create(config)
        self.recorder.count("service.sessions_created")
        payload = session.describe()
        payload["config"] = {
            "error_bound": config.error_bound,
            "error_bound_mode": config.error_bound_mode,
            "buffer_size": config.buffer_size,
            "method": config.method,
            "sequence_mode": config.sequence_mode,
        }
        return http.json_response(payload, status=201)

    async def _session_feed(
        self, token: str, request: http.Request
    ) -> http.Response:
        session = self.sessions.get(token, require_state=OPEN)
        batch = decode_array(request.headers, request.body)
        if batch.ndim not in (1, 2, 3):
            raise bad_request(
                f"feed expects one (atoms[, axes]) snapshot or a "
                f"(T, atoms, axes) batch, got shape {batch.shape}",
                code="bad_shape",
            )
        async with self._admit():
            summary = await self.sessions.feed(session, batch)
        return http.json_response(summary)

    async def _session_close(self, token: str) -> http.Response:
        session = self.sessions.get(token, require_state=OPEN)
        async with self._admit():
            stats = await self.sessions.close(session)
        self.recorder.count("service.sessions_closed")
        payload = stats.to_dict()
        payload["token"] = token
        payload["archive_bytes"] = stats.bytes_written
        return http.json_response(payload)

    async def _session_delete(self, token: str) -> http.Response:
        session = self.sessions.get(token)
        await self.sessions.abort(session)
        self.sessions.forget(token)
        self.recorder.count("service.sessions_aborted")
        return http.json_response({"token": token, "state": "aborted"})

    def _session_archive(self, token: str) -> http.Response:
        session = self.sessions.get(token)
        if session.state != CLOSED:
            raise conflict(
                f"session {token!r} is {session.state}; close it before "
                "downloading the archive"
            )
        blob = Path(session.path).read_bytes()
        return http.binary_response(
            {"X-MDZ-Snapshots": str(session.stats.snapshots)}, blob
        )

    def _session_stats(self, token: str) -> http.Response:
        session = self.sessions.get(token)
        payload = session.describe()
        payload["telemetry"] = session.recorder.snapshot()
        return http.json_response(payload)

    def _session_trace(self, token: str) -> http.Response:
        session = self.sessions.get(token)
        return http.json_response(
            to_chrome_trace(session.recorder.snapshot())
        )


def _require(method: str, expected: str) -> None:
    if method != expected:
        raise method_not_allowed(f"use {expected} on this route")


def _route_label(path: str) -> str:
    """Collapse session tokens out of paths for the latency timers."""
    parts = path.split("/")
    return "/".join(
        "{token}" if i == 3 and len(p) >= 16 else p
        for i, p in enumerate(parts)
    )


async def serve(config: ServiceConfig | None = None) -> None:
    """Run one service until cancelled (the ``mdz serve`` entry point)."""
    if config is not None and config.log_json:
        configure_json_logging()
    service = CompressionService(config)
    await service.serve_forever()
