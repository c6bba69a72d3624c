"""The four seeded MDZ benchmark workloads.

Every input is generated from the benchmark's ``--seed`` by calling the
dataset generators directly (never ``load_dataset``, whose cache ignores
the seed and writes into the repository).  The program only ever sees
the generated arrays.

A workload has three parts: :meth:`Workload.setup` (warm up, boot),
:meth:`Workload.session` (one complete user session on a fresh seeded
input, timed piece by piece into a :class:`Stats`), and the correctness
checks each session makes through :class:`Checks`.  ``README.md`` says
why each workload exists and which layers it stresses.
"""

from __future__ import annotations

import asyncio
import ctypes
import dataclasses
import io
import os
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core.config import MDZConfig
from repro.core.mdz import MDZ
from repro.datasets.generators import GENERATORS
from repro.datasets.spec import DATASET_SPECS
from repro.io.container import read_container_info
from repro.service.app import CompressionService, ServiceConfig
from repro.service.client import ServiceClient
from repro.service.payload import decode_array
from repro.stream.format import parse_stream
from repro.stream.reader import StreamingReader
from repro.stream.writer import StreamingWriter
from repro.telemetry.quality import BOUND_RTOL

from hostspeed import Clock, HostSpeed
from layertrace import paused

#: Every ADP member, in wire-id order.
ALL_MEMBERS = ("vq", "vqt", "mt", "interp", "bitadaptive")

_SHM_DIR = Path("/dev/shm")


def make_input(name: str, snapshots: int, seed) -> np.ndarray:
    """A seeded ``(snapshots, atoms, 3)`` float32 trajectory."""
    spec = dataclasses.replace(DATASET_SPECS[name], snapshots=snapshots)
    positions, _ = GENERATORS[name](spec, np.random.default_rng(seed))
    return np.ascontiguousarray(positions, dtype=np.float32)


def within_bound(original, decoded, bounds) -> bool:
    """True when every element is within its axis' absolute bound.

    Compared a slab of snapshots at a time, so the check adds little to
    the peak memory the run reports.
    """
    if np.shape(original) != np.shape(decoded):
        return False
    limits = np.asarray(bounds, dtype=np.float64) * (1.0 + BOUND_RTOL)
    for start in range(0, len(original), 64):
        want = np.asarray(original[start:start + 64], dtype=np.float64)
        got = np.asarray(decoded[start:start + 64], dtype=np.float64)
        if np.any(np.abs(want - got).max(axis=(0, 1)) > limits):
            return False
    return True


def shm_segments() -> set[str]:
    """Names of the ``multiprocessing.shared_memory`` segments now alive."""
    if not _SHM_DIR.is_dir():
        return set()
    return {name for name in os.listdir(_SHM_DIR) if name.startswith("psm_")}


def reset_peak_rss() -> None:
    """Restart the kernel's peak-RSS count at the current RSS (Linux).

    Free heap memory is first handed back to the kernel, so the peak does
    not depend on how much earlier work left in the allocator's free
    lists and thread arenas.
    """
    try:
        ctypes.CDLL(None).malloc_trim(0)
    except (OSError, AttributeError):
        pass  # not glibc
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
    except OSError:
        pass  # the peak then covers the whole process lifetime


def peak_rss_bytes() -> int:
    """This process' peak resident set size since the last reset."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


class Checks:
    """Attempted and failed operations across the whole run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def expect(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"check failed: {what}", file=sys.stderr)
        return ok


@dataclass
class Stats:
    """Samples of the sessions of one measurement phase.

    Per-session rates are kept as lists so a run reports their median,
    which one slow session or one unusual input cannot move far.
    """

    sessions: int = 0
    #: Wall seconds of the service's measurement windows.
    busy_s: float = 0.0
    #: Timed seconds of each session (sequential workloads only).
    session_s: list[float] = field(default_factory=list)
    compress_mb_s: list[float] = field(default_factory=list)
    decompress_mb_s: list[float] = field(default_factory=list)
    compression_ratio: list[float] = field(default_factory=list)
    session_start_ms: list[float] = field(default_factory=list)
    feed_ms: list[float] = field(default_factory=list)
    random_read_ms: list[float] = field(default_factory=list)
    peak_bytes: list[int] = field(default_factory=list)
    #: Client-observed seconds of the requests a ``service.handler`` span
    #: serves (session feed and close); the traced run subtracts the
    #: handler time from it to get the HTTP edge cost.
    handler_client_s: float = 0.0

    def add_session(
        self, raw_bytes, compress_s, archive_bytes, decompress_s, start_ms, feeds_ms, reads_ms
    ) -> None:
        """One session's samples; ``decompress_s`` lists its full decodes."""
        self.sessions += 1
        self.compress_mb_s.append(raw_bytes / compress_s / 1e6)
        self.decompress_mb_s += [raw_bytes / d / 1e6 for d in decompress_s]
        self.compression_ratio.append(raw_bytes / archive_bytes)
        self.session_start_ms.append(start_ms)
        self.feed_ms.extend(feeds_ms)
        self.random_read_ms.extend(reads_ms)

    def add(self, part: Stats, factor: float) -> None:
        """Add ``part``'s samples, times divided and rates multiplied by
        the host-speed ``factor`` (1 keeps them as timed)."""
        self.sessions += part.sessions
        self.busy_s += part.busy_s / factor
        self.session_s += [s / factor for s in part.session_s]
        self.compress_mb_s += [r * factor for r in part.compress_mb_s]
        self.decompress_mb_s += [r * factor for r in part.decompress_mb_s]
        self.compression_ratio += part.compression_ratio
        self.session_start_ms += [t / factor for t in part.session_start_ms]
        self.feed_ms += [t / factor for t in part.feed_ms]
        self.random_read_ms += [t / factor for t in part.random_read_ms]
        self.peak_bytes += part.peak_bytes
        # Compared with unscaled spans by the traced run: kept as timed.
        self.handler_client_s += part.handler_client_s

    def sessions_per_s(self) -> float:
        if self.session_s:
            return 1.0 / statistics.median(self.session_s)
        return self.sessions / self.busy_s


class Workload:
    """One benchmark workload.

    Subclasses implement :meth:`setup` and :meth:`session`; a session
    generates its own input (untimed), so every session of a run codes a
    different seeded trajectory and the run's medians do not hinge on
    one draw of the input.  A session records its timed pieces of work on
    a :class:`Clock`, takes host-speed checkpoints between them, and
    returns a function that adds its samples to a :class:`Stats`, given
    the time of each piece (scaled or as timed).
    """

    name = ""
    #: The tail percentile reported as ``feed_tail_ms``: the highest one
    #: with at least ten samples beyond it in a default-length run (two
    #: or more stream sessions give 200 or more buffer samples).
    tail_pct = 95.0

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.checks = Checks()
        #: Reference-kernel samples, taken between sessions.
        self.speed = HostSpeed()
        self._sessions = 0
        #: Seed-sequence key of the current input: 0 for the warm-up
        #: input, then the session number.
        self.key = 0

    def next_input(self, name: str, snapshots: int, warm_up: bool) -> np.ndarray:
        """A session's input, seeded by ``[seed, key]``."""
        if warm_up:
            self.key = 0
        else:
            self._sessions += 1
            self.key = self._sessions
        return make_input(name, snapshots, [self.seed, self.key])

    def setup(self) -> None:
        raise NotImplementedError

    def teardown(self) -> None:
        """Undo :meth:`setup` before the next repeat of it."""

    def close(self) -> None:
        self.teardown()

    def session(self, clock: Clock, warm_up: bool = False):
        raise NotImplementedError

    def run_phase(
        self, seconds: float, stats: Stats, as_timed: Stats | None = None
    ) -> None:
        """Run whole sessions for about ``seconds`` (at least one).

        ``stats`` gets each session's samples with every piece of work
        scaled to full host speed by the checkpoints around it (see
        ``hostspeed.py``); ``as_timed``, if given, gets them unscaled.
        A session is not started when the last one, repeated, would end
        more than half its length past the deadline, so a run overshoots
        ``seconds`` by half a session at most.
        """
        deadline = time.perf_counter() + seconds
        clock = Clock(self.speed)
        while True:
            start = time.perf_counter()
            try:
                emit = self.session(clock)
            except Exception as exc:  # noqa: BLE001 - counted, run goes on
                self.checks.expect(False, f"{self.name} session raised {exc!r}")
                emit = None
            end = time.perf_counter()
            clock.checkpoint()
            if emit is not None:
                emit(stats, clock.scaled)
                if as_timed is not None:
                    emit(as_timed, clock.raw)
            if end + (end - start) / 2 >= deadline:
                return


class CopperStream(Workload):
    """copper-b snapshot by snapshot through ``StreamingWriter``, read back."""

    name = "copper-stream"
    workers = 0
    snapshots = 1000
    warm_up_snapshots = 200
    random_reads = 16
    #: A serial write takes a host-speed checkpoint after the two opening
    #: buffers and then every this many buffers.
    checkpoint_buffers = 20
    #: Buffers per feed latency sample.
    feed_group = 1

    def setup(self) -> None:
        self.config = MDZConfig()
        self._shm_seen = shm_segments()
        self.session(Clock(self.speed), warm_up=True)

    def _write(self, data: np.ndarray, clock: Clock):
        """One writer session; returns (archive, per-buffer feed pieces,
        the other pieces: opening the writer and closing it).

        A buffer's write time is the time spent in the feed calls of its
        snapshots.  With workers the write has no checkpoint and its
        pieces are not scaled: the reference kernel would compete with
        the workers for the cores, and it times one core, not the pool.
        """
        bs = self.config.buffer_size
        scale = not self.workers
        sink = io.BytesIO()
        feeds = [[] for _ in range(-(-len(data) // bs))]
        start = time.perf_counter()
        writer = StreamingWriter(sink, self.config, workers=self.workers)
        other = [clock.since(start, scale)]
        for i, snapshot in enumerate(data):
            start = time.perf_counter()
            writer.feed(snapshot)
            feeds[i // bs].append(clock.since(start, scale))
            done = (i + 1) // bs
            if (
                not self.workers
                and (i + 1) % bs == 0
                and (done == 2 or done % self.checkpoint_buffers == 0)
            ):
                clock.checkpoint()
        start = time.perf_counter()
        writer.close()
        other.append(clock.since(start, scale))
        return sink.getvalue(), feeds, other

    def _serial_archive(self, data: np.ndarray) -> bytes:
        sink = io.BytesIO()
        writer = StreamingWriter(sink, self.config, workers=0)
        for snapshot in data:
            writer.feed(snapshot)
        writer.close()
        return sink.getvalue()

    def session(self, clock: Clock, warm_up: bool = False):
        checks = self.checks
        bs = self.config.buffer_size
        snapshots = self.warm_up_snapshots if warm_up else self.snapshots
        data = self.next_input("copper-b", snapshots, warm_up)
        rng = np.random.default_rng([self.seed, self._sessions, 1])
        read_indices = [
            int(i) for i in rng.integers(0, snapshots // bs, self.random_reads)
        ]
        reset_peak_rss()
        archive, feeds, other = self._write(data, clock)
        clock.checkpoint()
        if self.workers:
            checks.expect(
                archive == self._reference(data),
                "parallel archive differs from the serial one",
            )
            alive = shm_segments()
            leaked = alive - self._shm_seen
            self._shm_seen |= alive
            checks.expect(not leaked, f"shared memory left behind: {sorted(leaked)}")
            clock.checkpoint()
        start = time.perf_counter()
        reader = StreamingReader(archive)
        decoded = reader.read_all()
        read_all = clock.since(start)
        clock.checkpoint()
        bounds = reader.error_bounds
        checks.expect(within_bound(data, decoded, bounds), "read_all bound")
        del decoded
        reads = []
        for index in read_indices:
            start = time.perf_counter()
            part = StreamingReader(archive).read_buffer(index)
            reads.append(clock.since(start))
            checks.expect(
                within_bound(data[index * bs:(index + 1) * bs], part, bounds),
                f"read_buffer({index}) bound",
            )
        peak = peak_rss_bytes()
        raw_bytes, archive_bytes = data.nbytes, len(archive)

        def emit(stats: Stats, t) -> None:
            buffers_s = [sum(t(p) for p in buffer) for buffer in feeds]
            compress_s = sum(buffers_s) + sum(t(p) for p in other)
            decompress_s = t(read_all)
            reads_s = [t(p) for p in reads]
            stats.peak_bytes.append(peak)
            stats.session_s.append(compress_s + decompress_s + sum(reads_s))
            stats.add_session(
                raw_bytes,
                compress_s,
                archive_bytes,
                [decompress_s],
                (buffers_s[0] + buffers_s[1]) * 1e3,
                [
                    sum(buffers_s[i:i + self.feed_group]) * 1e3
                    for i in range(0, len(buffers_s), self.feed_group)
                ],
                [r * 1e3 for r in reads_s],
            )

        return emit


class CopperParallel(CopperStream):
    """The copper-stream session with a worker pool."""

    name = "copper-parallel"
    #: Two workers, the core count of the host the benchmark was sized on
    #: (one worker would run inline: the executor needs two for a pool).
    workers = 2
    #: With workers, the feeds of a buffer wait for an older job or not,
    #: so one buffer's write time ranges from 0.7 to 16 ms, and the median
    #: moved with how often the parent happened to wait (2.6 to 3.4 ms
    #: between runs).  Four buffers together wait about as often as any
    #: other four.
    feed_group = 4
    #: 25 samples a session and six or more sessions a run: p90 leaves
    #: ten or more beyond.
    tail_pct = 90.0
    _input = None
    _reference_key = None

    def next_input(self, name: str, snapshots: int, warm_up: bool) -> np.ndarray:
        """One input for all the sessions of a run, seeded by ``[seed, 1]``,
        so its serial reference archive is written once."""
        if warm_up:
            return super().next_input(name, snapshots, warm_up)
        self._sessions += 1
        self.key = 1
        if self._input is None:
            self._input = make_input(name, snapshots, [self.seed, self.key])
        return self._input

    def _reference(self, data: np.ndarray) -> bytes:
        """The serial archive of the current input, written on first use
        after the parallel run, so it cannot warm anything that run uses."""
        if self._reference_key != self.key:
            with paused():
                self._reference_archive = self._serial_archive(data)
            self._reference_key = self.key
        return self._reference_archive

    def close(self) -> None:
        super().close()
        # Shared memory starts the interpreter's resource tracker process;
        # stop it and wait for it, so the run leaves no process behind.
        from multiprocessing import resource_tracker

        stop = getattr(resource_tracker._resource_tracker, "_stop", None)
        if stop is not None:
            stop()


class PtOneshot(Workload):
    """pt through the one-shot MDZ1 API with the five-member ADP pool."""

    name = "pt-oneshot"
    random_reads = 16
    #: Full decodes per session: one is short, so it is sampled twice.
    decodes = 2
    warm_up_snapshots = 20
    #: One write call per session gives fewer than eleven samples per
    #: run, so no percentile has ten samples beyond it; the "tail" is
    #: the median.
    tail_pct = 50.0

    def setup(self) -> None:
        self.config = MDZConfig(adp_members=ALL_MEMBERS)
        self.session(Clock(self.speed), warm_up=True)

    def session(self, clock: Clock, warm_up: bool = False):
        checks = self.checks
        bs = self.config.buffer_size
        snapshots = self.warm_up_snapshots if warm_up else DATASET_SPECS["pt"].snapshots
        data = self.next_input("pt", snapshots, warm_up)
        rng = np.random.default_rng([self.seed, self.key, 2])
        read_indices = [
            int(i) for i in rng.integers(0, -(-snapshots // bs), self.random_reads)
        ]
        reset_peak_rss()
        start = time.perf_counter()
        archive = MDZ(self.config).compress(data)
        compress = clock.since(start)
        clock.checkpoint()
        decompress = []
        for _ in range(self.decodes):
            start = time.perf_counter()
            decoded = MDZ().decompress(archive)
            decompress.append(clock.since(start))
        clock.checkpoint()
        with paused():
            bounds = read_container_info(archive).error_bounds
        checks.expect(within_bound(data, decoded, bounds), "decompress bound")
        del decoded
        reads = []
        for index in read_indices:
            start = time.perf_counter()
            part = MDZ().decompress_batch(archive, index)
            reads.append(clock.since(start))
            checks.expect(
                within_bound(data[index * bs:(index + 1) * bs], part, bounds),
                f"decompress_batch({index}) bound",
            )
        opening = None
        if not warm_up:
            clock.checkpoint()
            # Session start-up on its own: a fresh compressor over the two
            # opening buffers (level fit plus the two opening trials).
            head = data[: 2 * bs]
            start = time.perf_counter()
            head_archive = MDZ(self.config).compress(head)
            opening = clock.since(start)
            with paused():
                head_ok = within_bound(
                    head,
                    MDZ().decompress(head_archive),
                    read_container_info(head_archive).error_bounds,
                )
            checks.expect(head_ok, "session-start archive bound")
        peak = peak_rss_bytes()
        raw_bytes, archive_bytes = data.nbytes, len(archive)

        def emit(stats: Stats, t) -> None:
            compress_s = t(compress)
            decompress_s = [t(p) for p in decompress]
            reads_s = [t(p) for p in reads]
            start_s = 0.0 if opening is None else t(opening)
            stats.peak_bytes.append(peak)
            stats.session_s.append(
                compress_s + decompress_s[0] + sum(reads_s) + start_s
            )
            stats.add_session(
                raw_bytes,
                compress_s,
                archive_bytes,
                decompress_s,
                start_s * 1e3,
                [compress_s * 1e3],
                [r * 1e3 for r in reads_s],
            )

        return emit


class _RequestFailed(Exception):
    pass


class ServiceSessions(Workload):
    """Closed-loop clients driving full session lifecycles over HTTP."""

    name = "service-sessions"
    #: One client.  The service runs its handlers on threads of one
    #: interpreter, so a second client's requests contend with the first
    #: one's for the GIL: with two clients, one /v1/decompress took 34 to
    #: 47 ms from run to run, depending on what the other client's request
    #: held at the time.
    clients = 1
    #: Three buffers per session.  The first feed of a session pays the
    #: level fit and takes 130-230 ms, the others about 20 ms; with two
    #: feeds a session, half the samples sat in each cluster and the
    #: median fell anywhere in the gap between them (52-72 ms from run to
    #: run).  With three, the median lies in the fast cluster and the p90
    #: tail in the slow one.
    buffers_per_session = 3
    #: 100 or more feed samples in a 22 s run: p90 leaves ten or more beyond.
    tail_pct = 90.0
    #: Measurement windows per phase; ``peak_mem_mb`` is their median
    #: peak, and the host speed is sampled between them.
    memory_windows = 12
    #: Seeded inputs the sessions cycle through.
    input_pool = 64

    def setup(self) -> None:
        # Each session feeds the opening snapshots of its own seeded
        # trajectory.  Windows cut from one long trajectory would not do:
        # its compressibility drifts along the trajectory and from seed to
        # seed, which would move the run's ratio with the seed.
        self.config = MDZConfig()
        snapshots = self.config.buffer_size * self.buffers_per_session
        self.inputs = [
            make_input("helium-b", snapshots, [self.seed, k])
            for k in range(1, self.input_pool + 1)
        ]
        self._next_input = 0
        spool = self.workdir / "spool"
        spool.mkdir(parents=True, exist_ok=True)
        self.loop = asyncio.new_event_loop()
        self.service = CompressionService(
            ServiceConfig(host="127.0.0.1", port=0, spool_dir=str(spool))
        )
        self.loop.run_until_complete(self.service.start())
        self.run_phase(0.0, Stats())  # warm-up: one session per client

    def teardown(self) -> None:
        loop = getattr(self, "loop", None)
        if loop is None:
            return
        loop.run_until_complete(self.service.shutdown())
        loop.run_until_complete(loop.shutdown_default_executor())
        loop.close()
        self.loop = None
        shutil.rmtree(self.workdir / "spool", ignore_errors=True)

    def run_phase(
        self, seconds: float, stats: Stats, as_timed: Stats | None = None
    ) -> None:
        """Run the clients in a few windows, each with its own memory peak
        and its own host-speed scaling (as :meth:`Workload.run_phase`)."""
        start = time.perf_counter()
        windows = self.memory_windows if seconds else 1
        before = self.speed.sample()
        for window in range(1, windows + 1):
            part = Stats()
            reset_peak_rss()
            window_start = time.perf_counter()
            deadline = start + seconds * window / windows
            self.loop.run_until_complete(self._clients(deadline, part))
            part.peak_bytes.append(peak_rss_bytes())
            part.busy_s = time.perf_counter() - window_start
            after = self.speed.sample()
            stats.add(part, (before + after) / 2)
            if as_timed is not None:
                as_timed.add(part, 1.0)
            before = after

    async def _clients(self, deadline: float, stats: Stats) -> None:
        await asyncio.gather(
            *(self._client(deadline, stats) for _ in range(self.clients))
        )

    async def _client(self, deadline: float, stats: Stats) -> None:
        async with ServiceClient("127.0.0.1", self.service.port) as client:
            while True:
                try:
                    await self._session(client, stats)
                except _RequestFailed:
                    pass
                except Exception as exc:  # noqa: BLE001 - counted, run goes on
                    self.checks.expect(False, f"session raised {exc!r}")
                if time.perf_counter() >= deadline:
                    return

    async def _call(self, what: str, request):
        start = time.perf_counter()
        response = await request
        elapsed = time.perf_counter() - start
        if not self.checks.expect(
            200 <= response.status < 300, f"{what} returned {response.status}"
        ):
            raise _RequestFailed(what)
        return response, elapsed

    async def _session(self, client: ServiceClient, stats: Stats) -> None:
        data = self.inputs[self._next_input % len(self.inputs)]
        self._next_input += 1
        bs = self.config.buffer_size
        created, create_s = await self._call(
            "create", client.post_json("/v1/sessions", {})
        )
        base = f"/v1/sessions/{created.json()['token']}"
        feeds = []
        for b in range(self.buffers_per_session):
            _, feed_s = await self._call(
                "feed", client.post_array(f"{base}/feed", data[b * bs:(b + 1) * bs])
            )
            feeds.append(feed_s)
        _, close_s = await self._call("close", client.request("POST", f"{base}/close"))
        archive, _ = await self._call("archive", client.request("GET", f"{base}/archive"))
        blob = archive.body
        verified, _ = await self._call(
            "verify", client.request("POST", "/v1/verify", body=blob)
        )
        self.checks.expect(verified.json().get("intact") is True, "verify intact")
        decoded, decompress_s = await self._call(
            "decompress", client.request("POST", "/v1/decompress", body=blob)
        )
        bounds = parse_stream(blob).header["error_bounds"]
        self.checks.expect(
            within_bound(data, decode_array(decoded.headers, decoded.body), bounds),
            "/v1/decompress bound",
        )
        stats.add_session(
            data.nbytes,
            create_s + sum(feeds) + close_s,
            len(blob),
            [decompress_s],
            sum(feeds[:2]) * 1e3,
            [f * 1e3 for f in feeds],
            [decompress_s * 1e3],
        )
        stats.handler_client_s += sum(feeds) + close_s


WORKLOADS = {
    cls.name: cls
    for cls in (CopperStream, CopperParallel, PtOneshot, ServiceSessions)
}
