"""An event-loop HTTP frontend.

The threaded :class:`~repro.httpd.server.SocketHTTPServer` burns one pooled
thread per connection and parks it on a blocking keep-alive read — fine for
the paper's 79 clients, hostile to the ROADMAP's "thousands of concurrent
clients per server".  :class:`AsyncHTTPServer` is the drop-in alternative:
one asyncio event loop owns every connection through a callback
:class:`HTTPServerProtocol`, parses requests incrementally with the same
:class:`~repro.httpd.message.HTTPRequestParser` the threaded server uses (the
wire rules cannot drift between frontends), and answers each pipelined batch
with one ``transport.write``.

Two lanes carry a request from ``data_received`` to that write:

* **The fast lane** — the optional ``begin`` callable is asked first, on the
  loop.  It either returns the finished :class:`HTTPResponse` (the request
  touched memory alone, or was refused before it ran) or a continuation for
  the work that may block.  A batch answered entirely by ``begin`` never
  leaves the loop thread: no executor hop, no task, no future.
* **The blocking lane** — the first continuation in a batch, and every
  request behind it, go to a bounded :class:`~concurrent.futures.
  ThreadPoolExecutor` as *one* job (requests still run in order), so a slow
  method never stalls the accept/parse loop.  Without ``begin`` every request
  takes this lane through the plain ``handler``; ``executor_workers=0`` runs
  it inline on the loop (benchmark mode for sub-millisecond handlers).

**Backpressure, not queues** — a ``max_connections`` budget rejects surplus
connections at accept, an optional admission ``gate`` is consulted per
request *before* it runs (a refusal is answered through ``overload_handler``:
429/RETRY_LATER when wired by :meth:`ClarensServer.async_server`), reading is
paused while a batch is in flight, and a full send buffer
(``pause_writing``) holds the next batch back until it drains.

:class:`FilePayload` bodies go through ``loop.sendfile``; where the loop has
none they are copied chunk-by-chunk with the blocking file reads offloaded
to the executor, so a large ``GET file/.lfn/<name>`` never holds the loop.
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from functools import partial
from typing import Callable

from repro.httpd.accesslog import AccessLog
from repro.httpd.message import (HTTPError, HTTPRequest, HTTPRequestParser,
                                 HTTPResponse)
from repro.httpd.sendfile import FilePayload

__all__ = ["AsyncHTTPServer", "HTTPServerProtocol"]

Handler = Callable[[HTTPRequest], HTTPResponse]
#: What is left of a request once its loop-safe part has run.
Continuation = Callable[[], HTTPResponse]
#: The loop-side entry point: the finished response, or the blocking rest.
Begin = Callable[[HTTPRequest], "HTTPResponse | Continuation"]
#: Admits one request or raises; returns an optional release callable the
#: server invokes once the request finishes (AdmissionController.admit shape).
Gate = Callable[[HTTPRequest], Callable[[], None] | None]
#: Builds the response for a refused request (or refused connection, when the
#: request argument is None).  The exception is the gate's refusal, if any.
OverloadHandler = Callable[[HTTPRequest | None, BaseException | None],
                           HTTPResponse]

#: Seconds between event-loop lag samples.  A callback that holds the loop
#: for longer than this is always caught by the sample that falls due in it.
_LAG_INTERVAL = 0.1


def _internal_error(exc: Exception) -> HTTPResponse:
    return HTTPResponse.error(500, f"internal server error: {exc}")


def _default_overload(request: HTTPRequest | None,
                      exc: BaseException | None) -> HTTPResponse:
    message = str(exc) if exc else "server is at capacity; retry later"
    return HTTPResponse.error(429, message)


class AsyncHTTPServer:
    """An asyncio HTTP/1.1 server sharing the threaded server's interface.

    ``start()``/``stop()``/``address``/``url`` and the context-manager
    protocol mirror :class:`~repro.httpd.server.SocketHTTPServer`, so every
    call site (``ClarensServer``, the chaos harness, tests) can swap
    frontends without caring which one it holds.
    """

    #: The introspection attributes :meth:`stats` reports.
    STAT_NAMES = ("connections_accepted", "connections_rejected",
                  "requests_served", "requests_rejected", "batches_served",
                  "sendfile_sends", "requests_inline", "requests_offloaded",
                  "loop_lag_last_s", "loop_lag_max_s")

    def __init__(self, handler: Handler, *, begin: Begin | None = None,
                 host: str = "127.0.0.1", port: int = 0,
                 keep_alive: bool = True, request_timeout: float = 30.0,
                 executor_workers: int = 8, max_connections: int = 0,
                 gate: Gate | None = None,
                 overload_handler: OverloadHandler | None = None,
                 access_log: AccessLog | None = None,
                 sendfile_enabled: bool = True) -> None:
        if executor_workers < 0:
            raise ValueError("executor_workers cannot be negative")
        if max_connections < 0:
            raise ValueError("max_connections cannot be negative")
        self.handler = handler
        #: Asked on the loop for every request.  The default sends the whole
        #: request down the blocking lane.
        self.begin: Begin = begin or (lambda request: partial(handler, request))
        self.keep_alive = keep_alive
        self.request_timeout = request_timeout
        self.executor_workers = executor_workers
        self.max_connections = max_connections
        self.gate = gate
        self.overload_handler = overload_handler or _default_overload
        self.access_log = access_log or AccessLog()
        #: Try ``loop.sendfile`` for FilePayload bodies before falling back
        #: to executor-offloaded chunked copies.
        self.sendfile_enabled = sendfile_enabled
        # Bind eagerly, like the threaded server, so ``address`` is valid
        # (and port collisions surface) before the loop thread exists.
        self._sock = socket.create_server((host, port), backlog=128)
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stop_event: asyncio.Event | None = None
        self._thread: threading.Thread | None = None
        self._executor: ThreadPoolExecutor | None = None
        self._ready = threading.Event()
        self._startup_error: BaseException | None = None
        self._connections: set[HTTPServerProtocol] = set()
        self._stopping = False
        self._lag_due = 0.0
        self._lag_timer: asyncio.TimerHandle | None = None
        # -- counters (introspection for tests, benchmarks, system.stats) ----
        self.connections_accepted = 0
        self.connections_rejected = 0
        self.requests_served = 0
        self.requests_rejected = 0
        self.batches_served = 0
        self.sendfile_sends = 0
        #: Requests answered without leaving the loop thread / by an executor
        #: job.  Gate refusals are in neither (``requests_rejected``).
        self.requests_inline = 0
        self.requests_offloaded = 0
        #: How late the periodic lag sample ran: the most recent reading and
        #: the worst since start.  A mis-marked blocking method shows here.
        self.loop_lag_last_s = 0.0
        self.loop_lag_max_s = 0.0

    # -- lifecycle -----------------------------------------------------------
    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "AsyncHTTPServer":
        if self._thread is not None:
            return self
        if self.executor_workers > 0 and self._executor is None:
            self._executor = ThreadPoolExecutor(
                max_workers=self.executor_workers,
                thread_name_prefix="clarens-aio-worker")
        self._ready.clear()
        self._startup_error = None
        self._stopping = False
        self._thread = threading.Thread(target=self._thread_main,
                                        name="clarens-aio-httpd", daemon=True)
        self._thread.start()
        self._ready.wait(timeout=10)
        if self._startup_error is not None:
            error, self._startup_error = self._startup_error, None
            self._thread.join(timeout=5)
            self._thread = None
            raise error
        return self

    def stop(self) -> None:
        if self._thread is not None:
            loop = self._loop
            if loop is not None and self._stop_event is not None:
                try:
                    loop.call_soon_threadsafe(self._stop_event.set)
                except RuntimeError:
                    pass  # loop already closed
            self._thread.join(timeout=5)
            self._thread = None
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
        self._sock.close()

    def __enter__(self) -> "AsyncHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    def stats(self) -> dict[str, float]:
        """The frontend's counters and loop-lag readings, by attribute name."""

        return {name: getattr(self, name) for name in self.STAT_NAMES}

    # -- the event loop ------------------------------------------------------
    def _thread_main(self) -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        self._loop = loop
        try:
            loop.run_until_complete(self._main())
        except BaseException as exc:  # noqa: BLE001 - surfaced by start()
            if not self._ready.is_set():
                self._startup_error = exc
                self._ready.set()
        finally:
            try:
                loop.run_until_complete(loop.shutdown_asyncgens())
            finally:
                asyncio.set_event_loop(None)
                loop.close()
                self._loop = None

    async def _main(self) -> None:
        loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = await loop.create_server(
            lambda: HTTPServerProtocol(self, loop), sock=self._sock)
        self._lag_due = loop.time() + _LAG_INTERVAL
        self._lag_timer = loop.call_later(_LAG_INTERVAL, self._sample_lag, loop)
        self._ready.set()
        await self._stop_event.wait()
        self._stopping = True
        self._lag_timer.cancel()
        server.close()
        # Sever in-flight connections: a stopped server must not keep
        # serving clients parked on old keep-alive sockets (the same
        # split-world hazard SocketHTTPServer.close_all_connections fixes).
        for connection in list(self._connections):
            connection.transport.abort()
        await server.wait_closed()
        current = asyncio.current_task()
        tasks = [t for t in asyncio.all_tasks() if t is not current]
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    def _sample_lag(self, loop: asyncio.AbstractEventLoop) -> None:
        now = loop.time()
        lag = max(0.0, now - self._lag_due)
        self.loop_lag_last_s = lag
        if lag > self.loop_lag_max_s:
            self.loop_lag_max_s = lag
        self._lag_due = now + _LAG_INTERVAL
        self._lag_timer = loop.call_later(_LAG_INTERVAL, self._sample_lag, loop)

    # -- running requests (any thread) ---------------------------------------
    def _begin_guarded(self, request: HTTPRequest) -> HTTPResponse | Continuation:
        try:
            return self.begin(request)
        except Exception as exc:  # noqa: BLE001 - never kill the loop
            return _internal_error(exc)

    def _complete(self, outcome: HTTPResponse | Continuation,
                  release: Callable[[], None] | None) -> HTTPResponse:
        """Run what ``begin`` left over (if anything) and release the gate."""

        try:
            if isinstance(outcome, HTTPResponse):
                return outcome
            return outcome()
        except Exception as exc:  # noqa: BLE001 - never kill the loop
            return _internal_error(exc)
        finally:
            if release is not None:
                release()

    def _run_rest(self, batch: list[HTTPRequest],
                  responses: list[HTTPResponse | None],
                  releases: list[Callable[[], None] | None],
                  first: int, pending: Continuation) -> None:
        """The executor's half of a batch: the request that needed the hop,
        then everything behind it, in request order."""

        responses[first] = self._complete(pending, releases[first])
        for index in range(first + 1, len(batch)):
            if responses[index] is None:
                responses[index] = self._complete(
                    self._begin_guarded(batch[index]), releases[index])


class HTTPServerProtocol(asyncio.Protocol):
    """One client connection: bytes in, pipelined batches out.

    While :attr:`busy` — a batch is with the executor, a file is streaming,
    or the send buffer is full — reading is paused, so the parser holds at
    most what had already arrived and requests are answered strictly in
    order.
    """

    def __init__(self, server: AsyncHTTPServer,
                 loop: asyncio.AbstractEventLoop) -> None:
        self.server = server
        self.loop = loop
        self.parser = HTTPRequestParser()
        self.transport: asyncio.Transport | None = None
        self.remote_addr = "127.0.0.1"
        self.busy = False
        self.parse_error: HTTPError | None = None
        self._write_paused = False
        #: The finished batch waits for the send buffer to drain.
        self._awaiting_drain = False
        #: Set while the file-streaming task waits for the same thing.
        self._drain_waiter: asyncio.Future | None = None
        self._stream_task: asyncio.Task | None = None
        self._last_activity = 0.0
        self._idle_timer: asyncio.TimerHandle | None = None

    # -- transport callbacks -------------------------------------------------
    def connection_made(self, transport: asyncio.BaseTransport) -> None:
        server = self.server
        self.transport = transport  # type: ignore[assignment]
        if server._stopping:
            transport.abort()  # type: ignore[attr-defined]
            return
        if (server.max_connections
                and len(server._connections) >= server.max_connections):
            server.connections_rejected += 1
            self._write_and_close(server.overload_handler(None, None))
            return
        server._connections.add(self)
        server.connections_accepted += 1
        peername = transport.get_extra_info("peername")
        if isinstance(peername, tuple):
            self.remote_addr = peername[0]
        self._last_activity = self.loop.time()
        self._idle_timer = self.loop.call_later(server.request_timeout,
                                                self._check_idle)

    def connection_lost(self, exc: BaseException | None) -> None:
        self.server._connections.discard(self)
        if self._idle_timer is not None:
            self._idle_timer.cancel()
        if self._stream_task is not None:
            self._stream_task.cancel()

    def data_received(self, data: bytes) -> None:
        self._last_activity = self.loop.time()
        if self.parse_error is None:
            try:
                self.parser.feed(data)
            except HTTPError as exc:
                self.parse_error = exc
        # A busy connection has reading paused; a transport that delivers
        # one more chunk anyway just leaves it buffered for the next pump.
        if not self.busy:
            self._pump()

    def pause_writing(self) -> None:
        self._write_paused = True

    def resume_writing(self) -> None:
        self._write_paused = False
        if self._drain_waiter is not None:
            if not self._drain_waiter.done():
                self._drain_waiter.set_result(None)
        elif self._awaiting_drain:
            self._awaiting_drain = False
            self.busy = False
            self._pump()

    # -- the idle / slow-loris timeout ---------------------------------------
    def _check_idle(self) -> None:
        """One timer per connection, re-armed for whatever idle time is left.

        ``request_timeout`` covers idle keep-alive waits and slow-loris
        dribbles alike, exactly like the threaded server's socket timeout;
        a batch in flight is not idleness.
        """

        timeout = self.server.request_timeout
        idle = 0.0 if self.busy else self.loop.time() - self._last_activity
        if idle >= timeout:
            self.transport.close()
            return
        self._idle_timer = self.loop.call_later(timeout - idle, self._check_idle)

    # -- serving -------------------------------------------------------------
    def _pump(self) -> None:
        """Serve buffered requests until the parser runs dry or a batch goes
        asynchronous (which pumps again once it is written)."""

        transport = self.transport
        while not self.busy and not transport.is_closing():
            batch = self._parse_batch()
            if batch:
                self._serve(batch)
                continue
            if self.parse_error is not None:
                # Everything well-formed ahead of it has been answered.
                exc = self.parse_error
                response = HTTPResponse.error(exc.status, exc.message)
                self._write_and_close(response)
                self.server.access_log.log(
                    remote_addr=self.remote_addr, client_dn=None, method="GET",
                    path="-", status=response.status,
                    response_bytes=response.content_length(), duration_s=0.0)
            else:
                transport.resume_reading()      # no-op unless a batch paused it
            return

    def _parse_batch(self) -> list[HTTPRequest]:
        batch: list[HTTPRequest] = []
        if self.parse_error is None:
            try:
                while (request := self.parser.next_request()) is not None:
                    request.remote_addr = self.remote_addr
                    batch.append(request)
            except HTTPError as exc:
                self.parse_error = exc
        return batch

    def _serve(self, batch: list[HTTPRequest]) -> None:
        """Answer one pipelined batch: on the loop as far as ``begin`` can,
        the rest as a single executor job."""

        server = self.server
        started = time.perf_counter()
        keep_alive = True
        for index, request in enumerate(batch):
            if not (request.wants_keepalive() and server.keep_alive):
                # Pipelined requests behind a ``Connection: close`` are
                # dropped: the client disowned them.
                keep_alive = False
                del batch[index + 1:]
                break

        responses: list[HTTPResponse | None] = [None] * len(batch)
        releases: list[Callable[[], None] | None] = [None] * len(batch)
        if server.gate is not None:
            for index, request in enumerate(batch):
                try:
                    releases[index] = server.gate(request)
                except Exception as exc:  # noqa: BLE001 - refusal, not failure
                    server.requests_rejected += 1
                    responses[index] = server.overload_handler(request, exc)

        executor = server._executor
        for index, request in enumerate(batch):
            if responses[index] is not None:
                continue
            outcome = server._begin_guarded(request)
            if executor is not None and not isinstance(outcome, HTTPResponse):
                server.requests_offloaded += responses[index:].count(None)
                self._set_busy()
                job = executor.submit(server._run_rest, batch, responses,
                                      releases, index, outcome)
                job.add_done_callback(partial(
                    self._offload_done, batch, responses, keep_alive, started))
                return
            responses[index] = server._complete(outcome, releases[index])
            server.requests_inline += 1
        self._write_batch(batch, responses, keep_alive, started)

    def _set_busy(self) -> None:
        self.busy = True
        self.transport.pause_reading()

    def _offload_done(self, batch, responses, keep_alive, started,
                      job: Future) -> None:
        # Runs on the worker thread (or, for a job cancelled by stop(), on
        # the stopping thread after the loop has closed).
        try:
            self.loop.call_soon_threadsafe(
                self._resume, batch, responses, keep_alive, started, job)
        except RuntimeError:
            pass

    def _resume(self, batch, responses, keep_alive, started, job: Future) -> None:
        if job.cancelled() or self.transport.is_closing():
            return
        try:
            job.result()
        except Exception:
            # _run_rest answers per-request failures itself; whatever got
            # past it leaves no responses to write.
            self.transport.abort()
            raise
        self.busy = False
        self._write_batch(batch, responses, keep_alive, started)
        self._pump()

    # -- writing -------------------------------------------------------------
    def _write_batch(self, batch: list[HTTPRequest],
                     responses: list[HTTPResponse], keep_alive: bool,
                     started: float) -> None:
        self.server.batches_served += 1
        last = len(batch) - 1
        for index, response in enumerate(responses):
            response.headers.set(
                "Connection",
                "keep-alive" if keep_alive or index < last else "close")
        if any(isinstance(r.body, FilePayload) for r in responses):
            self._set_busy()
            self._stream_task = self.loop.create_task(
                self._stream_batch(batch, responses, keep_alive, started))
            return
        parts: list[bytes] = []
        for request, response in zip(batch, responses):
            parts.append(_render_head(response))
            if response.body:
                parts.append(response.body)
            self._log(request, response, started)
        self.transport.write(b"".join(parts))
        self._batch_written(keep_alive)

    def _batch_written(self, keep_alive: bool) -> None:
        if not keep_alive:
            self.transport.close()
            return
        self._last_activity = self.loop.time()
        if self._write_paused:
            # The peer is not reading its answers: take no more requests
            # until the send buffer drains (resume_writing pumps again).
            self._awaiting_drain = True
            self._set_busy()

    def _log(self, request: HTTPRequest, response: HTTPResponse,
             started: float) -> None:
        self.server.requests_served += 1
        self.server.access_log.log(
            remote_addr=self.remote_addr,
            client_dn=request.client_dn,
            method=request.method,
            path=request.path,
            status=response.status,
            response_bytes=response.content_length(),
            duration_s=time.perf_counter() - started,
        )

    def _write_and_close(self, response: HTTPResponse) -> None:
        response.headers.set("Connection", "close")
        self.transport.write(_render_head(response) + response.body_bytes())
        self.transport.close()

    # -- file bodies ---------------------------------------------------------
    async def _stream_batch(self, batch: list[HTTPRequest],
                            responses: list[HTTPResponse], keep_alive: bool,
                            started: float) -> None:
        """Write a batch that carries at least one :class:`FilePayload`."""

        transport = self.transport
        try:
            parts: list[bytes] = []
            for request, response in zip(batch, responses):
                parts.append(_render_head(response))
                body = response.body
                if isinstance(body, FilePayload):
                    transport.write(b"".join(parts))
                    parts.clear()
                    await self._drain()
                    await self._send_file(body)
                elif body:
                    parts.append(body)
                self._log(request, response, started)
            if parts:
                transport.write(b"".join(parts))
            await self._drain()
        except (ConnectionError, OSError):
            transport.abort()
            return
        finally:
            self._stream_task = None
        self.busy = False
        self._batch_written(keep_alive)
        self._pump()

    async def _drain(self) -> None:
        if self.transport.is_closing():
            raise ConnectionResetError("connection lost")
        if self._write_paused:
            self._drain_waiter = self.loop.create_future()
            try:
                await self._drain_waiter
            finally:
                self._drain_waiter = None

    async def _send_file(self, payload: FilePayload) -> None:
        server, loop, transport = self.server, self.loop, self.transport
        if payload.length <= 0:
            return
        if server.sendfile_enabled:
            # Zero-copy fast path: hand the file descriptor to the event
            # loop's sendfile (head bytes were already written and drained).
            # ``fallback=False`` keeps a loop without sendfile support from
            # silently buffering the whole file; we fall through to the
            # executor-offloaded chunked path instead.
            try:
                with open(payload.path, "rb") as fh:
                    await loop.sendfile(transport, fh, offset=payload.offset,
                                        count=payload.length, fallback=False)
                server.sendfile_sends += 1
                return
            except (asyncio.SendfileNotAvailableError, NotImplementedError,
                    AttributeError, RuntimeError):
                # No native sendfile on this loop/transport (or the
                # transport is mid-close): the chunked path below either
                # serves the bytes or surfaces the connection error.
                pass
        executor = server._executor
        chunks = payload.chunks()
        while True:
            if executor is None:
                chunk = next(chunks, b"")
            else:
                chunk = await loop.run_in_executor(executor, next, chunks, b"")
            if not chunk:
                return
            transport.write(chunk)
            await self._drain()


def _render_head(response: HTTPResponse) -> bytes:
    headers = response.headers
    headers.set("Content-Length", str(response.content_length()))
    headers.set("Server", "Clarens-repro/1.0")
    lines = [f"HTTP/1.1 {response.status} {response.reason}"]
    lines.extend(f"{k}: {v}" for k, v in headers.items())
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
