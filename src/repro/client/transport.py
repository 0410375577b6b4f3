"""Client transports.

A transport turns (method, path, headers, body) into an HTTP response.  Two
implementations exist: one speaking to an in-process
:class:`~repro.httpd.loopback.LoopbackConnection` (used by tests and the
benchmarks, like the paper's framework-overhead measurement) and one speaking
real HTTP/1.1 over a raw keep-alive socket.
"""

from __future__ import annotations

import io
import socket
import urllib.parse
from typing import Mapping, Protocol

from repro.client.errors import TransportError
from repro.httpd.loopback import LoopbackConnection, LoopbackTransport
from repro.httpd.message import (MAX_HEADER_BYTES, Headers, HTTPError, HTTPRequest,
                                 HTTPResponse, parse_response_head)
from repro.httpd.tls import TLSContext

__all__ = ["Transport", "LoopbackClientTransport", "HTTPTransport"]


class Transport(Protocol):
    """The interface both transports implement."""

    def request(self, method: str, path: str, *, headers: Mapping[str, str] | None = None,
                body: bytes = b"") -> HTTPResponse:  # pragma: no cover - protocol
        ...

    def close(self) -> None:  # pragma: no cover - protocol
        ...


class LoopbackClientTransport:
    """Transport over an in-process loopback connection."""

    def __init__(self, transport: LoopbackTransport, *,
                 client_tls: TLSContext | None = None) -> None:
        self._loopback = transport
        self._client_tls = client_tls
        self._connection: LoopbackConnection | None = None

    def _connect(self) -> LoopbackConnection:
        if self._connection is None:
            self._connection = self._loopback.connect(self._client_tls)
        return self._connection

    def request(self, method: str, path: str, *, headers: Mapping[str, str] | None = None,
                body: bytes = b"") -> HTTPResponse:
        request = HTTPRequest(method=method, path=path, headers=Headers(dict(headers or {})),
                              body=body)
        return self._connect().request(request)

    @property
    def client_dn(self) -> str | None:
        return self._connect().client_dn

    def close(self) -> None:
        if self._connection is not None:
            self._connection.close()
            self._connection = None


class HTTPTransport:
    """Transport over one raw keep-alive TCP socket.

    One write per request: head and body leave in a single ``sendall``
    (``TCP_NODELAY`` set, so nothing waits for a second segment).  Each
    connection owns one buffered reader for its lifetime; a response is its
    head (:func:`~repro.httpd.message.parse_response_head`) plus a
    ``Content-Length`` body read with one copy, or everything up to the
    close when the server declared no length.  ``Connection: close``
    retires the socket; ``Transfer-Encoding: chunked`` is refused.
    ``timeout`` bounds every socket operation.
    """

    def __init__(self, base_url: str, *, timeout: float = 30.0) -> None:
        parsed = urllib.parse.urlparse(base_url)
        if parsed.scheme not in ("http", ""):
            raise TransportError(f"unsupported URL scheme {parsed.scheme!r}")
        if not parsed.hostname:
            raise TransportError(f"URL {base_url!r} has no host")
        self.host = parsed.hostname
        self.port = parsed.port or 80
        self.timeout = timeout
        self._sock: socket.socket | None = None
        self._reader: io.BufferedReader | None = None
        #: Requests completed on the *current* connection; a positive count
        #: marks it as a reused keep-alive socket the server may close idle.
        self._completed = 0
        #: True once the current exchange has read a first response byte.
        self._answering = False

    def _connect(self) -> tuple[socket.socket, io.BufferedReader]:
        if self._sock is None:
            try:
                sock = socket.create_connection((self.host, self.port),
                                                timeout=self.timeout)
            except OSError as exc:
                raise TransportError(f"HTTP request failed: {exc}") from exc
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            self._sock = sock
            self._reader = sock.makefile("rb")
            self._completed = 0
        return self._sock, self._reader

    def request(self, method: str, path: str, *, headers: Mapping[str, str] | None = None,
                body: bytes = b"") -> HTTPResponse:
        """Issue one request, resending once when that is provably safe.

        A server may close an idle keep-alive connection between requests,
        so one resend on a fresh connection is allowed — but only when it
        cannot replay a call the server might already have executed:

        * the method is GET or HEAD (idempotent); or
        * the request carries no body; or
        * ``sendall`` itself raised: the last byte never reached the kernel,
          and with Content-Length framing the server cannot execute a
          request it has not received in full; or
        * the *stale keep-alive* signature holds: this socket had completed
          at least one request and the peer dropped it before a single
          response byte.  That close raced our request against the server's
          idle timeout or restart; the server abandoned the connection
          without answering, so the call did not complete.

        Anything else — a timeout waiting for the answer, a connection that
        died mid-response or on its first request — surfaces as
        :class:`TransportError` and is never replayed.  Headers are rebuilt
        per request, so a negotiated Content-Type travels on the resend too.
        """

        message = self._render(method, path, headers, body)
        for attempt in (0, 1):
            sock, reader = self._connect()
            reused = self._completed > 0
            sent = self._answering = False
            try:
                sock.sendall(message)
                sent = True
                return self._read_response(reader, method)
            except (OSError, HTTPError) as exc:
                self.close()
                stale_keepalive = (reused and not self._answering
                                   and isinstance(exc, ConnectionError))
                retry_safe = (method in ("GET", "HEAD") or not body
                              or not sent or stale_keepalive)
                if attempt == 0 and retry_safe:
                    continue
                raise TransportError(f"HTTP request failed: {exc}") from exc
        raise TransportError("unreachable")  # pragma: no cover

    def _render(self, method: str, path: str, headers: Mapping[str, str] | None,
                body: bytes) -> bytes:
        """The whole request as one byte string (``Host`` always present,
        ``Content-Length`` added when a body travels without one)."""

        lines = [f"{method} {path} HTTP/1.1"]
        named = set()
        for key, value in (headers or {}).items():
            named.add(key.lower())
            lines.append(f"{key}: {value}")
        if "host" not in named:
            lines.insert(1, f"Host: {self.host}:{self.port}")
        if body and "content-length" not in named:
            lines.append(f"Content-Length: {len(body)}")
        head = "\r\n".join(lines)
        breaks = len(lines) - 1
        if head.count("\r") != breaks or head.count("\n") != breaks:
            raise TransportError("line break inside a request line or header")
        try:
            return head.encode("latin-1") + b"\r\n\r\n" + body
        except UnicodeEncodeError as exc:
            raise TransportError(f"request head is not latin-1: {exc}") from exc

    def _read_response(self, reader: io.BufferedReader, method: str) -> HTTPResponse:
        lines: list[bytes] = []
        size = 0
        while True:
            line = reader.readline(MAX_HEADER_BYTES + 1)
            if not line:
                raise ConnectionResetError(
                    "server closed the connection mid-head" if self._answering
                    else "server closed the connection without responding")
            self._answering = True
            size += len(line)
            if size > MAX_HEADER_BYTES:
                raise HTTPError(413, "response head too large")
            line = line.rstrip(b"\r\n")
            if line:
                lines.append(line)
            elif lines:
                break
        status, headers = parse_response_head(b"\r\n".join(lines))

        keep = (headers.get("Connection") or "").lower() != "close"
        if "chunked" in (headers.get("Transfer-Encoding") or "").lower():
            # The server answered, so the call ran: never a resend.
            self.close()
            raise TransportError("server sent Transfer-Encoding: chunked, "
                                 "which this transport does not read")
        declared = headers.get("Content-Length")
        if method == "HEAD" or status in (204, 304):
            payload = b""
        elif declared is None:
            payload, keep = reader.read(), False
        else:
            if not declared.isdigit():
                raise HTTPError(400, f"invalid Content-Length {declared!r}")
            # One copy: the reader fills a buffer of exactly this size.
            length = int(declared)
            payload = reader.read(length)
            if len(payload) != length:
                raise ConnectionResetError("server closed the connection "
                                           "mid-body")
        if keep:
            self._completed += 1
        else:
            self.close()
        return HTTPResponse(status=status, headers=headers, body=payload)

    def close(self) -> None:
        sock, reader = self._sock, self._reader
        self._sock = self._reader = None
        try:
            if reader is not None:
                reader.close()
        finally:
            if sock is not None:
                sock.close()
