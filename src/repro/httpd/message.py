"""HTTP message objects and wire parsing.

The framework deals in :class:`HTTPRequest`/:class:`HTTPResponse` values
regardless of transport (loopback or socket), so the Clarens dispatcher is
written once and exercised identically by unit tests, benchmarks, and the
real server.
"""

from __future__ import annotations

import urllib.parse
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.httpd.sendfile import FilePayload

__all__ = ["HTTPRequest", "HTTPResponse", "HTTPError", "Headers", "REASON_PHRASES",
           "HTTPRequestParser", "parse_response_head", "MAX_HEADER_BYTES",
           "MAX_BODY_BYTES"]

#: Wire limits shared by every socket frontend (threaded and async): the
#: header section of one request may not exceed MAX_HEADER_BYTES and a
#: declared Content-Length may not exceed MAX_BODY_BYTES.
MAX_HEADER_BYTES = 64 * 1024
MAX_BODY_BYTES = 256 * 1024 * 1024

REASON_PHRASES = {
    200: "OK",
    201: "Created",
    204: "No Content",
    206: "Partial Content",
    301: "Moved Permanently",
    302: "Found",
    304: "Not Modified",
    400: "Bad Request",
    401: "Unauthorized",
    403: "Forbidden",
    404: "Not Found",
    405: "Method Not Allowed",
    411: "Length Required",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    501: "Not Implemented",
    503: "Service Unavailable",
}


class HTTPError(Exception):
    """An error that maps directly onto an HTTP status response."""

    def __init__(self, status: int, message: str = "") -> None:
        super().__init__(message or REASON_PHRASES.get(status, "error"))
        self.status = status
        self.message = message or REASON_PHRASES.get(status, "error")


class Headers:
    """A case-insensitive multi-dict for HTTP headers (last value wins on get)."""

    def __init__(self, initial: Mapping[str, str] | None = None) -> None:
        self._items: list[tuple[str, str]] = []
        if initial:
            for key, value in initial.items():
                self.add(key, value)

    def add(self, key: str, value: str) -> None:
        self._items.append((str(key), str(value)))

    def set(self, key: str, value: str) -> None:
        lowered = key.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]
        self._items.append((str(key), str(value)))

    def get(self, key: str, default: str | None = None) -> str | None:
        lowered = key.lower()
        result = default
        for k, v in self._items:
            if k.lower() == lowered:
                result = v
        return result

    def get_all(self, key: str) -> list[str]:
        lowered = key.lower()
        return [v for k, v in self._items if k.lower() == lowered]

    def remove(self, key: str) -> None:
        lowered = key.lower()
        self._items = [(k, v) for k, v in self._items if k.lower() != lowered]

    def items(self) -> list[tuple[str, str]]:
        return list(self._items)

    def __contains__(self, key: object) -> bool:
        return isinstance(key, str) and any(k.lower() == key.lower() for k, _ in self._items)

    def __len__(self) -> int:
        return len(self._items)

    def copy(self) -> "Headers":
        clone = Headers()
        clone._items = list(self._items)
        return clone


@dataclass
class HTTPRequest:
    """An HTTP request as seen by the Clarens handler."""

    method: str = "GET"
    path: str = "/"
    headers: Headers = field(default_factory=Headers)
    body: bytes = b""
    http_version: str = "HTTP/1.1"
    #: The DN string of the verified client certificate, when the request
    #: arrived over (simulated) TLS with client authentication — the same
    #: information Apache's mod_ssl exports to mod_python.
    client_dn: str | None = None
    #: Peer address, for logging.
    remote_addr: str = "127.0.0.1"

    def __post_init__(self) -> None:
        self.method = self.method.upper()
        if isinstance(self.headers, dict):
            self.headers = Headers(self.headers)

    # -- URL helpers ---------------------------------------------------------
    @property
    def raw_path(self) -> str:
        return self.path

    @property
    def url_path(self) -> str:
        """The path with the query string stripped and percent-decoding applied."""

        path = self.path.split("?", 1)[0]
        return urllib.parse.unquote(path)

    @property
    def query(self) -> dict[str, str]:
        """Query-string parameters (last value wins)."""

        if "?" not in self.path:
            return {}
        qs = self.path.split("?", 1)[1]
        return {k: v[-1] for k, v in urllib.parse.parse_qs(qs, keep_blank_values=True).items()}

    @property
    def content_type(self) -> str | None:
        return self.headers.get("Content-Type")

    def wants_keepalive(self) -> bool:
        connection = (self.headers.get("Connection") or "").lower()
        if self.http_version == "HTTP/1.0":
            return connection == "keep-alive"
        return connection != "close"

    # -- wire format ---------------------------------------------------------
    def to_bytes(self) -> bytes:
        headers = self.headers.copy()
        if self.body and "Content-Length" not in headers:
            headers.set("Content-Length", str(len(self.body)))
        lines = [f"{self.method} {self.path} {self.http_version}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body

    @classmethod
    def from_bytes(cls, data: bytes) -> "HTTPRequest":
        head, _, body = data.partition(b"\r\n\r\n")
        lines = head.decode("latin-1").split("\r\n")
        if not lines or not lines[0]:
            raise HTTPError(400, "empty request")
        parts = lines[0].split()
        if len(parts) != 3:
            raise HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, path, version = parts
        headers = Headers()
        for line in lines[1:]:
            if not line:
                continue
            if ":" not in line:
                raise HTTPError(400, f"malformed header line: {line!r}")
            key, _, value = line.partition(":")
            headers.add(key.strip(), value.strip())
        return cls(method=method, path=path, headers=headers, body=body, http_version=version)


@dataclass
class HTTPResponse:
    """An HTTP response; the body may be bytes or a :class:`FilePayload`."""

    status: int = 200
    headers: Headers = field(default_factory=Headers)
    body: bytes | FilePayload = b""

    def __post_init__(self) -> None:
        if isinstance(self.headers, dict):
            self.headers = Headers(self.headers)

    @property
    def reason(self) -> str:
        return REASON_PHRASES.get(self.status, "Unknown")

    def body_bytes(self) -> bytes:
        """Materialize the body as bytes (reads the file for FilePayloads)."""

        if isinstance(self.body, FilePayload):
            return self.body.read_all()
        return self.body

    def content_length(self) -> int:
        if isinstance(self.body, FilePayload):
            return self.body.length
        return len(self.body)

    def to_bytes(self) -> bytes:
        headers = self.headers.copy()
        headers.set("Content-Length", str(self.content_length()))
        lines = [f"HTTP/1.1 {self.status} {self.reason}"]
        lines.extend(f"{k}: {v}" for k, v in headers.items())
        head = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
        return head + self.body_bytes()

    @classmethod
    def from_bytes(cls, data: bytes) -> "HTTPResponse":
        head, _, body = data.partition(b"\r\n\r\n")
        status, headers = parse_response_head(head)
        return cls(status=status, headers=headers, body=body)

    # -- constructors --------------------------------------------------------
    @classmethod
    def ok(cls, body: bytes | FilePayload, content_type: str = "application/octet-stream",
           extra_headers: Mapping[str, str] | None = None) -> "HTTPResponse":
        headers = Headers({"Content-Type": content_type})
        for key, value in (extra_headers or {}).items():
            headers.set(key, value)
        return cls(status=200, headers=headers, body=body)

    @classmethod
    def error(cls, status: int, message: str = "", content_type: str = "text/plain") -> "HTTPResponse":
        message = message or REASON_PHRASES.get(status, "error")
        return cls(status=status, headers=Headers({"Content-Type": content_type}),
                   body=message.encode())

    @classmethod
    def xml_error(cls, status: int, message: str) -> "HTTPResponse":
        """GET errors are returned as XML documents (paper, section 2)."""

        body = (
            "<?xml version='1.0'?><error>"
            f"<code>{status}</code><message>{_xml_escape(message)}</message></error>"
        ).encode()
        return cls(status=status, headers=Headers({"Content-Type": "text/xml"}), body=body)


def parse_response_head(head: bytes) -> tuple[int, Headers]:
    """The status code and headers of a response head.

    ``head`` is the status line and header lines, with or without the blank
    line that ends them.  The one response-head parser: the loopback
    transport (:meth:`HTTPResponse.from_bytes`) and the client's socket
    transport both use it.  Raises :class:`HTTPError` 400 on a status line
    that is not ``HTTP/x.y NNN ...``.
    """

    lines = head.decode("latin-1").split("\r\n")
    parts = lines[0].split(" ", 2)
    if len(parts) < 2 or not parts[0].startswith("HTTP/") or not parts[1].isdigit():
        raise HTTPError(400, "malformed response status line")
    headers = Headers()
    for line in lines[1:]:
        if not line:
            continue
        key, _, value = line.partition(":")
        headers.add(key.strip(), value.strip())
    return int(parts[1]), headers


def _xml_escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


# ---------------------------------------------------------------------------
# Incremental request parsing (shared by both socket frontends)
# ---------------------------------------------------------------------------

class HTTPRequestParser:
    """An incremental HTTP/1.1 request parser over a byte stream.

    Both socket frontends — the threaded :class:`~repro.httpd.server
    .SocketHTTPServer` and the event-loop :class:`~repro.httpd.aio
    .AsyncHTTPServer` — feed raw socket bytes in with :meth:`feed` and pull
    complete :class:`HTTPRequest` objects out with :meth:`next_request`, so
    the wire rules live in exactly one place:

    * the header section is bounded by ``max_header_bytes`` (413, enforced
      *while buffering* so a slow-loris header stream is rejected as soon as
      it crosses the limit, not once it completes);
    * a malformed request line or header line is a 400;
    * ``Transfer-Encoding: chunked`` is an explicit 501 (not a misleading
      411);
    * ``Content-Length`` must be a non-negative integer no larger than
      ``max_body_bytes`` (400 / 413), and POST/PUT without one is a 411.

    Keep-alive connections carrying pipelined requests just keep feeding:
    any bytes after one request's body start the next request's head.
    """

    def __init__(self, *, max_header_bytes: int = MAX_HEADER_BYTES,
                 max_body_bytes: int = MAX_BODY_BYTES) -> None:
        self.max_header_bytes = max_header_bytes
        self.max_body_bytes = max_body_bytes
        self._buffer = bytearray()
        #: Parsed head awaiting its body (method, path, version, headers,
        #: content length), or None while reading a head.
        self._pending: tuple[str, str, str, Headers, int] | None = None

    # -- feeding -------------------------------------------------------------
    def feed(self, data: bytes) -> None:
        """Buffer ``data``; raises :class:`HTTPError` 413 when an incomplete
        header section has already outgrown the limit."""

        self._buffer.extend(data)
        if (self._pending is None
                and len(self._buffer) > self.max_header_bytes
                and b"\r\n\r\n" not in self._buffer
                and b"\n\n" not in self._buffer):
            raise HTTPError(413, "header section too large")

    @property
    def buffered(self) -> int:
        """Bytes buffered but not yet returned as a request."""

        return len(self._buffer)

    @property
    def mid_request(self) -> bool:
        """True when a request head or body is partially buffered (an EOF
        now would truncate a request rather than end an idle connection)."""

        return self._pending is not None or bool(self._buffer)

    def body_bytes_needed(self) -> int:
        """How many body bytes the pending request still waits for (0 when
        no head is parsed yet or the body is already complete)."""

        if self._pending is None:
            return 0
        return max(0, self._pending[4] - len(self._buffer))

    # -- pulling -------------------------------------------------------------
    def next_request(self) -> HTTPRequest | None:
        """The next complete request, or None until more bytes arrive.

        Raises :class:`HTTPError` on protocol violations; the connection
        should answer with the error status and close.
        """

        if self._pending is None and not self._parse_head():
            return None
        assert self._pending is not None
        method, path, version, headers, length = self._pending
        if len(self._buffer) < length:
            return None
        body = bytes(self._buffer[:length])
        del self._buffer[:length]
        self._pending = None
        return HTTPRequest(method=method, path=path, headers=headers,
                           body=body, http_version=version)

    def _parse_head(self) -> bool:
        head, separator = _split_head(self._buffer)
        if head is None:
            if len(self._buffer) > self.max_header_bytes:
                raise HTTPError(413, "header section too large")
            return False
        if len(head) + len(separator) > self.max_header_bytes:
            raise HTTPError(413, "header section too large")
        del self._buffer[:len(head) + len(separator)]

        lines = head.decode("latin-1").splitlines()
        # Be liberal about leading blank lines between pipelined requests
        # (RFC 9112 §2.2 allows a CRLF before the request line).
        while lines and not lines[0].strip():
            lines.pop(0)
        if not lines:
            raise HTTPError(400, "empty request")
        parts = lines[0].split()
        if len(parts) != 3:
            raise HTTPError(400, f"malformed request line: {lines[0]!r}")
        method, path, version = parts

        headers = Headers()
        for line in lines[1:]:
            if not line.strip():
                continue
            if ":" not in line:
                raise HTTPError(400, f"malformed header: {line!r}")
            key, _, value = line.partition(":")
            headers.add(key.strip(), value.strip())

        self._pending = (method, path, version, headers,
                         _body_length(method, headers, self.max_body_bytes))
        return True


def _split_head(buffer: bytearray) -> tuple[bytes | None, bytes]:
    """The raw header section and its terminator, or ``(None, b"")``."""

    index = buffer.find(b"\r\n\r\n")
    if index >= 0:
        return bytes(buffer[:index]), b"\r\n\r\n"
    index = buffer.find(b"\n\n")
    if index >= 0:
        return bytes(buffer[:index]), b"\n\n"
    return None, b""


def _body_length(method: str, headers: Headers, max_body_bytes: int) -> int:
    """The declared body length, enforcing the shared framing rules."""

    transfer_encoding = headers.get("Transfer-Encoding")
    if transfer_encoding is not None and "chunked" in transfer_encoding.lower():
        # Chunked bodies are not implemented; say so explicitly instead of
        # falling into the misleading 411/"Content-Length required" path.
        raise HTTPError(501, "Transfer-Encoding: chunked is not supported; "
                             "send a Content-Length body")
    length_header = headers.get("Content-Length")
    if length_header is not None:
        try:
            length = int(length_header)
        except ValueError as exc:
            raise HTTPError(400, "invalid Content-Length") from exc
        if length < 0 or length > max_body_bytes:
            raise HTTPError(413, "request body too large")
        return length
    if method.upper() in ("POST", "PUT"):
        raise HTTPError(411, "Content-Length required")
    return 0


def _unused(*args: Any) -> None:  # pragma: no cover
    pass
