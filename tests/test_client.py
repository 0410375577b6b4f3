"""Client library: transports, login flows, file helpers, async load client."""

from __future__ import annotations

import hashlib
import io
import socket
import subprocess
import sys
import threading
import time
from typing import Callable

import pytest

from repro.client.asyncclient import (AsyncLoadClient, PipelinedLoadClient,
                                      _split)
from repro.client.client import ClarensClient
from repro.client.errors import ClientError, TransportError
from repro.client.files import download_file, download_file_rpc, upload_file
from repro.client import transport as transport_module
from repro.client.transport import HTTPTransport
from repro.httpd.message import HTTPRequestParser, HTTPResponse
from repro.protocols import JSONRPCCodec, SOAPCodec
from repro.protocols.errors import Fault


class TestClientBasics:
    def test_login_logout_cycle(self, server, loopback, alice_credential):
        client = ClarensClient.for_loopback(loopback)
        assert not client.authenticated
        session = client.login_with_credential(alice_credential)
        assert client.authenticated and session["method"] == "certificate"
        assert client.logout() is True
        assert not client.authenticated

    def test_call_raises_fault(self, client):
        with pytest.raises(Fault):
            client.call("system.method_help", "does.not.exist")

    def test_try_call_returns_fault(self, client):
        result, fault = client.try_call("system.ping")
        assert result == "pong" and fault is None
        result, fault = client.try_call("nope.nothing")
        assert result is None and fault is not None

    def test_alternate_codecs(self, server, loopback, alice_credential):
        for codec in (JSONRPCCodec(), SOAPCodec()):
            client = ClarensClient.for_loopback(loopback, codec=codec)
            client.login_with_credential(alice_credential)
            assert client.call("system.ping") == "pong"
            assert client.whoami()["authenticated"] is True

    def test_convenience_wrappers(self, client, server):
        assert "system.echo" in client.list_methods()
        assert client.server_info()["server_name"] == server.config.server_name

    def test_proxy_login_flow(self, server, loopback, alice_credential):
        from repro.pki.proxy import issue_proxy

        client = ClarensClient.for_loopback(loopback)
        session = client.login_with_proxy(issue_proxy(alice_credential))
        assert session["method"] == "proxy"
        assert client.whoami()["dn"] == str(alice_credential.certificate.subject)

    def test_tls_login_flow(self, server, alice_credential):
        tls = server.loopback(tls=True)
        client = ClarensClient.for_loopback(tls, credential=alice_credential)
        session = client.login_tls()
        assert session["dn"] == str(alice_credential.certificate.subject)
        # A fresh file root holds only the SRM transfer area the server creates.
        assert {e["name"] for e in client.call("file.ls", "/")} <= {"srm-transfers"}

    def test_custom_url_prefix(self, ca, host_credential):
        from tests.conftest import build_server

        server = build_server(ca, host_credential, url_prefix="/grid")
        try:
            client = ClarensClient.for_loopback(server.loopback(), url_prefix="/grid")
            assert client.call("system.ping") == "pong"
        finally:
            server.close()

    def test_http_transport_bad_url(self):
        with pytest.raises(TransportError):
            HTTPTransport("ftp://host/path")
        with pytest.raises(TransportError):
            HTTPTransport("http://")

    def test_client_over_real_socket(self, server, alice_credential):
        with server.socket_server() as sock:
            client = ClarensClient.for_url(sock.url)
            client.login_with_credential(alice_credential)
            assert client.call("system.ping") == "pong"
            assert len(client.list_methods()) > 30
            client.close()


def test_client_package_does_not_import_http_client():
    """The import guard: the socket transport owns its HTTP framing, so
    neither ``http.client`` nor the ``email`` parser behind it may come back
    through a helper."""

    probe = ("import repro.client, sys; "
             "print([m for m in ('http.client', 'email.parser') if m in sys.modules])")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


class _ScriptedHTTP:
    """A raw-socket HTTP stub whose per-connection behaviour is scripted.

    Scripts, one per accepted connection:

    * ``"close"``      — close immediately, without reading (stale socket);
    * ``"read_close"`` — read one full request, record it, close without
      responding (the server died *after* consuming the request);
    * ``"serve"``      — read requests, record each, answer 200 until EOF;
    * ``"stall"``      — read one request, record it, never answer (held
      open until :meth:`close`);
    * any key of ``_ONE_REPLY`` — read one request, record it, send that
      reply, close.
    """

    _OK = b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
    _ONE_REPLY = {
        "serve_once": _OK,
        "truncate": b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc",
        "close_header": (b"HTTP/1.1 200 OK\r\nConnection: close\r\n"
                         b"Content-Length: 2\r\n\r\nok"),
        "no_length": b"HTTP/1.1 200 OK\r\nX-Framing: close\r\n\r\nto-the-close",
        "chunked": (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
                    b"2\r\nok\r\n0\r\n\r\n"),
    }

    def __init__(self, *scripts: str) -> None:
        self.scripts = scripts
        self.requests: list[bytes] = []
        self.accepted = 0
        self._released = threading.Event()
        self.listener = socket.create_server(("127.0.0.1", 0))
        self.listener.settimeout(0.05)          # accept polls, so close() is prompt
        self.thread = threading.Thread(target=self._serve, daemon=True)
        self.thread.start()

    @property
    def url(self) -> str:
        host, port = self.listener.getsockname()
        return f"http://{host}:{port}"

    def close(self) -> None:
        self._released.set()
        self.thread.join(timeout=5)
        self.listener.close()

    def _serve(self) -> None:
        for script in self.scripts:
            conn = None
            while conn is None and not self._released.is_set():
                try:
                    conn, _ = self.listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    return
            if conn is None:
                return
            self.accepted += 1
            with conn:
                conn.settimeout(5)
                if script == "close":
                    continue
                while True:
                    request = self._read_request(conn)
                    if request is None:
                        break
                    self.requests.append(request)
                    if script == "read_close":
                        break
                    if script == "stall":
                        self._released.wait(5)
                        break
                    conn.sendall(self._ONE_REPLY.get(script, self._OK))
                    if script != "serve":
                        break

    def _read_request(self, conn: socket.socket) -> bytes | None:
        data = b""
        while b"\r\n\r\n" not in data:
            try:
                part = conn.recv(4096)
            except OSError:
                return None
            if not part:
                return None
            data += part
        head, body = data.split(b"\r\n\r\n", 1)
        length = 0
        for line in head.split(b"\r\n")[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value.strip())
        while len(body) < length:
            part = conn.recv(4096)
            if not part:
                break
            body += part
        return head + b"\r\n\r\n" + body


class TestHTTPTransportRetrySafety:
    """The keep-alive reconnect rule: retry only when a replay is provably
    safe (idempotent method, or no body bytes ever hit the wire)."""

    def test_get_survives_server_closing_first_connection(self):
        stub = _ScriptedHTTP("close", "serve")
        transport = HTTPTransport(stub.url)
        try:
            assert transport.request("GET", "/retry-me").status == 200
            assert len(stub.requests) == 1      # one delivered copy
        finally:
            transport.close()
            stub.close()

    def test_bodyless_post_retried_before_body_bytes(self):
        stub = _ScriptedHTTP("close", "serve")
        transport = HTTPTransport(stub.url)
        try:
            assert transport.request("POST", "/no-body").status == 200
            assert len(stub.requests) == 1
        finally:
            transport.close()
            stub.close()

    def test_post_with_delivered_body_is_never_replayed(self):
        """The regression: a POST the server consumed (and may have
        executed) before dying must surface an error, not be silently
        resent on a fresh connection."""

        stub = _ScriptedHTTP("read_close", "serve")
        transport = HTTPTransport(stub.url)
        try:
            with pytest.raises(TransportError):
                transport.request("POST", "/rpc", body=b"debit-account-once")
            copies = [r for r in stub.requests if b"debit-account-once" in r]
            assert len(copies) == 1             # exactly one copy on the wire
        finally:
            transport.close()
            stub.close()

    def test_stale_keepalive_after_a_completed_request_is_resent_once(self):
        """The server answered once, then dropped the idle socket: the next
        POST dies before a single response byte and is resent exactly once."""

        stub = _ScriptedHTTP("serve_once", "serve")
        transport = HTTPTransport(stub.url)
        try:
            assert transport.request("POST", "/rpc", body=b"first").status == 200
            assert transport.request("POST", "/rpc", body=b"second").status == 200
            assert stub.accepted == 2
            assert [r.rsplit(b"\r\n\r\n", 1)[1] for r in stub.requests] == [
                b"first", b"second"]            # one delivered copy of each
        finally:
            transport.close()
            stub.close()

    def test_truncated_response_body_is_an_error_not_a_replay(self):
        stub = _ScriptedHTTP("truncate", "serve")
        transport = HTTPTransport(stub.url)
        try:
            with pytest.raises(TransportError, match="mid-body"):
                transport.request("POST", "/rpc", body=b"ran-once")
            assert len(stub.requests) == 1 and stub.accepted == 1
        finally:
            transport.close()
            stub.close()

    def test_connection_close_reply_retires_the_socket(self):
        """After ``Connection: close`` the next request starts a fresh
        connection — which is *not* a reused keep-alive socket, so a POST
        that dies on it unanswered is not replayed."""

        stub = _ScriptedHTTP("close_header", "read_close", "serve")
        transport = HTTPTransport(stub.url)
        try:
            assert transport.request("POST", "/rpc", body=b"one").body == b"ok"
            with pytest.raises(TransportError):
                transport.request("POST", "/rpc", body=b"two")
            assert stub.accepted == 2
            assert sum(b"two" in r for r in stub.requests) == 1
        finally:
            transport.close()
            stub.close()

    def test_response_without_content_length_is_read_to_the_close(self):
        stub = _ScriptedHTTP("no_length", "serve")
        transport = HTTPTransport(stub.url)
        try:
            response = transport.request("POST", "/rpc", body=b"x")
            assert response.body == b"to-the-close"
            assert response.headers.get("X-Framing") == "close"
            assert transport.request("GET", "/again").body == b"ok"
            assert stub.accepted == 2
        finally:
            transport.close()
            stub.close()

    def test_chunked_response_is_refused_and_says_so(self):
        stub = _ScriptedHTTP("chunked", "serve")
        transport = HTTPTransport(stub.url)
        try:
            with pytest.raises(TransportError, match="chunked"):
                transport.request("GET", "/stream")
            assert len(stub.requests) == 1      # answered, so never resent
        finally:
            transport.close()
            stub.close()

    def test_timeout_bounds_the_wait_and_never_replays(self):
        stub = _ScriptedHTTP("serve_once", "stall", "serve")
        transport = HTTPTransport(stub.url, timeout=0.3)
        try:
            assert transport.request("POST", "/rpc", body=b"warm").status == 200
            # Reconnects (stale keep-alive), then the server sits on the call.
            started = time.monotonic()
            with pytest.raises(TransportError, match="timed out"):
                transport.request("POST", "/rpc", body=b"slow-call")
            assert time.monotonic() - started < 3
            assert sum(b"slow-call" in r for r in stub.requests) == 1
        finally:
            transport.close()
            stub.close()


class _FakeSocket:
    """An in-memory socket: counts ``sendall`` calls, checks each request
    with the server's own parser, and hands the reply to the reader in the
    scripted pieces."""

    def __init__(self, reply: bytes, cuts: "Callable[[bytes], list[bytes]]") -> None:
        self.reply, self.cuts = reply, cuts
        self.sends: list[bytes] = []
        self.parser = HTTPRequestParser()
        self.parsed: list = []
        self.pieces: list[bytes] = []

    def setsockopt(self, *args) -> None:
        pass

    def sendall(self, data: bytes) -> None:
        self.sends.append(bytes(data))
        self.parser.feed(data)
        request = self.parser.next_request()
        assert request is not None and not self.parser.mid_request
        self.parsed.append(request)
        self.pieces.extend(self.cuts(self.reply))

    def makefile(self, mode: str) -> io.BufferedReader:
        pieces = self.pieces

        class Raw(io.RawIOBase):
            def readable(self) -> bool:
                return True

            def readinto(self, buffer) -> int:
                if not pieces:
                    return 0
                piece = pieces.pop(0)
                count = min(len(piece), len(buffer))
                buffer[:count] = piece[:count]
                if count < len(piece):
                    pieces.insert(0, piece[count:])
                return count

        return io.BufferedReader(Raw())

    def close(self) -> None:
        pass


class TestHTTPTransportFraming:
    """One write out, any segmentation in."""

    REPLY = (b"HTTP/1.1 200 OK\r\nContent-Type: text/xml\r\n"
             b"X-Clarens-Protocols: xml-rpc,binary\r\nContent-Length: 11\r\n"
             b"\r\nhello world")

    def _transport(self, monkeypatch, cuts) -> tuple[HTTPTransport, _FakeSocket]:
        fake = _FakeSocket(self.REPLY, cuts)
        monkeypatch.setattr(transport_module.socket, "create_connection",
                            lambda *args, **kwargs: fake)
        return HTTPTransport("http://ledger.example:8080"), fake

    def test_one_sendall_per_request_that_the_server_parser_accepts(self, monkeypatch):
        transport, fake = self._transport(monkeypatch, lambda reply: [reply])
        transport.request("POST", "/clarens/rpc", body=b"<methodCall/>",
                          headers={"Content-Type": "text/xml"})
        transport.request("POST", "/clarens/rpc", body=b"abc",
                          headers={"content-length": "3", "Host": "elsewhere"})
        transport.request("GET", "/clarens/file/x")
        assert len(fake.sends) == 3             # one write per request
        first, second, third = fake.parsed
        assert first.headers.get("Host") == "ledger.example:8080"
        assert first.headers.get_all("Content-Length") == ["13"]
        assert first.body == b"<methodCall/>"
        assert second.headers.get_all("Content-Length") == ["3"]    # not doubled
        assert second.headers.get_all("Host") == ["elsewhere"]
        assert third.method == "GET" and third.headers.get("Content-Length") is None

    def test_line_breaks_cannot_be_smuggled_into_the_head(self, monkeypatch):
        transport, fake = self._transport(monkeypatch, lambda reply: [reply])
        with pytest.raises(TransportError, match="line break"):
            transport.request("GET", "/x", headers={"X-Session": "a\r\nX-Evil: 1"})
        with pytest.raises(TransportError, match="line break"):
            transport.request("GET", "/x\nHost: evil")
        assert fake.sends == []

    def test_reply_split_at_every_offset_parses_identically(self, monkeypatch):
        whole = HTTPResponse.from_bytes(self.REPLY)
        cut = 0
        transport, fake = self._transport(
            monkeypatch, lambda reply: [reply[:cut], reply[cut:]])
        for cut in range(1, len(self.REPLY)):
            response = transport.request("POST", "/rpc", body=b"x")
            assert (response.status, response.headers.items(), response.body) == (
                whole.status, whole.headers.items(), whole.body)
        assert len(fake.sends) == len(self.REPLY) - 1

    def test_reply_delivered_one_byte_at_a_time(self, monkeypatch):
        whole = HTTPResponse.from_bytes(self.REPLY)
        transport, _ = self._transport(
            monkeypatch, lambda reply: [reply[i:i + 1] for i in range(len(reply))])
        response = transport.request("POST", "/rpc", body=b"x")
        assert (response.status, response.headers.items(), response.body) == (
            whole.status, whole.headers.items(), whole.body)


class TestPipelinedLoadClient:
    def test_batch_over_async_frontend(self, server):
        with server.async_server() as frontend:
            load = PipelinedLoadClient(frontend.url, server.config.rpc_path(),
                                       n_clients=2, pipeline_depth=4)
            result = load.run_batch(40)
        assert result.calls == 40
        assert result.errors == 0
        assert result.calls_per_second > 0

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            PipelinedLoadClient("http://127.0.0.1:1", n_clients=0)
        with pytest.raises(ValueError):
            PipelinedLoadClient("http://127.0.0.1:1", pipeline_depth=0)


class TestFileHelpers:
    @pytest.fixture()
    def dataset(self, admin_client):
        payload = b"event-record " * 5000
        admin_client.call("file.write", "/datasets/run1.dat", payload, False)
        return payload

    def test_download_via_get_with_checksum(self, dataset, client, tmp_path):
        local = tmp_path / "run1.dat"
        data = download_file(client, "/datasets/run1.dat", local, verify_checksum=True)
        assert data == dataset
        assert local.read_bytes() == dataset

    def test_download_via_rpc_chunks(self, dataset, client):
        data = download_file_rpc(client, "/datasets/run1.dat", chunk_size=1000,
                                 verify_checksum=True)
        assert data == dataset
        assert hashlib.md5(data).hexdigest() == client.call("file.md5", "/datasets/run1.dat")

    def test_download_missing_file_raises(self, client):
        with pytest.raises(ClientError):
            download_file(client, "/datasets/absent.dat")

    def test_upload_round_trip(self, client, tmp_path):
        source = tmp_path / "upload.bin"
        source.write_bytes(b"\x00\x01\x02" * 4000)
        sent = upload_file(client, source, "/uploads/upload.bin", chunk_size=2048)
        assert sent == source.stat().st_size
        assert download_file_rpc(client, "/uploads/upload.bin") == source.read_bytes()

    def test_upload_empty_file(self, client, tmp_path):
        source = tmp_path / "empty.bin"
        source.write_bytes(b"")
        assert upload_file(client, source, "/uploads/empty.bin") == 0
        assert client.call("file.size", "/uploads/empty.bin") == 0


class TestAsyncLoadClient:
    def test_split_covers_total(self):
        assert _split(1000, 3) == [334, 333, 333]
        assert sum(_split(79, 7)) == 79
        assert _split(5, 8) == [1, 1, 1, 1, 1, 0, 0, 0]

    def test_batch_runs_requested_calls(self, server, loopback, alice_credential):
        def factory():
            c = ClarensClient.for_loopback(loopback)
            c.login_with_credential(alice_credential)
            return c

        with AsyncLoadClient(factory, n_clients=4) as load:
            result = load.run_batch(120)
        assert result.calls == 120
        assert result.errors == 0
        assert result.n_clients == 4
        assert result.calls_per_second > 0
        assert sum(result.per_client_calls) == 120

    def test_errors_counted_not_raised(self, server, loopback):
        def factory():
            return ClarensClient.for_loopback(loopback)  # not logged in

        with AsyncLoadClient(factory, n_clients=2) as load:
            result = load.run_batch(20, method="file.ls", params=("/",))
        assert result.errors == 20

    def test_multiple_batches(self, server, loopback, alice_credential):
        def factory():
            c = ClarensClient.for_loopback(loopback)
            c.login_with_credential(alice_credential)
            return c

        with AsyncLoadClient(factory, n_clients=2) as load:
            results = load.run_batches(3, calls_per_batch=30)
        assert len(results) == 3
        assert all(r.calls == 30 for r in results)

    def test_invalid_client_count(self, server, loopback):
        with pytest.raises(ValueError):
            AsyncLoadClient(lambda: ClarensClient.for_loopback(loopback), n_clients=0)
