"""The async frontend's fast lane and its Protocol-based connections.

A request whose method is marked ``loop_safe`` runs to completion on the
event loop; everything else keeps one executor hop per batch.  These tests
pin the safety properties of that split (a blocking method can never stall
the loop, ordering and bytes are unchanged, refusals need no hop), the
parser-facing contract of :class:`HTTPServerProtocol` at every split point,
the once-only access log, and the loop-lag signal that makes a mis-marked
method visible.
"""

from __future__ import annotations

import asyncio
import hashlib
import http.client
import socket
import threading
import time

import pytest

from repro.acl.model import ACL
from repro.client.client import ClarensClient
from repro.core.dispatch import SESSION_HEADER
from repro.httpd.aio import AsyncHTTPServer, HTTPServerProtocol
from repro.httpd.message import Headers, HTTPRequest, HTTPResponse
from repro.protocols import XMLRPCCodec
from repro.protocols.errors import FaultCode
from repro.protocols.types import RPCRequest

from tests.conftest import build_server
from tests.test_httpd_async import _ResponseReader

LOOP_THREAD = "clarens-aio-httpd"
WORKER_PREFIX = "clarens-aio-worker"
CODEC = XMLRPCCodec()


def _thread_name() -> str:
    return threading.current_thread().name


def _register_probes(server, slow_started: threading.Event | None = None):
    """Test methods that report which thread ran them."""

    def slow() -> str:
        if slow_started is not None:
            slow_started.set()
        time.sleep(0.6)
        return _thread_name()

    server.registry.register("test.thread", _thread_name, loop_safe=True)
    server.registry.register("test.thread_blocking", _thread_name)
    server.registry.register("test.blocking_echo", lambda value: value)
    server.registry.register("test.slow", slow)


def _login(server, credential) -> str:
    client = ClarensClient.for_loopback(server.loopback())
    client.login_with_credential(credential)
    return client.session_id


def _wire(server, method: str, *params, session_id: str | None = None,
          body: bytes | None = None) -> bytes:
    """One RPC POST as raw HTTP bytes."""

    headers = Headers({"Host": "x", "Content-Type": CODEC.content_type})
    if session_id:
        headers.set(SESSION_HEADER, session_id)
    if body is None:
        body = CODEC.encode_request(RPCRequest(method, tuple(params)))
    return HTTPRequest(method="POST", path=server.config.rpc_path(),
                       headers=headers, body=body).to_bytes()


def _exchange(address, wire: bytes, count: int) -> list[tuple[int, bytes]]:
    """Send ``wire`` in one write; read ``count`` responses in order."""

    with socket.create_connection(address, timeout=10) as sock:
        sock.sendall(wire)
        reader = _ResponseReader(sock)
        return [reader.read_response() for _ in range(count)]


def _call(address, server, method, *params, session_id=None):
    (status, body), = _exchange(
        address, _wire(server, method, *params, session_id=session_id), 1)
    return status, CODEC.decode_response(body)


@pytest.fixture()
def fastlane(ca, host_credential, alice_credential):
    """A server with the probe methods, its async frontend and a session."""

    server = build_server(ca, host_credential)
    slow_started = threading.Event()
    _register_probes(server, slow_started)
    session_id = _login(server, alice_credential)
    with server.async_server() as frontend:
        yield server, frontend, session_id, slow_started
    server.close()


class TestLanes:
    def test_slow_unmarked_method_does_not_delay_a_marked_one(self, fastlane):
        server, frontend, session_id, slow_started = fastlane
        slow_result = []
        slow_thread = threading.Thread(target=lambda: slow_result.append(
            _call(frontend.address, server, "test.slow", session_id=session_id)))
        slow_thread.start()
        assert slow_started.wait(timeout=5)

        start = time.perf_counter()
        status, echoed = _call(frontend.address, server, "system.echo", "hi",
                               session_id=session_id)
        elapsed = time.perf_counter() - start
        _, where = _call(frontend.address, server, "test.thread",
                         session_id=session_id)
        slow_thread.join(timeout=10)
        assert not slow_thread.is_alive()

        assert status == 200 and echoed.result == "hi"
        assert elapsed < 0.3, "a marked call waited behind test.slow"
        assert where.result == LOOP_THREAD
        (_, slow_response), = slow_result
        assert slow_response.result.startswith(WORKER_PREFIX)
        assert frontend.requests_inline == 2
        assert frontend.requests_offloaded == 1

    def test_mixed_pipelined_batch_matches_the_threaded_frontend(
            self, ca, host_credential, alice_credential):
        server = build_server(ca, host_credential)
        _register_probes(server)
        session_id = _login(server, alice_credential)
        wire = b"".join([
            _wire(server, "system.echo", "first", session_id=session_id),
            _wire(server, "test.blocking_echo", "unmarked", session_id=session_id),
            _wire(server, "system.method_help", "no.such", session_id=session_id),
            _wire(server, "system.echo", body=b"<not-xml", session_id=session_id),
            _wire(server, "system.whoami"),                    # no session
            _wire(server, "test.blocking_echo", "again", session_id=session_id),
            _wire(server, "system.echo", "last", session_id=session_id),
        ])
        try:
            with server.async_server() as frontend:
                via_async = _exchange(frontend.address, wire, 7)
                assert frontend.requests_inline + frontend.requests_offloaded == 7
                assert frontend.requests_offloaded >= 2
            with server.socket_server() as threaded:
                via_threaded = _exchange(threaded.address, wire, 7)
        finally:
            server.close()
        assert via_async == via_threaded
        decoded = [CODEC.decode_response(body) for _, body in via_async]
        assert [r.result for r in decoded if not r.is_fault] == [
            "first", "unmarked", "again", "last"]
        assert [r.fault.code for r in decoded if r.is_fault] == [
            FaultCode.NOT_FOUND, FaultCode.PARSE_ERROR,
            FaultCode.AUTHENTICATION_REQUIRED]

    def test_multicall_with_an_unmarked_entry_is_offloaded_whole(self, fastlane):
        server, frontend, session_id, _ = fastlane
        marked = {"methodName": "test.thread", "params": []}
        unmarked = {"methodName": "test.thread_blocking", "params": []}

        _, response = _call(frontend.address, server, "system.multicall",
                            [marked, marked], session_id=session_id)
        assert response.result == [[LOOP_THREAD], [LOOP_THREAD]]
        assert (frontend.requests_inline, frontend.requests_offloaded) == (1, 0)

        _, response = _call(frontend.address, server, "system.multicall",
                            [marked, unmarked, marked], session_id=session_id)
        names = [slot[0] for slot in response.result]
        assert all(name.startswith(WORKER_PREFIX) for name in names)
        assert len(set(names)) == 1      # one hop, entries in order on it
        assert (frontend.requests_inline, frontend.requests_offloaded) == (1, 1)

        # An unknown method only faults its own slot, but the batch plays safe.
        _, response = _call(frontend.address, server, "system.multicall",
                            [marked, {"methodName": "no.such", "params": []}],
                            session_id=session_id)
        assert response.result[0][0].startswith(WORKER_PREFIX)
        assert response.result[1]["faultCode"] == FaultCode.NOT_FOUND

    def test_non_rpc_routes_always_take_the_hop(self, fastlane):
        server, frontend, _, _ = fastlane
        seen = []

        def route(request, remainder):
            seen.append(_thread_name())
            return HTTPResponse.ok(b"ok", content_type="text/plain")

        server.router.add("/probe", route, methods=("GET",))
        conn = http.client.HTTPConnection(*frontend.address, timeout=5)
        conn.request("GET", "/probe/x")
        assert conn.getresponse().read() == b"ok"
        conn.close()
        assert seen[0].startswith(WORKER_PREFIX)
        assert frontend.requests_offloaded == 1

    def test_custom_stage_is_offloaded_unless_it_opts_in(self, fastlane):
        from repro.core.pipeline import PipelineStage

        server, frontend, session_id, _ = fastlane
        seen = []

        class Recorder(PipelineStage):
            name = "recorder"

            def __call__(self, state):
                seen.append(_thread_name())

        server.pipeline.insert_stage(Recorder(), after="session")
        _call(frontend.address, server, "system.echo", "x", session_id=session_id)
        assert seen[0].startswith(WORKER_PREFIX)
        assert frontend.requests_offloaded == 1


class TestRefusalsNeedNoHop:
    """Pre-invoke failures are answered on the loop with unchanged bytes."""

    def _both(self, server, frontend, method, params, session_id):
        """The same request over the async socket and straight in process."""

        (status, body), = _exchange(
            frontend.address, _wire(server, method, *params,
                                    session_id=session_id), 1)
        headers = Headers({"Content-Type": CODEC.content_type})
        if session_id:
            headers.set(SESSION_HEADER, session_id)
        reference = server.handle_request(HTTPRequest(
            method="POST", path=server.config.rpc_path(), headers=headers,
            body=CODEC.encode_request(RPCRequest(method, tuple(params)))))
        return (status, body), (reference.status, reference.body_bytes())

    def test_bad_session_on_an_unmarked_method(self, fastlane):
        server, frontend, _, _ = fastlane
        got, reference = self._both(
            server, frontend, "test.slow", (), "no-such-session")
        assert got == reference
        assert got[0] == 200
        fault = CODEC.decode_response(got[1]).fault
        assert fault.code == FaultCode.SESSION_EXPIRED
        assert frontend.requests_offloaded == 0

    def test_acl_denial(self, fastlane, admin_credential):
        server, frontend, session_id, _ = fastlane
        server.acl.set_method_acl(
            "test", ACL(order="allow,deny", dns_allowed=["/O=nobody/CN=none"]),
            actor_dn=str(admin_credential.certificate.subject))
        got, reference = self._both(
            server, frontend, "test.slow", (), session_id)
        assert got == reference
        assert CODEC.decode_response(got[1]).fault.code == FaultCode.ACCESS_DENIED
        assert frontend.requests_offloaded == 0

    def test_admission_429(self, ca, host_credential, alice_credential):
        # Two tokens per identity: the login spends the anonymous bucket's,
        # the two admitted calls below spend Alice's.
        server = build_server(ca, host_credential, dispatch_rate_limit=0.001,
                              dispatch_burst=2)
        _register_probes(server)
        try:
            session_id = _login(server, alice_credential)
            with server.async_server() as frontend:
                for _ in range(2):
                    status, admitted = _call(frontend.address, server,
                                             "test.blocking_echo", "x",
                                             session_id=session_id)
                    assert status == 200 and admitted.result == "x"
                got, reference = self._both(
                    server, frontend, "test.blocking_echo", ("x",), session_id)
                assert frontend.requests_offloaded == 2     # the admitted ones
        finally:
            server.close()
        assert got[0] == reference[0] == 429
        # Only the advertised wait differs between two refusals.
        assert CODEC.decode_response(got[1]).fault.code == FaultCode.RETRY_LATER
        assert (CODEC.decode_response(got[1]).fault.message
                == CODEC.decode_response(reference[1]).fault.message)


# -- the protocol object, without a socket ---------------------------------------

class _FakeTransport:
    """Collects what the protocol writes; no loop, no socket."""

    def __init__(self) -> None:
        self.written = bytearray()
        self.closed = False

    def write(self, data: bytes) -> None:
        assert not self.closed, "write after close"
        self.written += data

    def close(self) -> None:
        self.closed = True

    abort = close

    def is_closing(self) -> bool:
        return self.closed

    def get_extra_info(self, name: str, default=None):
        return ("192.0.2.7", 4242) if name == "peername" else default

    def pause_reading(self) -> None:
        pass

    def resume_reading(self) -> None:
        pass


def _digest_handler(request: HTTPRequest) -> HTTPResponse:
    text = (f"{request.method} {request.url_path} {len(request.body)} "
            f"{hashlib.md5(request.body).hexdigest()} {request.remote_addr}")
    return HTTPResponse.ok(text.encode(), content_type="text/plain")


PIPELINED = (b"GET /one HTTP/1.1\r\nHost: x\r\n\r\n"
             b"POST /two HTTP/1.1\r\nHost: x\r\nContent-Length: 26\r\n\r\n"
             b"abcdefghijklmnopqrstuvwxyz"
             b"GET /three HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n")


@pytest.mark.parametrize("lane", ["handler", "begin"])
def test_every_split_point_writes_identical_bytes(lane):
    """``data_received`` is the only way in: however the bytes of three
    pipelined requests are cut in two, the answer is the same."""

    kwargs = {"begin": _digest_handler} if lane == "begin" else {}
    server = AsyncHTTPServer(_digest_handler, executor_workers=0, **kwargs)
    loop = asyncio.new_event_loop()

    def run(chunks: list[bytes]) -> bytes:
        protocol = HTTPServerProtocol(server, loop)
        transport = _FakeTransport()
        protocol.connection_made(transport)
        for chunk in chunks:
            protocol.data_received(chunk)
        assert transport.closed             # the last request said close
        protocol.connection_lost(None)
        return bytes(transport.written)

    try:
        whole = run([PIPELINED])
        assert whole.count(b"HTTP/1.1 200 OK") == 3
        assert b"POST /two 26 " in whole and b"192.0.2.7" in whole
        for cut in range(1, len(PIPELINED)):
            assert run([PIPELINED[:cut], PIPELINED[cut:]]) == whole, cut
        assert run([PIPELINED[i:i + 1] for i in range(len(PIPELINED))]) == whole
    finally:
        loop.close()
        server.stop()
    assert server.requests_served == 3 * (len(PIPELINED) + 1)
    assert server.requests_inline == server.requests_served


def test_well_formed_requests_ahead_of_a_bad_one_are_answered_first():
    server = AsyncHTTPServer(_digest_handler, executor_workers=0)
    loop = asyncio.new_event_loop()
    wire = b"GET /ok HTTP/1.1\r\nHost: x\r\n\r\nTOTALLY BROKEN\r\n\r\n"
    try:
        outputs = []
        for chunks in ([wire], [wire[:30], wire[30:]]):
            protocol = HTTPServerProtocol(server, loop)
            transport = _FakeTransport()
            protocol.connection_made(transport)
            for chunk in chunks:
                protocol.data_received(chunk)
            protocol.connection_lost(None)
            assert transport.closed
            outputs.append(bytes(transport.written))
    finally:
        loop.close()
        server.stop()
    assert outputs[0] == outputs[1]
    assert outputs[0].index(b"GET /ok 0") < outputs[0].index(b"HTTP/1.1 400")


def test_a_full_send_buffer_holds_the_next_batch_back():
    """``pause_writing`` is honoured: requests arriving while the peer is
    not reading its answers wait until the buffer drains."""

    server = AsyncHTTPServer(_digest_handler, executor_workers=0)
    loop = asyncio.new_event_loop()
    request = b"GET /%d HTTP/1.1\r\nHost: x\r\n\r\n"
    try:
        protocol = HTTPServerProtocol(server, loop)
        transport = _FakeTransport()
        protocol.connection_made(transport)
        protocol.pause_writing()
        protocol.data_received(request % 1)         # answered, then held
        assert transport.written.count(b"HTTP/1.1 200 OK") == 1
        assert protocol.busy
        protocol.data_received(request % 2)
        assert transport.written.count(b"HTTP/1.1 200 OK") == 1
        protocol.resume_writing()
        assert transport.written.count(b"HTTP/1.1 200 OK") == 2
        assert not protocol.busy
        protocol.connection_lost(None)
    finally:
        loop.close()
        server.stop()


# -- access log -------------------------------------------------------------------

def _wait_for_log(server, minimum: int = 1) -> None:
    """The threaded frontend logs after the bytes are out; give the entry
    time to land."""

    deadline = time.monotonic() + 5
    while server.access_log.total() < minimum and time.monotonic() < deadline:
        time.sleep(0.01)
    time.sleep(0.05)        # a duplicate, if any, would follow immediately


@pytest.mark.parametrize("transport", ["loopback", "threaded", "async"])
def test_each_request_is_logged_exactly_once(ca, host_credential, transport):
    server = build_server(ca, host_credential)
    try:
        if transport == "loopback":
            client = ClarensClient.for_loopback(server.loopback())
            assert client.call("system.ping") == "pong"
        else:
            factory = (server.socket_server if transport == "threaded"
                       else server.async_server)
            with factory() as frontend:
                client = ClarensClient.for_url(frontend.url)
                assert client.call("system.ping") == "pong"
                client.close()
                _wait_for_log(server)
        assert server.access_log.total() == 1
        assert server.access_log.status_counts() == {200: 1}
        assert server.access_log.error_rate() == 0.0
    finally:
        server.close()


# -- observability ----------------------------------------------------------------

def test_a_mismarked_blocking_method_shows_up_as_loop_lag(
        ca, host_credential, admin_credential):
    server = build_server(ca, host_credential, telemetry_enabled=True)
    server.registry.register("test.stall", lambda: time.sleep(0.4) or "done",
                             loop_safe=True)        # wrongly marked
    try:
        with server.async_server() as frontend:
            admin = ClarensClient.for_url(frontend.url)
            admin.login_with_credential(admin_credential)
            assert frontend.loop_lag_max_s < 0.2
            assert admin.call("test.stall") == "done"
            deadline = time.monotonic() + 5
            while frontend.loop_lag_max_s < 0.2 and time.monotonic() < deadline:
                time.sleep(0.02)
            assert frontend.loop_lag_max_s >= 0.2

            stats = admin.call("system.stats")["async_frontend"]
            assert stats["loop_lag_max_s"] >= 0.2
            assert stats["loop_lag_last_s"] <= stats["loop_lag_max_s"]
            assert stats["requests_inline"] >= 2        # test.stall, system.stats
            assert stats["requests_offloaded"] >= 1     # system.auth

            exposition = admin.call("system.metrics")["exposition"]
            admin.close()
        assert 'clarens_httpd_requests_total{lane="inline"}' in exposition
        assert 'clarens_httpd_requests_total{lane="offloaded"}' in exposition
        assert 'clarens_httpd_loop_lag_seconds{stat="max"}' in exposition
    finally:
        server.close()


def test_the_marked_set_is_the_documented_one(server):
    """Marking is an explicit, reviewed decision (docs/architecture.md lists
    the set): a new mark must change this test and the docs with it."""

    marked = {name for name in server.registry.list_methods()
              if server.registry.lookup(name).loop_safe}
    assert marked == {
        "system.list_methods", "system.method_signature", "system.method_help",
        "system.list_services", "system.describe_methods",
        "system.lookup_method", "system.server_info", "system.version",
        "system.get_time", "system.ping", "system.echo", "system.multicall",
        "system.get_challenge", "system.whoami", "system.session_count",
        "system.stats", "system.cache_stats",
        "vo.list_groups", "vo.get_group", "vo.tree", "vo.is_member",
        "vo.my_groups", "vo.is_admin",
        "acl.get_method_acl", "acl.list_method_acls", "acl.check_method",
        "acl.get_file_acl", "acl.list_file_acls", "acl.check_file",
    }
