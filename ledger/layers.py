"""The traced pass: each layer's public functions, timed from the outside.

One seeded server runs in this process.  Every operation of the workload is
sent once through a real ``ClarensClient`` over the loopback transport (the
*round trip*), and then the functions that round trip passes through are
called again one by one — codec, pipeline stages, ACL and session lookups,
file layer — each inside a span ``(name, start, end, parent, op)``.  Parents
are the logical callers, so ``self = span - children`` splits the round trip
into layers without a single edit under ``src/``.  Spans stay in memory and
are written once, to ``ledger/out/trace-<workload>.json``.

Every probe feature-detects what it calls: a probe whose API a later change
removed turns itself off and its metrics become ``null``; only the verified
round trip itself is allowed to fail the run.
"""

from __future__ import annotations

import json
import shutil
import socket
import statistics
import threading
import time
from pathlib import Path

import fixture
import workloads
from workloads import GET, READ, RPC_METHOD, WORKLOADS, WRITE

ROOT = "roundtrip"
UNTRACED = "roundtrip.untraced"     # the same trip through an untapped client
#: On-path spans whose self time is glue no probe names: the remainder that
#: ``trace.coverage_share`` leaves uncovered.
REMAINDER = ("core.server.handle_request", "core.pipeline.handle_http")
MAX_OPS = 2000
clock = time.perf_counter


def trace_path(workload: str) -> Path:
    return fixture.OUT_DIR / f"trace-{workload}.json"


class Tracer:
    """In-memory spans plus the probes that turned themselves off."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.broken: dict[str, str] = {}
        self.op = 0
        self.kinds: dict[int, str] = {}     # op id -> operation kind

    def span(self, name, parent, fn, *args, **kwargs):
        start = clock()
        result = fn(*args, **kwargs)
        self.spans.append((name, start, clock(), parent, self.op))
        return result

    def probe(self, name, parent, fn, *args, **kwargs):
        """Like :meth:`span`, but a failing probe disables itself."""

        if name in self.broken:
            return None
        try:
            return self.span(name, parent, fn, *args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - the API may be gone; report, go on
            self.broken[name] = f"{type(exc).__name__}: {exc}"
            return None


class _Tap:
    """A client transport that remembers the last exchange it carried."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.last = None

    def request(self, method, path, *, headers=None, body=b""):
        response = self.inner.request(method, path, headers=headers, body=body)
        self.last = (method, path, dict(headers or {}), body, response)
        return response

    def close(self) -> None:
        self.inner.close()


def mixed_median(per_kind: dict) -> float:
    """Median within each operation kind, averaged by the kinds' shares."""

    count = sum(len(values) for values in per_kind.values())
    return sum(len(values) / count * statistics.median(values)
               for values in per_kind.values())


def analyse(spans, kinds, to_us: float = 1e6) -> dict[str, dict]:
    """Per span name: parent, count, duration and self time in microseconds.

    A workload mixes operation kinds (write beside read), and the median of
    a two-humped sample is noise.  So medians are taken within each kind and
    averaged by the kind's share: ``dur_us``/``self_us`` weight by how often
    the span occurred per kind (the cost of one call), ``per_op_self_us``
    weights by all operations (the span's share of an average round trip).
    ``kinds`` maps op id to kind; ``to_us`` converts the spans' clock (seconds
    in memory, microseconds in a trace file).
    """

    by_op: dict[int, dict[str, tuple]] = {}
    for name, start, end, parent, op in spans:
        by_op.setdefault(op, {})[name] = (end - start, parent)
    durations: dict[str, dict] = {}     # name -> kind -> [seconds]
    selfs: dict[str, dict] = {}
    parents: dict[str, str | None] = {}
    for op, op_spans in by_op.items():
        children: dict[str, float] = {}
        for duration, parent in op_spans.values():
            if parent in op_spans:
                children[parent] = children.get(parent, 0.0) + duration
        for name, (duration, parent) in op_spans.items():
            parents[name] = parent
            kind = kinds[op]
            durations.setdefault(name, {}).setdefault(kind, []).append(duration)
            selfs.setdefault(name, {}).setdefault(kind, []).append(
                duration - children.get(name, 0.0))
    table = {}
    for name, per_kind in durations.items():
        count = sum(len(values) for values in per_kind.values())
        self_us = mixed_median(selfs[name]) * to_us
        table[name] = {"count": count, "parent": parents[name],
                       "dur_us": mixed_median(per_kind) * to_us,
                       "self_us": self_us,
                       "per_op_self_us": self_us * count / len(by_op)}
    return table


def _on_path(table: dict, name: str) -> bool:
    while name is not None and name != ROOT:
        name = table.get(name, {}).get("parent")
    return name == ROOT


def coverage(table: dict) -> tuple[float | None, dict[str, float]]:
    """Share of the round trip the named layers explain, and what is left."""

    if ROOT not in table:
        return None, {}
    total = table[ROOT]["dur_us"]
    named = sum(row["per_op_self_us"] for name, row in table.items()
                if name not in REMAINDER and _on_path(table, name))
    left = {name: table[name]["per_op_self_us"]
            for name in REMAINDER if name in table}
    return named / total, left


def print_waterfall(path: Path) -> None:
    recorded = json.loads(path.read_text())
    table = analyse(recorded["spans"],
                    {int(op): kind for op, kind in recorded["ops"].items()}, to_us=1.0)
    share, left = coverage(table)
    total = table[ROOT]["dur_us"]
    print(f"waterfall of {recorded['workload']} (seed {recorded['seed']}, "
          f"{table[ROOT]['count']} traced ops, in process, medians)")
    print(f"  {'span':<44} {'count':>6} {'span us':>10} {'self us':>10} {'of trip':>8}")

    def walk(name, depth):
        row = table[name]
        label = "  " * depth + name
        print(f"  {label:<44} {row['count']:>6} {row['dur_us']:>10.1f} "
              f"{row['self_us']:>10.1f} {row['per_op_self_us'] / total:>8.1%}")
        for child, child_row in table.items():
            if child_row["parent"] == name:
                walk(child, depth + 1)

    walk(ROOT, 0)
    for name, row in table.items():     # separate probes, not under the trip
        if name != ROOT and row["parent"] not in table:
            walk(name, 0)
    print(f"  trace.coverage_share {share:.3f}: per-op self times of the named "
          f"layers under '{ROOT}' / its duration")
    for name, value in left.items():
        print(f"  untimed remainder: glue inside {name}, {value:.1f} us "
              f"({value / total:.1%} of the round trip)")
    print("  rows not under the round trip are separate probes (untapped trip, "
          "wire parse/render) and are not summed; a share above 1 or a\n"
          "  negative remainder means the live path is cheaper than its parts "
          "called one by one (the binary codec's memos)")
    for name, reason in recorded.get("broken", {}).items():
        print(f"  probe off: {name}: {reason}")


# ---------------------------------------------------------------------------
# The replay
# ---------------------------------------------------------------------------

class _Replay:
    """State shared by the probes of one traced pass."""

    def __init__(self, workload: str, seed: int, root: Path) -> None:
        from repro.client.client import ClarensClient

        self.workload = WORKLOADS[workload]
        self.tracer = Tracer()
        self.server, callers = fixture.build_server(workload, seed, root / "a")
        telemetry_on = getattr(self.server, "telemetry", None) is not None
        # The twin differs in telemetry only: the pair gives the tax.
        self.twin, _ = fixture.build_server(
            workload, seed, root / "b", telemetry_enabled=not telemetry_on)
        self.observed = self.server if telemetry_on else self.twin
        self.callers = callers

        def login(server, conn, tap):
            client = ClarensClient.for_loopback(server.loopback(),
                                                **self.workload.client)
            client.login_with_credential(callers[conn])
            if tap:
                client.transport = _Tap(client.transport)
            return client

        conns = range(workloads.CONNECTIONS)
        self.traced = [login(self.server, c, True) for c in conns]
        self.plain = [login(self.server, c, False) for c in conns]
        self.twin_sessions = [login(self.twin, c, False).session_id for c in conns]
        methods = self.plain[0].call("system.list_methods")
        self.cycles = []
        for conn in conns:
            cycle = workloads.build_ops(workload, seed, conn)
            workloads.bind_methods(cycle, methods)
            self.cycles.append(cycle)
        self.attempted = self.failed = 0
        self.tax: list[float] = []
        self.request_bytes: list[int] = []
        self.response_bytes: list[int] = []

    def close(self) -> None:
        for client in self.traced + self.plain:
            client.close()
        self.server.close()
        self.twin.close()

    def sequence(self):
        """Operations of all connections, interleaved, for ever."""

        index = 0
        while True:
            for conn, cycle in enumerate(self.cycles):
                yield conn, cycle[index % len(cycle)]
            index += 1

    # -- one operation ---------------------------------------------------------
    def replay(self, conn: int, op) -> None:
        tracer = self.tracer
        tracer.op += 1
        client, plain = self.traced[conn], self.plain[conn]

        tracer.kinds[tracer.op] = workloads.KIND_NAMES[op.kind]

        def untraced():
            tracer.span(UNTRACED, None, workloads.perform, plain, op)

        # Alternate which goes first so cache warmth favours neither.
        if tracer.op % 2:
            untraced()
        codec = client.codec
        reply = tracer.span(ROOT, None, workloads.perform, client, op)
        if not tracer.op % 2:
            untraced()
        self.attempted += 1
        if not workloads.check(op, reply):
            self.failed += 1
        method, path, headers, body, response = client.transport.last
        if op.kind == GET:
            self._replay_get(client, op, path, headers, response)
        else:
            self._replay_rpc(conn, op, codec, path, headers, body, response)

    def _request(self, method, path, headers, body=b""):
        from repro.httpd.message import Headers, HTTPRequest
        return HTTPRequest(method=method, path=path, headers=Headers(headers),
                           body=body)

    def _wire_probes(self, request, response) -> None:
        from repro.httpd.message import HTTPRequestParser

        raw = request.to_bytes()

        def parse():
            parser = HTTPRequestParser()
            parser.feed(raw)
            return parser.next_request()

        self.tracer.probe("httpd.parse", None, parse)
        if isinstance(response.body, (bytes, bytearray)):
            self.tracer.probe("httpd.render", None, response.to_bytes)

    def _accesslog(self, method, path, size) -> None:
        self.tracer.probe(
            "httpd.accesslog", "core.server.handle_request",
            self.server.access_log.log, remote_addr="127.0.0.1", client_dn=None,
            method=method, path=path, status=200, response_bytes=size,
            duration_s=0.001)

    def _replay_rpc(self, conn, op, codec, path, headers, body, response) -> None:
        from repro.protocols.types import RPCRequest

        probe, server = self.tracer.probe, self.server
        pipeline = server.pipeline
        raw = response.body_bytes()
        name = RPC_METHOD[op.kind]
        self.request_bytes.append(len(body))
        self.response_bytes.append(len(raw))

        def encode():
            fast = getattr(codec, "encode_multicall", None)
            if op.kind == workloads.MULTICALL and fast is not None:
                return fast([(m, list(p)) for m, p in op.arg], call_id=1)
            return codec.encode_request(
                RPCRequest(method=name, params=op.rpc_params(), call_id=1))

        probe("client.encode_request", ROOT, encode)
        probe("client.decode_response", ROOT, codec.decode_response, raw)
        probe("core.server.handle_request", ROOT, server.handle_request,
              self._request("POST", path, headers, body))
        self._accesslog("POST", path, len(raw))
        http = "core.pipeline.handle_http"
        probe(http, "core.server.handle_request", pipeline.handle_http,
              self._request("POST", path, headers, body))

        def detect():
            from repro.protocols import detect_codec
            return detect_codec(body, headers.get("Content-Type"),
                                enabled=getattr(pipeline, "enabled_protocols", None))

        served = probe("protocols.detect", http, detect) or codec
        rpc_request = probe("protocols.decode_request", http,
                            served.decode_request, body)
        if rpc_request is None:
            return
        lean = {"validate_result": False} if getattr(served, "spliceable", False) else {}
        execute = "core.pipeline.execute"
        state = probe(execute, http, pipeline.execute, rpc_request,
                      http_request=self._request("POST", path, headers, body),
                      protocol=served.name, **lean)
        self._stage_probes(rpc_request, served, path, headers, body, lean)
        if state is not None:
            probe("protocols.encode_response", http, served.encode_response,
                  state.response)

        session_id = self.traced[conn].session_id
        dn = self.traced[conn].dn
        probe("core.session.get", "core.pipeline.session",
              server.sessions.get, session_id)
        if "acl.check_method" not in self.tracer.broken:
            try:
                from repro.core.pipeline import check_method_acl
                registered = server.registry.lookup(name)
            except Exception as exc:  # noqa: BLE001 - feature detection
                self.tracer.broken["acl.check_method"] = repr(exc)
            else:
                probe("acl.check_method", "core.pipeline.acl",
                      check_method_acl, server, dn, name, registered)
        if op.kind in (WRITE, READ):
            vfs = server.services["file"].vfs
            invoke = "core.pipeline.invoke"
            probe("acl.check_file", invoke, server.acl.check_file, dn,
                  op.arg[0], "write" if op.kind == WRITE else "read")
            if op.kind == WRITE:
                probe("fileservice.vfs_write", invoke, vfs.write, *op.arg)
            else:
                probe("fileservice.vfs_read", invoke, vfs.read, op.arg[0], 0,
                      op.arg[1])
        self._tax_pair(conn, rpc_request, served, path, headers, body, lean)
        self._wire_probes(self._request("POST", path, headers, body), response)

    def _stage_probes(self, rpc_request, codec, path, headers, body, lean) -> None:
        if "core.pipeline.stages" in self.tracer.broken:
            return
        try:
            from repro.core.pipeline import RequestState
            state = RequestState(
                server=self.server, rpc_request=rpc_request,
                http_request=self._request("POST", path, headers, body),
                protocol=codec.name, **lean)
            stages = list(self.server.pipeline.stages)
        except Exception as exc:  # noqa: BLE001 - feature detection
            self.tracer.broken["core.pipeline.stages"] = repr(exc)
            return
        try:
            for stage in stages:
                self.tracer.span(f"core.pipeline.{stage.name}",
                                 "core.pipeline.execute", stage, state)
        except Exception as exc:  # noqa: BLE001 - a stage API changed
            self.tracer.broken["core.pipeline.stages"] = repr(exc)
        finally:
            for cleanup in reversed(getattr(state, "cleanups", [])):
                cleanup()

    def _tax_pair(self, conn, rpc_request, codec, path, headers, body, lean) -> None:
        """``execute`` on the telemetry-on and -off servers, back to back."""

        if "telemetry.tax" in self.tracer.broken:
            return
        twin_headers = dict(headers)
        for key in twin_headers:
            if key.lower() == "x-clarens-session":
                twin_headers[key] = self.twin_sessions[conn]
        pair = [(self.server, headers), (self.twin, twin_headers)]
        if self.tracer.op % 2:
            pair.reverse()
        took = {}
        try:
            for server, hdrs in pair:
                request = self._request("POST", path, hdrs, body)
                start = clock()
                server.pipeline.execute(rpc_request, http_request=request,
                                        protocol=codec.name, **lean)
                took[server is self.observed] = clock() - start
        except Exception as exc:  # noqa: BLE001 - feature detection
            self.tracer.broken["telemetry.tax"] = repr(exc)
            return
        self.tax.append(took[True] - took[False])

    def _replay_get(self, client, op, path, headers, response) -> None:
        from repro.httpd.sendfile import FilePayload

        probe, server = self.tracer.probe, self.server
        probe("core.server.handle_request", ROOT, server.handle_request,
              self._request("GET", path, headers))
        if isinstance(response.body, FilePayload):
            probe("fileservice.payload_read", ROOT, response.body.read_all)
        self._accesslog("GET", path, op.payload)
        handle_get = "fileservice.handle_get"
        service = server.services.get("file")
        remainder = path[len(client.file_path) + 1:]
        probe(handle_get, "core.server.handle_request", service.handle_get,
              self._request("GET", path, headers), remainder)
        probe("core.session.get", handle_get, server.sessions.get,
              client.session_id)
        probe("acl.check_file", handle_get, server.acl.check_file,
              client.dn, op.arg, "read")
        probe("fileservice.vfs_read", None, service.vfs.read, op.arg, 0, op.payload)
        self._wire_probes(self._request("GET", path, headers), response)


# ---------------------------------------------------------------------------
# Probes that need a real socket
# ---------------------------------------------------------------------------

def _socket_trips(replay: _Replay, frontend, seconds: float):
    """Mixed-median round trip (s) through ``frontend``, and counter deltas."""

    from repro.client.client import ClarensClient

    with frontend:
        client = ClarensClient.for_url(frontend.url, **replay.workload.client)
        try:
            client.login_with_credential(replay.callers[0])
            cycle = replay.cycles[0]
            for op in cycle[:10]:
                workloads.perform(client, op)
            names = ("requests_served", "batches_served", "sendfile_sends",
                     "connections_rejected", "requests_rejected")
            before = {n: getattr(frontend, n, None) for n in names}
            trips, ops = {}, 0
            deadline = clock() + seconds
            while clock() < deadline:
                op = cycle[ops % len(cycle)]
                start = clock()
                reply = workloads.perform(client, op)
                trips.setdefault(op.kind, []).append(clock() - start)
                ops += 1
                if not workloads.check(op, reply):
                    raise RuntimeError("socket probe reply failed verification")
            counters = {n: getattr(frontend, n) - before[n] for n in names
                        if isinstance(before[n], int)}
            counters["ops"] = ops
        finally:
            client.close()
    return mixed_median(trips), counters


def _socket_probes(replay: _Replay, seconds: float, metrics: dict,
                   loopback: float) -> None:
    """Socket against loopback trip (s), executor hop, frontend counters."""

    broken = replay.tracer.broken
    try:
        default, counters = _socket_trips(
            replay, fixture.open_frontend(replay.server), seconds)
    except Exception as exc:  # noqa: BLE001 - feature detection
        broken["httpd.socket"] = repr(exc)
        return
    metrics["httpd.socket_us"] = (default - loopback) * 1e6
    metrics["httpd.connections_rejected"] = counters.get("connections_rejected")
    metrics["httpd.requests_rejected"] = counters.get("requests_rejected")
    if counters.get("batches_served"):
        metrics["httpd.batch_size"] = (counters["requests_served"]
                                       / counters["batches_served"])
    if replay.workload.files == "get" and "sendfile_sends" in counters:
        metrics["httpd.sendfile_share"] = counters["sendfile_sends"] / counters["ops"]
    if getattr(replay.server.config, "server_transport", "async") != "async":
        return
    try:
        from repro.httpd.aio import AsyncHTTPServer
        inline, _ = _socket_trips(replay, AsyncHTTPServer(
            replay.server.handle_request, executor_workers=0,
            access_log=replay.server.access_log), seconds)
    except Exception as exc:  # noqa: BLE001 - feature detection
        broken["httpd.executor_hop"] = repr(exc)
        return
    metrics["httpd.executor_hop_us"] = (default - inline) * 1e6


def _data_plane(replay: _Replay, seconds: float, metrics: dict) -> None:
    """``FilePayload`` over a socketpair: sendfile against chunked copies."""

    from repro.httpd.sendfile import FilePayload

    vfs = replay.server.services["file"].vfs
    paths = sorted({op.arg for op in replay.cycles[0] if op.kind == GET})
    left, right = socket.socketpair()

    def drain():
        sink = bytearray(1 << 20)
        while right.recv_into(sink):
            pass

    reader = threading.Thread(target=drain, daemon=True)
    reader.start()

    def sendfile(payload):
        payload.sendfile_to(left)

    def chunked(payload):
        for chunk in payload.chunks():
            left.sendall(chunk)

    senders = {"httpd.sendfile_mb_per_s": sendfile, "httpd.chunked_mb_per_s": chunked}
    rates = {name: [] for name in senders}
    try:
        deadline = clock() + seconds
        index = 0
        while clock() < deadline or index < len(paths):
            payload = FilePayload(str(vfs.resolve(paths[index % len(paths)])))
            index += 1
            for name, send in senders.items():
                start = clock()
                send(payload)
                rates[name].append(payload.length / 1e6 / (clock() - start))
    except Exception as exc:  # noqa: BLE001 - feature detection
        replay.tracer.broken["httpd.data_plane"] = repr(exc)
    finally:
        left.close()
        reader.join(timeout=10)
        right.close()
    for name, values in rates.items():
        if values:
            metrics[name] = statistics.median(values)


# ---------------------------------------------------------------------------
# The pass
# ---------------------------------------------------------------------------

def measure(workload: str, seed: int, budget: float) -> dict:
    """Run the traced pass for about ``budget`` seconds; write the trace."""

    root = fixture.temp_root()
    replay = None
    try:
        replay = _Replay(workload, seed, root)
        sequence = replay.sequence()
        for _ in range(10):                          # warm caches, negotiate
            conn, op = next(sequence)
            workloads.perform(replay.traced[conn], op)
            workloads.perform(replay.plain[conn], op)
        share = 0.5 if replay.workload.files != "get" else 0.4
        deadline = clock() + budget * share
        while replay.attempted < MAX_OPS and (
                clock() < deadline or replay.attempted < 20):
            replay.replay(*next(sequence))
        table = analyse(replay.tracer.spans, replay.tracer.kinds)
        metrics = _metrics(replay, table)
        _socket_probes(replay, budget * 0.2, metrics,
                       loopback=table[UNTRACED]["dur_us"] / 1e6)
        if replay.workload.files == "get":
            _data_plane(replay, budget * 0.1, metrics)
        result = {"metrics": metrics, "attempted": replay.attempted,
                  "failed": replay.failed, "correct": replay.failed == 0,
                  "broken_probes": dict(replay.tracer.broken),
                  "waterfall": table}
        _write_trace(workload, seed, replay.tracer)
        return result
    finally:
        if replay is not None:
            replay.close()
        shutil.rmtree(root, ignore_errors=True)


def _metrics(replay: _Replay, table: dict) -> dict:
    """Metrics the spans give; ``run.py`` fills any declared name left out."""

    def dur(name):
        return table[name]["dur_us"] if name in table else None

    def self_time(name):
        return table[name]["self_us"] if name in table else None

    metrics = {
        "client.encode_request_us": dur("client.encode_request"),
        "client.decode_response_us": dur("client.decode_response"),
        "client.overhead_us": self_time(ROOT),
        "httpd.parse_us": dur("httpd.parse"),
        "httpd.render_us": dur("httpd.render"),
        "httpd.accesslog_us": dur("httpd.accesslog"),
        "protocols.detect_us": dur("protocols.detect"),
        "protocols.decode_request_us": dur("protocols.decode_request"),
        "protocols.encode_response_us": dur("protocols.encode_response"),
        "core.pipeline.execute_us": dur("core.pipeline.execute"),
        "core.pipeline.bookkeeping_us": self_time("core.pipeline.execute"),
        "core.pipeline.handle_http_us": dur("core.pipeline.handle_http"),
        "core.session.get_us": dur("core.session.get"),
        "acl.check_method_us": dur("acl.check_method"),
        "acl.check_file_us": dur("acl.check_file"),
        "fileservice.handle_get_us": dur("fileservice.handle_get"),
        "fileservice.vfs_read_us": dur("fileservice.vfs_read"),
        "fileservice.vfs_write_us": dur("fileservice.vfs_write"),
        "trace.roundtrip_us": dur(ROOT),
    }
    try:
        for stage in replay.server.pipeline.stage_names():
            metrics[f"core.pipeline.{stage}_us"] = dur(f"core.pipeline.{stage}")
    except Exception as exc:  # noqa: BLE001 - feature detection
        replay.tracer.broken["core.pipeline.stage_names"] = repr(exc)
    if replay.request_bytes:
        metrics["protocols.request_bytes"] = statistics.fmean(replay.request_bytes)
        metrics["protocols.response_bytes"] = statistics.fmean(replay.response_bytes)
    try:
        metrics["core.pipeline.faults"] = \
            replay.server.pipeline.stats.snapshot()["faults"]
    except Exception:  # noqa: BLE001 - feature detection
        metrics["core.pipeline.faults"] = None

    if replay.tax:
        metrics["telemetry.tax_us"] = statistics.median(replay.tax) * 1e6
    telemetry = getattr(replay.observed, "telemetry", None)
    if telemetry is not None:
        try:
            renders = []
            for _ in range(5):
                start = clock()
                telemetry.registry.render()
                renders.append(clock() - start)
            metrics["telemetry.render_us"] = statistics.median(renders) * 1e6
            metrics["telemetry.spans_recorded"] = \
                telemetry.recorder.stats()["recorded"]
        except Exception as exc:  # noqa: BLE001 - feature detection
            replay.tracer.broken["telemetry.render"] = repr(exc)

    share, _ = coverage(table)
    metrics["trace.coverage_share"] = share
    plain = table[UNTRACED]["dur_us"]
    metrics["trace.overhead_pct"] = (table[ROOT]["dur_us"] - plain) / plain * 100
    return metrics


def _write_trace(workload: str, seed: int, tracer: Tracer) -> None:
    origin = tracer.spans[0][1]
    spans = [[name, round((start - origin) * 1e6, 3), round((end - origin) * 1e6, 3),
              parent, op] for name, start, end, parent, op in tracer.spans]
    trace_path(workload).write_text(json.dumps(
        {"workload": workload, "seed": seed, "unit": "us",
         "columns": ["name", "start", "end", "parent", "op"],
         "ops": tracer.kinds, "broken": tracer.broken, "spans": spans}))
