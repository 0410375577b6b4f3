"""The composable per-request pipeline.

This module is the refactored form of the monolithic dispatcher hot path —
the code the paper's Figure 4 measures.  Instead of one method hard-coding
codec handling, the session lookup and the method-ACL check, every RPC now
flows through an ordered chain of :class:`PipelineStage` objects sharing one
:class:`RequestState` carrier::

    decode → trace → session → method-acl → admission → invoke → encode

``decode``/``encode`` run only on the HTTP path (:meth:`RequestPipeline.
handle_http`); already-decoded requests (tests, in-process services) enter at
:meth:`RequestPipeline.run` and pay the same trace/session/ACL/admission/
invoke chain, so both the loopback transport and the socket server exercise
the identical pipeline object assembled once by ``ClarensServer``.

The async frontend enters through :meth:`RequestPipeline.begin_http`
instead: the same decode and the same stages, run on the event loop for as
long as every stage says it is :meth:`~PipelineStage.loop_safe`, with the
blocking remainder handed back as a continuation for the executor.

The stages named ``session`` and ``acl`` are the paper's "two access control
checks involving access to several databases"; the ``access_checks_per_request``
ablation knob switches them off one at a time exactly as before, so the
ACL-overhead benchmark keeps measuring the same thing.

Cross-cutting concerns plug in without touching the core: a deployment calls
:meth:`RequestPipeline.insert_stage` with any callable taking the state (see
``docs/architecture.md`` for a worked example).  Two such concerns ship here:

* **batched RPC** — ``system.multicall`` enters the pipeline once (one
  decode, one session check), then :meth:`RequestPipeline.run_multicall`
  charges the admission bucket one token per entry (batching amortizes
  parsing, never the rate limit), amortizes the method-ACL check per
  *distinct* method and invokes every entry, with fault-per-entry semantics;
* **admission control** — the ``admission`` stage sheds load per identity
  via :class:`~repro.core.admission.AdmissionController`.

Per-request accounting goes through :class:`ShardedDispatchStats`: the old
single stats mutex serialized every worker thread at the end of the hot
path; now each thread lands on one of ``dispatch_stats_shards`` independent
locks and snapshots merge on read, including a per-stage latency breakdown
surfaced by ``system.stats``.
"""

from __future__ import annotations

import inspect
import itertools
import threading
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Sequence

from repro.core.admission import ANONYMOUS_IDENTITY, AdmissionController
from repro.core.context import CallContext
from repro.core.errors import (AccessDeniedError, AuthenticationError,
                               NotFoundError, to_fault)
from repro.core.session import Session
from repro.httpd.message import Headers, HTTPRequest, HTTPResponse
from repro.protocols import default_codec, detect_codec
from repro.protocols.errors import Fault, FaultCode, ProtocolError
from repro.protocols.negotiate import ACCEPT_HEADER, PROTOCOL_HEADER
from repro.protocols.types import RPCRequest, RPCResponse, validate_value
from repro.telemetry.trace import TRACE_HEADER, Span, TraceContext, use_trace

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.registry import RegisteredMethod
    from repro.core.server import ClarensServer
    from repro.telemetry.runtime import ServerTelemetry

__all__ = [
    "RequestState",
    "PipelineStage",
    "RequestPipeline",
    "ShardedDispatchStats",
    "build_pipeline",
    "allow_anonymous",
    "check_method_acl",
    "encode_fault_cached",
    "SESSION_HEADER",
]

#: HTTP header carrying the session id (the original used cookie-like headers).
SESSION_HEADER = "X-Clarens-Session"


# ---------------------------------------------------------------------------
# Pre-encoded fault bodies
# ---------------------------------------------------------------------------

_FAULT_CACHE: dict[tuple[str, int, str], bytes] = {}
_FAULT_CACHE_LOCK = threading.Lock()
#: Cache bound; distinct fault texts past this flush the table (an overload
#: burst repeats a handful of messages, so the flush is effectively never hit
#: on the hot path it exists for).
_FAULT_CACHE_LIMIT = 256


def encode_fault_cached(codec, fault: Fault) -> bytes:
    """Encode a fault response body, memoised per ``(codec, code, message)``.

    Overloaded servers re-encode the same RETRY_LATER (and parse-error)
    bodies thousands of times a second; the bytes depend only on the codec
    and the fault, so they are encoded once.  Only call-id-less responses
    may use this — JSON-RPC and binary embed the call id in the body, so a
    response correlated to a client id must be encoded fresh.
    """

    key = (codec.name, int(fault.code), fault.message)
    body = _FAULT_CACHE.get(key)
    if body is None:
        body = codec.encode_response(RPCResponse.from_fault(fault))
        with _FAULT_CACHE_LOCK:
            if len(_FAULT_CACHE) >= _FAULT_CACHE_LIMIT:
                _FAULT_CACHE.clear()
            _FAULT_CACHE[key] = body
    return body


# ---------------------------------------------------------------------------
# Hot-response fragment memo (spliceable codecs)
# ---------------------------------------------------------------------------

#: Distinct hot methods the per-pipeline result-fragment memo holds before
#: flushing; catalogue-style servers repeat a handful of methods, so the
#: flush is effectively never hit on the path it accelerates.
_RESULT_MEMO_LIMIT = 64


#: Exact-bytes request-decode memo bound (spliceable codecs only).  Hot RPC
#: traffic repeats a handful of wire-identical frames (``system.
#: list_methods`` with no params), so the bound exists only as a backstop
#: against pathological key churn.
_REQUEST_MEMO_LIMIT = 256
#: Only small frames are worth keying a memo by their whole body.
_REQUEST_MEMO_MAX_BYTES = 1024

#: Param types a memoised (and therefore shared) request may carry: all
#: immutable, so no service can mutate what a later request will see.
_IMMUTABLE_PARAMS = (str, int, float, bool, bytes, type(None))


_UNSTABLE = object()


def _stable_copy(value: Any) -> Any:
    """Defensively copy ``value`` when equality implies identical bytes.

    The fragment memo serves cached bytes whenever a method's fresh result
    compares equal to the memoised one, so it may only hold values for which
    Python equality cannot cross encoding boundaries.  Strings, ``None`` and
    ``bytes`` only ever equal values that encode identically; numerics and
    bools do not (``1 == True == 1.0`` but their frames differ), and
    tz-aware datetimes can equal ones with a different ISO rendering — any
    value containing those returns :data:`_UNSTABLE` and is encoded fresh
    every call.  Containers are rebuilt so a service mutating its returned
    object cannot alias the memo's comparison baseline.
    """

    kind = type(value)
    if kind is str or value is None or kind is bytes:
        return value
    if kind is list or kind is tuple:
        out = []
        for item in value:
            copied = _stable_copy(item)
            if copied is _UNSTABLE:
                return _UNSTABLE
            out.append(copied)
        return out if kind is list else tuple(out)
    if kind is dict:
        record = {}
        for key, item in value.items():
            copied = _stable_copy(item)
            if copied is _UNSTABLE:
                return _UNSTABLE
            record[key] = copied
        return record
    return _UNSTABLE


# ---------------------------------------------------------------------------
# The state carrier
# ---------------------------------------------------------------------------

@dataclass
class RequestState:
    """Everything one request accumulates as it moves down the pipeline."""

    server: "ClarensServer"
    rpc_request: RPCRequest
    http_request: HTTPRequest | None = None
    protocol: str = "xml-rpc"
    #: Monotonically increasing id stamped by the trace stage.
    trace_id: int = 0
    #: The distributed trace context (telemetry-enabled servers only):
    #: accepted from the request's trace header or freshly minted.
    trace: TraceContext | None = None
    #: Resolved by the session stage (it needs the anonymous flag).
    method: "RegisteredMethod | None" = None
    session: Session | None = None
    dn: str | None = None
    #: True when the request was admitted anonymously (counted in stats).
    anonymous: bool = False
    #: Set by the invoke stage (or by a custom stage that short-circuits).
    response: RPCResponse | None = None
    #: False when the serving codec validates while it encodes
    #: (``codec.validates_on_encode``), so the invoke stage skips the
    #: redundant ``validate_value`` walk over the result.
    validate_result: bool = True
    #: Wall-clock seconds spent in each stage, keyed by stage name.
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: Callables run (in reverse order) once the request finishes, success or
    #: fault — the admission stage parks its in-flight release here.
    cleanups: list[Callable[[], None]] = field(default_factory=list)
    #: ``perf_counter`` reading when the stage chain started.
    started: float = 0.0
    #: The fault that aborted the chain, if any.
    fault: Fault | None = None

    @property
    def identity(self) -> str:
        """The admission identity: the caller DN or the anonymous principal."""

        return self.dn or ANONYMOUS_IDENTITY


# ---------------------------------------------------------------------------
# Stages
# ---------------------------------------------------------------------------

class PipelineStage:
    """One step of the chain: a named callable over :class:`RequestState`.

    Stages communicate by mutating the state; raising any exception aborts
    the chain and becomes the request's fault (via ``to_fault``).  Custom
    stages may also set ``state.response`` to short-circuit: remaining
    stages before ``invoke`` still run (they are access control), but the
    invoke stage respects an already-present response.
    """

    name = "stage"

    def __call__(self, state: RequestState) -> None:  # pragma: no cover
        raise NotImplementedError

    def loop_safe(self, state: RequestState) -> bool:
        """Whether this stage may run on the async frontend's event loop.

        Only a stage that touches memory alone may say yes; the default is
        no, so a custom stage is offloaded (with everything after it) unless
        it opts in.
        """

        return False


class _LoopSafeStage(PipelineStage):
    """The built-in access-control stages: in-memory lookups only."""

    def loop_safe(self, state: RequestState) -> bool:
        return True


class TraceStage(_LoopSafeStage):
    """Stamps a request id so log lines and events correlate across stages.

    With telemetry enabled it additionally establishes the *distributed*
    trace context: accepted from the request's ``X-Clarens-Trace`` header
    (the server mints its own span id, parented on the caller's) or freshly
    minted for untraced requests.  Paper-mode servers never parse the
    header — the negotiation is simply that only telemetry-enabled servers
    look, so old clients and old servers interoperate unchanged.
    """

    name = "trace"

    def __init__(self, telemetry: "ServerTelemetry | None" = None) -> None:
        self._ids = itertools.count(1)
        self.telemetry = telemetry

    def __call__(self, state: RequestState) -> None:
        state.trace_id = next(self._ids)
        if self.telemetry is None:
            return
        ctx = None
        if state.http_request is not None:
            ctx = TraceContext.from_header(
                state.http_request.headers.get(TRACE_HEADER, ""))
        state.trace = ctx or TraceContext.new()


def allow_anonymous(server: "ClarensServer", method: "RegisteredMethod") -> bool:
    """The anonymous-caller gate, shared by the session stage and multicall.

    A caller with no identity may proceed only when the method is marked
    anonymous *and* the server permits anonymous system calls.
    """

    return method.anonymous and server.config.allow_anonymous_system_calls


def check_method_acl(server: "ClarensServer", dn: str | None, name: str,
                     method: "RegisteredMethod | None") -> None:
    """The paper's check 2 (method ACL), shared by the acl stage and multicall.

    Honors the ``access_checks_per_request`` ablation knob and skips the
    evaluation for anonymous callers on anonymous methods (their gate is
    check 1's concern).  Raises :class:`AccessDeniedError` on a denial.
    """

    if server.config.access_checks_per_request < 2:
        return
    if dn is None and method is not None and method.anonymous:
        return
    decision = server.acl.check_method(dn or "", name)
    if not decision.allowed:
        raise AccessDeniedError(
            f"access to {name} denied: {decision.reason}")


class SessionStage(_LoopSafeStage):
    """Method lookup plus the paper's check 1: the session database lookup."""

    name = "session"

    def __call__(self, state: RequestState) -> None:
        server = state.server
        rpc_request = state.rpc_request
        http_request = state.http_request
        state.method = server.registry.lookup(rpc_request.method)

        if server.config.access_checks_per_request < 1:
            # Ablation mode: no session checking; trust the TLS DN if present.
            state.dn = http_request.client_dn if http_request is not None else None
            return

        session_id = None
        if http_request is not None:
            session_id = http_request.headers.get(SESSION_HEADER)
        if session_id:
            state.session = server.sessions.validate(session_id)
            state.dn = state.session.dn
        elif http_request is not None and http_request.client_dn:
            # TLS-authenticated connection without an explicit session: the
            # verified certificate DN identifies the caller directly.
            state.dn = http_request.client_dn
        elif allow_anonymous(server, state.method):
            state.dn = None
            state.anonymous = True
        else:
            raise AuthenticationError(
                f"method {rpc_request.method} requires an authenticated session")


class MethodACLStage(_LoopSafeStage):
    """The paper's check 2: the database-backed method ACL evaluation."""

    name = "acl"

    def __call__(self, state: RequestState) -> None:
        check_method_acl(state.server, state.dn, state.rpc_request.method,
                         state.method)


class AdmissionStage(_LoopSafeStage):
    """Per-identity token-bucket / in-flight admission (off when unconfigured)."""

    name = "admission"

    def __init__(self, controller: AdmissionController | None) -> None:
        self.controller = controller

    def __call__(self, state: RequestState) -> None:
        if self.controller is None:
            return
        release = self.controller.admit(state.identity, state.rpc_request.method)
        state.cleanups.append(release)


class InvokeStage(PipelineStage):
    """Calls the registered method with a :class:`CallContext`."""

    name = "invoke"

    def __call__(self, state: RequestState) -> None:
        if state.response is not None:  # a custom stage already answered
            return
        rpc_request = state.rpc_request
        ctx = CallContext(server=state.server, method=rpc_request.method,
                          dn=state.dn, session=state.session,
                          request=state.http_request, protocol=state.protocol,
                          trace_id=state.trace_id, trace=state.trace)
        if state.trace is not None:
            # Ambient activation: anything the method does on this thread —
            # publish bus events, call a peer, submit a transfer — inherits
            # the trace without plumbing it through every layer.
            with use_trace(state.trace):
                result = _call_with_context(state.method.func, ctx,
                                            rpc_request.params)
        else:
            result = _call_with_context(state.method.func, ctx, rpc_request.params)
        state.response = RPCResponse.from_result(result, call_id=rpc_request.call_id,
                                                 validate=state.validate_result)

    def loop_safe(self, state: RequestState) -> bool:
        if state.response is not None:
            return True
        method = state.method
        if method is None or not method.loop_safe:
            return False
        if method.name == "system.multicall":
            return _multicall_loop_safe(state.server.registry,
                                        state.rpc_request.params)
        return True


def _multicall_loop_safe(registry, params: Sequence[Any]) -> bool:
    """A batch stays on the loop only when every entry names a marked method.

    Anything else — an unmarked or unknown method, a malformed batch — is
    offloaded whole: one executor hop, entries still run in order.
    """

    if len(params) != 1 or not isinstance(params[0], (list, tuple)):
        return False
    try:
        names = {entry.get("methodName") if isinstance(entry, dict) else None
                 for entry in params[0]}
        return all(registry.lookup(name).loop_safe for name in names)
    except (NotFoundError, TypeError):
        return False


# ---------------------------------------------------------------------------
# Sharded statistics
# ---------------------------------------------------------------------------

class _StatsShard:
    __slots__ = ("lock", "requests", "faults", "anonymous_requests", "throttled",
                 "total_seconds", "per_method", "stage_seconds", "stage_calls")

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.requests = 0
        self.faults = 0
        self.anonymous_requests = 0
        self.throttled = 0
        self.total_seconds = 0.0
        self.per_method: dict[str, int] = {}
        self.stage_seconds: dict[str, float] = {}
        self.stage_calls: dict[str, int] = {}


class ShardedDispatchStats:
    """Dispatch counters striped across independently locked shards.

    The previous implementation funneled every worker thread through one
    mutex after each request; with N shards (picked by thread id) the hot
    path's accounting scales with cores, and :meth:`snapshot` merges shards
    into exactly the totals a single lock would have produced.
    """

    def __init__(self, shards: int = 8) -> None:
        if shards < 1:
            raise ValueError("shards must be positive")
        self._shards = [_StatsShard() for _ in range(shards)]
        # Thread idents are pthread struct addresses on glibc — 64-byte
        # aligned, so `ident % shards` would map every thread to shard 0.
        # Round-robin assignment via a thread-local index spreads threads
        # evenly regardless of how the platform allocates idents.
        self._local = threading.local()
        self._assign = itertools.count()

    def _shard(self) -> _StatsShard:
        index = getattr(self._local, "index", None)
        if index is None:
            index = self._local.index = next(self._assign) % len(self._shards)
        return self._shards[index]

    def record(self, *, method: str, seconds: float, fault: bool,
               anonymous: bool, throttled: bool = False,
               stage_seconds: dict[str, float] | None = None) -> None:
        shard = self._shard()
        with shard.lock:
            shard.requests += 1
            shard.total_seconds += seconds
            if fault:
                shard.faults += 1
            if anonymous:
                shard.anonymous_requests += 1
            if throttled:
                shard.throttled += 1
            shard.per_method[method] = shard.per_method.get(method, 0) + 1
            if stage_seconds:
                for name, duration in stage_seconds.items():
                    shard.stage_seconds[name] = shard.stage_seconds.get(name, 0.0) + duration
                    shard.stage_calls[name] = shard.stage_calls.get(name, 0) + 1

    def record_stage(self, name: str, seconds: float) -> None:
        """Account one stage run outside a full request record (e.g. encode)."""

        shard = self._shard()
        with shard.lock:
            shard.stage_seconds[name] = shard.stage_seconds.get(name, 0.0) + seconds
            shard.stage_calls[name] = shard.stage_calls.get(name, 0) + 1

    def record_submethods(self, counts: dict[str, int]) -> None:
        """Merge per-method counts for multicall sub-invocations."""

        shard = self._shard()
        with shard.lock:
            for method, count in counts.items():
                shard.per_method[method] = shard.per_method.get(method, 0) + count

    def snapshot(self) -> dict:
        requests = faults = anonymous = throttled = 0
        total_seconds = 0.0
        per_method: dict[str, int] = {}
        stage_seconds: dict[str, float] = {}
        stage_calls: dict[str, int] = {}
        for shard in self._shards:
            with shard.lock:
                requests += shard.requests
                faults += shard.faults
                anonymous += shard.anonymous_requests
                throttled += shard.throttled
                total_seconds += shard.total_seconds
                for method, count in shard.per_method.items():
                    per_method[method] = per_method.get(method, 0) + count
                for name, duration in shard.stage_seconds.items():
                    stage_seconds[name] = stage_seconds.get(name, 0.0) + duration
                for name, count in shard.stage_calls.items():
                    stage_calls[name] = stage_calls.get(name, 0) + count
        stages = {
            name: {
                "seconds": stage_seconds[name],
                "calls": stage_calls.get(name, 0),
                "mean_ms": (stage_seconds[name] / stage_calls[name] * 1000.0)
                           if stage_calls.get(name) else 0.0,
            }
            for name in sorted(stage_seconds)
        }
        return {
            "requests": requests,
            "faults": faults,
            "anonymous_requests": anonymous,
            "throttled": throttled,
            "total_seconds": total_seconds,
            "mean_latency_ms": (total_seconds / requests * 1000.0) if requests else 0.0,
            "per_method": per_method,
            "stages": stages,
        }


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

class RequestPipeline:
    """An ordered stage chain plus the stats it feeds."""

    def __init__(self, server: "ClarensServer", stages: Sequence[PipelineStage],
                 *, stats_shards: int = 8) -> None:
        self.server = server
        self.stages: list[PipelineStage] = list(stages)
        self.stats = ShardedDispatchStats(stats_shards)
        #: The admission controller the admission stage runs (None when both
        #: limits are off).  Exposed so multicall token charging, the fabric
        #: admission extension and ``system.stats`` reach the same buckets.
        self.admission: AdmissionController | None = None
        #: The server's telemetry assembly (None in paper mode): finished
        #: requests report spans, metrics and slow-log entries through it.
        self.telemetry: "ServerTelemetry | None" = None
        #: The codec names this server accepts (``protocol_preference``), and
        #: the advert string sent back to clients that ask to negotiate.
        config = getattr(server, "config", None)
        protocols = getattr(config, "protocols", None)
        self.enabled_protocols: tuple[str, ...] | None = (
            protocols() if callable(protocols) else None)
        self.protocol_advert: str | None = (
            ",".join(self.enabled_protocols) if self.enabled_protocols else None)
        #: Per-method (result, fragment) pairs for spliceable codecs: when a
        #: method keeps returning an equal result, its encoded value bytes
        #: are reused instead of re-walked (see :meth:`_encode_spliced`).
        self._result_memo: dict[str, tuple[Any, bytes]] = {}
        #: Exact-bytes decoded-request memo for spliceable codecs: hot RPC
        #: traffic repeats wire-identical frames, and a binary frame is a
        #: canonical encoding, so equal bytes always decode to the same
        #: request.  Only requests with immutable params are stored (the
        #: decoded object is shared across calls).
        self._request_memo: dict[Any, RPCRequest] = {}

    # -- composition ---------------------------------------------------------
    def stage_names(self) -> list[str]:
        return [stage.name for stage in self.stages]

    def insert_stage(self, stage: PipelineStage, *, before: str | None = None,
                     after: str | None = None) -> None:
        """Insert a custom stage relative to a named one (default: append).

        ``before``/``after`` name an existing stage; unknown names raise
        ValueError so a typo cannot silently reorder security checks.
        """

        if before is not None and after is not None:
            raise ValueError("pass before= or after=, not both")
        anchor = before or after
        if anchor is None:
            self.stages.append(stage)
            return
        for index, existing in enumerate(self.stages):
            if existing.name == anchor:
                self.stages.insert(index if before else index + 1, stage)
                return
        raise ValueError(f"no pipeline stage named {anchor!r}")

    # -- execution -----------------------------------------------------------
    def execute(self, rpc_request: RPCRequest, *,
                http_request: HTTPRequest | None = None,
                protocol: str = "xml-rpc",
                pre_stage_seconds: dict[str, float] | None = None,
                validate_result: bool = True) -> RequestState:
        """Run the stage chain for one decoded request; never raises."""

        state = RequestState(server=self.server, rpc_request=rpc_request,
                             http_request=http_request, protocol=protocol,
                             validate_result=validate_result)
        if pre_stage_seconds:
            state.stage_seconds.update(pre_stage_seconds)
        self._run_stages(state)
        return state

    def _run_stages(self, state: RequestState, first: int = 0, *,
                    on_loop: bool = False) -> int:
        """Run stages from ``first``; returns the index of the next one due.

        With ``on_loop`` the chain stops *before* the first stage that is not
        loop-safe for this request and returns its index, leaving the request
        open (cleanups pending, nothing recorded) for a later call to resume
        off the loop.  Otherwise — and whenever a stage faults — the request
        is finished here and ``len(self.stages)`` is returned.
        """

        stages = self.stages
        if first == 0:
            state.started = time.perf_counter()
        try:
            for index in range(first, len(stages)):
                stage = stages[index]
                if on_loop and not stage.loop_safe(state):
                    return index
                stage_start = time.perf_counter()
                try:
                    stage(state)
                finally:
                    state.stage_seconds[stage.name] = (
                        state.stage_seconds.get(stage.name, 0.0)
                        + time.perf_counter() - stage_start)
        except BaseException as exc:  # noqa: BLE001 - faults must not kill the server
            state.fault = to_fault(exc)
            state.response = RPCResponse.from_fault(
                state.fault, call_id=state.rpc_request.call_id)
        self._finish(state)
        return len(stages)

    def _finish(self, state: RequestState) -> None:
        """Release what the request holds and account for it, exactly once."""

        for cleanup in reversed(state.cleanups):
            try:
                cleanup()
            except Exception:  # noqa: BLE001 - cleanups are best-effort
                pass
        rpc_request, fault = state.rpc_request, state.fault
        duration = time.perf_counter() - state.started
        self.stats.record(
            method=rpc_request.method, seconds=duration,
            fault=fault is not None, anonymous=state.anonymous,
            throttled=fault is not None and fault.code == FaultCode.RETRY_LATER,
            stage_seconds=state.stage_seconds)
        if self.telemetry is not None and state.trace is not None:
            self.telemetry.on_request(Span(
                trace_id=state.trace.trace_id,
                span_id=state.trace.span_id,
                parent_id=state.trace.parent_id,
                server=self.server.config.server_name,
                method=rpc_request.method,
                identity=state.identity,
                protocol=state.protocol,
                status="fault" if fault is not None else "ok",
                fault_code=int(fault.code) if fault is not None else 0,
                fault_string=fault.message if fault is not None else "",
                started=time.time() - duration,
                duration_s=duration,
                stage_seconds=dict(state.stage_seconds)))

    def run(self, rpc_request: RPCRequest, *,
            http_request: HTTPRequest | None = None,
            protocol: str = "xml-rpc") -> RPCResponse:
        """Dispatch one decoded RPC request and return the RPC response."""

        return self.execute(rpc_request, http_request=http_request,
                            protocol=protocol).response

    # -- HTTP entry point ----------------------------------------------------
    def _http_response(self, status: int, codec, body: bytes,
                       advert: str | None) -> HTTPResponse:
        headers = Headers({"Content-Type": codec.content_type})
        if advert is not None:
            headers.set(PROTOCOL_HEADER, advert)
        return HTTPResponse(status=status, headers=headers, body=body)

    def _encode_spliced(self, codec, method: str, response: RPCResponse) -> bytes:
        """Encode a success response, reusing the result bytes when possible.

        Catalogue-style methods (``system.list_methods`` — the Figure 4
        workload) return an equal result on every call, yet the generic path
        re-walks the whole value tree per response.  For spliceable codecs
        the ``value(result)`` fragment is memoised per method and revalidated
        with a single C-level ``==`` against the memoised result — safe
        because only :func:`_stable_copy`-able values (whose equality implies
        byte-identical encoding) are ever stored, and the stored copy is
        rebuilt so a service mutating its returned object cannot alias the
        baseline.  Changed results simply miss and re-encode; the memo never
        serves bytes for a value that is not equal to the one it encoded.
        """

        memo = self._result_memo
        result = response.result
        cached = memo.get(method)
        if cached is not None and cached[0] == result:
            return codec.encode_response_from_fragment(response.call_id, cached[1])
        fragment = codec.encode_result_fragment(result)
        copied = _stable_copy(result)
        if copied is not _UNSTABLE:
            if len(memo) >= _RESULT_MEMO_LIMIT:
                memo.clear()
            memo[method] = (copied, fragment)
        return codec.encode_response_from_fragment(response.call_id, fragment)

    def handle_http(self, request: HTTPRequest) -> HTTPResponse:
        """Handle a POST to the RPC endpoint: decode, run the chain, encode."""

        call = self._decode_http(request)
        if isinstance(call, HTTPResponse):
            return call
        self._run_stages(call[0])
        return self._encode_http(*call)

    def begin_http(self, request: HTTPRequest
                   ) -> HTTPResponse | Callable[[], HTTPResponse]:
        """The event-loop entry point: answer now, or say what is left.

        Decodes once and runs every loop-safe stage on the calling (loop)
        thread.  A request that finishes there — a marked method, or any
        pre-invoke refusal: parse fault, bad session, ACL denial, admission
        429 — comes back as its response.  Otherwise the return value is a
        continuation that runs the remaining stages and encodes; the caller
        hands it to an executor thread.
        """

        call = self._decode_http(request)
        if isinstance(call, HTTPResponse):
            return call
        stages_left = self._run_stages(call[0], on_loop=True)
        if stages_left == len(self.stages):
            return self._encode_http(*call)

        def finish() -> HTTPResponse:
            self._run_stages(call[0], stages_left)
            return self._encode_http(*call)

        return finish

    def _decode_http(self, request: HTTPRequest
                     ) -> HTTPResponse | tuple[RequestState, Any, str | None]:
        """Pick the codec and decode; a parse failure is already a response."""

        # Advertise the enabled codecs only to clients that asked: paper-mode
        # traffic (no accept header) stays byte-for-byte unchanged.
        advert = None
        if request.headers.get(ACCEPT_HEADER):
            advert = self.protocol_advert

        decode_start = time.perf_counter()
        try:
            codec = detect_codec(request.body, request.content_type,
                                 enabled=self.enabled_protocols)
        except ProtocolError as exc:
            # Without a codec we cannot produce a protocol-correct fault body;
            # fall back to the default (XML-RPC), as the original server did.
            codec = default_codec()
            body = encode_fault_cached(codec, Fault(FaultCode.PARSE_ERROR, str(exc)))
            return self._http_response(200, codec, body, advert)

        spliceable = getattr(codec, "spliceable", False)
        rpc_request = (self._request_memo.get(request.body)
                       if spliceable else None)
        if rpc_request is None:
            try:
                rpc_request = codec.decode_request(request.body)
            except ProtocolError as exc:
                body = encode_fault_cached(codec, Fault(FaultCode.PARSE_ERROR, str(exc)))
                return self._http_response(200, codec, body, advert)
            if (spliceable and len(request.body) <= _REQUEST_MEMO_MAX_BYTES
                    and all(isinstance(param, _IMMUTABLE_PARAMS)
                            for param in rpc_request.params)):
                if len(self._request_memo) >= _REQUEST_MEMO_LIMIT:
                    self._request_memo.clear()
                self._request_memo[request.body] = rpc_request

        # One walk per value: a codec that validates while it encodes makes
        # the invoke stage's separate walk over the result redundant.
        state = RequestState(server=self.server, rpc_request=rpc_request,
                             http_request=request, protocol=codec.name,
                             validate_result=not getattr(
                                 codec, "validates_on_encode", False))
        state.stage_seconds["decode"] = time.perf_counter() - decode_start
        return state, codec, advert

    def _encode_http(self, state: RequestState, codec,
                     advert: str | None) -> HTTPResponse:
        """Encode a finished request's response in the codec it arrived in."""

        rpc_request = state.rpc_request
        response = state.response
        response.call_id = rpc_request.call_id

        encode_start = time.perf_counter()
        if response.is_fault and response.call_id is None:
            # Fault bodies without a call id are pure functions of the codec
            # and the fault — serve the pre-encoded bytes (overload shedding
            # re-encodes the identical 429 body thousands of times otherwise).
            body = encode_fault_cached(codec, response.fault)
        elif not state.validate_result and not response.is_fault:
            try:
                if getattr(codec, "spliceable", False):
                    body = self._encode_spliced(codec, rpc_request.method, response)
                else:
                    body = codec.encode_response(response)
            except ProtocolError as exc:
                response = _refused_result(codec, rpc_request, response, exc)
                body = codec.encode_response(response)
        else:
            body = codec.encode_response(response)
        self.stats.record_stage("encode", time.perf_counter() - encode_start)

        status = 200
        if response.is_fault and response.fault.code == FaultCode.RETRY_LATER:
            # Load shedding is transport-visible: plain-HTTP callers (and any
            # intermediary) see 429 without having to parse the fault body.
            status = 429
        return self._http_response(status, codec, body, advert)

    # -- batched RPC ---------------------------------------------------------
    def run_multicall(self, ctx: CallContext, calls: Sequence[Any]) -> list[Any]:
        """Execute a ``system.multicall`` batch with fault-per-entry semantics.

        The batch already paid decode, trace, session and one admission token
        once; this method charges the remaining N-1 tokens (N entries cost N
        tokens under ``dispatch_rate_limit``), amortizes the method-ACL check
        per *distinct* method name and invokes each entry.  Following the XML-RPC multicall convention, each
        result slot is a one-element array ``[value]`` on success or a struct
        ``{"faultCode", "faultString"}`` on failure — one bad entry never
        poisons its neighbours.
        """

        server = self.server
        limit = server.config.dispatch_multicall_limit
        if limit and len(calls) > limit:
            # Refuse the whole batch: it admits as one request, so an
            # unbounded batch would let one admission token buy arbitrary
            # amounts of work.
            raise Fault(FaultCode.INVALID_PARAMS,
                        f"multicall batch of {len(calls)} entries exceeds the "
                        f"server limit of {limit}")
        identity = ctx.dn or ANONYMOUS_IDENTITY
        if (self.admission is not None and len(calls) > 1
                and not self.admission.is_exempt(identity)):
            # The batch paid one token at the admission stage; charge the
            # other N-1 so a multicall of N entries costs exactly N tokens
            # and batching cannot buy unmetered work.  An insufficient
            # balance rejects the whole batch with RETRY_LATER (HTTP 429) —
            # but a batch larger than the bucket can *ever* hold is refused
            # permanently, or a polite client would 429-loop forever on a
            # condition no amount of waiting can satisfy.  Exempt identities
            # (fabric peers) skip both, matching their exemption everywhere
            # else.
            if self.admission.rate > 0 and len(calls) > self.admission.burst:
                raise Fault(FaultCode.INVALID_PARAMS,
                            f"multicall batch of {len(calls)} entries can "
                            f"never fit the admission burst capacity of "
                            f"{self.admission.burst:.0f} tokens; split the "
                            f"batch")
            self.admission.charge(identity, len(calls) - 1,
                                  "system.multicall",
                                  retry_cost=len(calls))
        verdicts: dict[str, Fault | None] = {}
        results: list[Any] = []
        counts: dict[str, int] = {}
        for entry in calls:
            name = ""
            child: TraceContext | None = None
            entry_start = time.perf_counter()
            fault: Fault | None = None
            try:
                name, params = _parse_multicall_entry(entry)
                counts[name] = counts.get(name, 0) + 1
                if name not in verdicts:
                    verdicts[name] = self._authorize_submethod(ctx, name)
                verdict = verdicts[name]
                if verdict is not None:
                    raise verdict
                method = server.registry.lookup(name)
                # Each entry is its own span within the batch's trace, so a
                # fan-out through multicall stays reconstructable per entry.
                if ctx.trace is not None:
                    child = ctx.trace.child()
                sub_ctx = CallContext(server=server, method=name, dn=ctx.dn,
                                      session=ctx.session, request=ctx.request,
                                      protocol=ctx.protocol, trace_id=ctx.trace_id,
                                      trace=child)
                if child is not None:
                    with use_trace(child):
                        result = _call_with_context(method.func, sub_ctx,
                                                    tuple(params))
                else:
                    result = _call_with_context(method.func, sub_ctx, tuple(params))
                validate_value(result)
                results.append([result])
            except BaseException as exc:  # noqa: BLE001 - fault-per-entry
                fault = to_fault(exc)
                results.append({"faultCode": fault.code,
                                "faultString": fault.message})
            if self.telemetry is not None and child is not None:
                duration = time.perf_counter() - entry_start
                self.telemetry.on_request(Span(
                    trace_id=child.trace_id, span_id=child.span_id,
                    parent_id=child.parent_id,
                    server=server.config.server_name,
                    method=name, identity=ctx.dn or ANONYMOUS_IDENTITY,
                    protocol=ctx.protocol,
                    status="fault" if fault is not None else "ok",
                    fault_code=int(fault.code) if fault is not None else 0,
                    fault_string=fault.message if fault is not None else "",
                    started=time.time() - duration,
                    duration_s=duration))
        if counts:
            self.stats.record_submethods(counts)
        return results

    def _authorize_submethod(self, ctx: CallContext, name: str) -> Fault | None:
        """The per-distinct-method share of the two access checks.

        The session (check 1) was validated when the batch entered the
        pipeline; what remains per method is the anonymous-caller gate and
        the ACL evaluation (check 2) — the same :func:`allow_anonymous` and
        :func:`check_method_acl` rules the session/acl stages apply, so the
        two paths cannot drift.
        """

        server = self.server
        try:
            if name == "system.multicall":
                raise AccessDeniedError("system.multicall may not be nested")
            method = server.registry.lookup(name)
            if (ctx.dn is None and server.config.access_checks_per_request >= 1
                    and not allow_anonymous(server, method)):
                raise AuthenticationError(
                    f"method {name} requires an authenticated session")
            check_method_acl(server, ctx.dn, name, method)
        except BaseException as exc:  # noqa: BLE001
            return to_fault(exc)
        return None


def _refused_result(codec, rpc_request: RPCRequest, response: RPCResponse,
                    exc: ProtocolError) -> RPCResponse:
    """What to send when the codec refused a result at encode time.

    The refusal is the validation the invoke stage skipped, so it becomes
    the fault that walk would have raised.  A multicall keeps its
    fault-per-entry promise for what only the codec can judge (a string XML
    cannot carry): each slot is tried on its own, at the depth it has in the
    batch, and only the refused ones turn into fault structs.
    """

    slots = response.result
    if rpc_request.method != "system.multicall" or not isinstance(slots, list):
        return RPCResponse.from_fault(to_fault(exc), call_id=rpc_request.call_id)
    kept = []
    for slot in slots:
        try:
            codec.encode_response(RPCResponse.from_result([slot], validate=False))
        except ProtocolError as refusal:
            fault = to_fault(refusal)
            slot = {"faultCode": fault.code, "faultString": fault.message}
        kept.append(slot)
    return RPCResponse.from_result(kept, call_id=rpc_request.call_id,
                                   validate=False)


def _parse_multicall_entry(entry: Any) -> tuple[str, Sequence[Any]]:
    if not isinstance(entry, dict):
        raise Fault(FaultCode.INVALID_PARAMS,
                    "multicall entries must be structs with methodName/params")
    name = entry.get("methodName")
    if not isinstance(name, str) or not name:
        raise Fault(FaultCode.INVALID_PARAMS,
                    "multicall entry is missing a methodName string")
    params = entry.get("params", [])
    if not isinstance(params, (list, tuple)):
        raise Fault(FaultCode.INVALID_PARAMS,
                    f"params for {name} must be an array")
    return name, params


# ---------------------------------------------------------------------------
# Assembly
# ---------------------------------------------------------------------------

def build_pipeline(server: "ClarensServer") -> RequestPipeline:
    """Assemble the standard stage chain from the server's configuration."""

    config = server.config
    controller = None
    if config.dispatch_rate_limit > 0 or config.dispatch_max_inflight > 0:
        controller = AdmissionController(
            rate=config.dispatch_rate_limit,
            burst=config.dispatch_burst,
            max_inflight=config.dispatch_max_inflight,
            bus=server.message_bus,
            source=config.server_name)
    telemetry = getattr(server, "telemetry", None)
    stages = [TraceStage(telemetry=telemetry), SessionStage(), MethodACLStage(),
              AdmissionStage(controller), InvokeStage()]
    pipeline = RequestPipeline(server, stages,
                               stats_shards=config.dispatch_stats_shards)
    pipeline.admission = controller
    pipeline.telemetry = telemetry
    return pipeline


# ---------------------------------------------------------------------------
# Invocation helper (shared with the legacy dispatcher facade)
# ---------------------------------------------------------------------------

def _wants_context(func) -> bool:
    try:
        params = list(inspect.signature(func).parameters.values())
    except (TypeError, ValueError):
        return False
    return bool(params) and params[0].name in ("ctx", "context")


_CONTEXT_CACHE: dict[object, bool] = {}


def _call_with_context(func, ctx: CallContext, params):
    """Invoke ``func`` with the call context when its signature asks for one."""

    key = getattr(func, "__func__", func)
    wants = _CONTEXT_CACHE.get(key)
    if wants is None:
        wants = _wants_context(func)
        _CONTEXT_CACHE[key] = wants
    if wants:
        return func(ctx, *params)
    return func(*params)
