"""The Clarens server assembly.

:class:`ClarensServer` wires together the substrates (database, PKI trust,
HTTP routing) and the standard services.  It exposes three frontends:

* :meth:`ClarensServer.loopback` — an in-process transport used by tests and
  by the Figure 4 benchmark (framework overhead only, as in the paper);
* :meth:`ClarensServer.socket_server` — a real threaded HTTP server;
* :meth:`ClarensServer.async_server` — the event-loop HTTP frontend
  (:meth:`ClarensServer.frontend` picks between the two socket servers from
  the ``server_transport`` knob).

All route through the same :class:`~repro.httpd.router.Router`, so URL
handling ("Apache invokes PClarens based on the form of the URL") and request
processing are identical regardless of transport.
"""

from __future__ import annotations

import tempfile
import threading
import time
import weakref
from functools import partial
from pathlib import Path
from typing import Callable, Iterable

from repro.acl.evaluator import ACLManager
from repro.cache.core import CacheRegistry, TTLLRUCache
from repro.cache.distributed import CacheInvalidationRelay
from repro.cache.invalidation import InvalidationBus
from repro.core.auth import Authenticator
from repro.core.config import ServerConfig
from repro.core.context import CallContext
from repro.core.dispatch import Dispatcher
from repro.core.errors import AccessDeniedError
from repro.core.pipeline import build_pipeline
from repro.core.registry import MethodRegistry
from repro.core.service import ClarensService
from repro.core.session import SessionManager
from repro.core.system import SystemService
from repro.database import Database
from repro.core.admission import AdmissionController
from repro.httpd.accesslog import AccessLog
from repro.httpd.aio import AsyncHTTPServer
from repro.httpd.loopback import LoopbackTransport
from repro.httpd.message import Headers, HTTPError, HTTPRequest, HTTPResponse
from repro.httpd.router import Router
from repro.httpd.server import SocketHTTPServer
from repro.httpd.tls import TLSContext
from repro.monitoring.bus import MessageBus
from repro.monitoring.cachemetrics import CacheStatsReporter
from repro.pki.certificate import TrustStore
from repro.pki.credentials import Credential
from repro.pki.proxy import ChainVerificationCache
from repro.telemetry.runtime import ServerTelemetry
from repro.vo.model import VOManager

__all__ = ["ClarensServer"]


class ClarensServer:
    """A Clarens web-service server instance."""

    def __init__(self, config: ServerConfig | None = None, *,
                 credential: Credential | None = None,
                 trust_store: TrustStore | None = None,
                 database: Database | None = None,
                 monitor=None,
                 message_bus: MessageBus | None = None,
                 register_default_services: bool = True) -> None:
        self.config = config or ServerConfig()
        self.credential = credential
        self.trust_store = trust_store or TrustStore()
        self.monitor = monitor
        #: The monitoring message bus.  Each server gets its own by default;
        #: across real server boundaries the fabric's GossipBus forwards
        #: allow-listed topics (cache invalidations, admission shed adverts)
        #: to the configured peers.  Tests may still hand several servers one
        #: shared instance — an in-process stand-in for that transport.
        self.message_bus = message_bus or MessageBus()
        self.started_at = time.time()

        # -- substrates -----------------------------------------------------
        if database is not None:
            self.db = database
        elif self.config.data_dir:
            self.db = Database(self.config.data_dir)
        else:
            self.db = Database()

        self.access_log = AccessLog()
        self.registry = MethodRegistry(self.db, cache_method_list=self.config.cache_method_list)

        # -- caching (repro.cache) -------------------------------------------
        # The registry and bus always exist (so cache_stats is queryable), but
        # caches are only created when cache_enabled is True; with the flag
        # off every component receives None and behaves exactly as the
        # paper's uncached server did.
        self.caches = CacheRegistry()
        self.invalidation = InvalidationBus()
        cfg = self.config
        # Multi-server coherence: relay local invalidation tags onto the
        # monitoring bus (cache.invalidate.*) and apply flushes arriving
        # there from other servers — delivered by the fabric gossip bus in a
        # real deployment, or directly when tests share one bus object.
        self.invalidation_relay = None
        if cfg.cache_enabled:
            self.invalidation_relay = CacheInvalidationRelay(
                self.invalidation, self.message_bus, source=cfg.server_name)
        session_cache = self.make_cache("core.sessions",
                                        maxsize=cfg.cache_session_maxsize,
                                        ttl=cfg.cache_session_ttl)
        acl_cache = self.make_cache("acl.decisions",
                                    maxsize=cfg.cache_acl_maxsize,
                                    ttl=cfg.cache_acl_ttl)
        pki_cache = self.make_cache("pki.chains",
                                    maxsize=cfg.cache_pki_maxsize,
                                    ttl=cfg.cache_pki_ttl)

        self.sessions = SessionManager(self.db, lifetime=self.config.session_lifetime,
                                       cache=session_cache,
                                       invalidation=self.invalidation if session_cache is not None else None)
        self.vo = VOManager(self.db, admins=self.config.admins)
        self.acl = ACLManager(
            self.db,
            membership=self.vo.is_member,
            is_admin=lambda dn: self.vo.is_admin(dn),
            default_allow_authenticated=self.config.default_allow_authenticated,
            decision_cache=acl_cache,
            invalidation=self.invalidation if acl_cache is not None else None,
        )
        if acl_cache is not None:
            # ACL decisions depend on VO group membership, so any group edit
            # must flush them too.
            self.vo.on_change = lambda: self.invalidation.publish("acl")
        self.authenticator = Authenticator(self.sessions, self.trust_store)
        if pki_cache is not None:
            # The authenticator passes its *current* revocation mapping into
            # every cache lookup, so both in-place mutation and wholesale
            # reassignment of ``authenticator.revoked_serials`` take effect
            # immediately — failing fresh verifications and evicting cached
            # ones.  The cache itself therefore needs no mapping of its own.
            self.authenticator.chain_cache = ChainVerificationCache(
                pki_cache, self.trust_store, invalidation=self.invalidation)
        # -- telemetry (repro.telemetry) ---------------------------------------
        # Tracing, metrics and the slow-request log; None in paper mode so
        # every call site (pipeline, transports, clients) stays on the
        # uninstrumented path.  Built before the pipeline, which hooks its
        # trace stage and span reporting into it.
        self.telemetry: ServerTelemetry | None = None
        if cfg.telemetry_enabled:
            self.telemetry = ServerTelemetry(cfg)

        # -- the request pipeline ---------------------------------------------
        # One stage chain (trace → session → acl → admission → invoke, plus
        # decode/encode on the HTTP path), assembled from config and shared
        # by every transport; the Dispatcher is a thin facade over it.
        self.pipeline = build_pipeline(self)
        self.dispatcher = Dispatcher(self, pipeline=self.pipeline)

        # -- file / shell roots ----------------------------------------------
        self._owned_tempdirs: list[tempfile.TemporaryDirectory] = []
        self.file_root = self._resolve_root(self.config.file_root, "files")
        self.shell_root = self._resolve_root(self.config.shell_root, "sandboxes")

        # -- services ---------------------------------------------------------
        # Both are set by ReplicaService when it registers: the broker serves
        # replica-aware GET/read paths, the policy engine auto-heals governed
        # logical files back to their target copy counts.
        self.replica_broker = None
        self.replica_policy = None
        #: Set by FabricService when it registers: the peering substrate
        #: (registry, channels, gossip, catalogue sync, fabric admission).
        self.fabric = None
        self.services: dict[str, ClarensService] = {}
        if register_default_services:
            self._register_default_services()

        # -- routing ----------------------------------------------------------
        self.router = Router()
        self._rpc_route = self.router.add(self.config.rpc_path(),
                                          self.dispatcher.handle_http,
                                          methods=("POST",))
        #: Live async frontends, for ``system.stats`` and the metrics scrape.
        self.async_frontends: weakref.WeakSet[AsyncHTTPServer] = weakref.WeakSet()
        self.router.add(self.config.file_path(), self._handle_file_get,
                        methods=("GET",))
        if self.telemetry is not None:
            # The Prometheus scrape endpoints.  Mounted at the server root
            # (not under url_prefix) because that is where scrapers look;
            # /metrics/federation wins over /metrics by longest-prefix match.
            self.router.add("/metrics", self.telemetry.handle_metrics_get,
                            methods=("GET",))
            self.router.add("/metrics/federation",
                            self.telemetry.handle_federation_get,
                            methods=("GET",))
            # Unauthenticated liveness/health probe for load balancers.
            self.router.add("/healthz", self.telemetry.handle_healthz_get,
                            methods=("GET",))
        self.router.set_default(self._handle_unrouted)

        for service in self.services.values():
            service.on_start()

        # Wire the event bridge and stats collectors only after the services
        # exist, so the collectors can see replica engine / fabric surfaces.
        if self.telemetry is not None:
            self.telemetry.attach(self)

        # -- periodic cache-statistics reporter --------------------------------
        self.cache_reporter = CacheStatsReporter(self.caches,
                                                 source=self.config.server_name)
        self._reporter_stop = threading.Event()
        self._reporter_thread: threading.Thread | None = None
        if self.config.cache_stats_interval > 0:
            self._reporter_thread = threading.Thread(
                target=self._reporter_loop, name="cache-stats-reporter",
                daemon=True)
            self._reporter_thread.start()

    # -- assembly helpers -----------------------------------------------------
    def make_cache(self, name: str, *, maxsize: int, ttl: float | None) -> TTLLRUCache | None:
        """A named cache when caching is enabled on this server, else None.

        Components treat a None cache as "run uncached", so gating creation
        here keeps every integration point identical to paper mode when
        ``cache_enabled`` is off.
        """

        if not self.config.cache_enabled:
            return None
        return self.caches.create(name, maxsize=maxsize, ttl=ttl,
                                  shards=self.config.cache_shards)

    def _resolve_root(self, configured: str | None, default_name: str) -> Path:
        if configured:
            path = Path(configured)
            path.mkdir(parents=True, exist_ok=True)
            return path
        if self.config.data_dir:
            path = Path(self.config.data_dir) / default_name
            path.mkdir(parents=True, exist_ok=True)
            return path
        tmp = tempfile.TemporaryDirectory(prefix=f"clarens-{default_name}-")
        self._owned_tempdirs.append(tmp)
        return Path(tmp.name)

    def _register_default_services(self) -> None:
        # Imported here to keep the core package importable on its own and to
        # avoid import cycles (each service module imports repro.core.service).
        from repro.discovery.service import DiscoveryService
        from repro.fabric.service import FabricService
        from repro.fileservice.service import FileService
        from repro.jobs.service import JobService
        from repro.messaging.service import MessagingService
        from repro.proxyservice.service import ProxyService
        from repro.replica.service import ReplicaService
        from repro.shell.service import ShellService
        from repro.storage.service import SRMService
        from repro.acl.service import ACLService
        from repro.vo.service import VOService

        # ReplicaService comes after SRMService so the mass store behind the
        # SRM frontend is available as a replica storage element, and
        # FabricService comes last so the peering substrate can wire into the
        # replica catalogue and element map.
        for service_cls in (SystemService, VOService, ACLService, FileService,
                            DiscoveryService, ShellService, ProxyService, JobService,
                            MessagingService, SRMService, ReplicaService,
                            FabricService):
            self.add_service(service_cls(self))

    def add_service(self, service: ClarensService) -> ClarensService:
        """Register a service instance and publish its methods."""

        service.register(self.registry)
        self.services[service.service_name] = service
        return service

    # -- monitoring loop -------------------------------------------------------
    def _reporter_loop(self) -> None:
        """Periodically publish cache statistics onto the monitoring bus."""

        interval = self.config.cache_stats_interval
        while not self._reporter_stop.wait(timeout=interval):
            try:
                self.cache_reporter.publish(self.message_bus)
            except Exception:  # pragma: no cover - monitoring must never kill
                pass

    # -- authorization helper ---------------------------------------------------
    def require_admin(self, ctx: CallContext) -> str:
        """Raise AccessDeniedError unless the caller is a server administrator."""

        dn = ctx.require_dn()
        if not self.vo.is_admin(dn):
            raise AccessDeniedError(f"{dn} is not a server administrator")
        return dn

    def require_admin_or_peer(self, ctx: CallContext) -> str:
        """Raise AccessDeniedError unless the caller is an admin or a peer.

        Registered fabric peers authenticate with host credentials whose DNs
        sit in the peer registry's trust list; methods fenced this way (e.g.
        ``system.trace``) serve both operators and fabric-internal fan-outs.
        """

        dn = ctx.require_dn()
        if self.vo.is_admin(dn):
            return dn
        if self.fabric is not None and dn in self.fabric.registry.trusted_dns():
            return dn
        raise AccessDeniedError(
            f"{dn} is neither a server administrator nor a registered peer")

    # -- HTTP handling ------------------------------------------------------------
    def handle_request(self, request: HTTPRequest) -> HTTPResponse:
        """Route one request and log it: the loopback transport's handler.

        The socket frontends log each request themselves (they also see the
        ones that never parse), so they are wired to :meth:`route` and
        :meth:`begin_request`; every request is logged exactly once.
        """

        start = time.perf_counter()
        response = self.route(request)
        self.access_log.log(
            remote_addr=request.remote_addr,
            client_dn=request.client_dn,
            method=request.method,
            path=request.url_path,
            status=response.status,
            response_bytes=response.content_length(),
            duration_s=time.perf_counter() - start,
        )
        return response

    def route(self, request: HTTPRequest) -> HTTPResponse:
        """Dispatch one request through the router; never raises."""

        start = time.perf_counter()
        response = self.router.dispatch(request)
        if (self.telemetry is not None
                and request.url_path != self.config.rpc_path()):
            # RPCs record their spans inside the pipeline; traced *non-RPC*
            # requests (a peer's ranged LFN GET, file downloads) are spanned
            # here so remote reads link into the originating trace.
            self.telemetry.record_http(request, response.status,
                                       time.perf_counter() - start)
        return response

    def begin_request(self, request: HTTPRequest
                      ) -> HTTPResponse | Callable[[], HTTPResponse]:
        """The async frontend's loop-side entry point.

        An RPC POST is decoded once here and runs as far as it is loop-safe
        (see :meth:`RequestPipeline.begin_http`); every other route does
        file, peer or scrape IO and is handed back whole for the executor.
        """

        route, _ = self.router.resolve(request)
        if route is self._rpc_route and request.method == "POST":
            return self.pipeline.begin_http(request)
        return partial(self.route, request)

    def _handle_file_get(self, request: HTTPRequest, remainder: str) -> HTTPResponse:
        file_service = self.services.get("file")
        if file_service is None:
            raise HTTPError(404, "file service is not enabled on this server")
        return file_service.handle_get(request, remainder)  # type: ignore[attr-defined]

    def _handle_unrouted(self, request: HTTPRequest, remainder: str) -> HTTPResponse:
        # "Other URLs are handled transparently by the Apache server according
        # to its configuration" — for the reproduction that means a 404 unless
        # a deployment mounts extra routes on ``self.router``.
        raise HTTPError(404, f"no handler configured for {request.url_path}")

    # -- frontends -------------------------------------------------------------------
    def loopback(self, *, tls: bool = False,
                 require_client_cert: bool = False) -> LoopbackTransport:
        """An in-process transport bound to this server."""

        server_tls = None
        if tls:
            if self.credential is None:
                raise ValueError("TLS requires the server to hold a host credential")
            server_tls = TLSContext(credential=self.credential,
                                    trust_store=self.trust_store,
                                    require_client_cert=require_client_cert)
        return LoopbackTransport(self.handle_request, server_tls=server_tls,
                                 client_trust_store=self.trust_store)

    def socket_server(self, *, host: str = "127.0.0.1", port: int = 0,
                      keep_alive: bool = True) -> SocketHTTPServer:
        """A real threaded HTTP server bound to this Clarens instance."""

        return SocketHTTPServer(self.route, host=host, port=port,
                                keep_alive=keep_alive, access_log=self.access_log,
                                sendfile_enabled=self.config.sendfile_enabled)

    def async_server(self, *, host: str = "127.0.0.1", port: int = 0,
                     keep_alive: bool = True) -> AsyncHTTPServer:
        """The event-loop HTTP frontend bound to this Clarens instance.

        The transport-level in-flight budget (``async_max_inflight``) runs
        through its own :class:`AdmissionController` — one shared bucket for
        the whole loop — so overload surfaces exactly like per-identity
        shedding does: a ``RetryLaterError`` encoded as a protocol-correct
        ``RETRY_LATER`` fault (HTTP 429) plus a ``dispatch.throttled`` event
        on the monitoring bus.
        """

        cfg = self.config
        gate = None
        if cfg.async_max_inflight > 0:
            admission = AdmissionController(
                max_inflight=cfg.async_max_inflight,
                bus=self.message_bus, source=cfg.server_name)
            gate = lambda request: admission.admit(  # noqa: E731
                "<async-transport>", request.url_path)
        frontend = AsyncHTTPServer(
            self.route, begin=self.begin_request,
            host=host, port=port, keep_alive=keep_alive,
            executor_workers=cfg.async_executor_workers,
            max_connections=cfg.async_max_connections,
            gate=gate, overload_handler=self._overload_response,
            access_log=self.access_log,
            sendfile_enabled=cfg.sendfile_enabled)
        self.async_frontends.add(frontend)
        return frontend

    def frontend_stats(self) -> dict[str, float]:
        """Counters (summed) and loop lag (worst) of the live async frontends."""

        totals = dict.fromkeys(AsyncHTTPServer.STAT_NAMES, 0)
        for frontend in list(self.async_frontends):
            for name, value in frontend.stats().items():
                if name.startswith("loop_lag"):
                    totals[name] = max(totals[name], value)
                else:
                    totals[name] += value
        return totals

    def frontend(self, *, host: str = "127.0.0.1", port: int = 0,
                 keep_alive: bool = True) -> SocketHTTPServer | AsyncHTTPServer:
        """The socket frontend selected by the ``server_transport`` knob."""

        if self.config.server_transport == "async":
            return self.async_server(host=host, port=port, keep_alive=keep_alive)
        return self.socket_server(host=host, port=port, keep_alive=keep_alive)

    def _overload_response(self, request: HTTPRequest | None,
                           exc: BaseException | None) -> HTTPResponse:
        """A 429 for a request (or connection) the transport refused.

        RPC POSTs get a protocol-correct ``RETRY_LATER`` fault body in the
        codec the request was written in, so a Clarens client sees transport
        backpressure and pipeline throttling identically; everything else
        (file GETs, refused connections) gets a plain-text 429.
        """

        from repro.core.pipeline import encode_fault_cached
        from repro.protocols import Fault, ProtocolError, default_codec, detect_codec
        from repro.protocols.errors import FaultCode

        message = str(exc) if exc else "server is at capacity; retry later"
        retry_after = getattr(exc, "retry_after", 0.0) or 0.0
        if request is None or request.method != "POST" or not request.body:
            response = HTTPResponse.error(429, message)
        else:
            try:
                codec = detect_codec(request.body, request.content_type,
                                     enabled=self.pipeline.enabled_protocols)
            except ProtocolError:
                codec = default_codec()
            # The shed message is constant per identity, so under a sustained
            # overload burst this serves one pre-encoded body instead of
            # re-encoding the identical fault per refused request.
            body = encode_fault_cached(
                codec, Fault(FaultCode.RETRY_LATER, message))
            response = HTTPResponse(
                status=429, headers=Headers({"Content-Type": codec.content_type}),
                body=body)
        if retry_after > 0:
            response.headers.set("Retry-After", f"{retry_after:.3f}")
        return response

    # -- discovery helpers ---------------------------------------------------------
    def service_descriptor(self, url: str | None = None) -> dict:
        """The descriptor this server publishes to the discovery network."""

        return {
            "name": self.config.server_name,
            "url": url or f"loopback://{self.config.server_name}{self.config.rpc_path()}",
            "host_dn": self.config.host_dn or (
                str(self.credential.certificate.subject) if self.credential else ""),
            "services": self.registry.modules(),
            "methods": self.registry.list_methods(),
            "protocols": list(self.config.protocols()),
            "started_at": self.started_at,
        }

    # -- lifecycle --------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Flush database state to disk (sessions, VO, ACLs, methods)."""

        self.db.checkpoint()

    def close(self) -> None:
        self._reporter_stop.set()
        if self._reporter_thread is not None:
            self._reporter_thread.join(timeout=5.0)
            self._reporter_thread = None
        if self.telemetry is not None:
            self.telemetry.close()
        if self.invalidation_relay is not None:
            self.invalidation_relay.close()
        for service in self.services.values():
            service.on_stop()
        self.db.close()
        for tmp in self._owned_tempdirs:
            tmp.cleanup()
        self._owned_tempdirs.clear()

    def __enter__(self) -> "ClarensServer":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- convenience constructors -----------------------------------------------------
    @classmethod
    def with_test_pki(cls, config: ServerConfig | None = None, *,
                      ca_name: str = "/O=clarens.test/CN=Clarens Test CA",
                      hostname: str = "server.clarens.test",
                      extra_users: Iterable[str] = (),
                      **kwargs):
        """Build a server plus a CA and host credential, for tests and examples.

        Returns ``(server, ca)`` so callers can issue client certificates from
        the same CA the server trusts.
        """

        from repro.pki.authority import CertificateAuthority

        ca = CertificateAuthority(ca_name)
        host_credential = ca.issue_host(hostname)
        config = config or ServerConfig()
        if not config.host_dn:
            config = config.with_overrides(host_dn=str(host_credential.certificate.subject))
        server = cls(config, credential=host_credential, trust_store=ca.trust_store(),
                     **kwargs)
        for user in extra_users:
            ca.issue_user(user)
        return server, ca
