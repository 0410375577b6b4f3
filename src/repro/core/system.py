"""The ``system`` service.

Every Clarens server publishes a ``system`` module with introspection and
authentication methods.  ``system.list_methods`` is the method the paper's
performance test calls one thousand times per batch; the other methods cover
login (challenge/response, TLS, proxy), logout, session renewal and server
information used by the discovery service and the portal.
"""

from __future__ import annotations

import time
from typing import Any, Sequence

from repro.core.context import CallContext
from repro.core.errors import AuthenticationError, NotFoundError
from repro.core.service import ClarensService, rpc_method
from repro.pki.certificate import Certificate

__all__ = ["SystemService"]


def _decode_chain(chain_data: Sequence[dict]) -> list[Certificate]:
    return [Certificate.from_dict(item) for item in chain_data]


class SystemService(ClarensService):
    """Introspection, authentication and housekeeping methods."""

    service_name = "system"

    # -- introspection -------------------------------------------------------------
    @rpc_method(anonymous=True, loop_safe=True)
    def list_methods(self) -> list[str]:
        """Return the names of every method published by this server."""

        return self.server.registry.list_methods()

    @rpc_method(anonymous=True, loop_safe=True)
    def method_signature(self, name: str) -> str:
        """Return the signature string of a published method."""

        return self.server.registry.method_signature(name)

    @rpc_method(anonymous=True, loop_safe=True)
    def method_help(self, name: str) -> str:
        """Return the documentation string of a published method."""

        return self.server.registry.method_help(name)

    @rpc_method(anonymous=True, loop_safe=True)
    def list_services(self) -> list[str]:
        """Return the module names (services) hosted by this server."""

        return self.server.registry.modules()

    @rpc_method(anonymous=True, loop_safe=True)
    def describe_methods(self) -> list[dict[str, Any]]:
        """Return metadata (name, signature, help) for every method."""

        return self.server.registry.describe()

    @rpc_method(anonymous=True, loop_safe=True)
    def server_info(self) -> dict[str, Any]:
        """Return server identity and capability information."""

        config = self.server.config
        return {
            "server_name": config.server_name,
            "host_dn": config.host_dn or "",
            "url_prefix": config.url_prefix,
            "protocols": list(config.protocols()),
            "services": self.server.registry.modules(),
            "version": "1.0.0",
            "time": time.time(),
        }

    @rpc_method(anonymous=True, loop_safe=True)
    def ping(self) -> str:
        """Liveness probe; returns the constant string ``pong``."""

        return "pong"

    @rpc_method(anonymous=True, loop_safe=True)
    def echo(self, value: Any = "") -> Any:
        """Return the argument unchanged (round-trip / serialization test)."""

        return value

    @rpc_method(anonymous=True, loop_safe=True)
    def multicall(self, ctx: CallContext, calls: list) -> list:
        """Execute a batch of calls in one request (XML-RPC multicall).

        ``calls`` is an array of ``{"methodName": str, "params": array}``
        structs.  The batch is decoded and authenticated once, and the
        method-ACL check runs once per distinct method; under admission
        control a batch of N entries is charged N tokens, so batching
        amortizes parsing but never the rate limit.  Each result slot is
        ``[value]`` on success or a ``{"faultCode", "faultString"}`` struct
        on failure, so one bad entry never aborts the batch.
        """

        return self.server.pipeline.run_multicall(ctx, calls)

    # -- authentication -------------------------------------------------------------
    @rpc_method(anonymous=True, loop_safe=True)
    def get_challenge(self, dn: str) -> str:
        """Issue an authentication challenge (nonce) for ``dn``."""

        return self.server.authenticator.issue_challenge(dn)

    @rpc_method(anonymous=True)
    def auth(self, dn: str, signature_hex: str, chain: list[dict]) -> dict[str, Any]:
        """Authenticate with a signed challenge and certificate chain.

        ``signature_hex`` is the hexadecimal signature over the challenge
        nonce; ``chain`` is the certificate chain as dictionaries (end entity
        or proxy first).  Returns the new session descriptor.
        """

        try:
            signature = int(signature_hex, 16)
        except (TypeError, ValueError) as exc:
            raise AuthenticationError(f"malformed signature: {exc}") from exc
        certificates = _decode_chain(chain)
        session = self.server.authenticator.login_with_signature(dn, signature, certificates)
        return {"session_id": session.session_id, "dn": session.dn,
                "expires": session.expires, "method": session.method}

    @rpc_method(anonymous=True)
    def auth_tls(self, ctx: CallContext) -> dict[str, Any]:
        """Create a session from the TLS-verified client certificate."""

        client_dn = ctx.request.client_dn if ctx.request is not None else None
        session = self.server.authenticator.login_tls(client_dn)
        return {"session_id": session.session_id, "dn": session.dn,
                "expires": session.expires, "method": session.method}

    @rpc_method(anonymous=True)
    def auth_proxy(self, chain: list[dict]) -> dict[str, Any]:
        """Authenticate with a proxy certificate chain (delegation login)."""

        certificates = _decode_chain(chain)
        session = self.server.authenticator.login_with_proxy(certificates)
        return {"session_id": session.session_id, "dn": session.dn,
                "expires": session.expires, "method": session.method}

    @rpc_method(loop_safe=True)
    def whoami(self, ctx: CallContext) -> dict[str, Any]:
        """Return the authenticated identity of the caller."""

        return {
            "dn": ctx.dn or "",
            "authenticated": ctx.authenticated,
            "session_id": ctx.session.session_id if ctx.session else "",
            "groups": self.server.vo.groups_for(ctx.dn) if ctx.dn else [],
        }

    @rpc_method()
    def renew_session(self, ctx: CallContext) -> dict[str, Any]:
        """Extend the calling session's lifetime."""

        if ctx.session is None:
            raise AuthenticationError("no session to renew")
        session = self.server.sessions.renew(ctx.session.session_id)
        return {"session_id": session.session_id, "expires": session.expires}

    @rpc_method()
    def logout(self, ctx: CallContext) -> bool:
        """Destroy the calling session."""

        if ctx.session is None:
            raise AuthenticationError("no session to log out of")
        return self.server.authenticator.logout(ctx.session.session_id)

    # -- housekeeping ------------------------------------------------------------------
    @rpc_method(loop_safe=True)
    def session_count(self, ctx: CallContext) -> int:
        """Number of live sessions (administrators only)."""

        self.server.require_admin(ctx)
        return self.server.sessions.count()

    @rpc_method()
    def purge_sessions(self, ctx: CallContext) -> int:
        """Remove expired sessions; returns how many were purged (admins only)."""

        self.server.require_admin(ctx)
        return self.server.sessions.purge_expired()

    @rpc_method(loop_safe=True)
    def stats(self, ctx: CallContext) -> dict[str, Any]:
        """Dispatcher statistics (request counts, fault counts, latency).

        Under admission control the snapshot additionally carries an
        ``admission`` block with per-identity counters (admitted/throttled/
        fabric-shed per DN, top-K by throttle pressure) so operators can see
        exactly who fabric-wide shedding is targeting.  ``async_frontend``
        carries the event-loop frontend's counters — how many requests took
        the inline lane and how many the executor hop — and its loop lag in
        seconds (latest sample and worst since start): a blocking method
        wrongly marked ``loop_safe`` shows up there.
        """

        self.server.require_admin(ctx)
        snapshot = self.server.dispatcher.stats_snapshot()
        controller = getattr(self.server.pipeline, "admission", None)
        snapshot["admission"] = (controller.stats()
                                 if controller is not None else None)
        snapshot["async_frontend"] = self.server.frontend_stats()
        return snapshot

    @rpc_method()
    def trace(self, ctx: CallContext, trace_id: str = "",
              limit: int = 100) -> dict[str, Any]:
        """Spans recorded by this server's telemetry ring.

        With ``trace_id`` set, returns every retained span of that trace;
        otherwise the ``limit`` most recent spans.  Open to administrators
        and to registered fabric peers — peers call this during
        ``system.trace_tree`` fan-outs to contribute their half of a
        federation-wide trace.  Faults with NotFound when telemetry is
        disabled on this server.
        """

        self.server.require_admin_or_peer(ctx)
        telemetry = self.server.telemetry
        if telemetry is None:
            raise NotFoundError("telemetry is not enabled on this server")
        return {
            "server": self.server.config.server_name,
            "spans": telemetry.trace_records(trace_id=str(trace_id or ""),
                                             limit=int(limit)),
            "slow_requests": telemetry.slow_log.entries(),
            "stats": telemetry.stats(),
        }

    @rpc_method()
    def trace_tree(self, ctx: CallContext, trace_id: str,
                   timeout: float = 0.0) -> dict[str, Any]:
        """The assembled fabric-wide span tree for ``trace_id`` (admins only).

        Fans out ``system.trace`` to every registered peer in parallel,
        merges the spans with this server's own and returns one parent/child
        tree.  Unreachable peers mark the result ``partial`` (with a reason
        per peer) instead of failing the call.  ``timeout`` overrides the
        configured per-peer budget when positive.  Faults with NotFound when
        telemetry is disabled on this server.
        """

        self.server.require_admin(ctx)
        telemetry = self.server.telemetry
        if telemetry is None or telemetry.collector is None:
            raise NotFoundError("telemetry is not enabled on this server")
        budget = float(timeout) if float(timeout) > 0 else None
        return telemetry.collector.collect(str(trace_id), timeout=budget)

    @rpc_method()
    def health(self, ctx: CallContext) -> dict[str, Any]:
        """The composed health model: local probes, alerts, and fleet view.

        Any authenticated identity may ask — health is operational, not
        secret.  Faults with NotFound when telemetry is disabled on this
        server; the unauthenticated ``GET /healthz`` endpoint serves the
        local summary only.
        """

        ctx.require_dn()
        telemetry = self.server.telemetry
        if telemetry is None or telemetry.health is None:
            raise NotFoundError("telemetry is not enabled on this server")
        return telemetry.health.evaluate()

    @rpc_method()
    def metrics(self, ctx: CallContext) -> dict[str, Any]:
        """The metrics registry, as a structured snapshot plus the text
        exposition also served at ``GET /metrics`` (admins only).

        Faults with NotFound when telemetry is disabled on this server.
        """

        self.server.require_admin(ctx)
        telemetry = self.server.telemetry
        if telemetry is None:
            raise NotFoundError("telemetry is not enabled on this server")
        return {"metrics": telemetry.registry.collect(),
                "exposition": telemetry.registry.render()}

    @rpc_method(loop_safe=True)
    def cache_stats(self, ctx: CallContext) -> dict[str, Any]:
        """Hot-path cache statistics per named cache (admins only)."""

        self.server.require_admin(ctx)
        snapshot = self.server.caches.stats_snapshot()
        snapshot["enabled"] = self.server.config.cache_enabled
        snapshot["invalidations_published"] = self.server.invalidation.published
        return snapshot

    @rpc_method(anonymous=True, loop_safe=True)
    def get_time(self) -> float:
        """Server wall-clock time (seconds since the epoch)."""

        return time.time()

    @rpc_method(anonymous=True, loop_safe=True)
    def version(self) -> str:
        """Framework version string."""

        return "1.0.0"

    @rpc_method(loop_safe=True)
    def lookup_method(self, name: str) -> dict[str, Any]:
        """Full metadata for one method (raises NotFound for unknown names)."""

        for entry in self.server.registry.describe():
            if entry["name"] == name:
                return entry
        raise NotFoundError(f"no such method: {name}")
