"""Server configuration.

PClarens read its settings from the Apache/mod_python configuration plus a
Clarens-specific configuration file; the pieces the paper calls out are the
static list of ``admins`` DNs (section 2.1), the virtual server root
directories for file serving (section 2.3), and the shell user map location
(section 2.5).  :class:`ServerConfig` gathers those plus the knobs the
reproduction's benchmarks sweep (caching, session lifetime, ACL checks).

Configurations can be built directly, from a dict, or parsed from an INI file
so the examples can ship human-editable config files.
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["ServerConfig", "ConfigError"]


class ConfigError(Exception):
    """Raised when a configuration file or mapping is invalid."""


@dataclass
class ServerConfig:
    """Configuration for one Clarens server instance."""

    #: Human-readable server name; also used as the discovery service id.
    server_name: str = "clarens"
    #: The server's host DN (matched against its host certificate when set).
    host_dn: str | None = None
    #: Directory for the server's databases.  ``None`` keeps everything in
    #: memory (no session persistence across restarts).
    data_dir: str | None = None
    #: DNs (or DN prefixes) of the server administrators; populates the
    #: ``admins`` VO group on every start.
    admins: list[str] = field(default_factory=list)
    #: Virtual server root for the file service (paper: "a virtual server root
    #: directory can be defined … which may be any directory on the server").
    file_root: str | None = None
    #: Root directory under which per-user shell sandboxes are created.
    shell_root: str | None = None
    #: Path of the shell service's DN -> system user map file.
    user_map_path: str | None = None
    #: URL prefix routed to Clarens (everything else is "handled transparently
    #: by the Apache server", i.e. the default handler).
    url_prefix: str = "/clarens"
    #: Seconds an idle session stays valid.
    session_lifetime: float = 24 * 3600.0
    #: Number of access-control checks performed per request (the paper's test
    #: notes two: session lookup and method ACL).  The ACL-overhead ablation
    #: benchmark sweeps this value.
    access_checks_per_request: int = 2
    #: Per-identity admission rate, requests/second per DN (anonymous callers
    #: share one bucket).  0 disables rate limiting; excess requests receive
    #: a RETRY_LATER fault (HTTP 429 on the plain endpoint).
    dispatch_rate_limit: float = 0.0
    #: Token-bucket capacity per identity (how many requests may burst above
    #: the steady rate).  0 derives the burst from the rate.
    dispatch_burst: float = 0.0
    #: Maximum concurrent in-flight requests per identity (0 = unlimited).
    dispatch_max_inflight: int = 0
    #: Maximum entries accepted in one system.multicall batch (0 = unlimited).
    #: A batch admits as a single request, so the cap bounds how much work
    #: one admission token can buy.
    dispatch_multicall_limit: int = 1000
    #: Lock shards for the dispatch statistics, so heavily threaded servers
    #: do not serialise the request hot path on one stats mutex.
    dispatch_stats_shards: int = 8
    #: Comma-separated, ordered list of the RPC codecs this server accepts
    #: and advertises to negotiating clients (``xml-rpc``, ``soap``,
    #: ``json-rpc``, ``binary``).  Requests in a protocol missing from the
    #: list are rejected with a clean parse fault; trimming the list to
    #: ``xml-rpc,soap,json-rpc`` yields a paper-mode server that refuses the
    #: binary fast path entirely.
    protocol_preference: str = "xml-rpc,soap,json-rpc,binary"
    #: Serve ``FilePayload`` bodies through ``os.sendfile`` (threaded
    #: frontend) / ``loop.sendfile`` (async frontend) so file GETs move
    #: kernel-to-kernel.  Off falls back to chunked userspace copies, which
    #: is also the automatic fallback where sendfile is unavailable.
    sendfile_enabled: bool = True
    #: Which socket frontend ``ClarensServer.frontend()`` builds: ``threaded``
    #: (one pooled thread per connection, the paper's Apache-like model) or
    #: ``async`` (one event loop for every connection, with pipelined parsing
    #: and a bounded executor for the blocking handler stack).
    server_transport: str = "threaded"
    #: Worker threads the async frontend offloads blocking work to: methods
    #: not marked ``loop_safe`` and every non-RPC route (marked methods run
    #: on the event loop itself).  0 runs everything inline on the loop —
    #: only sensible for sub-millisecond methods.
    async_executor_workers: int = 8
    #: Maximum connections the async frontend holds open at once; a surplus
    #: connection is answered 429 and closed instead of queueing unboundedly
    #: (0 = unlimited).
    async_max_connections: int = 0
    #: Maximum requests admitted into the async frontend concurrently
    #: (parsed but not yet answered).  Overflow surfaces as 429/RETRY_LATER
    #: through the admission machinery rather than an unbounded executor
    #: queue (0 = unlimited).
    async_max_inflight: int = 0
    #: When True, the method-list DB lookup performed by system.list_methods is
    #: cached; the paper explicitly ran with "no caching … on the server".
    cache_method_list: bool = False
    #: Master switch for the :mod:`repro.cache` subsystem (session validation,
    #: ACL decisions, discovery lookups, PKI chain verification).  Off by
    #: default so the out-of-the-box server matches the paper's uncached
    #: measurement setup.
    cache_enabled: bool = False
    #: Session-validation cache: maximum number of entries.
    cache_session_maxsize: int = 4096
    #: Session-validation cache: entry TTL, seconds.
    cache_session_ttl: float = 300.0
    #: ACL decision cache, keyed by (dn, kind, name): maximum entries.
    cache_acl_maxsize: int = 8192
    #: ACL decision cache: entry TTL, seconds.
    cache_acl_ttl: float = 300.0
    #: Discovery query-result cache: maximum entries.
    cache_discovery_maxsize: int = 1024
    #: Discovery query-result cache: entry TTL, seconds; the short default
    #: bounds how long an expired descriptor can keep appearing in results.
    cache_discovery_ttl: float = 5.0
    #: PKI chain-verification cache (successful verifications only): maximum
    #: entries.
    cache_pki_maxsize: int = 512
    #: PKI chain-verification cache: entry TTL, seconds.
    cache_pki_ttl: float = 600.0
    #: Lock shards per cache.  1 keeps one mutex and exact cache-wide LRU
    #: order; higher values split the key space across independently locked
    #: buckets so many-core servers do not serialise on one lock.
    cache_shards: int = 8
    #: Seconds between periodic cache-statistics publications onto the
    #: monitoring message bus (0 disables the reporter loop).
    cache_stats_interval: float = 0.0
    #: Allow any authenticated DN to call methods with no configured ACL.
    default_allow_authenticated: bool = True
    #: Allow unauthenticated (anonymous) calls to a small whitelist of system
    #: methods (system.list_methods and friends), matching the public
    #: discovery behaviour of deployed Clarens servers.
    allow_anonymous_system_calls: bool = True
    #: Maximum bytes a single file.read call may return.
    max_read_bytes: int = 8 * 1024 * 1024
    #: Interval between discovery re-publications, seconds.
    discovery_publish_interval: float = 30.0
    #: Name of this server's local storage element in the replica layer (the
    #: broker prefers it when resolving logical file names).
    replica_local_se: str = "local"
    #: Worker threads draining the replica transfer queue.
    replica_transfer_workers: int = 2
    #: Attempts per transfer before it is declared failed.
    replica_max_attempts: int = 3
    #: Base delay for the transfer retry backoff (doubles per attempt).
    replica_retry_delay: float = 0.05
    #: Write-ahead-journal replica transfers on the server database and
    #: replay incomplete entries when the engine restarts, so a crash
    #: mid-copy resumes instead of stranding the file.
    replica_journal_enabled: bool = False
    #: Default target number of healthy copies per logical file for the
    #: auto-heal policy engine (0 disables healing unless a prefix policy is
    #: installed via ``replica.set_policy``).
    replica_policy_default_copies: int = 0
    #: Seconds between periodic policy sweeps over the whole catalogue
    #: (0 = heal only in reaction to quarantine/transfer events on the bus).
    replica_heal_interval: float = 0.0
    #: Base anti-flap backoff after a failed heal attempt; doubles per
    #: consecutive failure on the same logical file.
    replica_heal_backoff: float = 0.25
    #: Static fabric peers, one ``name=url|dn`` entry per peer (or a single
    #: semicolon-separated string — DNs legally contain commas, so ``;``
    #: separates entries; ``|dn`` is optional but required for the peer to
    #: pass the inbound fabric fence — it is the DN that peer's channel
    #: authenticates with, typically its host certificate subject, and DNs
    #: contain ``=`` so ``|`` separates it from the URL).  Each entry
    #: becomes a PeerRegistry row with a pooled PeerChannel dialing the URL
    #: (authenticated with this server's host credential when present),
    #: wired into gossip, catalogue sync and the replica storage-element map
    #: at startup; tests and examples attach peers programmatically via
    #: ``server.fabric.add_peer`` instead.
    fabric_peers: list[str] = field(default_factory=list)
    #: Seconds between gossip flushes to the peers (cache invalidations,
    #: admission shed adverts, any topic added to the GossipBus).  0 disables
    #: the background flusher; ``server.fabric.gossip.flush()`` still works.
    fabric_gossip_interval: float = 0.0
    #: Seconds between catalogue anti-entropy rounds against each peer
    #: (per-LFN version-vector exchange; quarantine states win).  0 disables
    #: the loop; ``fabric.sync_now`` / ``sync_once()`` still work on demand.
    fabric_catalogue_sync: float = 0.0
    #: Fraction of the admission burst an identity keeps after a *peer*
    #: advertises shedding it (0 = drained to empty, so the next request
    #: pays a full refill wait).  Applies only when dispatch rate limiting
    #: is configured locally.
    fabric_admission_share: float = 0.0
    #: Master switch for the :mod:`repro.telemetry` subsystem: trace-context
    #: propagation and span recording, the unified metrics registry with its
    #: ``GET /metrics`` exposition, and the slow-request log.  Off by default
    #: so the out-of-the-box server matches the paper's uninstrumented
    #: measurements (trace headers from peers are then ignored entirely).
    telemetry_enabled: bool = False
    #: Capacity of the per-server span ring buffer queried by ``system.trace``
    #: (oldest spans are discarded first).
    telemetry_trace_buffer: int = 2048
    #: Slow-request budget in milliseconds: any request slower than this emits
    #: one structured log line with per-stage latency attribution and its
    #: trace id (0 disables the slow log).
    telemetry_slow_ms: float = 0.0
    #: How many slow-request records the in-memory ring retains.
    telemetry_slow_log_size: int = 256
    #: Declarative alert rules, one per entry (or a single ``;``-separated
    #: string), of the form ``name: kind(metric{label=value}) > N for Ds
    #: [severity=warning|critical]`` where kind is ``gauge``, ``counter`` or
    #: ``counter_rate`` (per-second increase between evaluations).  Evaluated
    #: by the background alert loop; firing/resolving publishes deduplicated
    #: ``telemetry.alert.*`` bus events that gossip fabric-wide.
    telemetry_alert_rules: list[str] = field(default_factory=list)
    #: Seconds between alert-rule evaluations and gossiped node-health
    #: summaries (0 disables the background beat; ``system.health`` and
    #: explicit engine calls still evaluate on demand).
    telemetry_alert_interval: float = 0.0
    #: Seconds a built ``GET /metrics/federation`` response is cached, so a
    #: burst of scrapes costs the fabric one fan-out, not one per scrape
    #: (0 rebuilds on every request).
    telemetry_federation_ttl: float = 5.0
    #: Shared deadline, in seconds, for per-peer fan-outs (trace collection
    #: via ``system.trace_tree``, the federated metrics scrape): peers that
    #: have not answered by then degrade the result to partial.
    telemetry_peer_timeout: float = 5.0
    #: Extra free-form settings (service-specific tuning, experiment labels).
    extra: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.server_name:
            raise ConfigError("server_name must be non-empty")
        if not self.url_prefix.startswith("/"):
            self.url_prefix = "/" + self.url_prefix
        self.url_prefix = self.url_prefix.rstrip("/") or "/clarens"
        if self.session_lifetime <= 0:
            raise ConfigError("session_lifetime must be positive")
        if self.access_checks_per_request < 0:
            raise ConfigError("access_checks_per_request cannot be negative")
        if self.max_read_bytes <= 0:
            raise ConfigError("max_read_bytes must be positive")
        for knob in ("cache_session_maxsize", "cache_session_ttl",
                     "cache_acl_maxsize", "cache_acl_ttl",
                     "cache_discovery_maxsize", "cache_discovery_ttl",
                     "cache_pki_maxsize", "cache_pki_ttl",
                     "cache_shards", "dispatch_stats_shards",
                     "replica_transfer_workers", "replica_max_attempts",
                     "telemetry_trace_buffer", "telemetry_slow_log_size"):
            if getattr(self, knob) <= 0:
                raise ConfigError(f"{knob} must be positive")
        for knob in ("dispatch_rate_limit", "dispatch_burst",
                     "dispatch_max_inflight", "dispatch_multicall_limit",
                     "async_executor_workers", "async_max_connections",
                     "async_max_inflight"):
            if getattr(self, knob) < 0:
                raise ConfigError(f"{knob} cannot be negative")
        if self.server_transport not in ("threaded", "async"):
            raise ConfigError(
                f"server_transport must be 'threaded' or 'async', "
                f"not {self.server_transport!r}")
        from repro.protocols.errors import ProtocolError
        from repro.protocols.negotiate import parse_protocol_list
        try:
            parsed = parse_protocol_list(str(self.protocol_preference))
        except ProtocolError as exc:
            raise ConfigError(f"protocol_preference: {exc}") from exc
        self.protocol_preference = ",".join(parsed)
        self.sendfile_enabled = bool(self.sendfile_enabled)
        if self.cache_stats_interval < 0:
            raise ConfigError("cache_stats_interval cannot be negative")
        if self.telemetry_slow_ms < 0:
            raise ConfigError("telemetry_slow_ms cannot be negative")
        for knob in ("telemetry_alert_interval", "telemetry_federation_ttl"):
            if getattr(self, knob) < 0:
                raise ConfigError(f"{knob} cannot be negative")
        if self.telemetry_peer_timeout <= 0:
            raise ConfigError("telemetry_peer_timeout must be positive")
        if isinstance(self.telemetry_alert_rules, str):
            self.telemetry_alert_rules = [
                r.strip() for r in self.telemetry_alert_rules.split(";")
                if r.strip()]
        self.telemetry_alert_rules = [str(r)
                                      for r in self.telemetry_alert_rules]
        if self.telemetry_alert_rules:
            # Fail at config time, not on the first beat of the background
            # alert loop; AlertRuleError is a ValueError with the rule text.
            from repro.telemetry.alerts import AlertRule, AlertRuleError
        for spec in self.telemetry_alert_rules:
            try:
                AlertRule.parse(spec)
            except AlertRuleError as exc:
                raise ConfigError(str(exc)) from exc
        if self.replica_retry_delay < 0:
            raise ConfigError("replica_retry_delay cannot be negative")
        if self.replica_policy_default_copies < 0:
            raise ConfigError("replica_policy_default_copies cannot be negative")
        if self.replica_heal_interval < 0:
            raise ConfigError("replica_heal_interval cannot be negative")
        if self.replica_heal_backoff < 0:
            raise ConfigError("replica_heal_backoff cannot be negative")
        if not self.replica_local_se:
            raise ConfigError("replica_local_se must be non-empty")
        for knob in ("fabric_gossip_interval", "fabric_catalogue_sync"):
            if getattr(self, knob) < 0:
                raise ConfigError(f"{knob} cannot be negative")
        if not (0.0 <= self.fabric_admission_share <= 1.0):
            raise ConfigError("fabric_admission_share must be within [0, 1]")
        if isinstance(self.fabric_peers, str):
            self.fabric_peers = [p.strip() for p in self.fabric_peers.split(";")
                                 if p.strip()]
        self.fabric_peers = [str(p) for p in self.fabric_peers]
        for spec in self.fabric_peers:
            # Fail at config time, not mid-server-assembly: on_start runs
            # inside ClarensServer.__init__, after worker threads exist.
            name, sep, rest = spec.partition("=")
            url = rest.partition("|")[0]
            if not sep or not name.strip() or not url.strip():
                raise ConfigError(
                    f"fabric_peers entry {spec!r} is not of the form "
                    f"name=url or name=url|dn")
        self.admins = [str(a) for a in self.admins]

    # -- constructors --------------------------------------------------------
    @classmethod
    def from_mapping(cls, mapping: Mapping[str, Any]) -> "ServerConfig":
        known = {f for f in cls.__dataclass_fields__}  # noqa: C416
        kwargs: dict[str, Any] = {}
        extra: dict[str, Any] = {}
        for key, value in mapping.items():
            if key in known and key != "extra":
                kwargs[key] = value
            else:
                extra[key] = value
        if "extra" in mapping and isinstance(mapping["extra"], dict):
            extra.update(mapping["extra"])
        kwargs["extra"] = extra
        try:
            return cls(**kwargs)
        except TypeError as exc:
            raise ConfigError(f"invalid configuration: {exc}") from exc

    @classmethod
    def from_ini(cls, path: str | Path) -> "ServerConfig":
        """Parse an INI file with ``[server]``, ``[admins]`` and ``[extra]`` sections."""

        parser = configparser.ConfigParser()
        read = parser.read(str(path))
        if not read:
            raise ConfigError(f"configuration file not found: {path}")
        mapping: dict[str, Any] = {}
        if parser.has_section("server"):
            for key, value in parser.items("server"):
                mapping[key] = _coerce(value)
        if parser.has_section("admins"):
            mapping["admins"] = [v for _, v in parser.items("admins")]
        if parser.has_section("extra"):
            mapping["extra"] = {k: _coerce(v) for k, v in parser.items("extra")}
        return cls.from_mapping(mapping)

    def to_ini(self, path: str | Path) -> Path:
        """Write the configuration out as an INI file (for the examples)."""

        parser = configparser.ConfigParser()
        parser["server"] = {}
        for key in ("server_name", "host_dn", "data_dir", "file_root", "shell_root",
                    "user_map_path", "url_prefix", "session_lifetime",
                    "access_checks_per_request", "dispatch_rate_limit",
                    "dispatch_burst", "dispatch_max_inflight",
                    "dispatch_multicall_limit",
                    "dispatch_stats_shards", "protocol_preference",
                    "sendfile_enabled", "server_transport",
                    "async_executor_workers", "async_max_connections",
                    "async_max_inflight", "cache_method_list",
                    "cache_enabled", "cache_session_maxsize", "cache_session_ttl",
                    "cache_acl_maxsize", "cache_acl_ttl",
                    "cache_discovery_maxsize", "cache_discovery_ttl",
                    "cache_pki_maxsize", "cache_pki_ttl",
                    "cache_shards", "cache_stats_interval",
                    "default_allow_authenticated", "allow_anonymous_system_calls",
                    "max_read_bytes", "discovery_publish_interval",
                    "replica_local_se", "replica_transfer_workers",
                    "replica_max_attempts", "replica_retry_delay",
                    "replica_journal_enabled", "replica_policy_default_copies",
                    "replica_heal_interval", "replica_heal_backoff",
                    "fabric_gossip_interval", "fabric_catalogue_sync",
                    "fabric_admission_share", "telemetry_enabled",
                    "telemetry_trace_buffer", "telemetry_slow_ms",
                    "telemetry_slow_log_size", "telemetry_alert_interval",
                    "telemetry_federation_ttl", "telemetry_peer_timeout"):
            value = getattr(self, key)
            if value is not None:
                parser["server"][key] = str(value)
        if self.fabric_peers:
            parser["server"]["fabric_peers"] = ";".join(self.fabric_peers)
        if self.telemetry_alert_rules:
            parser["server"]["telemetry_alert_rules"] = \
                ";".join(self.telemetry_alert_rules)
        parser["admins"] = {f"admin{i}": dn for i, dn in enumerate(self.admins)}
        if self.extra:
            parser["extra"] = {k: str(v) for k, v in self.extra.items()}
        path = Path(path)
        with path.open("w", encoding="utf-8") as fh:
            parser.write(fh)
        return path

    # -- helpers -------------------------------------------------------------
    def protocols(self) -> tuple[str, ...]:
        """``protocol_preference`` parsed into an ordered name tuple."""

        return tuple(part for part in self.protocol_preference.split(",") if part)

    def rpc_path(self) -> str:
        return f"{self.url_prefix}/rpc"

    def file_path(self) -> str:
        return f"{self.url_prefix}/file"

    def portal_path(self) -> str:
        return f"{self.url_prefix}/portal"

    def with_overrides(self, **overrides: Any) -> "ServerConfig":
        """A copy of this config with selected fields replaced."""

        data = {f: getattr(self, f) for f in self.__dataclass_fields__}
        data.update(overrides)
        return ServerConfig(**data)


def _coerce(value: str) -> Any:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "on"):
        return True
    if lowered in ("false", "no", "off"):
        return False
    if lowered in ("none", "null", ""):
        return None
    try:
        return int(value)
    except ValueError:
        pass
    try:
        return float(value)
    except ValueError:
        pass
    return value


def _admin_list(value: str | Sequence[str]) -> list[str]:  # pragma: no cover - helper
    if isinstance(value, str):
        return [v.strip() for v in value.split(",") if v.strip()]
    return [str(v) for v in value]
