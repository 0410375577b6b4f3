"""Bridges between the existing observability surfaces and the registry.

Two mechanisms feed the :class:`~repro.telemetry.metrics.MetricsRegistry`
without any subsystem having to know telemetry exists:

* :class:`EventBridge` subscribes to the server's :class:`~repro.monitoring
  .bus.MessageBus` and counts every publication into
  ``clarens_bus_events_total{event=...}`` — the event label is the topic
  truncated to its first two dotted segments, which keeps cardinality
  bounded even for tag-bearing topics like ``cache.invalidate.<tag>``.
  Replica transfer lifecycle topics additionally land in
  ``clarens_replica_transfer_events_total{event=...}`` so heal/quarantine
  rates are first-class series.

* :func:`register_server_collectors` registers collect-time callbacks that
  sample the statistics surfaces the codebase already maintains — dispatch
  stats, the cache registry, admission, the transfer engine, the fabric —
  on every scrape.  No double bookkeeping: the scrape *is* the snapshot.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.monitoring.bus import Message, MessageBus
from repro.telemetry.metrics import MetricsRegistry

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.cache.registry import CacheRegistry
    from repro.core.server import ClarensServer

__all__ = ["EventBridge", "register_cache_collectors",
           "register_server_collectors"]


def _event_label(topic: str) -> str:
    """Topic → bounded label: the first two dotted segments."""

    parts = topic.split(".")
    return ".".join(parts[:2]) if len(parts) > 1 else topic


class EventBridge:
    """Counts every MessageBus publication into named metrics."""

    def __init__(self, bus: MessageBus, registry: MetricsRegistry) -> None:
        self._bus = bus
        self._events = registry.counter(
            "clarens_bus_events_total",
            "Monitoring-bus publications by event family.",
            labels=("event",))
        self._transfer_events = registry.counter(
            "clarens_replica_transfer_events_total",
            "Replica transfer lifecycle events (queued/done/failed/"
            "quarantine/...).",
            labels=("event",))
        self._sub_id = bus.subscribe("*", self._on_message)

    def _on_message(self, message: Message) -> None:
        try:
            self._events.inc(event=_event_label(message.topic))
            if message.topic.startswith("replica.transfer."):
                suffix = message.topic[len("replica.transfer."):]
                self._transfer_events.inc(event=suffix.split(".", 1)[0])
        except Exception:  # noqa: BLE001 - telemetry must never kill delivery
            pass

    def close(self) -> None:
        self._bus.unsubscribe(self._sub_id)


def register_cache_collectors(caches: "CacheRegistry",
                              registry: MetricsRegistry) -> bool:
    """Export the cache registry's stats as scrape-time metrics.

    Shared between :func:`register_server_collectors` and
    :class:`~repro.monitoring.cachemetrics.CacheStatsReporter` — idempotent,
    so whichever wires up first wins and the other is a no-op.  Returns
    whether this call registered the families.
    """

    def cache_counters():
        snap = caches.stats_snapshot()
        out = []
        for name, stats in snap["caches"].items():
            for kind in ("hits", "misses", "evictions", "expirations",
                         "invalidations"):
                out.append(({"cache": name, "kind": kind}, stats[kind]))
        return out

    def cache_sizes():
        snap = caches.stats_snapshot()
        return [({"cache": name}, stats["size"])
                for name, stats in snap["caches"].items()]

    try:
        registry.register_callback(
            "clarens_cache_operations_total",
            "Cache lookups and maintenance by cache and kind.", "counter",
            cache_counters)
    except ValueError:
        return False
    registry.register_callback(
        "clarens_cache_size", "Live entries per cache.", "gauge",
        cache_sizes)
    return True


def register_server_collectors(server: "ClarensServer",
                               registry: MetricsRegistry) -> None:
    """Export the server's existing stats surfaces as scrape-time metrics.

    Every callback samples lazily, tolerates missing subsystems (no fabric,
    no admission, caching off), and never raises into the scrape.
    """

    pipeline = server.pipeline

    # -- dispatch ----------------------------------------------------------
    def dispatch_counters():
        snap = pipeline.stats.snapshot()
        return [({"kind": "requests"}, snap["requests"]),
                ({"kind": "faults"}, snap["faults"]),
                ({"kind": "anonymous"}, snap["anonymous_requests"]),
                ({"kind": "throttled"}, snap["throttled"])]

    registry.register_callback(
        "clarens_dispatch_total",
        "Dispatched requests by outcome kind.", "counter", dispatch_counters)

    def stage_seconds():
        snap = pipeline.stats.snapshot()
        return [({"stage": name}, stage["seconds"])
                for name, stage in snap["stages"].items()]

    registry.register_callback(
        "clarens_dispatch_stage_seconds_total",
        "Cumulative wall-clock seconds spent per pipeline stage.",
        "counter", stage_seconds)

    def stage_calls():
        snap = pipeline.stats.snapshot()
        return [({"stage": name}, stage["calls"])
                for name, stage in snap["stages"].items()]

    registry.register_callback(
        "clarens_dispatch_stage_calls_total",
        "Pipeline stage executions.", "counter", stage_calls)

    # -- async frontend ----------------------------------------------------
    def frontend_lanes():
        snap = server.frontend_stats()
        return [({"lane": "inline"}, snap["requests_inline"]),
                ({"lane": "offloaded"}, snap["requests_offloaded"])]

    registry.register_callback(
        "clarens_httpd_requests_total",
        "Requests the async frontend answered on the event loop (inline) "
        "or through an executor hop (offloaded).", "counter", frontend_lanes)

    def loop_lag():
        snap = server.frontend_stats()
        return [({"stat": "last"}, snap["loop_lag_last_s"]),
                ({"stat": "max"}, snap["loop_lag_max_s"])]

    registry.register_callback(
        "clarens_httpd_loop_lag_seconds",
        "How late the event loop ran its periodic lag sample: the latest "
        "reading and the worst since start.", "gauge", loop_lag)

    # -- caches ------------------------------------------------------------
    register_cache_collectors(server.caches, registry)

    # -- sessions ----------------------------------------------------------
    registry.register_callback(
        "clarens_sessions_active", "Sessions currently in the session DB.",
        "gauge", lambda: [({}, server.sessions.count())])

    # -- monitoring bus ----------------------------------------------------
    def bus_counters():
        snap = server.message_bus.stats()
        return [({"kind": kind}, snap[kind])
                for kind in ("published", "delivered", "dropped")]

    registry.register_callback(
        "clarens_bus_messages_total",
        "MessageBus publications/deliveries/drops.", "counter", bus_counters)

    # -- admission (present only when configured) --------------------------
    def admission_counters():
        controller = pipeline.admission
        if controller is None:
            return []
        snap = controller.stats(top_k=0)
        return [({"kind": kind}, snap[kind])
                for kind in ("admitted", "throttled", "exempted")]

    registry.register_callback(
        "clarens_admission_total",
        "Admission-control decisions by kind.", "counter",
        admission_counters)

    registry.register_callback(
        "clarens_admission_identities",
        "Identities with live admission buckets.", "gauge",
        lambda: ([] if pipeline.admission is None
                 else [({}, pipeline.admission.stats(top_k=0)["identities"])]))

    # -- replica layer -----------------------------------------------------
    def replica_engine():
        service = server.services.get("replica")
        if service is None:
            return None
        return service.engine

    def transfer_counters():
        engine = replica_engine()
        if engine is None:
            return []
        snap = engine.stats()
        return [({"kind": "completed"}, snap["completed"]),
                ({"kind": "failed"}, snap["failed"]),
                ({"kind": "recovered"}, snap["recovered"])]

    registry.register_callback(
        "clarens_replica_transfers_total",
        "Finished replica transfers by outcome.", "counter",
        transfer_counters)

    registry.register_callback(
        "clarens_replica_transfer_bytes_total",
        "Bytes copied by the transfer engine.", "counter",
        lambda: ([] if replica_engine() is None else
                 [({}, replica_engine().stats()["bytes_transferred"])]))

    def transfer_queue():
        engine = replica_engine()
        if engine is None:
            return []
        snap = engine.stats()
        return [({"state": "queued"}, snap["queued"]),
                ({"state": "running"}, snap["running"])]

    registry.register_callback(
        "clarens_replica_transfer_queue",
        "Transfers currently queued or running.", "gauge", transfer_queue)

    # -- fabric (present only when peered) ---------------------------------
    def fabric_peers():
        fabric = server.fabric
        if fabric is None:
            return []
        snap = fabric.registry.stats()
        return [({"state": state}, count)
                for state, count in sorted(snap["by_state"].items())]

    registry.register_callback(
        "clarens_fabric_peers", "Registered fabric peers by health state.",
        "gauge", fabric_peers)

    def gossip_counters():
        fabric = server.fabric
        if fabric is None:
            return []
        snap = fabric.gossip.stats()
        return [({"kind": kind}, snap[kind])
                for kind in ("queued", "sent", "dropped", "send_failures",
                             "received", "applied", "rejected")]

    registry.register_callback(
        "clarens_fabric_gossip_total",
        "GossipBus message counters by kind.", "counter", gossip_counters)

    def channel_counters():
        fabric = server.fabric
        if fabric is None:
            return []
        out = []
        for name, channel in list(fabric.channels.items()):
            snap = channel.stats()
            for kind in ("calls", "faults", "transport_errors",
                         "reconnects"):
                out.append(({"peer": name, "kind": kind}, snap[kind]))
        return out

    registry.register_callback(
        "clarens_fabric_channel_total",
        "PeerChannel RPC counters by peer and kind.", "counter",
        channel_counters)

    registry.register_callback(
        "clarens_fabric_channel_seconds_total",
        "Cumulative seconds spent in peer RPCs, by peer.", "counter",
        lambda: ([] if server.fabric is None else
                 [({"peer": name}, channel.stats().get("call_seconds", 0.0))
                  for name, channel in list(server.fabric.channels.items())]))
