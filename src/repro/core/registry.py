"""The method registry.

Every web-service method published by a Clarens server is registered here
under its hierarchical name (``module.method``).  The registry is mirrored
into a database table because the paper's performance test stresses exactly
that path: "each request incurring a database lookup for all registered
methods in the server, and serializing the resultant list of more than 30
strings as an array response" — ``system.list_methods`` reads the table, not
an in-memory dict, unless the configuration enables caching.
"""

from __future__ import annotations

import inspect
import threading
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable

from repro.core.errors import NotFoundError
from repro.database import Database

__all__ = ["RegisteredMethod", "MethodRegistry"]


@dataclass(frozen=True)
class RegisteredMethod:
    """Metadata for one published method."""

    name: str
    func: Callable
    signature: str = ""
    help: str = ""
    #: Methods flagged anonymous may be called without a session (used for the
    #: system.* bootstrap calls such as get_challenge and auth).
    anonymous: bool = False
    service: str = ""
    #: The method touches memory alone (no VFS, peer, subprocess or journal
    #: IO), so the async frontend may run it to completion on the event loop
    #: instead of paying an executor hop.  Off unless the service says so.
    loop_safe: bool = False

    @property
    def module(self) -> str:
        return self.name.split(".", 1)[0]


class MethodRegistry:
    """Registry of callable web-service methods."""

    def __init__(self, database: Database | None = None, *, cache_method_list: bool = False) -> None:
        self._methods: dict[str, RegisteredMethod] = {}
        self._lock = threading.Lock()
        self._table = database.table("methods") if database is not None else None
        self.cache_method_list = cache_method_list
        self._cached_names: list[str] | None = None

    # -- registration ----------------------------------------------------------
    def register(self, name: str, func: Callable, *, signature: str = "",
                 help: str = "", anonymous: bool = False, service: str = "",
                 loop_safe: bool = False) -> RegisteredMethod:
        """Register ``func`` under the hierarchical ``name``."""

        if not name or name.startswith(".") or name.endswith("."):
            raise ValueError(f"invalid method name {name!r}")
        if not signature:
            signature = _infer_signature(func)
        if not help:
            help = inspect.getdoc(func) or ""
        method = RegisteredMethod(name=name, func=func, signature=signature,
                                  help=help, anonymous=anonymous, service=service,
                                  loop_safe=loop_safe)
        with self._lock:
            self._methods[name] = method
            self._cached_names = None
        if self._table is not None:
            self._table.put(name, {
                "name": name,
                "signature": signature,
                "help": help,
                "anonymous": anonymous,
                "service": service,
            })
        return method

    def register_service_methods(self, methods: Iterable[RegisteredMethod]) -> None:
        for method in methods:
            self.register(method.name, method.func, signature=method.signature,
                          help=method.help, anonymous=method.anonymous,
                          service=method.service, loop_safe=method.loop_safe)

    def unregister(self, name: str) -> bool:
        with self._lock:
            removed = self._methods.pop(name, None)
            self._cached_names = None
        if self._table is not None:
            self._table.delete(name)
        return removed is not None

    # -- lookup ------------------------------------------------------------------
    def lookup(self, name: str) -> RegisteredMethod:
        with self._lock:
            method = self._methods.get(name)
        if method is None:
            raise NotFoundError(f"no such method: {name}")
        return method

    def __contains__(self, name: object) -> bool:
        with self._lock:
            return name in self._methods

    def __len__(self) -> int:
        with self._lock:
            return len(self._methods)

    def list_methods(self) -> list[str]:
        """The sorted method names, via the database unless caching is enabled.

        This is deliberately the expensive path the paper measured; with
        ``cache_method_list`` enabled (the ABL-ACL ablation) the database
        round-trip is skipped after the first call.
        """

        if self.cache_method_list and self._cached_names is not None:
            return list(self._cached_names)
        if self._table is not None:
            names = sorted(record["name"] for record in self._table.all())
        else:
            with self._lock:
                names = sorted(self._methods)
        if self.cache_method_list:
            self._cached_names = list(names)
        return names

    def methods_for_module(self, module: str) -> list[str]:
        return [n for n in self.list_methods() if n == module or n.startswith(module + ".")]

    def modules(self) -> list[str]:
        return sorted({name.split(".", 1)[0] for name in self.list_methods()})

    def method_signature(self, name: str) -> str:
        return self.lookup(name).signature

    def method_help(self, name: str) -> str:
        return self.lookup(name).help

    def describe(self) -> list[dict[str, Any]]:
        """Method metadata for the discovery service and the portal."""

        with self._lock:
            methods = list(self._methods.values())
        return [
            {"name": m.name, "signature": m.signature, "help": m.help,
             "anonymous": m.anonymous, "service": m.service}
            for m in sorted(methods, key=lambda m: m.name)
        ]


def _infer_signature(func: Callable) -> str:
    """Build a human-readable signature string from the Python signature."""

    try:
        sig = inspect.signature(func)
    except (TypeError, ValueError):
        return "(...)"
    params = [
        name for name, param in sig.parameters.items()
        if name not in ("self", "ctx", "context")
        and param.kind not in (inspect.Parameter.VAR_KEYWORD,)
    ]
    return "(" + ", ".join(params) + ")"
