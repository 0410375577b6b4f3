"""Service base class and the ``@rpc_method`` decorator.

A Clarens service is a group of methods published under one module name
(``file``, ``vo``, ``acl``, ``shell``, ...).  Subclass :class:`ClarensService`,
decorate the methods to publish with :func:`rpc_method`, and the server
registers them as ``<service_name>.<method_name>``.

Methods may take a :class:`~repro.core.context.CallContext` as their first
argument by naming it ``ctx``; parameter-less utility methods can omit it.
"""

from __future__ import annotations

import inspect
from typing import Callable, Iterator

from repro.core.registry import MethodRegistry, RegisteredMethod

__all__ = ["ClarensService", "rpc_method"]

_RPC_ATTR = "__clarens_rpc__"


def rpc_method(name: str | None = None, *, signature: str = "", help: str = "",
               anonymous: bool = False, loop_safe: bool = False) -> Callable:
    """Mark a service method for publication.

    Parameters
    ----------
    name:
        The published method name (defaults to the Python name).
    signature, help:
        Documentation surfaced through ``system.method_signature`` and
        ``system.method_help``; defaults are inferred from the function.
    anonymous:
        When True the method may be called without an authenticated session
        (used by the authentication bootstrap methods themselves).
    loop_safe:
        When True the async frontend runs the method on its event loop
        instead of offloading it.  Only for methods that touch memory alone:
        anything doing VFS, peer, subprocess or journal-write IO — or
        CPU-heavy work such as signature checks — must stay unmarked, because
        it would stall every connection on the loop.
    """

    def decorate(func: Callable) -> Callable:
        setattr(func, _RPC_ATTR, {
            "name": name or func.__name__,
            "signature": signature,
            "help": help,
            "anonymous": anonymous,
            "loop_safe": loop_safe,
        })
        return func

    return decorate


class ClarensService:
    """Base class for Clarens services."""

    #: The module prefix under which methods are published.
    service_name: str = "service"

    def __init__(self, server) -> None:  # server: repro.core.server.ClarensServer
        self.server = server

    # -- registration ----------------------------------------------------------
    def iter_methods(self) -> Iterator[RegisteredMethod]:
        """Yield the RegisteredMethod descriptors for every decorated method."""

        for _, member in inspect.getmembers(self, predicate=callable):
            meta = getattr(member, _RPC_ATTR, None)
            if meta is None:
                continue
            yield RegisteredMethod(
                name=f"{self.service_name}.{meta['name']}",
                func=member,
                signature=meta["signature"],
                help=meta["help"] or (inspect.getdoc(member) or ""),
                anonymous=meta["anonymous"],
                service=self.service_name,
                loop_safe=meta["loop_safe"],
            )

    def register(self, registry: MethodRegistry) -> int:
        """Register every published method; returns how many were added."""

        methods = list(self.iter_methods())
        registry.register_service_methods(methods)
        return len(methods)

    # -- lifecycle hooks --------------------------------------------------------
    def on_start(self) -> None:
        """Called once when the owning server finishes assembly."""

    def on_stop(self) -> None:
        """Called when the owning server shuts down."""
