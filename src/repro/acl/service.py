"""The ``acl`` service: RPC access to ACL management.

Only server administrators (the ``admins`` VO group) and ACL-delegated
administrators may change ACLs; everyone may query the ACL that applies to a
method or file they can access, which is what the portal's ACL-management
component displays.
"""

from __future__ import annotations

from typing import Any

from repro.acl.model import ACL, FileACL
from repro.core.context import CallContext
from repro.core.service import ClarensService, rpc_method

__all__ = ["ACLService"]


class ACLService(ClarensService):
    """Access-control-list management methods."""

    service_name = "acl"

    # -- method ACLs -------------------------------------------------------------
    @rpc_method()
    def set_method_acl(self, ctx: CallContext, level: str, acl: dict) -> bool:
        """Attach an ACL to a method hierarchy level (e.g. ``file`` or ``file.read``)."""

        self.server.acl.set_method_acl(level, ACL.from_record(acl),
                                       actor_dn=ctx.require_dn())
        return True

    @rpc_method(loop_safe=True)
    def get_method_acl(self, ctx: CallContext, level: str) -> dict[str, Any]:
        """The ACL attached directly to ``level`` (empty dict when none)."""

        acl = self.server.acl.get_method_acl(level)
        return acl.to_record() if acl is not None else {}

    @rpc_method()
    def remove_method_acl(self, ctx: CallContext, level: str) -> bool:
        """Remove the ACL attached to a method hierarchy level."""

        return self.server.acl.remove_method_acl(level, actor_dn=ctx.require_dn())

    @rpc_method(loop_safe=True)
    def list_method_acls(self, ctx: CallContext) -> dict[str, Any]:
        """All method ACLs, keyed by hierarchy level."""

        return {level: acl.to_record()
                for level, acl in self.server.acl.list_method_acls().items()}

    @rpc_method(loop_safe=True)
    def check_method(self, ctx: CallContext, method: str, dn: str = "") -> dict[str, Any]:
        """Evaluate whether a DN (default: the caller) may invoke ``method``."""

        target = dn or ctx.require_dn()
        decision = self.server.acl.check_method(target, method)
        return {"allowed": decision.allowed, "decided_by": decision.decided_by or "",
                "reason": decision.reason}

    # -- file ACLs -----------------------------------------------------------------
    @rpc_method()
    def set_file_acl(self, ctx: CallContext, path: str, read_acl: dict,
                     write_acl: dict) -> bool:
        """Attach read/write ACLs to a file or directory path."""

        file_acl = FileACL(read=ACL.from_record(read_acl), write=ACL.from_record(write_acl))
        self.server.acl.set_file_acl(path, file_acl, actor_dn=ctx.require_dn())
        return True

    @rpc_method(loop_safe=True)
    def get_file_acl(self, ctx: CallContext, path: str) -> dict[str, Any]:
        """The file ACL attached directly to ``path`` (empty dict when none)."""

        file_acl = self.server.acl.get_file_acl(path)
        return file_acl.to_record() if file_acl is not None else {}

    @rpc_method()
    def remove_file_acl(self, ctx: CallContext, path: str) -> bool:
        """Remove the ACL attached to a file or directory path."""

        return self.server.acl.remove_file_acl(path, actor_dn=ctx.require_dn())

    @rpc_method(loop_safe=True)
    def list_file_acls(self, ctx: CallContext) -> dict[str, Any]:
        """All file ACLs, keyed by path."""

        return {path: acl.to_record()
                for path, acl in self.server.acl.list_file_acls().items()}

    @rpc_method(loop_safe=True)
    def check_file(self, ctx: CallContext, path: str, operation: str,
                   dn: str = "") -> dict[str, Any]:
        """Evaluate whether a DN (default: the caller) may read/write ``path``."""

        target = dn or ctx.require_dn()
        decision = self.server.acl.check_file(target, path, operation)
        return {"allowed": decision.allowed, "decided_by": decision.decided_by or "",
                "reason": decision.reason}
