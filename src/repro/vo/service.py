"""The ``vo`` service: RPC access to Virtual Organization management.

Administrators of a group may add and delete members and lower-level groups;
the server ``admins`` group may manage everything (paper section 2.1).  The
methods below are thin RPC wrappers around
:class:`~repro.vo.model.VOManager`, with the caller DN taken from the call
context so the authorization rules are enforced server-side.
"""

from __future__ import annotations

from typing import Any

from repro.core.context import CallContext
from repro.core.service import ClarensService, rpc_method

__all__ = ["VOService"]


class VOService(ClarensService):
    """Virtual Organization management methods."""

    service_name = "vo"

    # -- queries -----------------------------------------------------------------
    @rpc_method(loop_safe=True)
    def list_groups(self, ctx: CallContext, prefix: str = "") -> list[str]:
        """List group names, optionally restricted to one branch."""

        return self.server.vo.list_groups(prefix or None)

    @rpc_method(loop_safe=True)
    def get_group(self, ctx: CallContext, name: str) -> dict[str, Any]:
        """Return one group's members, admins and metadata."""

        return self.server.vo.get_group(name).to_record()

    @rpc_method(loop_safe=True)
    def tree(self, ctx: CallContext) -> dict[str, Any]:
        """The whole group hierarchy as nested dictionaries."""

        return self.server.vo.tree()

    @rpc_method(loop_safe=True)
    def is_member(self, ctx: CallContext, dn: str, group: str) -> bool:
        """Whether ``dn`` is a member of ``group`` (including via hierarchy)."""

        return self.server.vo.is_member(dn, group)

    @rpc_method(loop_safe=True)
    def my_groups(self, ctx: CallContext) -> list[str]:
        """The groups the calling DN belongs to."""

        return self.server.vo.groups_for(ctx.require_dn())

    @rpc_method(loop_safe=True)
    def is_admin(self, ctx: CallContext, dn: str = "", group: str = "") -> bool:
        """Whether a DN (default: the caller) administers a group (default: server)."""

        target = dn or ctx.require_dn()
        return self.server.vo.is_admin(target, group or None)

    # -- mutation -----------------------------------------------------------------
    @rpc_method()
    def create_group(self, ctx: CallContext, name: str, members: list[str] = [],
                     admins: list[str] = [], description: str = "") -> dict[str, Any]:
        """Create a group (caller must administer the parent branch)."""

        group = self.server.vo.create_group(
            name, actor_dn=ctx.require_dn(), members=list(members or []),
            admins=list(admins or []), description=description)
        return group.to_record()

    @rpc_method()
    def delete_group(self, ctx: CallContext, name: str, recursive: bool = False) -> bool:
        """Delete a group (and optionally its sub-groups)."""

        self.server.vo.delete_group(name, actor_dn=ctx.require_dn(), recursive=bool(recursive))
        return True

    @rpc_method()
    def add_member(self, ctx: CallContext, group: str, dn: str) -> bool:
        """Add a DN (or DN prefix) to a group's member list."""

        self.server.vo.add_member(group, dn, actor_dn=ctx.require_dn())
        return True

    @rpc_method()
    def remove_member(self, ctx: CallContext, group: str, dn: str) -> bool:
        """Remove a DN from a group's member list."""

        self.server.vo.remove_member(group, dn, actor_dn=ctx.require_dn())
        return True

    @rpc_method()
    def add_admin(self, ctx: CallContext, group: str, dn: str) -> bool:
        """Add a DN to a group's administrator list."""

        self.server.vo.add_admin(group, dn, actor_dn=ctx.require_dn())
        return True

    @rpc_method()
    def remove_admin(self, ctx: CallContext, group: str, dn: str) -> bool:
        """Remove a DN from a group's administrator list."""

        self.server.vo.remove_admin(group, dn, actor_dn=ctx.require_dn())
        return True
