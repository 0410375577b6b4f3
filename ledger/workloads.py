"""The ledger's six workloads: seeded inputs, the calls, and their checks.

A workload is a server configuration plus, per connection, a fixed cycle of
operations generated from ``--seed`` alone.  The server only ever sees the
generated inputs; sizes and mixes do not depend on the seed, so runs on
different seeds do the same amount of work on different bytes.

Both passes share this module: the end-to-end pass performs the operations
over a real socket, the traced pass replays the same operations in process.
"""

from __future__ import annotations

import functools
import random
import zlib
from dataclasses import dataclass, field
from typing import Any

#: Closed-loop callers.  2 = nproc of the reference sandbox: one client
#: thread per connection, each waiting for its reply before sending again.
CONNECTIONS = 2

# Operation kinds.
LIST, ECHO, MULTICALL, GET, WRITE, READ = range(6)
KIND_NAMES = ("list", "echo", "multicall", "get", "write", "read")
RPC_METHOD = {LIST: "system.list_methods", ECHO: "system.echo",
              MULTICALL: "system.multicall", WRITE: "file.write",
              READ: "file.read"}

MULTICALL_ENTRIES = 50
MULTICALL_BATCHES = 64      # distinct batches, so no exact-bytes memo can answer
FILE_COUNT = 8
FILE_BYTES = 4 << 20
CHUNK_BYTES = 64 << 10
RW_PATHS = 16               # file_rpc_rw rotates over this many paths in total


class Op:
    """One operation: what to send, what must come back, its useful bytes."""

    __slots__ = ("kind", "arg", "expect", "payload")

    def __init__(self, kind: int, arg: Any = None, expect: Any = None,
                 payload: int = 0) -> None:
        self.kind = kind
        self.arg = arg
        self.expect = expect
        self.payload = payload

    def rpc_params(self) -> tuple:
        """The positional RPC parameters of this operation (RPC kinds only)."""

        if self.kind == LIST:
            return ()
        if self.kind == ECHO:
            return (self.arg,)
        if self.kind == MULTICALL:
            return ([{"methodName": method, "params": list(params)}
                     for method, params in self.arg],)
        if self.kind == WRITE:
            return (self.arg[0], self.arg[1])
        return (self.arg[0], 0, self.arg[1])            # READ


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``ServerConfig`` knobs; each is passed only if the field still exists.
    knobs: dict = field(default_factory=dict)
    #: Keyword arguments for ``ClarensClient.for_url`` / ``for_loopback``.
    client: dict = field(default_factory=dict)
    #: Which fixture the server root needs: "" | "get" | "rw".
    files: str = ""
    #: One ``/metrics`` scrape closes the run (the telemetry workload).
    scrape: bool = False


WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        "rpc_small",
        "Fig. 4: authenticated XML-RPC list_methods:echo 4:1 on the async "
        "frontend; per-request fixed cost dominates, payload and file layers idle",
        knobs={"server_transport": "async"}),
    Workload(
        "rpc_small_threaded",
        "byte-identical rpc_small inputs on the threaded frontend: the bypass "
        "for httpd/aio.py changes and the gate for flipping the default frontend",
        knobs={"server_transport": "threaded"}),
    Workload(
        "rpc_small_binary_observed",
        "same calls over negotiated CRB1 with telemetry on: smallest base cost, "
        "so the telemetry tax and binary memos weigh most; rpc_small bypasses both",
        knobs={"server_transport": "async", "telemetry_enabled": True},
        client={"negotiate": True}, scrape=True),
    Workload(
        "rpc_multicall",
        "one op = a 50-entry XML-RPC multicall of seeded structs (~18 KB, 64 "
        "distinct batches): codec parse/serialise and run_multicall dominate",
        knobs={"server_transport": "async"}),
    Workload(
        "file_get",
        "HTTP GET of 4 MiB page-cache-resident files, CRC32-checked: httpd "
        "write/sendfile and fileservice.handle_get; no codec or RPC pipeline",
        knobs={"server_transport": "async"}, files="get"),
    Workload(
        "file_rpc_rw",
        "file.write then file.read of seeded 64 KiB chunks over XML-RPC: base64 "
        "both ways plus vfs.write, the RPC side of the file layer",
        knobs={"server_transport": "async"}, files="rw"),
)}


# ---------------------------------------------------------------------------
# Seeded inputs
# ---------------------------------------------------------------------------

def _rng(seed: int, workload: str, part: str) -> random.Random:
    # rpc_small* share inputs byte for byte, so they share a stream name.
    stream = "rpc_small" if workload.startswith("rpc_small") else workload
    return random.Random(f"ledger:{seed}:{stream}:{part}")


def value_bytes(value: Any) -> int:
    """Useful bytes a value carries: text and bytes by length, numbers as 8."""

    if isinstance(value, str):
        return len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return len(value)
    if isinstance(value, dict):
        return sum(value_bytes(k) + value_bytes(v) for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return sum(value_bytes(v) for v in value)
    return 8


@functools.lru_cache(maxsize=1)
def file_fixture(seed: int, workload: str) -> dict[str, bytes]:
    """Files the server root must hold before the first call, by virtual path.

    Cached (read-only by convention): every connection of every set-up asks
    for the same 32 MiB.
    """

    kind = WORKLOADS[workload].files
    if kind != "get":
        return {}
    rng = _rng(seed, workload, "files")
    return {f"/get/f{i}.bin": rng.randbytes(FILE_BYTES) for i in range(FILE_COUNT)}


def fixture_dirs(workload: str) -> list[str]:
    if WORKLOADS[workload].files == "rw":
        return [f"/rw/c{conn}" for conn in range(CONNECTIONS)]
    return []


def _small_value(rng: random.Random) -> str:
    return "%024x" % rng.getrandbits(96)


def _struct(rng: random.Random) -> dict:
    return {"run": rng.randrange(10**6), "evt": "%012x" % rng.getrandbits(48)}


def build_ops(workload: str, seed: int, conn: int) -> list[Op]:
    """The cycle of operations connection ``conn`` repeats for the whole run.

    ``LIST`` operations get their expected value (the method list fetched at
    set-up) and payload from :func:`bind_methods`.
    """

    rng = _rng(seed, workload, f"conn{conn}")
    if workload.startswith("rpc_small"):
        ops = []
        for _ in range(64):
            ops.extend(Op(LIST) for _ in range(4))
            value = _small_value(rng)
            ops.append(Op(ECHO, value, value, value_bytes(value)))
        return ops
    if workload == "rpc_multicall":
        ops = []
        for _ in range(MULTICALL_BATCHES // CONNECTIONS):
            structs = [_struct(rng) for _ in range(MULTICALL_ENTRIES)]
            ops.append(Op(MULTICALL, [("system.echo", [s]) for s in structs],
                          structs, value_bytes(structs)))
        return ops
    if workload == "file_get":
        files = file_fixture(seed, workload)
        order = sorted(files)
        ops = []
        for _ in range(8):
            rng.shuffle(order)
            ops.extend(Op(GET, path, (len(files[path]), zlib.crc32(files[path])),
                          len(files[path])) for path in order)
        return ops
    if workload == "file_rpc_rw":
        per_conn = RW_PATHS // CONNECTIONS
        chunks = [rng.randbytes(CHUNK_BYTES) for _ in range(4 * per_conn)]
        ops = []
        for index, chunk in enumerate(chunks):
            path = f"/rw/c{conn}/f{index % per_conn}.bin"
            ops.append(Op(WRITE, (path, chunk), len(chunk), len(chunk)))
            ops.append(Op(READ, (path, len(chunk)), chunk, len(chunk)))
        return ops
    raise KeyError(workload)


def bind_methods(ops: list[Op], methods: list[str]) -> None:
    """Give every LIST operation the method list fetched at set-up."""

    payload = value_bytes(methods)
    for op in ops:
        if op.kind == LIST:
            op.expect = methods
            op.payload = payload


# ---------------------------------------------------------------------------
# Performing and checking
# ---------------------------------------------------------------------------

def perform(client, op: Op) -> Any:
    """Send one operation through a real ``ClarensClient``; return its reply."""

    kind = op.kind
    if kind == LIST:
        return client.call("system.list_methods")
    if kind == ECHO:
        return client.call("system.echo", op.arg)
    if kind == MULTICALL:
        return client.multicall(op.arg)
    if kind == GET:
        from repro.client.files import download_file
        return download_file(client, op.arg)
    if kind == WRITE:
        return client.call("file.write", op.arg[0], op.arg[1])
    return client.call("file.read", op.arg[0], 0, op.arg[1])


def check(op: Op, reply: Any, expect: Any = None) -> bool:
    """Whether ``reply`` is the correct answer to ``op``.

    ``expect`` overrides the operation's own expectation; the negative
    control passes a deliberately wrong one and must get ``False`` back.
    """

    if expect is None:
        expect = op.expect
    kind = op.kind
    if kind == GET:
        return (isinstance(reply, (bytes, bytearray))
                and (len(reply), zlib.crc32(reply)) == expect)
    if kind == READ:
        return isinstance(reply, (bytes, bytearray)) and bytes(reply) == expect
    if kind == MULTICALL:
        return isinstance(reply, list) and len(reply) == MULTICALL_ENTRIES \
            and reply == expect
    if kind == LIST:
        return isinstance(reply, list) and reply == expect
    return reply == expect                      # ECHO value, WRITE byte count


def wrong_expectation(op: Op) -> Any:
    """A plausible but wrong expected value for the negative control."""

    expect = op.expect
    if op.kind == GET:
        return (expect[0], expect[1] ^ 1)
    if op.kind == READ:
        return expect[:-1] + bytes([expect[-1] ^ 1])
    if op.kind == MULTICALL:
        return expect[1:] + expect[:1]          # right entries, wrong order
    if op.kind == LIST:
        return expect[:-1]
    if op.kind == WRITE:
        return expect + 1
    return expect + "x"
