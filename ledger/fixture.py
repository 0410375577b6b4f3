"""Build the seeded server both passes measure.

Run as a script this file is the **server child** of the end-to-end pass:
it builds the PKI from ``CertificateAuthority(rng=random.Random(seed))``,
writes the workload's fixture files, boots a ``ClarensServer`` on a loopback
TCP socket, prints one JSON line (url + caller credentials) and then answers
``stats`` / ``quit`` lines on stdin until told to stop or the pipe closes.
Imported, it gives the traced pass the same server in process.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parent
SRC_DIR = REPO_ROOT / "src"
#: Everything the benchmark writes: results, traces, temporary server roots.
OUT_DIR = LEDGER_DIR / "out"


def temp_root() -> Path:
    """A fresh directory under ``ledger/out``; the caller removes it."""

    root = OUT_DIR / f"tmp-{time.time_ns():x}"
    root.mkdir(parents=True)
    return root


def require_source() -> None:
    """Put the program under test on ``sys.path``; exit 2 when it is absent."""

    if not (SRC_DIR / "repro" / "core" / "server.py").is_file():
        sys.stderr.write(f"ledger: no program to measure under {SRC_DIR}\n")
        raise SystemExit(2)
    if str(SRC_DIR) not in sys.path:
        sys.path.insert(0, str(SRC_DIR))
    if str(LEDGER_DIR) not in sys.path:
        sys.path.insert(0, str(LEDGER_DIR))


def build_server(workload: str, seed: int, root: Path, **overrides):
    """A seeded server for ``workload`` rooted at ``root``.

    Returns ``(server, callers)``: the ``ClarensServer`` and one user
    credential per connection.  ``overrides`` replace workload knobs (the
    traced pass flips ``telemetry_enabled`` for the tax measurement).
    """

    from repro.core.config import ServerConfig
    from repro.core.server import ClarensServer
    from repro.pki.authority import CertificateAuthority

    import workloads

    ca = CertificateAuthority("/O=ledger.example/CN=Ledger CA",
                              rng=random.Random(seed))
    host = ca.issue_host("server.ledger.example")
    callers = [ca.issue_user(f"Ledger Caller {i}")
               for i in range(workloads.CONNECTIONS)]

    file_root = Path(root) / "files"
    file_root.mkdir(parents=True, exist_ok=True)
    for virtual in workloads.fixture_dirs(workload):
        (file_root / virtual.lstrip("/")).mkdir(parents=True, exist_ok=True)
    for virtual, data in workloads.file_fixture(seed, workload).items():
        target = file_root / virtual.lstrip("/")
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(data)

    wanted = {"server_name": "ledger",
              "host_dn": str(host.certificate.subject),
              "file_root": str(file_root),
              "shell_root": str(Path(root) / "sandboxes"),
              **workloads.WORKLOADS[workload].knobs, **overrides}
    # A later change may delete a knob; the benchmark must keep running.
    known = ServerConfig.__dataclass_fields__
    config = ServerConfig(**{k: v for k, v in wanted.items() if k in known})
    server = ClarensServer(config, credential=host,
                           trust_store=ca.trust_store())
    return server, callers


def pin_to_cpu(cpu: int) -> None:
    """Pin this process to one CPU (no-op where the platform cannot)."""

    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {cpu})


def open_frontend(server):
    """The socket frontend the server's own configuration selects."""

    factory = (getattr(server, "frontend", None)
               or getattr(server, "async_server", None)
               or server.socket_server)
    return factory()


def self_stats(server, frontend) -> dict:
    """CPU, peak memory and counters of this process, as the server sees them."""

    peak_kb = 0
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                peak_kb = int(line.split()[1])
                break
    counters = {name: getattr(frontend, name)
                for name in ("connections_accepted", "connections_rejected",
                             "requests_served", "requests_rejected",
                             "batches_served", "sendfile_sends")
                if isinstance(getattr(frontend, name, None), int)}
    telemetry = getattr(server, "telemetry", None)
    if telemetry is not None:
        counters["spans_recorded"] = telemetry.recorder.stats().get("recorded", 0)
    # process_time is the scheduler's own user+system figure for all threads,
    # not the tick-sampled estimate os.times() gives.
    return {"cpu_s": time.process_time(), "peak_rss_kb": peak_kb,
            "counters": counters}


def main(argv: list[str]) -> int:
    workload, seed, root, cpu = argv[0], int(argv[1]), Path(argv[2]), int(argv[3])
    require_source()
    pin_to_cpu(cpu)
    server, callers = build_server(workload, seed, root)
    try:
        with open_frontend(server) as frontend:
            print(json.dumps({"url": frontend.url, "pid": os.getpid(),
                              "callers": [c.to_dict() for c in callers]}),
                  flush=True)
            for line in sys.stdin:      # EOF (parent gone) also ends the child
                command = line.strip()
                if command == "stats":
                    print(json.dumps(self_stats(server, frontend)), flush=True)
                elif command == "quit":
                    break
    finally:
        server.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
