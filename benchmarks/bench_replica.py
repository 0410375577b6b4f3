"""REPLICA — catalogue lookup throughput and parallel-transfer scaling.

The replica layer turns N Clarens servers into one data fabric, so its two
hot paths get the benchmark treatment:

* **catalogue lookups** — every replica-aware read starts with an LFN
  resolution (catalogue entry + broker ranking); measured in lookups/s over
  a populated catalogue, single-threaded and with reader contention;
* **parallel transfers** — the engine's worker pool must actually overlap
  transfers whose cost is dominated by per-file latency (staging delays,
  network round trips); measured as wall-clock speedup of 4 workers over 1
  on a latency-bound storage element.

This file is auto-collected by the tier-1 suite (see
``benchmarks/conftest.py``), so its default sizes are CI-cheap; ``--smoke``
shrinks them further and ``--paper-scale`` grows the catalogue population.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
import threading
import time

from repro.bench.results import ComparisonRow, ResultTable, format_rate
from repro.database import Database
from repro.fileservice.vfs import VirtualFileSystem
from repro.replica.broker import ReplicaBroker
from repro.replica.catalogue import ReplicaCatalogue
from repro.replica.model import TransferState
from repro.replica.storage import VFSStorageElement
from repro.replica.transfer import TransferEngine

#: Minimum acceptable 4-worker speedup on latency-bound transfers.  Four
#: workers over sleep-dominated copies should approach 4x; 1.8x leaves head
#: room for noisy CI machines while still proving real overlap.
MIN_PARALLEL_SPEEDUP = 1.8

#: Paired (single, contended) samples behind the lookup-contention verdict.
LOOKUP_ROUNDS = 5

#: Per-transfer latency injected into the throttled destination element.
TRANSFER_LATENCY_S = 0.02


class ThrottledSE(VFSStorageElement):
    """A storage element with a fixed per-write latency (a slow WAN link)."""

    def write_stream(self, pfn, chunks):
        time.sleep(TRANSFER_LATENCY_S)
        return super().write_stream(pfn, chunks)


def _make_se(tmp_path, name: str, cls=VFSStorageElement) -> VFSStorageElement:
    root = tmp_path / name
    root.mkdir(exist_ok=True)
    return cls(name, VirtualFileSystem(root))


def _populate(catalogue: ReplicaCatalogue, se_names: list[str], n: int) -> None:
    checksum = hashlib.md5(b"x").hexdigest()
    for i in range(n):
        lfn = f"/lfn/cms/run{i % 97:03d}/file{i:06d}.dat"
        for se in se_names:
            catalogue.register(lfn, se, lfn, size=1, checksum=checksum)


def test_catalogue_lookup_throughput(smoke, paper_scale, capsys, tmp_path):
    """Locating an LFN through catalogue + broker stays a memory-speed path."""

    n_lfns = 300 if smoke else (20_000 if paper_scale else 2_000)
    lookups = 1_000 if smoke else 10_000        # per timed sample
    catalogue = ReplicaCatalogue(Database())
    elements = {name: _make_se(tmp_path, name) for name in ("se-a", "se-b", "se-c")}
    _populate(catalogue, list(elements), n_lfns)
    broker = ReplicaBroker(catalogue, elements, local_se="se-a")
    lfns = catalogue.lfns()

    def measure(threads: int) -> float:
        per_thread = lookups // threads
        barrier = threading.Barrier(threads + 1)

        def worker(base: int) -> None:
            barrier.wait()
            for i in range(per_thread):
                broker.resolve(lfns[(base + i * 7) % len(lfns)])

        pool = [threading.Thread(target=worker, args=(t * 131,))
                for t in range(threads)]
        for t in pool:
            t.start()
        barrier.wait()
        start = time.perf_counter()
        for t in pool:
            t.join()
        return (per_thread * threads) / (time.perf_counter() - start)

    # One unpaired sample each is at the mercy of whatever else the host
    # runs between them.  Interleave instead: every round times the two
    # back to back and yields one ratio; the verdict is the median ratio.
    singles, ratios = [], []
    for _ in range(LOOKUP_ROUNDS):
        gc.collect()
        single = measure(1)
        singles.append(single)
        ratios.append(measure(4) / single)
    single = max(singles)
    ratio = statistics.median(ratios)

    table = ResultTable(
        f"REPLICA — broker lookups over {n_lfns} LFNs x {len(elements)} replicas "
        f"(best single, median of {LOOKUP_ROUNDS} paired rounds)",
        ["threads", "lookups/s"])
    table.add_row("1", format_rate(single))
    table.add_row("4", format_rate(single * ratio))
    with capsys.disabled():
        print("\n" + table.render() + "\n")

    assert single > 1_000, f"catalogue lookups unexpectedly slow: {single:.0f}/s"
    # Striped LFN locks: contention must not collapse throughput.
    assert ratio > 0.5, f"per-round contended/single ratios: {ratios}"


def test_parallel_transfer_scaling(smoke, capsys, tmp_path):
    """4 transfer workers overlap latency-bound copies (≥{:.1f}x one worker).
    """.format(MIN_PARALLEL_SPEEDUP)

    n_files = 8 if smoke else 16
    data = b"event payload " * 512

    def run_with_workers(workers: int, label: str) -> tuple[float, int]:
        catalogue = ReplicaCatalogue(Database())
        src = _make_se(tmp_path, f"src-{label}")
        dst = _make_se(tmp_path, f"dst-{label}", cls=ThrottledSE)
        checksum = hashlib.md5(data).hexdigest()
        for i in range(n_files):
            lfn = f"/lfn/batch/file{i:04d}.dat"
            src.vfs.write(lfn, data)
            catalogue.register(lfn, src.name, lfn, size=len(data),
                               checksum=checksum)
        engine = TransferEngine(catalogue, {src.name: src, dst.name: dst},
                                workers=workers, retry_delay=0.001)
        engine.start()
        try:
            start = time.perf_counter()
            requests = [engine.submit(f"/lfn/batch/file{i:04d}.dat", dst.name)
                        for i in range(n_files)]
            done = [engine.wait(r.transfer_id, timeout=60.0) for r in requests]
            elapsed = time.perf_counter() - start
        finally:
            engine.stop()
        assert all(r.state is TransferState.DONE for r in done)
        assert dst.read("/lfn/batch/file0000.dat") == data
        return elapsed, sum(r.bytes_copied for r in done)

    serial_s, serial_bytes = run_with_workers(1, "serial")
    parallel_s, parallel_bytes = run_with_workers(4, "parallel")
    speedup = serial_s / parallel_s

    table = ResultTable(
        f"REPLICA — {n_files} transfers over a {TRANSFER_LATENCY_S * 1e3:.0f}ms"
        " latency element",
        ["workers", "wall s", "transfers/s"])
    table.add_row("1", f"{serial_s:.3f}", format_rate(n_files / serial_s))
    table.add_row("4", f"{parallel_s:.3f}", format_rate(n_files / parallel_s))
    comparison = ComparisonRow(
        experiment_id="REPLICA",
        description="parallel transfer-engine scaling",
        paper_value="SRM future-work: robust transfer between mass stores",
        measured_value=f"{speedup:.1f}x with 4 workers",
        shape_holds=speedup >= MIN_PARALLEL_SPEEDUP,
        notes="checksum verified end-to-end on every copy",
    )
    with capsys.disabled():
        print("\n" + table.render())
        print(comparison.render() + "\n")

    assert serial_bytes == parallel_bytes == n_files * len(data)
    assert speedup >= MIN_PARALLEL_SPEEDUP, (
        f"4 workers only {speedup:.2f}x faster than 1 over "
        f"{n_files} latency-bound transfers")
