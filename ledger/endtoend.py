"""The end-to-end pass: a server child, two closed-loop callers, tracing off.

The parent spawns ``fixture.py`` as a child process, logs one real
``ClarensClient`` per connection in over loopback TCP, warms up, then counts
every verified reply inside the timed window.  Latency is what the caller
sees around each operation; CPU and peak memory are the child's own figures,
read over its control pipe, so client time never dilutes them.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import fixture
import workloads
from workloads import CONNECTIONS, WORKLOADS

WARMUP_S = 2.0
#: Set-ups per run; ``setup_s`` is their median so one slow spawn cannot move it.
SETUPS = 3


class ServerChild:
    """The server process: spawn, talk over its pipes, always reap."""

    def __init__(self, workload: str, seed: int, cpu: int) -> None:
        self.workload = workload
        self.seed = seed
        self.cpu = cpu
        self.root: Path | None = None
        self.proc: subprocess.Popen | None = None
        self.info: dict = {}

    def __enter__(self) -> "ServerChild":
        self.root = fixture.temp_root()
        try:
            self.proc = subprocess.Popen(
                [sys.executable, str(fixture.LEDGER_DIR / "fixture.py"),
                 self.workload, str(self.seed), str(self.root), str(self.cpu)],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
            ready = self.proc.stdout.readline()
            if not ready:
                raise RuntimeError("the server child exited before it was ready")
            self.info = json.loads(ready)
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def stats(self) -> dict:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def __exit__(self, *exc_info: object) -> None:
        proc, self.proc = self.proc, None
        try:
            if proc is not None:
                try:
                    proc.stdin.write("quit\n")
                    proc.stdin.close()
                except (OSError, ValueError):
                    pass
                for stop in (None, proc.terminate, proc.kill):
                    if stop is not None:
                        stop()
                    try:
                        proc.wait(timeout=5)
                        break
                    except subprocess.TimeoutExpired:
                        continue
                proc.stdout.close()
        finally:
            shutil.rmtree(self.root, ignore_errors=True)


def connect(child: ServerChild, workload: str, seed: int):
    """Log every connection in and verify a first reply on each.

    Returns ``(clients, ops)``: one client and one operation cycle per
    connection, LIST operations bound to the method list the server gave.
    """

    from repro.client.client import ClarensClient
    from repro.pki.credentials import Credential

    clients, ops, methods = [], [], None
    for conn in range(CONNECTIONS):
        client = ClarensClient.for_url(child.info["url"],
                                       **WORKLOADS[workload].client)
        clients.append(client)
        client.login_with_credential(
            Credential.from_dict(child.info["callers"][conn]))
        listed = client.call("system.list_methods")
        if methods is None:
            methods = listed
        if listed != methods or client.call("system.echo", "ready") != "ready":
            raise RuntimeError("set-up reply failed verification")
        cycle = workloads.build_ops(workload, seed, conn)
        workloads.bind_methods(cycle, methods)
        ops.append(cycle)
    return clients, ops


def _caller(client, cycle, barrier, stop_at, samples) -> None:
    """One closed-loop connection: send, wait, check, repeat until ``stop_at``."""

    perform, check, clock = workloads.perform, workloads.check, time.perf_counter
    index, count = 0, len(cycle)
    barrier.wait()
    while True:
        op = cycle[index]
        index = (index + 1) % count
        start = clock()
        if start >= stop_at[0]:
            return
        try:
            ok = check(op, perform(client, op))
        except Exception:  # noqa: BLE001 - a failed or refused op is a counted failure
            ok = False
        samples.append((clock(), start, ok, op.payload))


def _quartile_spread(values: list[float]) -> float | None:
    """Inter-quartile range as a share of the median (None under 4 values)."""

    if len(values) < 4:
        return None
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else None


def _percentile(ordered: list[float], share: float) -> float:
    return ordered[min(len(ordered) - 1, int(share * len(ordered)))]


def measure(workload: str, seed: int, window: float, warmup: float = WARMUP_S,
            setups: int = SETUPS) -> dict:
    """Run one workload end to end; return metrics, slices and the verdict."""

    # The callers get the first CPU and the server child the last, so where
    # the scheduler happens to place them stops being the largest term in the
    # run-to-run spread.  On a single-CPU host both share the one core.
    allowed = os.sched_getaffinity(0) if hasattr(os, "sched_getaffinity") else None
    cpus = sorted(allowed or {0})
    fixture.pin_to_cpu(cpus[0])
    setup_times = []
    try:
        for attempt in range(setups):
            spawned = time.perf_counter()
            with ServerChild(workload, seed, cpus[-1]) as child:
                clients, ops = connect(child, workload, seed)
                setup_times.append(time.perf_counter() - spawned)
                try:
                    if attempt == setups - 1:
                        result = _timed_window(child, clients, ops, window, warmup)
                        if WORKLOADS[workload].scrape:
                            _check_scrape(child, clients[0], result)
                finally:
                    for client in clients:
                        client.close()
    finally:
        if allowed is not None:
            os.sched_setaffinity(0, allowed)
    result["metrics"]["setup_s"] = statistics.median(setup_times)
    result["spread"]["setup_s"] = _quartile_spread(setup_times)
    result["setup_times_s"] = setup_times
    return result


def _timed_window(child, clients, ops, window, warmup) -> dict:
    samples = [[] for _ in clients]
    barrier = threading.Barrier(len(clients) + 1)
    stop_at = [float("inf")]
    threads = [threading.Thread(target=_caller, daemon=True,
                                args=(client, cycle, barrier, stop_at, sink))
               for client, cycle, sink in zip(clients, ops, samples)]
    for thread in threads:
        thread.start()
    barrier.wait()
    slice_s = 1.0 if window >= 4 else window / 4
    slices = max(1, round(window / slice_s))
    time.sleep(warmup)
    opened = time.perf_counter()
    marks = [child.stats()]
    for index in range(slices):
        time.sleep(max(0.0, opened + (index + 1) * slice_s - time.perf_counter()))
        marks.append(child.stats())
    closed = time.perf_counter()
    stop_at[0] = closed
    for thread in threads:
        thread.join(timeout=60)
    if any(thread.is_alive() for thread in threads):
        raise RuntimeError("a caller did not finish its last operation")

    # Only operations that completed inside the window count.
    inside = [s for sink in samples for s in sink if opened <= s[0] <= closed]
    good = [s for s in inside if s[2]]
    attempted, failed = len(inside), len(inside) - len(good)
    if not good:
        raise RuntimeError("no operation completed inside the window")
    per_slice = [[] for _ in range(slices)]
    for sample in good:
        per_slice[min(slices - 1, int((sample[0] - opened) / slice_s))].append(sample)
    latencies = sorted((end - start) * 1e3 for end, start, _, _ in good)
    elapsed = closed - opened
    cpu_ms = (marks[-1]["cpu_s"] - marks[0]["cpu_s"]) * 1e3
    series = {
        "ops_per_s": [len(s) / slice_s for s in per_slice],
        "payload_mb_per_s": [sum(x[3] for x in s) / 1e6 / slice_s for s in per_slice],
        "latency_p50_ms": [statistics.median((e - b) * 1e3 for e, b, _, _ in s)
                           for s in per_slice if s],
        "latency_p99_ms": [_percentile(sorted((e - b) * 1e3 for e, b, _, _ in s), 0.99)
                           for s in per_slice if s],
        "server_cpu_ms_per_op": [(after["cpu_s"] - before["cpu_s"]) * 1e3 / len(s)
                                 for before, after, s
                                 in zip(marks, marks[1:], per_slice) if s],
    }
    metrics = {
        "ops_per_s": len(good) / elapsed,
        "latency_p50_ms": statistics.median(latencies),
        "latency_p99_ms": _percentile(latencies, 0.99),
        "payload_mb_per_s": sum(s[3] for s in good) / 1e6 / elapsed,
        "server_cpu_ms_per_op": cpu_ms / len(good),
        "server_peak_rss_mb": marks[-1]["peak_rss_kb"] / 1024.0,
    }
    # The negative control: a wrong expectation must be counted, not crash.
    probe = ops[0][0]
    reply = workloads.perform(clients[0], probe)
    control = (workloads.check(probe, reply)
               and not workloads.check(probe, reply, workloads.wrong_expectation(probe)))
    return {
        "metrics": metrics,
        "spread": {name: _quartile_spread(values) for name, values in series.items()},
        "slices": series,
        "attempted": attempted, "failed": failed,
        "error_rate": failed / attempted,
        "latency_samples": len(latencies),
        "negative_control_caught": control,
        "correct": failed == 0 and control,
        "window_s": elapsed,
        "server_counters": marks[-1]["counters"],
    }


def _check_scrape(child, client, result) -> None:
    """One ``/metrics`` scrape: valid exposition, and a span for every op."""

    response = client.http_get("/metrics")
    text = response.body_bytes().decode("utf-8", "replace")
    lines = [line for line in text.splitlines() if line and not line.startswith("#")]
    valid = response.status == 200 and bool(lines)
    for line in lines:
        name, _, value = line.rpartition(" ")
        try:
            float(value)
        except ValueError:
            valid = False
        valid = valid and bool(name)
    spans = child.stats()["counters"].get("spans_recorded", 0)
    result["scrape"] = {"valid": valid, "series": len(lines), "spans": spans}
    if not valid or spans < result["attempted"]:
        result["correct"] = False
