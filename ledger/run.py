#!/usr/bin/env python3
"""The performance ledger: one command for every number this repo may claim.

    python ledger/run.py                      # six workloads, both passes, tables
    python ledger/run.py --workload rpc_small # one workload
    python ledger/run.py --waterfall rpc_small

The benchmark driver calls it as
``run.py --workload W --seed N --seconds S --trace 0|1`` and reads the last
line of standard output: one JSON object with the end-to-end metrics
(``--trace 0``: server child, real sockets, tracing off) or the per-layer
metrics (``--trace 1``: in-process traced pass).  See ``ledger/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import subprocess
import sys
import time
from pathlib import Path

import fixture

fixture.require_source()

import endtoend  # noqa: E402 - needs the source path set up above
import layers  # noqa: E402
from workloads import CONNECTIONS, WORKLOADS  # noqa: E402

CONTRACT = json.loads((fixture.REPO_ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in CONTRACT["end_to_end"]}
PER_LAYER = {m["name"]: m for m in CONTRACT["per_layer"]}
#: A run whose fixed pure-Python loop drifts by more than this is flagged.
NOISY_SPIN_DRIFT = 0.10


def spin_ms() -> float:
    """Time a fixed pure-Python loop: the host's speed, not the program's.

    The best of five, because anything else running only ever adds time.
    """

    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(200_000):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def provenance(args) -> dict:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=fixture.REPO_ROOT, text=True,
            capture_output=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {"seed": args.seed, "window_s": args.seconds, "warmup_s": args.warmup,
            "setups": args.setups, "connections": CONNECTIONS,
            "nproc": os.cpu_count(), "loadavg": list(os.getloadavg()),
            "python": platform.python_version(), "commit": commit,
            "started": time.strftime("%Y-%m-%dT%H:%M:%S%z")}


def driver_line(result: dict, contract: dict) -> str:
    """The driver's last line: exactly the contract's metrics, all numbers.

    A per-layer metric that does not apply to the workload (or whose API a
    later change removed) is ``null`` in the results file and ``0`` here.
    """

    metrics = {name: {"value": float(result["metrics"].get(name) or 0.0),
                      "unit": spec["unit"]}
               for name, spec in contract.items()}
    return json.dumps({"correct": bool(result["correct"]),
                       "attempted": int(result["attempted"]),
                       "failed": int(result["failed"]), "metrics": metrics})


def print_table(title: str, result: dict, contract: dict) -> None:
    print(f"  {title}")
    extra = [n for n in result["metrics"] if n not in contract]
    for name in list(contract) + sorted(extra):
        value = result["metrics"].get(name)
        unit = contract[name]["unit"] if name in contract else "us"
        shown = "-" if value is None else f"{value:.4f}"
        spread = (result.get("spread") or {}).get(name)
        note = "" if spread is None else f"   slice IQR {spread * 100:.1f} %"
        print(f"    {name:<36} {shown:>14} {unit}{note}")


def run_workload(name: str, args) -> dict:
    """Both passes (or the one ``--trace`` names) of one workload."""

    entry: dict = {"why": WORKLOADS[name].why}
    before = spin_ms()
    if args.trace in (None, 0):
        entry["end_to_end"] = endtoend.measure(
            name, args.seed, args.seconds, args.warmup, args.setups)
    if args.trace in (None, 1):
        budget = args.seconds if args.trace == 1 else min(args.seconds, 4.0)
        entry["per_layer"] = layers.measure(name, args.seed, budget)
        for declared in PER_LAYER:      # e.g. a stage a later change removed
            entry["per_layer"]["metrics"].setdefault(declared, None)
    after = spin_ms()
    entry["host"] = {"spin_ms_before": before, "spin_ms_after": after,
                     "noisy": abs(after - before) / before > NOISY_SPIN_DRIFT}
    if "per_layer" in entry:
        entry["per_layer"]["metrics"]["host.spin_ms"] = (before + after) / 2
    return entry


def report(name: str, entry: dict, args) -> None:
    print(f"== {name}: seed {args.seed}, {args.seconds:g} s window, "
          f"{CONNECTIONS} closed-loop connections, loopback TCP ==")
    if "end_to_end" in entry:
        e2e = entry["end_to_end"]
        print_table("end to end (server child, tracing off)", e2e, END_TO_END)
        print(f"    {'error_rate':<36} {e2e['error_rate']:>14.6f} share   "
              f"{e2e['failed']} failed of {e2e['attempted']} attempted, "
              f"{e2e['latency_samples']} latency samples, negative control "
              f"{'caught' if e2e['negative_control_caught'] else 'MISSED'}")
    if "per_layer" in entry:
        print_table(f"per layer (in process, {entry['per_layer']['attempted']} "
                    f"traced ops)", entry["per_layer"], PER_LAYER)
    if entry["host"]["noisy"]:
        print("    NOISY: host.spin_ms drifted more than 10 % during this "
              "workload; do not trust its numbers")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", "--window", type=float,
                        default=float(CONTRACT["run_seconds"]),
                        help="length of the timed window")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="driver mode: 0 = end-to-end pass only, "
                             "1 = traced pass only; last line is one JSON object")
    parser.add_argument("--warmup", type=float, default=endtoend.WARMUP_S)
    parser.add_argument("--setups", type=int, default=endtoend.SETUPS)
    parser.add_argument("--out", type=Path,
                        help="results file (default ledger/out/results.json)")
    parser.add_argument("--waterfall", metavar="WORKLOAD", choices=sorted(WORKLOADS),
                        help="print the layer waterfall of a traced run")
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.setups < 1:
        parser.error("--seconds and --setups must be positive")

    # SIGTERM unwinds like Ctrl-C, so the server child is reaped either way.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if args.waterfall:
        layers.measure(args.waterfall, args.seed, min(args.seconds, 4.0))
        layers.print_waterfall(layers.trace_path(args.waterfall))
        return 0

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {"provenance": provenance(args), "workloads": {}}
    for name in names:
        entry = run_workload(name, args)
        results["workloads"][name] = entry
        report(name, entry, args)
    out = args.out or fixture.OUT_DIR / "results.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1))
    print(f"results written to {out}")

    if args.trace is not None and args.workload:
        entry = results["workloads"][args.workload]
        if args.trace == 0:
            print(driver_line(entry["end_to_end"], END_TO_END))
        else:
            print(driver_line(entry["per_layer"], PER_LAYER))
        return 0
    ok = all(part["correct"] for entry in results["workloads"].values()
             for key, part in entry.items() if key in ("end_to_end", "per_layer"))
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
