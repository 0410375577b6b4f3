#!/usr/bin/env python3
"""Compare two ledger results files, workload by workload, metric by metric.

    python ledger/compare.py A.json B.json

A is the base (the parent commit, or the first of two runs of one commit),
B the candidate.  One row per workload x end-to-end metric: both values, the
ratio B/A, the bound from ``BENCHMARK.json`` and a verdict:

* ``ok``          B is no worse than A by more than the bound;
* ``BREACH``      B is worse by more than the bound (exit status 1);
* ``unresolved``  the metric's own slice-to-slice spread inside either run is
                  wider than the bound, so this pair of runs cannot tell a
                  regression from noise - never reported as "unchanged".

Failed operations are compared too: any increase in ``error_rate`` breaches.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

CONTRACT = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def worse_by(base: float, other: float, better: str) -> float:
    """How much worse ``other`` is than ``base``, as a share of ``base``."""

    if not base:
        return 0.0
    change = (other - base) / base
    return change if better == "lower" else -change


def compare(base: dict, other: dict) -> tuple[list[tuple], bool]:
    rows, breached = [], False
    for workload in base["workloads"]:
        if workload not in other["workloads"]:
            continue
        a = base["workloads"][workload].get("end_to_end")
        b = other["workloads"][workload].get("end_to_end")
        if not a or not b:
            continue
        for spec in CONTRACT["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            va, vb = a["metrics"][name], b["metrics"][name]
            spreads = [s for s in (a["spread"].get(name), b["spread"].get(name))
                       if s is not None]
            if spreads and max(spreads) > bound:
                verdict = "unresolved"
            elif worse_by(va, vb, spec["better"]) > bound:
                verdict, breached = "BREACH", True
            else:
                verdict = "ok"
            rows.append((workload, name, spec["unit"], va, vb, bound,
                         max(spreads) if spreads else None, verdict))
        verdict = "ok"
        if b["error_rate"] > a["error_rate"]:
            verdict, breached = "BREACH", True
        rows.append((workload, "error_rate", "share", a["error_rate"],
                     b["error_rate"], 0.0, None, verdict))
    return rows, breached


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    base, other = (json.loads(Path(path).read_text()) for path in argv)
    for label, run in (("A", base), ("B", other)):
        p = run["provenance"]
        print(f"{label}: commit {p['commit'][:12]} seed {p['seed']} window "
              f"{p['window_s']:g} s nproc {p['nproc']} load {p['loadavg'][0]:.2f} "
              f"python {p['python']}")
    rows, breached = compare(base, other)
    print(f"{'workload':<26} {'metric':<22} {'A':>12} {'B':>12} {'B/A':>7} "
          f"{'bound':>6} {'spread':>7}  verdict")
    for workload, name, unit, va, vb, bound, spread, verdict in rows:
        ratio = f"{vb / va:7.3f}" if va else "      -"
        shown = "      -" if spread is None else f"{spread:7.1%}"
        print(f"{workload:<26} {name:<22} {va:>12.4f} {vb:>12.4f} {ratio} "
              f"{bound:>6.0%} {shown}  {verdict}  (base A = {va:.4g} {unit})")
    unresolved = sum(row[-1] == "unresolved" for row in rows)
    print(f"{len(rows)} rows: {sum(row[-1] == 'BREACH' for row in rows)} "
          f"breached, {unresolved} unresolved")
    return 1 if breached else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
