"""Smoke test of the ledger: every workload, both passes, half-second windows.

Checks what must not rot silently: the names ``run.py`` emits are exactly the
names ``BENCHMARK.json`` declares, they fit the benchmark contract's limits,
and every operation of every workload verifies.  It asserts no timing.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

LEDGER = Path(__file__).resolve().parent
CONTRACT = json.loads((LEDGER.parent / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def _run(workload: str, out_dir: Path) -> dict:
    out = out_dir / f"{workload}.json"
    done = subprocess.run(
        [sys.executable, str(LEDGER / "run.py"), "--workload", workload,
         "--window", "0.5", "--warmup", "0.2", "--setups", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(out.read_text())["workloads"][workload]


def test_contract_limits():
    end_to_end = [m["name"] for m in CONTRACT["end_to_end"]]
    per_layer = [m["name"] for m in CONTRACT["per_layer"]]
    workloads = [w["name"] for w in CONTRACT["workloads"]]
    assert 2 <= len(workloads) <= 8
    assert 1 <= len(end_to_end) <= 16 and "setup_s" in end_to_end
    assert 1 <= len(per_layer) <= 128
    names = workloads + end_to_end + per_layer
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    assert CONTRACT["paths"] == ["ledger"]


def test_every_workload_runs_clean(tmp_path):
    sys.path.insert(0, str(LEDGER))
    try:
        from workloads import WORKLOADS
    finally:
        sys.path.remove(str(LEDGER))
    declared = [w["name"] for w in CONTRACT["workloads"]]
    assert declared == list(WORKLOADS)

    with ThreadPoolExecutor(len(declared)) as pool:
        entries = dict(zip(declared, pool.map(lambda w: _run(w, tmp_path), declared)))

    end_to_end = {m["name"] for m in CONTRACT["end_to_end"]}
    per_layer = {m["name"] for m in CONTRACT["per_layer"]}
    for workload, entry in entries.items():
        e2e, traced = entry["end_to_end"], entry["per_layer"]
        assert set(e2e["metrics"]) == end_to_end, workload
        assert all(value > 0 for value in e2e["metrics"].values()), workload
        assert e2e["error_rate"] == 0 and e2e["failed"] == 0, workload
        assert e2e["negative_control_caught"] and e2e["correct"], workload
        # A later change may add a pipeline stage; nothing else may drift.
        extra = set(traced["metrics"]) - per_layer
        assert per_layer <= set(traced["metrics"]), workload
        assert all(name.startswith("core.pipeline.") for name in extra), extra
        assert traced["failed"] == 0 and traced["correct"], workload
    assert entries["rpc_small_binary_observed"]["end_to_end"]["scrape"]["valid"]
