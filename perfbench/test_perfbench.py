"""Tests of the benchmark itself: ``python3 -m pytest perfbench``.

They run the real workloads for the shortest run the benchmark allows, so
they take a minute or two.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
DETERMINISTIC = (".calls", ".reuse_ratio", ".accept_ratio", ".candidates_checked", ".dual_candidates")


def bench(workload, trace, seed=5, cwd=run.ROOT, script=HERE / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(out):
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_repeat_and_self_times_account_for_the_check_phase(workload):
    first, second = (last_json(bench(workload, 1)) for _ in range(2))
    assert first["correct"] and first["failed"] == 0
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first["metrics"].items()} == declared
    counters = [k for k in declared if k.endswith(DETERMINISTIC)]
    assert len(counters) >= 15
    for name in counters:
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name
    for result in (first, second):
        assert abs(result["metrics"]["trace.accounted_share"]["value"] - 1.0) < 1e-3


def test_end_to_end_metrics_match_the_declaration():
    result = last_json(bench("duals-sweep", 0))
    assert result["correct"] and result["attempted"] >= 30
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_meta_maps_every_layer_metric_to_declared_metrics_and_workloads():
    meta = json.loads((HERE / "meta.json").read_text())
    end_to_end = {m["name"] for m in SPEC["end_to_end"]}
    workloads = {w["name"] for w in SPEC["workloads"]}
    assert workloads == set(run.WORKLOADS) == set(meta["workloads"]) == set(run.TAIL_PERCENTILE)
    mapping = meta["layer_to_end_to_end"]
    traced = {m["name"] for m in SPEC["per_layer"]}
    assert set(mapping) == traced - {"trace.accounted_share", "trace.overhead_share"}
    for entries in mapping.values():
        for entry in entries if isinstance(entries, list) else [entries]:
            assert set(entry["end_to_end"]) <= end_to_end
            assert set(entry["workloads"]) <= workloads


def test_refuses_to_run_without_the_package_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(run.ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    out = bench("random-mix", 0, cwd=tmp_path, script=tmp_path / "perfbench" / "run.py")
    assert out.returncode != 0
    assert out.stdout == ""


def test_verify_counts_every_departure_from_the_stored_rows(tmp_path):
    report = tmp_path / "report.json"
    entries = [
        {"name": "a", "trial": 0, "verdict": "pass"},
        {"name": "b", "trial": 0, "verdict": "pass"},
        {"name": "a", "trial": 1, "verdict": "fail"},
    ]
    report.write_text(json.dumps({"checks": entries}))
    argvs = [["check", "--suite", "s", "--random", "2", "--seed", "7", "--report", str(report)]]
    result = {"suites": {"s": ["a", "b", "c"]}, "certificates": [[0, 0, "b", "k", 4, 5]]}
    # without stored rows: the failed verdict and the certificate off its closed form
    assert run.verify(argvs, result, None) == (3, 2, 3)
    rows = run.encode(argvs, result, *run.outcomes(argvs, result))
    assert rows == ["s:7:PP.|b=4", "s:8:F.."]
    assert run.unpack(run.pack(rows)) == rows
    # stored rows add a verdict that changed and a check that went missing
    stored = {"s:7": "IPP|b=4", "s:8": "F.."}
    assert run.verify(argvs, result, stored) == (4, 4, 3)


def test_probe_scales_use_the_probes_around_each_check():
    ref = run.PROBE_REF_S
    result = {
        "probes": [[0.0, 2 * ref], [1.0, ref], [1.1, ref]],
        "ends": [0.1, 1.05, 5.0],
        "latencies": [0.05, 0.02, 0.01],
    }
    scales, whole = run.probe_scales(result)
    # a slow probe next to the first check halves it; the third has no probe
    # within the window and takes the round's mean
    assert scales == pytest.approx([0.5, 1.0, 0.75])
    assert whole == pytest.approx(0.75)
