"""The benchmark's own tests, on the one-experiment ``smoke`` workload.

    python3 -m pytest perfbench -q
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
COUNT_UNIT = "count"


def _bench(out, *args, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    cmd = [sys.executable, script, "--workload", "smoke", "--seed", "0", "--seconds", "1",
           "--out", str(out), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    out = tmp_path_factory.mktemp("bench")
    untraced = _result(_bench(out, "--trace", "0"))
    traced = [_result(_bench(out, "--trace", "1")) for _ in range(2)]
    return out, untraced, traced


def test_every_metric_reported_with_its_unit(runs, spec):
    _, untraced, traced = runs
    for result, key in [(untraced, "end_to_end"), (traced[0], "per_layer")]:
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in spec[key]}
        for m in spec[key]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]


def test_trace_sidecar_written(runs):
    out, _, _ = runs
    trace = os.path.join(out, "smoke", "seed0", "last", "01-traced", "trace.json")
    with open(trace) as fh:
        records = json.load(fh)["records"]
    assert any(r["name"].startswith("drift.") for r in records)


def test_traced_counts_repeat_exactly(runs, spec):
    _, _, (first, second) = runs
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == COUNT_UNIT]
    assert counts
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["drift.calls"]["value"] > 0


def test_tracing_changes_no_report_byte(runs):
    out, _, _ = runs
    last = os.path.join(out, "smoke", "seed0", "last")
    for name in ("report.csv", "report.json"):
        plain = os.path.join(last, "00-untraced", "reports", "zero-drift-sanity", name)
        traced = os.path.join(last, "01-traced", "reports", "zero-drift-sanity", name)
        assert filecmp.cmp(plain, traced, shallow=False), name


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(tmp_path / "out", "--trace", "0", cwd=tmp_path,
                  script=str(tmp_path / "perfbench" / "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""
