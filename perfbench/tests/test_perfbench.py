"""Self-test of the benchmark: every workload runs at a tiny size and reports
every metric with its unit, and every output check can fail.

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CONFIG = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_config_lists_the_benchmarks_metrics():
    assert [w["name"] for w in CONFIG["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in CONFIG["per_layer"]} == tracer.per_layer_units()
    assert any(m["name"] == "setup_s" for m in CONFIG["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_reports_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--size", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = CONFIG["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert isinstance(entry["value"], (int, float))
    facts = json.loads(done.stdout.splitlines()[-2])["facts"]
    assert facts["failed_ratio"] == 0.0 and facts["src_lines"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench")
    done = _bench("--workload", "detect-mixed", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_tracer_restores_every_function():
    modules = {name: importlib.import_module(f"spectreguard.{name}") for name in tracer.MODULES}
    before = {name: dict(vars(m)) for name, m in modules.items()}
    push = modules["trace"].IntervalFolder.push
    t = tracer.Tracer()
    t.install()
    assert modules["fleet"].run_fleet is not before["fleet"]["run_fleet"]
    assert modules["cli"].ingest_trace is not before["cli"]["ingest_trace"]
    t.uninstall()
    for name, module in modules.items():
        assert all(vars(module)[k] is v for k, v in before[name].items()), name
    assert modules["trace"].IntervalFolder.push is push


# --- every check can fail --------------------------------------------------------

def _ops(workload, tmp_path):
    workloads.prepare(workload, 7, tmp_path, "tiny")
    return workloads.build(tmp_path)


def _corrupt(ops, kind, corrupt, nth=0):
    op = [op for op in ops if op.kind == kind][nth]
    run_op = op.run

    def corrupted():
        return corrupt(run_op())

    op.run = corrupted


def _rewrite(path, edit):
    lines = path.read_text(encoding="utf-8").splitlines()
    path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")


def _flip_first_verdict(lines):
    v = json.loads(lines[1])
    v["suspect"] = not v["suspect"]
    return [lines[0], json.dumps(v, sort_keys=True), *lines[2:]]


def _shift_first_value(lines):
    v = json.loads(lines[1])
    v["value"] *= 1.0 + 1e-6
    return [lines[0], json.dumps(v, sort_keys=True), *lines[2:]]


def _raise_top_fp(lines):
    return [*lines[:-1], "65536.0,0.5"]


@pytest.mark.parametrize("kind, target, edit", [
    ("gen", "benign.jsonl", lambda lines: lines[:-1]),
    ("detect", "verdicts.jsonl", _flip_first_verdict),
    ("detect", "verdicts.jsonl", _shift_first_value),
    ("detect", "verdicts.jsonl", lambda lines: lines[:-1]),
    ("sweep", "sweep.csv", _raise_top_fp),
])
def test_detect_checks_fail_on_corrupt_output(tmp_path, kind, target, edit):
    ops = _ops("detect-mixed", tmp_path)

    def corrupt(code):
        _rewrite(tmp_path / target, edit)
        return code

    _corrupt(ops, kind, corrupt)
    stats = run.run_jobs(ops, 0.0)
    assert stats["failed"] >= 1, stats
    assert any(p.startswith(kind) for p in stats["problems"])


@pytest.mark.parametrize("workload", ["fleet-threshold", "fleet-ks"])
@pytest.mark.parametrize("change", [
    {"attack_workers_flagged": 1},
    {"post_isolation_shared_events": 1},
    {"benign_interval_fp_rate": 0.5},
    {"verdicts": ()},
])
def test_fleet_checks_fail_on_corrupt_report(tmp_path, workload, change):
    ops = _ops(workload, tmp_path)
    _corrupt(ops, "fleet", lambda report: dataclasses.replace(report, **change))
    stats = run.run_jobs(ops, 0.0)
    assert stats["failed"] == 1, stats


def test_channel_checks_fail_on_corrupt_budget_and_grid(tmp_path):
    ops = _ops("channel-budget", tmp_path)
    _corrupt(ops, "budget", lambda n: 2 * n, nth=1)

    def corrupt_grid(code):
        _rewrite(tmp_path / "grid.csv", lambda lines: [*lines[:-1], "1000,10000,1.5"])
        return code

    _corrupt(ops, "grid", corrupt_grid)
    stats = run.run_jobs(ops, 0.0)
    assert stats["attempted"] == 3 and stats["failed"] == 2, stats
    assert [p.split(":")[0] for p in stats["problems"]] == ["budget", "grid"]


def test_channel_budget_bounds():
    with pytest.raises(workloads.CheckFailed):
        workloads.check_budget(1, 100, None)
    with pytest.raises(workloads.CheckFailed):
        workloads.check_budget(10, 40_000, 250_000)
    workloads.check_budget(10, 25_000, 250_000)
