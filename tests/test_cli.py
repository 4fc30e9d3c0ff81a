"""CLI surface tests: workflows, artifact schemas, exit codes."""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from spectreguard import channel, cli, fleet, ks
from spectreguard.fleet import AttackWorkload, DetectorSpec, FleetConfig, run_fleet
from spectreguard.profiles import MAX_AMPLIFICATION, AttackVariant
from spectreguard.threshold import ThresholdConfig, classify_threshold
from spectreguard.trace import _FORMAT_BLOCK, NS_PER_SECOND, fold_intervals, ingest_trace


PINNED_TRACE = Path(__file__).parent / "data" / "pinned_trace.jsonl"
# One past the amplification/pages bound, and an integer past float range.
PAST_BOUND = MAX_AMPLIFICATION + 1
HUGE = 10**400

# Exact bytes of detect and sweep on PINNED_TRACE.  The web-b window at 0
# pins the correctly rounded sum: 0.1 + 0.2 + 0.3 added left to right gives
# a mean of 0.20000000000000004.
PINNED_VERDICTS = """\
# schema: verdicts-v1
{"suspect": false, "threshold": 4096.0, "triggering_metric": "branch_per_itlb", "value": 600.0, "window_start_ns": 0, "worker_id": "api-a"}
{"suspect": true, "threshold": 4877.155802862976, "triggering_metric": "md_reset_per_itlb", "value": 9000.0, "window_start_ns": 0, "worker_id": "stl-x"}
{"suspect": false, "threshold": 4096.0, "triggering_metric": "branch_per_itlb", "value": 0.19999999999999998, "window_start_ns": 0, "worker_id": "web-b"}
{"suspect": false, "threshold": 4096.0, "triggering_metric": "branch_per_itlb", "value": 500.0, "window_start_ns": 1000000000, "worker_id": "web-b"}
{"suspect": true, "threshold": 4096.0, "triggering_metric": "branch_per_itlb", "value": 211835.77, "window_start_ns": 1000000000, "worker_id": "api-a"}
{"suspect": true, "threshold": 4877.155802862976, "triggering_metric": "md_reset_per_itlb", "value": 9000.0, "window_start_ns": 1000000000, "worker_id": "stl-x"}
"""
PINNED_SWEEP = """\
# schema: sweep-v1
threshold,fp_rate
128.0,0.8333333333333334
256.0,0.8333333333333334
512.0,0.6666666666666666
1024.0,0.16666666666666666
2048.0,0.16666666666666666
4096.0,0.16666666666666666
8192.0,0.16666666666666666
16384.0,0.16666666666666666
32768.0,0.16666666666666666
65536.0,0.16666666666666666
"""


def run(*argv) -> int:
    return cli.main(list(argv))


def read_lines(path):
    return path.read_text().splitlines()


class TestGenAndDetect:
    def test_attack_trace_is_flagged(self, tmp_path):
        trace = tmp_path / "attack.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        assert run("gen", "--profile", "pht", "--n", "20", "--out", str(trace)) == 0
        assert run("detect", "--detector", "threshold", "--trace", str(trace),
                   "--out", str(verdicts)) == 0
        lines = read_lines(verdicts)
        assert lines[0] == "# schema: verdicts-v1"
        records = [json.loads(l) for l in lines[1:]]
        assert records and all(r["suspect"] for r in records)

    def test_benign_trace_mostly_clean(self, tmp_path):
        trace = tmp_path / "benign.jsonl"
        verdicts = tmp_path / "verdicts.jsonl"
        assert run("gen", "--profile", "benign", "--n", "300", "--out", str(trace)) == 0
        assert run("detect", "--trace", str(trace), "--out", str(verdicts)) == 0
        records = [json.loads(l) for l in read_lines(verdicts)[1:]]
        flagged = sum(r["suspect"] for r in records)
        assert flagged <= len(records) * 0.05

    def test_generated_trace_round_trips(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        run("gen", "--profile", "benign", "--n", "50", "--out", str(trace))
        assert len(list(ingest_trace(trace))) == 50

    @pytest.mark.parametrize("variant", ["pht", "btb", "rsb", "stl"])
    def test_amplification_and_pages_at_the_bound(self, tmp_path, variant):
        # every count stays in int64 and no numpy warning (an error in this
        # test session) is raised; PAST_BOUND is rejected by the flag rules
        trace, bound = tmp_path / "t.jsonl", str(MAX_AMPLIFICATION)
        for scale in (["--amplification", bound], ["--amplification", bound, "--pages", bound]):
            assert run("gen", "--profile", variant, *scale, "--n", "50",
                       "--out", str(trace)) == 0
            assert len(ingest_trace(trace)) == 50
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_benign": 2, "intervals": 2, "attack": {
            "variant": variant, "amplification": MAX_AMPLIFICATION, "pages": MAX_AMPLIFICATION}}))
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 0

    def test_ks_detector_over_histogram_dir(self, tmp_path):
        hist_dir = tmp_path / "hists"
        hist_dir.mkdir()
        run("gen", "--profile", "pht", "--n", "5", "--out", str(tmp_path / "x.jsonl"),
            "--histogram-out", str(hist_dir / "worker-a.csv"))
        verdicts = tmp_path / "v.jsonl"
        assert run("detect", "--detector", "ks", "--histograms", str(hist_dir),
                   "--out", str(verdicts)) == 0
        (record,) = [json.loads(l) for l in read_lines(verdicts)[1:]]
        assert record["worker_id"] == "worker-a"
        assert record["suspect"] is True
        assert set(record) == {"worker_id", "suspect", "d", "p", "n", "m", "k_effective"}

    @pytest.mark.parametrize("top_k,taken", [([], 64), (["--top-k", "5"], 5)])
    def test_ks_verdict_counts_the_branches_taken(self, tmp_path, top_k, taken):
        # gen's attack histograms have 64 branches each.
        hist_dir = tmp_path / "hists"
        hist_dir.mkdir()
        for variant in ("pht", "btb"):
            run("gen", "--profile", variant, "--n", "5", "--out", str(tmp_path / "x.jsonl"),
                "--histogram-out", str(hist_dir / f"{variant}.csv"))
        verdicts = tmp_path / "v.jsonl"
        assert run("detect", "--detector", "ks", "--histograms", str(hist_dir),
                   "--out", str(verdicts), *top_k) == 0
        records = [json.loads(l) for l in read_lines(verdicts)[1:]]
        assert [r["worker_id"] for r in records] == ["btb", "pht"]
        assert all(r["k_effective"] == r["n"] == taken for r in records)

    def test_bad_histogram_in_dir_names_its_file_and_line(self, tmp_path, capsys):
        hist_dir = tmp_path / "hists"
        hist_dir.mkdir()
        run("gen", "--profile", "pht", "--n", "5", "--out", str(tmp_path / "x.jsonl"),
            "--histogram-out", str(hist_dir / "a.csv"))
        bad = hist_dir / "b.csv"
        bad.write_bytes(b"# schema: histogram-v1\nbranch_id,mispredictions\nb\xff1,5\n")
        capsys.readouterr()
        verdicts = tmp_path / "v.jsonl"
        assert run("detect", "--detector", "ks", "--histograms", str(hist_dir),
                   "--out", str(verdicts)) == 1
        assert capsys.readouterr().err == f"error: {bad}: line 3: invalid UTF-8 byte 0xff\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["hists", "x.jsonl"]


class TestPinnedArtifacts:
    def test_detect_bytes(self, tmp_path):
        out = tmp_path / "verdicts.jsonl"
        assert run("detect", "--trace", str(PINNED_TRACE), "--out", str(out)) == 0
        assert out.read_bytes() == PINNED_VERDICTS.encode()

    def test_sweep_bytes(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--trace", str(PINNED_TRACE), "--out", str(out)) == 0
        assert out.read_bytes() == PINNED_SWEEP.encode()


def trace_line(worker_id, ts_ns, itlb, br_insn, md_reset):
    record = {"worker_id": worker_id, "ts_ns": ts_ns, "itlb": itlb, "br_insn": br_insn,
              "br_miss": 0, "llc_ref": 0, "llc_miss": 0, "l1d_acc": 0, "l1d_miss": 0,
              "md_reset": md_reset}
    return json.dumps(record) + "\n"


# Escaped and non-ASCII worker names, and timestamps at both int64 ends.
EDGE_TRACE = "".join([
    trace_line('q"uote\\back', -(2**63), 3, 10, 7),
    trace_line('q"uote\\back', -(2**63) + 5, 7, 40_000, 7),
    trace_line("\u65e5\u672c-\U0001f600", 2**63 - 1, 1, 4096, 99_999),
    trace_line("tab\tname", 0, 2, 1, 1),
    trace_line("tab\tname", 2**63 - 1, 3, 12_288, 1),
])


def per_window_lines(trace, extra):
    """detect's output for ``extra`` flags, from the per-window objects."""
    args = dict(zip(extra[::2], extra[1::2]))
    cfg = ThresholdConfig(
        branch_per_itlb_threshold=float(args.get("--threshold", 4096.0)),
        stl_reset_threshold=float(args.get("--stl-threshold", ThresholdConfig().stl_reset_threshold)),
    )
    expected = ["# schema: verdicts-v1"]
    for avg in fold_intervals(ingest_trace(trace)):
        verdict = classify_threshold(avg, cfg)
        expected.append(cli._SORTED_JSON({
            "worker_id": avg.worker_id,
            "window_start_ns": avg.window_start_ns,
            "suspect": verdict.suspect,
            "triggering_metric": verdict.triggering_metric,
            "value": verdict.value,
            "threshold": verdict.threshold,
        }))
    return expected


class TestDetectLines:
    """detect's column path writes what the per-window objects would."""

    @pytest.mark.parametrize("extra", [
        [], ["--threshold", "inf"], ["--stl-threshold", "0"],
    ])
    def test_lines_equal_per_window_encoding(self, tmp_path, extra):
        trace = tmp_path / "edge.jsonl"
        trace.write_text(EDGE_TRACE, encoding="utf-8")
        out = tmp_path / "v.jsonl"
        assert run("detect", "--trace", str(trace), "--out", str(out), *extra) == 0
        expected = per_window_lines(trace, extra)
        assert out.read_text(encoding="utf-8").splitlines() == expected
        assert len(expected) == 1 + 4

    def test_floats_that_need_17_digits(self, tmp_path):
        # The window mean (0.1 + 0.2) / 2 and the STL threshold each need 17
        # significant digits; the branch threshold is written as Infinity.
        trace = tmp_path / "edge.jsonl"
        trace.write_text(EDGE_TRACE + trace_line("w17", 0, 10, 1, 0)
                         + trace_line("w17", 1, 10, 2, 0), encoding="utf-8")
        extra = ["--threshold", "inf", "--stl-threshold", "0.30000000000000004"]
        out = tmp_path / "v.jsonl"
        assert run("detect", "--trace", str(trace), "--out", str(out), *extra) == 0
        text = out.read_text(encoding="utf-8")
        assert text.splitlines() == per_window_lines(trace, extra)
        assert '"threshold": Infinity, "triggering_metric": "branch_per_itlb", ' \
               '"value": 0.15000000000000002' in text
        assert '"threshold": 0.30000000000000004, "triggering_metric": "md_reset_per_itlb"' in text

    @pytest.mark.parametrize("n", [_FORMAT_BLOCK, _FORMAT_BLOCK + 5])
    def test_verdict_blocks(self, tmp_path, n):
        # Each w* worker's window 0 closes in file order.  Worker "neg"'s
        # window, of ts = -(2**63), starts below -(2**63) and closes after
        # every w* window 0, so it is verdict n, in the second block (its
        # first row when n is one block).
        names = [f'w{i}"' for i in range(n)]
        # Each rule flags some of the w* windows 0 and not others.
        text = "".join(trace_line(name, 0, 3, 3 * (4_090 + i % 13), 15_000 if i % 5 else 7)
                       for i, name in enumerate(names))
        text += trace_line("neg", -(2**63), 3, 10, 7)
        text += "".join(trace_line(name, NS_PER_SECOND, 5, 9, 7) for name in names)
        text += trace_line("neg", 0, 3, 10, 7)
        trace = tmp_path / "blocks.jsonl"
        trace.write_text(text, encoding="utf-8")
        out = tmp_path / "v.jsonl"
        assert run("detect", "--trace", str(trace), "--out", str(out)) == 0
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines == per_window_lines(trace, [])
        assert len(lines) - 1 == 2 * n + 2 > 2 * _FORMAT_BLOCK
        start = json.loads(lines[1 + n])["window_start_ns"]
        assert start == -9_223_372_037 * NS_PER_SECOND < -(2**63)
        verdicts = [json.loads(line) for line in lines[1:n + 1]]
        assert {(v["suspect"], v["triggering_metric"]) for v in verdicts} == {
            (False, "branch_per_itlb"), (True, "branch_per_itlb"), (True, "md_reset_per_itlb")}


class TestSweep:
    def test_sweep_csv_is_survival_curve(self, tmp_path):
        trace = tmp_path / "b.jsonl"
        out = tmp_path / "sweep.csv"
        run("gen", "--profile", "benign", "--n", "2000", "--out", str(trace))
        assert run("sweep", "--trace", str(trace), "--out", str(out)) == 0
        lines = read_lines(out)
        assert lines[0] == "# schema: sweep-v1"
        assert lines[1] == "threshold,fp_rate"
        rates = [float(l.split(",")[1]) for l in lines[2:]]
        assert all(b <= a for a, b in zip(rates, rates[1:]))


class TestChannel:
    def test_leakage_table(self, tmp_path):
        out = tmp_path / "table.csv"
        assert run("channel", "--table", "--out", str(out)) == 0
        lines = read_lines(out)
        assert lines[0] == "# schema: leakage-v1"
        rows = [l.split(",") for l in lines[2:]]
        reported = [0, 1, 10, 62, 79, 120]
        assert len(rows) == 6
        for row, expected in zip(rows, reported):
            assert abs(float(row[3]) - expected) <= 1.0

    def test_success_grid(self, tmp_path):
        out = tmp_path / "grid.csv"
        assert run("channel", "--amplifications", "1000,10000", "--requests", "1,50",
                   "--out", str(out)) == 0
        lines = read_lines(out)
        assert lines[1] == "amplification,requests,success_rate"
        assert len(lines) == 2 + 4


class TestModuleEntryPoint:
    """``python -m spectreguard.cli``, the route that needs no installed console script."""

    @staticmethod
    def run_module(*argv) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        return subprocess.run([sys.executable, "-m", "spectreguard.cli", *argv], env=env,
                              capture_output=True, text=True)

    def test_writes_what_main_writes(self, tmp_path):
        done = self.run_module("channel", "--table", "--out", str(tmp_path / "a.csv"))
        assert done.returncode == 0, done.stderr
        assert run("channel", "--table", "--out", str(tmp_path / "b.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()

    def test_input_error_exits_1(self, tmp_path):
        done = self.run_module("gen", "--profile", "benign", "--n", "0",
                               "--out", str(tmp_path / "b.jsonl"))
        assert done.returncode == 1
        assert done.stderr.splitlines()[-1].startswith("error: --n ")
        assert list(tmp_path.iterdir()) == []


class TestArtifactModes:
    @pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)])
    def test_artifacts_follow_the_umask(self, tmp_path, umask, mode):
        trace, hists = tmp_path / "t.jsonl", tmp_path / "hists"
        hists.mkdir()
        previous = os.umask(umask)
        try:
            assert run("gen", "--profile", "pht", "--n", "5", "--out", str(trace),
                       "--histogram-out", str(hists / "w.csv")) == 0
            assert run("detect", "--trace", str(trace), "--out", str(tmp_path / "v.jsonl")) == 0
            assert run("fleet", "--intervals", "2", "--out", str(tmp_path / "f.json")) == 0
        finally:
            os.umask(previous)
        for name in ("t.jsonl", "hists/w.csv", "v.jsonl", "f.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == mode, name


class TestFleetCommand:
    def test_report_and_series(self, tmp_path):
        report_path = tmp_path / "fleet.json"
        series_path = tmp_path / "series.csv"
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_benign": 6, "n_attack": 1, "intervals": 3}))
        assert run("fleet", "--config", str(config), "--seed", "4",
                   "--out", str(report_path), "--series-out", str(series_path)) == 0
        report = json.loads(report_path.read_text())
        assert report["schema"] == "fleet-report-v3"
        assert report["seed"] == 4  # flag overrides file default
        assert read_lines(series_path)[0] == "# schema: fleet-series-v1"

    def test_report_names_its_detector(self, tmp_path):
        fleet = {"n_benign": 20, "n_attack": 2, "intervals": 6, "seed": 9}
        detectors, reports = {}, {}
        for kind in ("threshold", "ks"):
            detectors[kind] = {"kind": kind, "branch_per_itlb": 5000.0, "stl_reset": 6000.0,
                               "alpha": 0.05}
            config = tmp_path / f"{kind}.json"
            config.write_text(json.dumps({**fleet, "detector": detectors[kind]}))
            out = tmp_path / f"{kind}-report.json"
            assert run("fleet", "--config", str(config), "--out", str(out)) == 0
            reports[kind] = out.read_text()
            assert json.loads(reports[kind])["detector"] == detectors[kind]
        assert reports["threshold"] != reports["ks"]
        # the block is config-file form: fed back, it gives the same report
        config = tmp_path / "again.json"
        config.write_text(json.dumps({**fleet, "detector": json.loads(reports["ks"])["detector"]}))
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "again.json")) == 0
        assert (tmp_path / "again.json").read_text() == reports["ks"]

    @pytest.mark.parametrize("name,fleet", [
        ("fleet_ks_report.json", {"n_benign": 4, "n_attack": 1, "intervals": 3, "seed": 9}),
        ("fleet_ks_blocks_report.json", {"n_benign": 40, "n_attack": 3, "intervals": 7,
                                         "seed": 11}),
    ])
    def test_report_body_is_the_pinned_report(self, tmp_path, name, fleet):
        # Without schema and detector the payload is FleetReport.to_json_dict.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({**fleet, "detector": {"kind": "ks"}}))
        out = tmp_path / "r.json"
        assert run("fleet", "--config", str(config), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        assert payload.pop("schema") == "fleet-report-v3"
        payload.pop("detector")
        pinned = Path(__file__).parent / "data" / name
        assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == pinned.read_text()

    def test_attack_section_reaches_the_simulator(self, tmp_path):
        def body(attack: dict) -> str:
            config = tmp_path / "cfg.json"
            config.write_text(json.dumps(
                {"n_benign": 6, "n_attack": 2, "intervals": 4, "seed": 9, "attack": attack}
            ))
            out = tmp_path / "r.json"
            assert run("fleet", "--config", str(config), "--out", str(out)) == 0
            payload = json.loads(out.read_text())
            del payload["schema"], payload["detector"]
            return json.dumps(payload, sort_keys=True)

        def expected(attack: AttackWorkload) -> str:
            cfg = FleetConfig(n_benign=6, n_attack=2, intervals=4, rng_seed=9, attack=attack)
            return json.dumps(run_fleet(cfg).to_json_dict(), sort_keys=True)

        full = {"variant": "btb", "amplification": 50, "pages": 20}
        assert body(full) == expected(AttackWorkload("btb", 50, 20))
        # Every key moves the verdicts: 20 pages dilute btb below the branch
        # threshold but not pht, and amplification 5 weakens pht below it.
        assert body({"variant": "btb"}) == expected(AttackWorkload("btb")) != body(
            {"variant": "btb", "pages": 20})
        assert body({"pages": 20}) == expected(AttackWorkload(pages=20)) != body(
            {"variant": "btb", "pages": 20})
        assert body({}) != body({"amplification": 5}) == expected(AttackWorkload(amplification=5))

    def test_abbreviated_seed_flag_overrides_config(self, tmp_path):
        # argparse takes a unique prefix, so --see sets the same seed as --seed.
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_benign": 6, "n_attack": 1, "intervals": 3, "seed": 5}))
        reports = {}
        for name, flags in {"config": [], "see": ["--see", "9"], "seed": ["--seed", "9"],
                            "seed=": ["--seed=9"]}.items():
            out = tmp_path / f"{name}.json"
            assert run("fleet", "--config", str(config), *flags, "--out", str(out)) == 0
            reports[name] = out.read_text()
        assert reports["see"] == reports["seed"] == reports["seed="]
        assert json.loads(reports["see"])["seed"] == 9
        assert reports["config"] != reports["see"]
        assert json.loads(reports["config"])["seed"] == 5

    def test_threshold_flag_is_a_usage_error(self, tmp_path, capsys):
        # the branch threshold is set by the config key detector.branch_per_itlb
        out = tmp_path / "r.json"
        assert run("fleet", "--threshold", "1", "--intervals", "2", "--out", str(out)) == 1
        assert "unrecognized arguments: --threshold 1" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_is_input_error(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"n_workers": 5}))
        assert run("fleet", "--config", str(config),
                   "--out", str(tmp_path / "r.json")) == 1

    @pytest.mark.parametrize("text,key", [
        ('{"n_benign": 2, "n_benign": 7, "intervals": 2}', "n_benign"),
        ('{"n_benign": 2, "intervals": 2, "detector": {"kind": "ks", "kind": "threshold"}}',
         "kind"),
    ])
    def test_duplicate_config_key_is_input_error(self, tmp_path, capsys, text, key):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
        assert f"duplicate key {key!r}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_empty_config_runs_the_dataclass_defaults(self, tmp_path):
        # Every missing key takes FleetConfig's default, except the seed (1729).
        config = tmp_path / "cfg.json"
        config.write_text("{}")
        out = tmp_path / "r.json"
        assert run("fleet", "--config", str(config), "--out", str(out)) == 0
        payload = json.loads(out.read_text())
        del payload["schema"], payload["detector"]
        expected = run_fleet(FleetConfig(rng_seed=1729)).to_json_dict()
        assert json.dumps(payload, sort_keys=True) == json.dumps(expected, sort_keys=True)


def nest(path: tuple[str, ...], value) -> dict:
    """The config file that puts ``value`` at ``path``."""
    for key in reversed(path):
        value = {key: value}
    return value


# Every field of the fleet's config classes: its config path, a non-default
# value there, and the FleetConfig settings that value must build.
CONFIG_SURFACE = {
    (FleetConfig, "n_benign"): (("n_benign",), 7, dict(n_benign=7)),
    (FleetConfig, "n_attack"): (("n_attack",), 3, dict(n_attack=3)),
    (FleetConfig, "intervals"): (("intervals",), 2, dict(intervals=2)),
    (FleetConfig, "executions_per_interval"): (
        ("executions_per_interval",), 5, dict(executions_per_interval=5)),
    (FleetConfig, "detector"): (("detector",), {"kind": "ks", "alpha": 0.2},
                                dict(detector=DetectorSpec(kind="ks", alpha=0.2))),
    (FleetConfig, "attack"): (("attack",), {"variant": "rsb", "pages": 3},
                              dict(attack=AttackWorkload(AttackVariant.RSB, pages=3))),
    (FleetConfig, "baseline_rps"): (("baseline_rps",), 250, dict(baseline_rps=250.0)),
    (FleetConfig, "worker_mem_bytes"): (("worker_mem_bytes",), 4096, dict(worker_mem_bytes=4096)),
    (FleetConfig, "subrequests_per_interval"): (
        ("subrequests_per_interval",), 2600, dict(subrequests_per_interval=2600)),
    (FleetConfig, "rng_seed"): (("seed",), 5, dict(rng_seed=5)),
    (DetectorSpec, "kind"): (("detector", "kind"), "ks", dict(detector=DetectorSpec(kind="ks"))),
    (DetectorSpec, "threshold"): (
        ("detector",), {"branch_per_itlb": 5000, "stl_reset": 6000.0},
        dict(detector=DetectorSpec(threshold=ThresholdConfig(5000.0, 6000.0)))),
    (DetectorSpec, "alpha"): (("detector", "alpha"), 0.3, dict(detector=DetectorSpec(alpha=0.3))),
    (ThresholdConfig, "branch_per_itlb_threshold"): (
        ("detector", "branch_per_itlb"), 0,
        dict(detector=DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=0.0)))),
    (ThresholdConfig, "stl_reset_threshold"): (
        ("detector", "stl_reset"), 1e9,
        dict(detector=DetectorSpec(threshold=ThresholdConfig(stl_reset_threshold=1e9)))),
    (AttackWorkload, "variant"): (("attack", "variant"), "stl",
                                  dict(attack=AttackWorkload(AttackVariant.STL))),
    (AttackWorkload, "amplification"): (("attack", "amplification"), 40,
                                        dict(attack=AttackWorkload(amplification=40))),
    (AttackWorkload, "pages"): (("attack", "pages"), 130, dict(attack=AttackWorkload(pages=130))),
}
CONFIG_FIELDS = [(cls, f) for cls in (FleetConfig, DetectorSpec, ThresholdConfig, AttackWorkload)
                 for f in dataclasses.fields(cls)]


def config_field_params(keep=lambda f: True) -> list:
    return [pytest.param(cls, f, id=f"{cls.__name__}.{f.name}")
            for cls, f in CONFIG_FIELDS if keep(f)]


class TestFleetConfigSurface:
    """The config file's keys are the config dataclasses' fields."""

    def fleet_config(self, tmp_path, monkeypatch, config) -> FleetConfig:
        built = []
        simulate = fleet.run_fleet
        monkeypatch.setattr(fleet, "run_fleet", lambda cfg: built.append(cfg) or simulate(cfg))
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        assert run("fleet", "--config", str(path), "--out", str(tmp_path / "r.json")) == 0
        (cfg,) = built
        return cfg

    @pytest.mark.parametrize(("cls", "f"), config_field_params())
    def test_every_field_has_a_config_path(self, tmp_path, monkeypatch, cls, f):
        # a field added without a row here (and a config path) fails this test
        assert (cls, f.name) in CONFIG_SURFACE, f"{cls.__name__}.{f.name} has no config path"
        path, value, settings = CONFIG_SURFACE[cls, f.name]
        # the CLI's seed default is DEFAULT_SEED, not FleetConfig's 0
        expected = FleetConfig(**{"rng_seed": cli.DEFAULT_SEED, **settings})
        assert expected != FleetConfig(rng_seed=cli.DEFAULT_SEED)
        assert self.fleet_config(tmp_path, monkeypatch, nest(path, value)) == expected

    @pytest.mark.parametrize(("cls", "f"), config_field_params(lambda f: "minimum" in f.metadata))
    def test_value_below_minimum_is_input_error(self, tmp_path, capsys, cls, f):
        path, _value, _settings = CONFIG_SURFACE[cls, f.name]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(nest(path, f.metadata["minimum"] - 1)))
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
        assert f"fleet config {path[-1]!r} must be " in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(("cls", "f"), config_field_params(
        lambda f: f.metadata.get("maximum", math.inf) < math.inf))
    def test_value_past_maximum_is_input_error(self, tmp_path, capsys, cls, f):
        path, _value, _settings = CONFIG_SURFACE[cls, f.name]
        maximum = f.metadata["maximum"]
        config = tmp_path / "cfg.json"
        for value in (maximum + 1, HUGE):
            config.write_text(json.dumps(nest(path, value)))
            assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
            assert capsys.readouterr().err == (
                f"error: fleet config {path[-1]!r} must be <= {maximum}, got {value}\n")
            assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(("cls", "f"), config_field_params(
        lambda f: f.type in ("float", float) and "minimum" in f.metadata))
    def test_integer_past_float_range_is_input_error(self, tmp_path, capsys, cls, f):
        # float() of it raised OverflowError, which ended in a traceback
        path, _value, _settings = CONFIG_SURFACE[cls, f.name]
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps(nest(path, HUGE)))
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == (
            f"error: fleet config {path[-1]!r} must be a number in float range, got {HUGE}\n")
        assert not (tmp_path / "r.json").exists()

    def test_ten_settable_fields(self):
        assert len(dataclasses.fields(FleetConfig)) == 10

    @pytest.mark.parametrize(("text", "message"), [
        ('{"seed": -1}', "fleet config 'seed' must be an integer >= 0, got -1"),
        ('{"n_workers": 5}', "unknown fleet config keys: ['n_workers']"),
        # a field named where its key is an alias; the cost model and the limit are constants
        ('{"rng_seed": 5, "subrequest_limit": 5, "cost_model": {}}',
         "unknown fleet config keys: ['cost_model', 'rng_seed', 'subrequest_limit']"),
        ('{"detector": {"branch_per_itlb_threshold": 5000}}',
         "unknown detector config keys: ['branch_per_itlb_threshold']"),
        ('{"attack": {"variant": "btb", "amp": 3}}', "unknown attack config keys: ['amp']"),
        ('{"n_benign": 2, "n_benign": 7}', "cannot read fleet config: duplicate key 'n_benign'"),
        ('{"detector": [1]}', "fleet config 'detector' must be a JSON object"),
        ('[{"n_benign": 2}]', "fleet config must be a JSON object"),
    ])
    def test_error_messages(self, tmp_path, capsys, text, message):
        config = tmp_path / "cfg.json"
        config.write_text(text)
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err == f"error: {message}\n"


class TestKsCommand:
    def test_self_comparison(self, tmp_path, capsys):
        hist = tmp_path / "h.csv"
        run("gen", "--profile", "pht", "--n", "5", "--out", str(tmp_path / "t.jsonl"),
            "--histogram-out", str(hist))
        assert run("ks", str(hist), str(hist)) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["d"] == 0.0
        assert payload["p"] == 1.0
        assert payload["suspect"] is True

    @pytest.mark.parametrize("flags", [[], ["--exact", "--top-k", "5"], ["--alpha", "0.99"]])
    def test_verdict_is_classify_ks(self, tmp_path, capsys, monkeypatch, flags):
        # the pair is decided by classify_ks alone, in the mode the flag asks for
        subject, reference = tmp_path / "s.csv", tmp_path / "r.csv"
        for seed, hist in ((3, subject), (4, reference)):
            run("gen", "--profile", "pht", "--n", "5", "--seed", str(seed),
                "--out", str(tmp_path / "t.jsonl"), "--histogram-out", str(hist))
        calls = []
        decide = ks.classify_ks
        monkeypatch.setattr(ks, "classify_ks", lambda *a, **kw: calls.append(kw) or decide(*a, **kw))
        assert run("ks", str(subject), str(reference), *flags) == 0
        payload = json.loads(capsys.readouterr().out)
        (kwargs,) = calls
        assert kwargs["mode"] == ("exact" if "--exact" in flags else "asymptotic")
        verdict = decide(ks.read_histogram_csv(subject), ks.read_histogram_csv(reference), **kwargs)
        assert payload == {"d": verdict.ks.statistic, "p": verdict.ks.p_value, "n": verdict.ks.n,
                           "m": verdict.ks.m, "suspect": verdict.suspect, "alpha": kwargs["alpha"]}

    def test_exact_mode_at_the_default_top_k(self, tmp_path, capsys):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        for profile, seed, hist in (("pht", 1, paths[0]), ("btb", 2, paths[1])):
            run("gen", "--profile", profile, "--n", "5", "--seed", str(seed),
                "--out", str(tmp_path / "t.jsonl"), "--histogram-out", str(hist))
        assert run("ks", *map(str, paths), "--exact") == 0
        payload = json.loads(capsys.readouterr().out)
        top_a, top_b = (ks.top_branches(ks.read_histogram_csv(path), ks.DEFAULT_TOP_K)
                        for path in paths)
        assert payload["n"] + payload["m"] > 12
        assert payload["p"] == ks.ks_two_sample(top_a, top_b, mode="exact").p_value

    @pytest.mark.parametrize("alpha", ["5", "1", "0", "-1"])
    def test_alpha_outside_unit_interval_is_input_error(self, tmp_path, capsys, alpha):
        hist = tmp_path / "h.csv"
        run("gen", "--profile", "pht", "--n", "5", "--out", str(tmp_path / "t.jsonl"),
            "--histogram-out", str(hist))
        assert run("ks", str(hist), str(hist), "--alpha", alpha) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "alpha must be in (0, 1)" in captured.err


    def test_field_past_the_csv_size_limit_names_file_and_line(self, tmp_path, capsys):
        big = tmp_path / "big.csv"
        big.write_text("# schema: histogram-v1\nbranch_id,mispredictions\nb1,5\n"
                       + "x" * 200_000 + ",7\n")
        out = tmp_path / "ks.json"
        assert run("ks", str(big), str(big), "--out", str(out)) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {big}: line 4: field larger than field limit "
                                f"({csv.field_size_limit()})\n")
        assert captured.out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["big.csv"]


class TestErrors:
    def test_missing_trace_is_input_error(self, tmp_path):
        assert run("detect", "--trace", str(tmp_path / "nope.jsonl"),
                   "--out", str(tmp_path / "v.jsonl")) == 1

    def test_bad_trace_leaves_previous_verdicts(self, tmp_path):
        trace = tmp_path / "t.jsonl"
        trace.write_text(PINNED_TRACE.read_text() + "{not json\n")
        out = tmp_path / "v.jsonl"
        out.write_text("previous\n")
        assert run("detect", "--trace", str(trace), "--out", str(out)) == 1
        assert out.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["t.jsonl", "v.jsonl"]

    @pytest.mark.parametrize("command", ["detect", "sweep"])
    def test_huge_integer_in_trace_names_its_line(self, tmp_path, capsys, command):
        # 5,001 digits, past Python's int-string limit; json.dumps cannot write it
        huge = trace_line("w0", 1, 1, 0, 0).replace('"itlb": 1', '"itlb": ' + "1" * 5001, 1)
        trace = tmp_path / "t.jsonl"
        trace.write_text(trace_line("w0", 0, 1, 0, 0) + huge)
        assert run(command, "--trace", str(trace), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err.startswith("error: line 2: Exceeds the limit (4300 digits)")
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    @pytest.mark.parametrize("command", ["detect", "sweep"])
    def test_invalid_utf8_in_trace_names_its_line(self, tmp_path, capsys, command):
        bad = trace_line("w0", 1, 1, 0, 0).replace('"w0"', '"w\udcff"').encode("utf-8", "surrogateescape")
        trace = tmp_path / "t.jsonl"
        trace.write_bytes(trace_line("w0", 0, 1, 0, 0).encode() + bad)
        assert run(command, "--trace", str(trace), "--out", str(tmp_path / "out")) == 1
        assert capsys.readouterr().err == "error: line 2: invalid UTF-8 byte 0xff\n"
        assert [p.name for p in tmp_path.iterdir()] == ["t.jsonl"]

    @pytest.mark.parametrize("data,reason", [
        (b'{"n_benign": ' + b"1" * 5001 + b"}", "Exceeds the limit (4300 digits)"),
        (b'{"n_benign": 2, "note": "\xff"}', "'utf-8' codec can't decode byte 0xff"),
    ], ids=["huge-integer", "bad-utf8"])
    def test_unreadable_fleet_config_is_a_read_error(self, tmp_path, capsys, data, reason):
        config = tmp_path / "cfg.json"
        config.write_bytes(data)
        assert run("fleet", "--config", str(config), "--out", str(tmp_path / "r.json")) == 1
        assert capsys.readouterr().err.startswith(f"error: cannot read fleet config: {reason}")
        assert not (tmp_path / "r.json").exists()

    def test_usage_error_exits_one(self, tmp_path):
        assert run("gen", "--profile", "bogus", "--out", str(tmp_path / "t")) == 1

    @pytest.mark.parametrize("profile", ["benign", "pht"])
    def test_negative_gen_seed_names_the_flag(self, tmp_path, capsys, profile):
        histogram = ["--histogram-out", str(tmp_path / "h.csv")] if profile == "pht" else []
        assert run("gen", "--profile", profile, "--seed", "-1", *histogram,
                   "--out", str(tmp_path / "t.jsonl")) == 1
        assert capsys.readouterr().err == "error: --seed must be an integer >= 0, got -1\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv,message", [
        (["gen", "--profile", "benign", "--n", "0"], "--n must be an integer >= 1, got 0"),
        (["gen", "--profile", "pht", "--pages", "-1"], "--pages must be an integer >= 0, got -1"),
        (["gen", "--profile", "pht", "--amplification", "0"],
         "--amplification must be an integer >= 1, got 0"),
        (["ks", "a.csv", "a.csv", "--top-k", "0"], "--top-k must be an integer >= 1, got 0"),
        (["detect", "--detector", "ks", "--histograms", "hists", "--top-k", "0"],
         "--top-k must be an integer >= 1, got 0"),
        # the table's rules also hold where the handler does not read the flag
        (["detect", "--trace", "t.jsonl", "--top-k", "0"],
         "--top-k must be an integer >= 1, got 0"),
        (["detect", "--trace", "t.jsonl", "--alpha", "1"], "--alpha must be in (0, 1), got 1.0"),
        *(([command, *inputs, "--alpha", alpha], f"--alpha must be in (0, 1), got {alpha}")
          for command, inputs in (("detect", ["--detector", "ks", "--histograms", "hists"]),
                                  ("ks", ["a.csv", "a.csv"]))
          for alpha in ("nan", "inf")),
        (["channel", "--seed", "-1"], "--seed must be an integer >= 0, got -1"),
        (["detect", "--trace", "t.jsonl", "--threshold", "nan"],
         "--threshold must be a number >= 0, got nan"),
        (["detect", "--trace", "t.jsonl", "--stl-threshold", "-1"],
         "--stl-threshold must be a number >= 0, got -1.0"),
        (["gen", "--profile", "pht", "--amplification", str(PAST_BOUND)],
         f"--amplification must be <= {MAX_AMPLIFICATION}, got {PAST_BOUND}"),
        (["gen", "--profile", "pht", "--pages", str(PAST_BOUND)],
         f"--pages must be <= {MAX_AMPLIFICATION}, got {PAST_BOUND}"),
        (["gen", "--profile", "pht", "--amplification", str(HUGE)],
         f"--amplification must be <= {MAX_AMPLIFICATION}, got {HUGE}"),
        (["gen", "--profile", "pht", "--pages", str(HUGE)],
         f"--pages must be <= {MAX_AMPLIFICATION}, got {HUGE}"),
        (["channel", "--amplifications", f"10,{PAST_BOUND}"],
         f"--amplifications: values must be <= {MAX_AMPLIFICATION}, got '10,{PAST_BOUND}'"),
        (["channel", "--amplifications", str(HUGE)],
         f"--amplifications: values must be <= {MAX_AMPLIFICATION}, got '{HUGE}'"),
        (["channel", "--amplifications", "10", "--requests", "2000000000"],
         f"--requests: values must be <= {channel.MAX_REQUESTS}, got '2000000000'"),
        # a flag that the command needs or rejects, or an input that is not there
        (["gen", "--profile", "benign", "--pages", "3"],
         "--amplification/--pages only apply to attack profiles"),
        (["detect"], "--detector threshold requires --trace"),
        (["detect", "--detector", "ks"], "--detector ks requires --histograms"),
        (["detect", "--detector", "ks", "--histograms", "."], "no histogram CSVs under ."),
        (["fleet", "--config", "cfg.json"],
         "cannot read fleet config: [Errno 2] No such file or directory: 'cfg.json'"),
        # flags are checked before any file is read
        (["fleet", "--config", "missing.json", "--intervals", "0"],
         "--intervals must be an integer >= 1, got 0"),
        *((["sweep", "--trace", "t.jsonl", "--thresholds", text],
           f"--thresholds: values must be strictly ascending and not NaN, got {text!r}")
          for text in ("2,1", "nan", "1,1")),
    ], ids=["gen-n", "gen-pages", "gen-amplification", "ks-top-k", "detect-top-k",
            "detect-threshold-top-k", "detect-threshold-alpha", "detect-alpha-nan",
            "detect-alpha-inf", "ks-alpha-nan", "ks-alpha-inf", "channel-seed",
            "detect-threshold-nan", "detect-stl-threshold", "gen-amplification-past-bound",
            "gen-pages-past-bound",
            "gen-amplification-huge", "gen-pages-huge", "channel-amplifications-past-bound",
            "channel-amplifications-huge", "channel-requests-past-bound", "gen-benign-pages",
            "detect-no-trace", "detect-no-histograms", "detect-empty-histogram-dir",
            "fleet-missing-config", "fleet-missing-config-bad-intervals",
            "sweep-thresholds-descending", "sweep-thresholds-nan",
            "sweep-thresholds-repeated"])
    def test_bad_flag_value_names_the_flag(self, tmp_path, capsys, monkeypatch, argv, message):
        # relative inputs name files that do not exist: the flag is checked first
        monkeypatch.chdir(tmp_path)
        assert run(*argv, "--out", "out") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    # an empty list is not the default grid
    @pytest.mark.parametrize("text", ["1,,2", "1,x", "4096,", ""])
    def test_unparsable_sweep_thresholds_name_the_flag(self, tmp_path, capsys, text):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--trace", str(PINNED_TRACE), "--thresholds", text,
                   "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"error: --thresholds: expected comma-separated numbers, got {text!r}\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--requests", "0"), ("--requests", "1,-5"), ("--amplifications", "0"),
        ("--amplifications", "ten"), ("--amplifications", "1,1"), ("--requests", "5,6,5"),
    ])
    def test_channel_grid_rejects_bad_counts(self, tmp_path, capsys, flag, value):
        assert run("channel", flag, value, "--out", str(tmp_path / "g.csv")) == 1
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "g.csv").exists()

    def test_channel_grid_rejects_huge_request_count(self, tmp_path, capsys):
        # its vote window would take ~15 GiB; the flag's bound is the model's
        # MAX_REQUESTS, checked before anything is allocated
        assert run("channel", "--requests", "100000000000000", "--out", str(tmp_path / "g.csv")) == 1
        assert capsys.readouterr().err == (
            f"error: --requests: values must be <= {channel.MAX_REQUESTS}, got '100000000000000'\n")
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("name,argv", [
        ("success_rate_curve", ["--amplifications", "10", "--requests", "1"]),
        ("leakage_table", ["--table"]),
    ])
    def test_channel_error_is_input_error(self, tmp_path, capsys, monkeypatch, name, argv):
        # ChannelError is a ValueError, which main maps to exit 1
        def unreachable(*args, **kwargs):
            raise channel.Unreachable("x")

        monkeypatch.setattr(channel, name, unreachable)
        assert run("channel", *argv, "--out", str(tmp_path / "g.csv")) == 1
        assert capsys.readouterr().err == "error: x\n"
        assert not (tmp_path / "g.csv").exists()

    @pytest.mark.parametrize("config,key,flags", [*((config, key, []) for config, key in [
        ({"n_benign": 2.7}, "n_benign"),
        ({"n_benign": True}, "n_benign"),
        ({"n_attack": "1"}, "n_attack"),
        ({"intervals": 0}, "intervals"),
        ({"seed": 1.5}, "seed"),
        ({"attack": {"pages": 12.9}}, "pages"),
        ({"attack": {"amplification": "10"}}, "amplification"),
        ({"attack": {"amplification": 0}}, "amplification"),
        ({"attack": {"amplification": 10.0}}, "amplification"),
        ({"baseline_rps": "1000"}, "baseline_rps"),
        # JSON's Infinity passes the >= 0 check; the config rejects it
        ({"baseline_rps": float("inf")}, "baseline_rps"),
        ({"detector": {"branch_per_itlb": float("nan")}}, "branch_per_itlb"),
        ({"detector": {"alpha": True}}, "alpha"),
        # the KS screen needs 0 < alpha < 1
        *(({"detector": {"kind": "ks", "alpha": alpha}}, "alpha") for alpha in (0, 1, 1.5)),
        ({"detector": 5}, "detector"),
        ({"attack": ["pht"]}, "attack"),
        ({"attack": {"variant": "xyz"}}, "variant"),
        ({"detector": {"kind": "oracle"}}, "kind"),
        ({"n_benign": None}, "n_benign"),
    ]),
        # a bad flag is named as the flag, not as the config key it overrides
        ({}, "seed", ["--seed", "-1"]),
        ({}, "intervals", ["--intervals", "0"]),
        # the amplification/pages bound; HUGE is past float range
        *(({"attack": {key: value}}, key, [])
          for key in ("amplification", "pages") for value in (PAST_BOUND, HUGE)),
    ])
    def test_fleet_config_value_types(self, tmp_path, capsys, config, key, flags):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"n_benign": 2, "intervals": 2, **config}))
        assert run("fleet", "--config", str(path), *flags,
                   "--out", str(tmp_path / "r.json")) == 1
        err = capsys.readouterr().err
        if flags:
            minimum = {"seed": 0, "intervals": 1}[key]
            assert err == f"error: --{key} must be an integer >= {minimum}, got {flags[1]}\n"
        else:
            assert repr(key) in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("argv,message", [
        (["detect", "--threshold", "nan"], "--threshold must be a number >= 0, got nan"),
        (["detect", "--stl-threshold", "nan"], "--stl-threshold must be a number >= 0, got nan"),
        *((["sweep", "--thresholds", text],
           f"--thresholds: values must be strictly ascending and not NaN, got {text!r}")
          for text in ("1,nan,2", "nan")),
    ])
    def test_nan_threshold_is_input_error(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        assert run(*argv, "--trace", str(PINNED_TRACE), "--out", str(out)) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_histogram_gen_requires_attack_profile(self, tmp_path, capsys):
        out, kept = tmp_path / "t.jsonl", tmp_path / "kept.jsonl"
        kept.write_text("previous\n")
        for trace in (out, kept):
            assert run("gen", "--profile", "benign", "--n", "5", "--out", str(trace),
                       "--histogram-out", str(tmp_path / "h.csv")) == 1
            assert "--histogram-out requires an attack profile" in capsys.readouterr().err
        assert not out.exists()
        assert kept.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.jsonl"]

    def test_failed_histogram_write_keeps_the_old_histogram(self, tmp_path, capsys, monkeypatch):
        class Writer:
            """A csv writer whose disk fills after the header row."""

            def __init__(self, handle, **_kwargs):
                self.handle = handle

            def writerow(self, row):
                self.handle.write(",".join(row) + "\n")

            def writerows(self, rows):
                raise OSError("disk full")

        hist = tmp_path / "h.csv"
        hist.write_text("previous\n")
        monkeypatch.setattr(ks, "csv", SimpleNamespace(writer=Writer))
        assert run("gen", "--profile", "pht", "--n", "5", "--out", str(tmp_path / "t.jsonl"),
                   "--histogram-out", str(hist)) == 1
        assert capsys.readouterr().err == "error: disk full\n"
        assert hist.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["h.csv", "t.jsonl"]
