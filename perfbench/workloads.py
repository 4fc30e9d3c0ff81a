"""The benchmark's four workloads: input preparation, timed operations, checks.

Every timed operation goes through a public entry point of the program:
``cli.main([...])``, ``fleet.run_fleet`` or ``channel.required_requests``.
Entry points are looked up on their module at call time, so the traced run
can wrap them.  Checks never read fields that the roadmap plans to delete
(``history``, ``served_executions``, ``hungry_*``) and never pass the
Monte-Carlo knobs (``trials``, ``accuracy_samples``, ``training_per_class``).

A workload is prepared once per set-up (``prepare`` writes its inputs into a
work directory) and then turned into a list of operations (``build``) in the
process whose memory is reported.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

NS_PER_SECOND = 1_000_000_000

# Published operating points the checks compare against.
BRANCH_THRESHOLD = 4096.0
PUBLISHED_FP = {1024.0: 0.2141, 4096.0: 0.0061, 8192.0: 0.0026, 65536.0: 0.0}
# The benign profile is calibrated to within 5% of each published point.
CALIBRATION_SLACK = 0.05
# No STL threshold is published, only the two class means; the decision point
# is their geometric mean.
STL_ATTACK_MD_MEAN = 8993.98
BENIGN_MD_MEAN = 2644.73
STL_THRESHOLD = math.sqrt(STL_ATTACK_MD_MEAN * BENIGN_MD_MEAN)
ATTACK_BRANCH_MEAN = {"pht": 423171.54, "btb": 23401.20, "rsb": 38369.17, "stl": 982.20}
SWEEP_THRESHOLDS = [float(2**k) for k in range(7, 17)]
GRID_AMPLIFICATIONS = (1, 10, 100, 1000)
GRID_REQUESTS = (1, 10, 100, 1000, 10000)
# c02 conservation bounds: n(1) in [175k, 325k], n(a) * a / n(1) within 30%.
UNIT_BUDGET_RANGE = (175_000, 325_000)
CONSERVATION_TOLERANCE = 0.30
TARGET_SUCCESS = 0.99
FLEET_MAX_BENIGN_FP = 0.05
TRACE_WIRE_KEYS = (
    "worker_id", "ts_ns", "itlb", "br_insn", "br_miss",
    "llc_ref", "llc_miss", "l1d_acc", "l1d_miss", "md_reset",
)

SIZES = {
    "full": {
        "detect-mixed": {"benign": 60, "windows": 128, "samples": 2, "zero_itlb": 0.01},
        "fleet-threshold": {"n_benign": 400, "n_attack": 4, "intervals": 12,
                            "executions": 4, "subrequests": 3},
        "fleet-ks": {"n_benign": 200, "n_attack": 4, "intervals": 5,
                     "executions": 2, "subrequests": 0},
        "channel-budget": {"amplifications": (1, 10, 100, 1000),
                           "grid_amplifications": GRID_AMPLIFICATIONS,
                           "grid_requests": GRID_REQUESTS},
    },
    # Self-test size: every code path and check, in seconds.
    "tiny": {
        "detect-mixed": {"benign": 12, "windows": 8, "samples": 2, "zero_itlb": 0.05},
        "fleet-threshold": {"n_benign": 20, "n_attack": 2, "intervals": 3,
                            "executions": 2, "subrequests": 1},
        "fleet-ks": {"n_benign": 10, "n_attack": 2, "intervals": 2,
                     "executions": 2, "subrequests": 0},
        "channel-budget": {"amplifications": (1, 1000),
                           "grid_amplifications": (1000,),
                           "grid_requests": (1, 10000)},
    },
}
WORKLOADS = tuple(SIZES["full"])

# Per-operation rates in the units a user of each command sees.
RATE_NAMES = {
    "gen": ("gen_records_per_s", "records/s"),
    "detect": ("detect_records_per_s", "records/s"),
    "sweep": ("sweep_records_per_s", "records/s"),
    "fleet": ("sim_worker_intervals_per_s", "worker-intervals/s"),
    "budget": ("budgets_per_s", "budgets/s"),
    "grid": ("grid_cells_per_s", "cells/s"),
}


class CheckFailed(Exception):
    """A timed operation's output is wrong."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    """One timed call; ``check`` receives what ``run`` returned."""

    kind: str
    units: int
    run: Callable[[], object]
    check: Callable[[object], None]


def _cli_ok(code) -> None:
    _require(code == 0, f"cli exited with {code}")


# --- detect-mixed -----------------------------------------------------------

def _mixed_columns(seed: int, size: dict) -> dict[str, np.ndarray]:
    """Counter columns of the mixed-tenant trace, in timestamp order.

    Tenants 0..benign-1 are benign; the last four run the pht, btb, rsb and stl
    attacks.  Each tenant emits ``samples`` records per 1-second window at a
    tenant-specific offset, so records of different tenants interleave.
    """
    rng = np.random.default_rng([seed, 0xD37])
    variants = list(ATTACK_BRANCH_MEAN)
    tenants = size["benign"] + len(variants)
    windows, samples = size["windows"], size["samples"]
    # Row order (window, slot, tenant) is timestamp order.
    window, slot, tenant = (
        a.ravel() for a in np.meshgrid(
            np.arange(windows), np.arange(samples), np.arange(tenants), indexing="ij"
        )
    )
    n = window.size
    attack = tenant >= size["benign"]
    ts = window * NS_PER_SECOND + slot * (NS_PER_SECOND // samples) + tenant * 1000

    branch_metric = np.minimum(np.exp(rng.normal(math.log(500.0), 0.9, n)), 60_000.0)
    md_metric = BENIGN_MD_MEAN * np.exp(rng.normal(-0.5 * 0.15**2, 0.15, n))
    for k, variant in enumerate(variants):
        rows = tenant == size["benign"] + k
        spread = np.exp(rng.normal(-0.5 * 0.05**2, 0.05, rows.sum()))
        branch_metric[rows] = ATTACK_BRANCH_MEAN[variant] * spread
        if variant == "stl":
            md_metric[rows] = STL_ATTACK_MD_MEAN * spread
    high = np.where(attack, 10_000.0, 100_000.0)
    itlb = np.exp(rng.uniform(math.log(1_000.0), np.log(high))).astype(np.int64)
    branch = np.rint(branch_metric * itlb).astype(np.int64)
    llc = np.rint(30.0 * itlb * np.exp(rng.normal(0.0, 0.5, n))).astype(np.int64)
    l1d = np.rint(300.0 * itlb * np.exp(rng.normal(0.0, 0.5, n))).astype(np.int64)
    columns = {
        "tenant": tenant,
        "window": window,
        "ts_ns": ts,
        "itlb": itlb,
        "br_insn": branch,
        "br_miss": np.rint(branch * rng.uniform(0.005, 0.04, n)).astype(np.int64),
        "llc_ref": llc,
        "llc_miss": np.rint(llc * rng.uniform(0.05, 0.30, n)).astype(np.int64),
        "l1d_acc": l1d,
        "l1d_miss": np.rint(l1d * rng.uniform(0.01, 0.10, n)).astype(np.int64),
        "md_reset": np.rint(md_metric * itlb).astype(np.int64),
    }
    # Zero-iTLB rows carry large counts, so counting them anywhere shows up
    # in the window means.
    zero = rng.random(n) < size["zero_itlb"]
    columns["itlb"][zero] = 0
    columns["br_insn"][zero] = 10**9
    columns["md_reset"][zero] = 10**9
    return columns


def _tenant_names(size: dict) -> list[str]:
    return [f"tenant-{i:03d}" for i in range(size["benign"])] + [
        f"attack-{variant}" for variant in ATTACK_BRANCH_MEAN
    ]


def _write_trace(path: Path, columns: dict[str, np.ndarray], names: list[str]) -> None:
    values = [columns[key].tolist() for key in TRACE_WIRE_KEYS[1:]]
    tenants = columns["tenant"].tolist()
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("# schema: trace-v1\n")
        for i, row in enumerate(zip(*values)):
            fields = ",".join(f'"{k}":{v}' for k, v in zip(TRACE_WIRE_KEYS[1:], row))
            handle.write(f'{{"worker_id":"{names[tenants[i]]}",{fields}}}\n')


def _expected_windows(columns: dict[str, np.ndarray], size: dict) -> dict:
    """Per-(tenant, window) means recomputed from the integer columns."""
    kept = columns["itlb"] > 0
    key = (columns["tenant"] * size["windows"] + columns["window"])[kept]
    itlb = columns["itlb"][kept].astype(np.float64)
    slots = (size["benign"] + len(ATTACK_BRANCH_MEAN)) * size["windows"]
    count = np.bincount(key, minlength=slots)
    with np.errstate(invalid="ignore", divide="ignore"):
        branch = np.bincount(key, weights=columns["br_insn"][kept] / itlb, minlength=slots) / count
        md = np.bincount(key, weights=columns["md_reset"][kept] / itlb, minlength=slots) / count
    return {"count": count, "branch": branch, "md": md}


def check_verdicts(path: Path, expected: dict, names: list[str], size: dict) -> None:
    """One verdict per non-empty (tenant, window), matching numpy's means."""
    code = {name: i for i, name in enumerate(names)}
    first_attack = size["benign"]
    seen = np.zeros(expected["count"].size, dtype=bool)
    with open(path, encoding="utf-8") as handle:
        lines = [line for line in handle if not line.startswith("#")]
    for line in lines:
        v = json.loads(line)
        tenant = code.get(v["worker_id"])
        _require(tenant is not None, f"unknown worker {v['worker_id']!r}")
        window, rem = divmod(v["window_start_ns"], NS_PER_SECOND)
        _require(rem == 0 and 0 <= window < size["windows"], f"bad window {v['window_start_ns']}")
        slot = tenant * size["windows"] + window
        _require(not seen[slot], f"duplicate verdict {v['worker_id']} window {window}")
        seen[slot] = True
        _require(expected["count"][slot] > 0, f"verdict for an all-zero-iTLB window {slot}")
        branch, md = expected["branch"][slot], expected["md"][slot]
        if v["triggering_metric"] == "md_reset_per_itlb":
            _require(v["suspect"], "md rule reported without a suspect verdict")
            want, threshold = md, STL_THRESHOLD
        else:
            want, threshold = branch, BRANCH_THRESHOLD
        _require(math.isclose(v["value"], want, rel_tol=1e-9),
                 f"{v['worker_id']} window {window}: value {v['value']} != {want}")
        _require(math.isclose(v["threshold"], threshold, rel_tol=1e-12),
                 f"threshold {v['threshold']} != {threshold}")
        near = min(abs(branch - BRANCH_THRESHOLD) / BRANCH_THRESHOLD,
                   abs(md - STL_THRESHOLD) / STL_THRESHOLD) < 1e-9
        if not near:
            should = branch >= BRANCH_THRESHOLD or md >= STL_THRESHOLD
            _require(v["suspect"] == should,
                     f"{v['worker_id']} window {window}: suspect {v['suspect']} != {should}")
        if tenant >= first_attack:
            _require(v["suspect"], f"attack window missed: {v['worker_id']} window {window}")
    missing = np.flatnonzero((expected["count"] > 0) & ~seen)
    _require(missing.size == 0, f"{missing.size} windows have no verdict")


def check_sweep(path: Path, windows: int) -> None:
    """The benign FP curve matches the published points within sampling error."""
    with open(path, encoding="utf-8") as handle:
        rows = [line.strip() for line in handle if not line.startswith("#")]
    _require(rows[0] == "threshold,fp_rate", f"bad sweep header {rows[0]!r}")
    points = [tuple(float(x) for x in row.split(",")) for row in rows[1:]]
    _require([t for t, _ in points] == SWEEP_THRESHOLDS, "unexpected sweep thresholds")
    fp = dict(points)
    _require(all(0.0 <= p <= 1.0 for p in fp.values()), "fp rate outside [0, 1]")
    _require(all(a >= b for a, b in zip(list(fp.values()), list(fp.values())[1:])),
             "fp curve increases")
    for threshold, published in PUBLISHED_FP.items():
        tolerance = (4.0 * math.sqrt(published * (1.0 - published) / windows)
                     + CALIBRATION_SLACK * published)
        _require(abs(fp[threshold] - published) <= tolerance,
                 f"fp at {threshold:g} is {fp[threshold]}, published {published}")


def _count_records(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(1 for line in handle if not line.startswith(b"#"))


# --- channel ----------------------------------------------------------------

def check_budget(amplification: int, n: int, unit_budget: int | None) -> None:
    _require(isinstance(n, int) and n >= 1, f"budget {n!r} is not a positive integer")
    if amplification == 1:
        lo, hi = UNIT_BUDGET_RANGE
        _require(lo <= n <= hi, f"n(1) = {n} outside [{lo}, {hi}]")
        return
    _require(unit_budget is not None, "no n(1) in this job")
    ratio = n * amplification / unit_budget
    _require(abs(ratio - 1.0) <= CONSERVATION_TOLERANCE,
             f"n({amplification}) * {amplification} / n(1) = {ratio:.3f}")


def check_grid(path: Path, amplifications, requests, budgets: dict[int, int]) -> None:
    """Success rates in [0, 1] on the requested axes; 0.99 reached at the
    largest request count wherever the budget is at most half of it."""
    with open(path, encoding="utf-8") as handle:
        rows = [line.strip() for line in handle if not line.startswith("#")]
    _require(rows[0] == "amplification,requests,success_rate", f"bad grid header {rows[0]!r}")
    cells = {}
    for row in rows[1:]:
        a, n, rate = row.split(",")
        cells[int(a), int(n)] = float(rate)
    _require(sorted(cells) == sorted((a, n) for a in amplifications for n in requests),
             "grid axes differ from the request")
    _require(all(0.0 <= r <= 1.0 for r in cells.values()), "success rate outside [0, 1]")
    top = max(requests)
    for a in amplifications:
        if a in budgets and budgets[a] <= top // 2:
            _require(cells[a, top] >= TARGET_SUCCESS,
                     f"success at a={a}, n={top} is {cells[a, top]} with budget {budgets[a]}")


# --- fleets -----------------------------------------------------------------

def check_fleet(report, n_workers: int, n_attack: int, intervals: int) -> None:
    _require(report.attack_workers_flagged == n_attack,
             f"{report.attack_workers_flagged} of {n_attack} attack workers flagged")
    _require(report.post_isolation_shared_events == 0,
             f"{report.post_isolation_shared_events} shared events after isolation")
    _require(report.benign_interval_fp_rate <= FLEET_MAX_BENIGN_FP,
             f"benign interval fp {report.benign_interval_fp_rate}")
    _require(len(report.verdicts) == n_workers * intervals,
             f"{len(report.verdicts)} verdicts for {n_workers} x {intervals} worker-intervals")


# --- prepare / build ----------------------------------------------------------

def prepare(workload: str, seed: int, workdir: Path, size_name: str) -> None:
    """Write the workload's inputs; imports the program like a user would."""
    size = SIZES[size_name][workload]
    inputs = {"workload": workload, "seed": seed, "size": size_name}
    if workload == "detect-mixed":
        import spectreguard.cli  # noqa: F401  (import is part of set-up)

        columns = _mixed_columns(seed, size)
        _write_trace(workdir / "mixed.jsonl", columns, _tenant_names(size))
        np.savez(workdir / "columns.npz", **columns)
    elif workload.startswith("fleet-"):
        from spectreguard import fleet, ks

        inputs["config"] = {"n_benign": size["n_benign"], "n_attack": size["n_attack"],
                            "intervals": size["intervals"],
                            "executions_per_interval": size["executions"],
                            "subrequests_per_interval": size["subrequests"],
                            "rng_seed": seed}
        fleet.FleetConfig(**inputs["config"])  # validate before measuring
        ks.load_default_template()
    else:
        from spectreguard import channel

        channel.js_worker_params()
    (workdir / "inputs.json").write_text(json.dumps(inputs), encoding="utf-8")


def build(workdir: Path) -> list[Op]:
    """The operations of one job, in order, for the prepared inputs."""
    inputs = json.loads((workdir / "inputs.json").read_text(encoding="utf-8"))
    workload, seed = inputs["workload"], inputs["seed"]
    size = SIZES[inputs["size"]][workload]
    if workload == "detect-mixed":
        return _detect_ops(workdir, seed, size)
    if workload.startswith("fleet-"):
        return _fleet_ops(workload, inputs["config"])
    return _channel_ops(workdir, seed, size)


def _detect_ops(workdir: Path, seed: int, size: dict) -> list[Op]:
    from spectreguard import cli

    with np.load(workdir / "columns.npz") as data:
        columns = {k: data[k] for k in data.files}
    records = columns["tenant"].size
    names = _tenant_names(size)
    expected = _expected_windows(columns, size)
    mixed, benign = workdir / "mixed.jsonl", workdir / "benign.jsonl"
    verdicts, sweep = workdir / "verdicts.jsonl", workdir / "sweep.csv"

    def check_gen(code):
        _cli_ok(code)
        _require(_count_records(benign) == records, "gen wrote the wrong record count")

    def check_detect(code):
        _cli_ok(code)
        check_verdicts(verdicts, expected, names, size)

    def check_sweep_out(code):
        _cli_ok(code)
        check_sweep(sweep, records)

    return [
        Op("gen", records, lambda: cli.main(
            ["gen", "--profile", "benign", "--n", str(records), "--seed", str(seed),
             "--out", str(benign)]), check_gen),
        Op("detect", records, lambda: cli.main(
            ["detect", "--detector", "threshold", "--trace", str(mixed),
             "--out", str(verdicts)]), check_detect),
        Op("sweep", records, lambda: cli.main(
            ["sweep", "--trace", str(benign), "--out", str(sweep)]), check_sweep_out),
    ]


def _fleet_ops(workload: str, config: dict) -> list[Op]:
    from spectreguard import fleet

    kind = workload.removeprefix("fleet-")
    cfg = fleet.FleetConfig(**config, detector=fleet.DetectorSpec(kind=kind))
    n_workers = cfg.n_benign + cfg.n_attack
    return [Op("fleet", n_workers * cfg.intervals, lambda: fleet.run_fleet(cfg),
               lambda report: check_fleet(report, n_workers, cfg.n_attack, cfg.intervals))]


def _channel_ops(workdir: Path, seed: int, size: dict) -> list[Op]:
    from spectreguard import channel, cli

    params = channel.js_worker_params()
    budgets: dict[int, int] = {}
    grid = workdir / "grid.csv"
    amplifications, requests = size["grid_amplifications"], size["grid_requests"]

    def budget_op(a: int) -> Op:
        def run():
            budgets.pop(a, None)
            return channel.required_requests(a, params, target_success=TARGET_SUCCESS,
                                             rng_seed=seed)

        def check(n):
            check_budget(a, n, budgets.get(1))
            budgets[a] = n

        return Op("budget", 1, run, check)

    def check_grid_out(code):
        _cli_ok(code)
        check_grid(grid, amplifications, requests, budgets)

    return [budget_op(a) for a in size["amplifications"]] + [
        Op("grid", len(amplifications) * len(requests), lambda: cli.main(
            ["channel", "--amplifications", ",".join(map(str, amplifications)),
             "--requests", ",".join(map(str, requests)), "--seed", str(seed),
             "--out", str(grid)]), check_grid_out),
    ]
