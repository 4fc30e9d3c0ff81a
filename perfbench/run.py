"""Benchmark of spectreguard: four workloads, end-to-end and per-layer metrics.

Run from the repository root (no install needed; the program is imported
from ``src/``):

    python3 perfbench/run.py --workload detect-mixed --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

One run prepares the workload's inputs in ``SETUP_REPEATS`` separate
processes (the median is ``setup_s``), then measures in one fresh process
whose own ``ru_maxrss`` is ``peak_rss_mb``.  That process runs whole jobs,
checking every output, until the next job would overrun ``--seconds``.
With ``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics of the traced ones plus the tracing overhead.

Times are corrected for host speed.  Other tenants of a shared host slow
whole stretches of a run by up to 1.8x, which no number of repetitions
averages out.  So every timed step is bracketed by a fixed pure-Python
reference loop (``host_ref``), and a time is reported as its ratio to the
adjacent reference times, multiplied by ``REF_S``, the loop's time on an
unloaded host.  The raw times are in the facts line.

The last line of standard output is the result as one JSON object; the line
before it carries the run facts and the per-command rates.  The exit code is
0 when a result was printed, whether or not every check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"
OUT_ROOT = ROOT / ".bench_out"
# Half of the set-ups run before measuring and half after, so the median
# samples the host at both ends of the run.
SETUP_REPEATS = 6
RUN_LIMIT_S = 170.0
# host_ref's time on an unloaded 2-vCPU Xeon (Sapphire Rapids, KVM guest).
REF_S = 0.011

_REF_LINES = [
    json.dumps({"worker_id": f"w{i % 17}", "ts_ns": i * 7919, "itlb": 1000 + i,
                "br": 12345 * i + 7, "md": 77 * i})
    for i in range(700)
]
_REF_INTS = list(range(250_000))
_REF_BYTES = bytes(range(256)) * 16_384
_REF_TABLE = bytes(range(255, -1, -1))


def host_ref() -> float:
    """Seconds taken by a fixed mix of work: JSON parsing and dict updates,
    string formatting, a walk over a 2 MB list of ints and a 4 MB byte
    translation.  It gauges the host's current speed on both
    interpreter-bound and memory-bound work.

    It uses only the standard library, so no change to the program or to
    numpy moves it, and it runs with the collector off, so the heap the
    program leaves behind does not either.
    """
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        sums: dict[str, float] = {}
        for line in _REF_LINES:
            record = json.loads(line)
            key = record["worker_id"]
            sums[key] = sums.get(key, 0.0) + record["br"] / record["itlb"]
        ids = [f"0x{0x5600_0000_0000 + 16 * v:012x}" for v in _REF_INTS[:3000]]
        sorted(zip(ids, sums.values()))
        sum(_REF_INTS)
        _REF_BYTES.translate(_REF_TABLE)
        return time.perf_counter() - start
    finally:
        if gc_was_enabled:
            gc.enable()


def _bench_config() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# --- measured process -----------------------------------------------------------

def run_jobs(ops, seconds: float, tracer=None) -> dict:
    """Run whole jobs until the next one would end after ``seconds``.

    Each op is timed alone, between two reference loops; its check runs
    outside the timed region.  With a tracer, untraced and traced jobs
    alternate and only the untraced ones feed the op times.
    """
    times: dict[str, list[float]] = {op.kind: [] for op in ops}
    ratios: dict[str, list[float]] = {op.kind: [] for op in ops}
    job_times = {False: [], True: []}
    attempted = failed = 0
    problems: list[str] = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(job_times[False]) > len(job_times[True])
        if traced:
            tracer.begin_job()
            tracer.install()
        job_start = time.perf_counter()
        try:
            for op in ops:
                attempted += 1
                ref = host_ref()
                t0 = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # a failing operation is counted, not fatal
                    failed += 1
                    problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
                    continue
                elapsed = time.perf_counter() - t0
                ref = (ref + host_ref()) / 2.0
                if not traced:
                    times[op.kind].append(elapsed)
                    ratios[op.kind].append(elapsed / ref)
                try:
                    op.check(result)
                except Exception as exc:
                    failed += 1
                    problems.append(f"{op.kind}: {type(exc).__name__}: {exc}")
        finally:
            if traced:
                tracer.uninstall()
        job_times[traced].append(time.perf_counter() - job_start)
        done = tracer is None or job_times[True]
        next_job = max(statistics.median(v) for v in job_times.values() if v)
        if done and time.perf_counter() - started + next_job > seconds:
            break
    return {"times": times, "ratios": ratios, "job_times": job_times,
            "attempted": attempted, "failed": failed, "problems": problems[:20]}


def _measure(args) -> dict:
    sys.path.insert(0, str(SRC))
    import numpy
    import spectreguard
    import workloads

    if Path(spectreguard.__file__).resolve().parent != SRC / "spectreguard":
        raise SystemExit(f"imported spectreguard from {spectreguard.__file__}, not {SRC}")
    ops = workloads.build(Path(args.dir))
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    stats = run_jobs(ops, args.seconds, tracer)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0

    # Each op at the median host-corrected time of its kind.
    op_s = {kind: statistics.median(r) * REF_S for kind, r in stats["ratios"].items() if r}
    rates = {}
    for op in ops:
        name, unit = workloads.RATE_NAMES[op.kind]
        if op.kind in op_s:
            rates[name] = {"value": op.units / op_s[op.kind], "unit": unit}
    out = {
        "attempted": stats["attempted"],
        "failed": stats["failed"],
        "problems": stats["problems"],
        "job_s": sum(op_s.get(op.kind, 0.0) for op in ops),
        "raw_job_s": sum(statistics.median(stats["times"][op.kind])
                         for op in ops if stats["times"][op.kind]),
        "jobs": len(stats["job_times"][False]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "wall_s": wall,
        "cpu_s": cpu,
        "process_cpu_s": time.process_time(),
        "rates": rates,
        "op_samples_s": stats["times"],
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        layers = tracer.layer_metrics()
        layers["bench.trace_overhead"] = (
            statistics.median(stats["job_times"][True])
            / statistics.median(stats["job_times"][False]) - 1.0
        )
        out["layers"] = layers
        out["traced_jobs"] = len(stats["job_times"][True])
        OUT_ROOT.mkdir(exist_ok=True)
        tracer.save(OUT_ROOT / f"spans-{args.workload}-seed{args.seed}.npz")
    return out


def _prepare(args) -> dict:
    """Import the program and write the inputs, between two reference loops."""
    ref = host_ref()
    start = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import workloads

    workloads.prepare(args.workload, args.seed, Path(args.dir), args.size)
    elapsed = time.perf_counter() - start
    return {"raw_setup_s": elapsed, "setup_s": elapsed / (ref + host_ref()) * 2.0 * REF_S}


# --- driver -------------------------------------------------------------------

def _child(role: str, args, workdir: Path, timeout: float) -> dict:
    command = [sys.executable, str(Path(__file__).resolve()), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--dir", str(workdir)]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, env=env,
                          timeout=max(timeout, 1.0), cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"{role} process exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def _cpu_ticks() -> tuple[int, int]:
    """Busy and steal ticks of the whole machine, from /proc/stat (read-only)."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(x) for x in handle.readline().split()[1:]]
    user, nice, system, _idle, _iowait, irq, softirq, steal = (fields + [0] * 8)[:8]
    return user + nice + system + irq + softirq, steal


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _source_lines() -> int:
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in (SRC / "spectreguard").rglob("*.py")
    )


def run_workload(args) -> tuple[dict, dict]:
    """Set up, measure, and return (result, facts) for one workload."""
    WORK_ROOT.mkdir(exist_ok=True)
    workdir = WORK_ROOT / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workdir.mkdir()
    began = time.perf_counter()
    try:
        setups = [_child("prepare", args, workdir, 20.0) for _ in range(SETUP_REPEATS // 2)]
        busy, steal = _cpu_ticks()
        remaining = RUN_LIMIT_S - 60.0 - (time.perf_counter() - began)
        measured = _child("measure", args, workdir, remaining)
        busy_after, steal_after = _cpu_ticks()
        setups += [_child("prepare", args, workdir, 20.0)
                   for _ in range(SETUP_REPEATS - len(setups))]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    config = _bench_config()
    if args.trace:
        units = {m["name"]: m["unit"] for m in config["per_layer"]}
        values = measured["layers"]
    else:
        units = {m["name"]: m["unit"] for m in config["end_to_end"]}
        values = {"setup_s": statistics.median(s["setup_s"] for s in setups),
                  "job_s": measured["job_s"], "peak_rss_mb": measured["peak_rss_mb"]}
    result = {
        "correct": measured["failed"] == 0,
        "attempted": measured["attempted"],
        "failed": measured["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    facts = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "failed_ratio": measured["failed"] / measured["attempted"],
        "problems": measured["problems"],
        "jobs": measured["jobs"],
        "rates": measured["rates"],
        "raw_job_s": measured["raw_job_s"],
        "raw_setup_s": [s["raw_setup_s"] for s in setups],
        "op_samples_s": measured["op_samples_s"],
        "wall_s": measured["wall_s"],
        "cpu_s": measured["cpu_s"],
        "steal_ticks": steal_after - steal,
        # CPU time the rest of the machine used while this run measured.
        "other_cpu_s": (busy_after - busy) / os.sysconf("SC_CLK_TCK")
        - measured["process_cpu_s"],
        "cpu_count": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": measured["numpy"],
        "src_lines": _source_lines(),
    }
    if args.trace:
        facts["traced_jobs"] = measured["traced_jobs"]
    return result, facts


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny is the self-test size")
    parser.add_argument("--role", choices=("drive", "prepare", "measure"), default="drive",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", default=None, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    if args.role != "drive":
        out = _prepare(args) if args.role == "prepare" else _measure(args)
        print(json.dumps(out))
        return 0

    sys.path.insert(0, str(BENCH_DIR))
    from workloads import WORKLOADS

    if not (SRC / "spectreguard" / "__init__.py").is_file():
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if any(name not in WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; one of {WORKLOADS} or all",
              file=sys.stderr)
        return 2
    for name in names:
        args.workload = name
        try:
            result, facts = run_workload(args)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps({"facts": facts}))
        if len(names) > 1:
            table = {**result["metrics"], **facts["rates"],
                     "failed_ratio": {"value": facts["failed_ratio"], "unit": "ratio"}}
            for metric, entry in table.items():
                print(f"{name:16s} {metric:28s} {entry['value']:14.6g} {entry['unit']}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
