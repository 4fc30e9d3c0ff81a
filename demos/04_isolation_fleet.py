"""Drive the worker fleet under detector-triggered process isolation.

Fifty benign tenants share a process with one attacker.  The orchestrator
averages each worker's two threshold metrics over every 1-second window,
flags the windows past a threshold, and migrates a worker into its own
process at the close of its first flagged window; nobody is terminated.  The
cost model prices the outcome: a flat 2% for the detection plus an affine
throughput/memory penalty per isolated process, down to strict process
isolation in the worst case.

    python3 demos/04_isolation_fleet.py
"""

from spectreguard.fleet import DetectorSpec, FleetConfig, run_fleet
from spectreguard.threshold import ThresholdConfig

cfg = FleetConfig(n_benign=50, n_attack=1, intervals=6, rng_seed=20)
report = run_fleet(cfg)

print(f"mode: {report.mode}")
print(f"attack workers flagged : {report.attack_workers_flagged}/{report.n_attack} "
      f"(latency {report.detection_latency_intervals} intervals)")
print(f"benign workers flagged : {report.benign_workers_flagged}/{report.n_benign} "
      f"(interval FP rate {report.benign_interval_fp_rate:.4f})")
print(f"post-isolation co-residency events: {report.post_isolation_shared_events}")
print(f"isolated workers still served: {report.liveness_ok}")
print()
print(f"{'t':>3} {'throughput':>11} {'memory MB':>10} {'isolated':>9}")
for point in report.series:
    print(f"{point.t_sec:>3} {point.throughput_rps:>11.1f} "
          f"{point.memory_bytes / 2**20:>10.1f} {point.isolated_count:>9}")
print()

# Worst case: a zero threshold flags everyone.
degraded = run_fleet(
    FleetConfig(
        n_benign=50,
        n_attack=1,
        intervals=3,
        rng_seed=21,
        detector=DetectorSpec(threshold=ThresholdConfig(branch_per_itlb_threshold=0.0)),
    )
)
final = degraded.series[-1]
cpu_mult = cfg.cost_model.isolated_cpu_multiplier
print(f"zero-threshold run: {degraded.mode}")
print(f"  all {degraded.isolated_total} workers isolated, throughput "
      f"{final.throughput_rps:.1f} rps (= baseline x 0.98 / {cpu_mult:.0f})")
