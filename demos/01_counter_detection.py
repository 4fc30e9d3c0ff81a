"""Walk through the counter-based detection path.

Synthesizes benign and attack traces, folds them into 1-second interval
averages, and shows how the normalized retired-branch metric separates the
attack variants from ordinary workloads, with the store-to-load variant
caught by the history-reset rule instead.

    python3 demos/01_counter_detection.py
"""

import numpy as np

from spectreguard.profiles import BenignProfile, generate_attack, generate_benign
from spectreguard.threshold import ThresholdConfig, classify_threshold
from spectreguard.trace import fold_intervals

cfg = ThresholdConfig()
print(f"branch threshold: {cfg.branch_per_itlb_threshold:.0f} per iTLB access")
print(f"history-reset threshold: {cfg.stl_reset_threshold:.0f} per iTLB access")
print()

# A slice of ordinary multi-tenant traffic.
benign = generate_benign(BenignProfile.default(), n=5000, seed=1)
benign_avgs = fold_intervals(benign)
benign_metrics = benign_avgs.metric("branch_instructions")
flagged = sum(
    classify_threshold(avg, cfg).suspect for avg in benign_avgs
)
print(f"benign: median metric {np.median(benign_metrics):8.1f}, "
      f"p95 {np.percentile(benign_metrics, 95):8.1f}, "
      f"flagged {flagged}/{len(benign_avgs)}")

# Each attack variant at full strength.
for variant in ("pht", "btb", "rsb", "stl"):
    snapshots, _hist = generate_attack(variant, n=200, seed=2)
    verdicts = [classify_threshold(a, cfg) for a in fold_intervals(snapshots)]
    metric = np.mean([v.value for v in verdicts])
    rules = {v.triggering_metric for v in verdicts if v.suspect}
    print(f"{variant:>6}: mean trigger value {metric:10.1f}, "
          f"suspect {sum(v.suspect for v in verdicts)}/{len(verdicts)} via {sorted(rules)}")

print()
print("reducing amplification hides the attack from the branch rule:")
for amplification in (1, 10, 100, None):
    snapshots, _ = generate_attack("pht", amplification=amplification, n=200, seed=3)
    avgs = list(fold_intervals(snapshots))
    metric = np.mean([a.mean_metrics.branch_instructions for a in avgs])
    caught = sum(classify_threshold(a, cfg).suspect for a in avgs)
    label = amplification if amplification is not None else "full"
    print(f"  amplification {label:>5}: metric {metric:10.1f}  caught {caught}/{len(avgs)}")
