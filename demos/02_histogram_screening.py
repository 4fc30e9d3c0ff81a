"""Screen misprediction histograms against the recorded attack template.

A sampled attack run concentrates its mispredictions on a couple of hot
branches (the transient-window delay loop first, the mistrained bounds check
second), while big benign programs spread them broadly.  The two-sample KS
test on the top branches turns that contrast into a p-value: high p means
"indistinguishable from the template", which flags the program.

    python3 demos/02_histogram_screening.py
"""

import numpy as np

from spectreguard.ks import classify_ks, load_default_template, top_branches
from spectreguard.profiles import make_attack_histogram, make_benign_histogram

template = load_default_template()
ranked = top_branches(template, 5)
print(f"template: {len(template.entries)} branches, "
      f"top counts {ranked} (delay loop first)")
print()

print(f"{'sample':>12} {'branches':>9} {'D':>7} {'p':>10} {'suspect':>8}")
for i in range(5):
    hist = make_attack_histogram(np.random.default_rng(1000 + i))
    verdict = classify_ks(hist, template)
    print(f"{'attack-' + str(i):>12} {verdict.ks.n:>9} "
          f"{verdict.ks.statistic:>7.3f} {verdict.ks.p_value:>10.2e} "
          f"{str(verdict.suspect):>8}")

for i in range(5):
    hist = make_benign_histogram(np.random.default_rng(2000 + i))
    verdict = classify_ks(hist, template)
    print(f"{'benign-' + str(i):>12} {verdict.ks.n:>9} "
          f"{verdict.ks.statistic:>7.3f} {verdict.ks.p_value:>10.2e} "
          f"{str(verdict.suspect):>8}")

print()
print("interpretation: suspect == cannot reject 'same distribution as the")
print("attack template' at the 90% confidence level (p >= 0.1)")
