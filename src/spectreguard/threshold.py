"""Production threshold detector on iTLB-normalized interval averages.

A worker is flagged once the retired-branch metric of a 1-second interval
average reaches the configured threshold (default 4096 branches per iTLB
access).  A second rule covers store-to-load-forwarding abuse, which hides
below the branch threshold but drives the memory-disambiguation history-reset
counter far above ordinary workloads.

Rules are OR-ed, branch rule first, so the triggering metric is
deterministic.  ``classify_intervals`` applies them to every window of an
``IntervalBatch`` at once, as one rule code each, and ``detect`` uses it;
the fleet simulator calls its column rule ``_rule_codes`` on its own window
means of the ``RULE_METRICS``.
``classify_threshold`` classifies one ``IntervalAverage`` and is the
reference the column form is tested against.  Flagging costs isolation, not
termination, which is why a sub-percent false-positive rate is acceptable.
The settings ``ThresholdConfig``, ``AttackWorkload`` and ``DetectorSpec`` live
here, not in ``fleet``: ``cli`` checks its flags by their fields' rules.
"""

from __future__ import annotations

import functools
import math
from dataclasses import Field, dataclass, field, fields, is_dataclass
from typing import Sequence, get_args, get_type_hints

import numpy as np

from .ks import DEFAULT_ALPHA
from .trace import IntervalAverage, IntervalBatch
from .profiles import (
    BENIGN_MD_MEAN,
    METRIC_INTERCEPT,
    PAGE_BYTES,
    STL_ATTACK_MD_MEAN,
    AttackProfile,
    pages_to_reach,
)
from .profiles import MAX_AMPLIFICATION, AttackVariant

BRANCH_THRESHOLD_DEFAULT = 4096.0
# No threshold is published for the STL rule, only the separated means;
# the geometric mean of the two is the default decision point.
STL_THRESHOLD_DEFAULT = math.sqrt(STL_ATTACK_MD_MEAN * BENIGN_MD_MEAN)

BRANCH_METRIC_NAME = "branch_per_itlb"
STL_METRIC_NAME = "md_reset_per_itlb"
RULE_METRICS = ("branch_instructions", "mem_disambiguation_resets")


class EmptyPopulation(ValueError):
    """A threshold sweep needs at least one benign average."""


class UnreachableTarget(ValueError):
    """No amplification level gets the attack below the target metric."""


def at_least(minimum: float, default, maximum: float = math.inf):
    """A dataclass field that ``field_value`` keeps in [minimum, maximum]."""
    return field(default=default, metadata={"minimum": minimum, "maximum": maximum})


def field_value(f: Field, hint, value, name: str | None = None):
    """``value`` as the settings field ``f``, annotated ``hint``, holds it.

    An int field takes an int, never a bool (``int | None`` also None); a float
    field an int or a float, held as a float; both within ``at_least``'s bounds,
    which NaN never is, and inside its metadata's ``open`` interval, if any.  A
    settings dataclass field takes an instance.  Other fields are their class's
    to check.  A ValueError names the field, quoted, or ``name`` as given."""
    if hint is float:
        kinds, kind = (int, float), "a number"
    elif hint is int or (int in get_args(hint) and value is not None):
        kinds, kind = int, "an integer"
    elif is_dataclass(hint) and not isinstance(value, hint):
        kinds, kind = hint, ("an " if hint.__name__[0] in "AEIOU" else "a ") + hint.__name__
    else:
        return value
    name, minimum = name or repr(f.name), f.metadata.get("minimum")
    if (not isinstance(value, kinds) or isinstance(value, bool)
            or minimum is not None and not value >= minimum):
        bound = "" if minimum is None else f" >= {minimum}"
        raise ValueError(f"{name} must be {kind}{bound}, got {value!r}")
    if value > f.metadata.get("maximum", math.inf):
        raise ValueError(f"{name} must be <= {f.metadata['maximum']}, got {value!r}")
    interval = f.metadata.get("open")  # (low, high), both excluded
    if interval is not None and not interval[0] < value < interval[1]:
        raise ValueError(f"{name} must be in {interval}, got {value!r}")
    try:
        return float(value) if hint is float else value
    except OverflowError:  # an int past float range
        raise ValueError(f"{name} must be a number in float range, got {value!r}") from None


@functools.cache
def setting_fields(cls) -> dict:
    """A settings class's fields by name, as the (field, hint) pairs ``field_value`` takes."""
    hints = get_type_hints(cls)
    return {f.name: (f, hints[f.name]) for f in fields(cls)}


def check_fields(config) -> None:
    """Put every field of a settings dataclass through ``field_value``."""
    for name, (f, hint) in setting_fields(type(config)).items():
        object.__setattr__(config, name, field_value(f, hint, getattr(config, name)))


@dataclass(frozen=True)
class ThresholdConfig:
    # 0 is allowed: it degrades the fleet to strict process isolation.
    branch_per_itlb_threshold: float = at_least(0, default=BRANCH_THRESHOLD_DEFAULT)
    stl_reset_threshold: float = at_least(0, default=STL_THRESHOLD_DEFAULT)

    def __post_init__(self):
        check_fields(self)


@dataclass(frozen=True)
class AttackWorkload:
    """What every attack worker of the fleet runs.

    ``amplification`` None is full strength.  ``pages`` extra code pages
    dilute the branch metric to duck the branch threshold; 0 leaves it whole.
    """

    variant: AttackVariant = AttackVariant.PHT
    amplification: int | None = at_least(1, default=None, maximum=MAX_AMPLIFICATION)
    pages: int = at_least(0, default=0, maximum=MAX_AMPLIFICATION)

    def __post_init__(self):
        if self.variant not in tuple(AttackVariant):
            names = [v.value for v in AttackVariant]
            raise ValueError(f"'variant' must be one of {names}, got {self.variant!r}")
        object.__setattr__(self, "variant", AttackVariant(self.variant))
        check_fields(self)


@dataclass(frozen=True)
class DetectorSpec:
    """Which detector runs at interval boundaries; KS uses the packaged template."""

    kind: str = "threshold"  # "threshold" | "ks"
    threshold: ThresholdConfig = field(default_factory=ThresholdConfig)
    alpha: float = field(default=DEFAULT_ALPHA, metadata={"open": (0, 1)})  # as in classify_ks

    def __post_init__(self):
        if self.kind not in ("threshold", "ks"):
            raise ValueError(f"detector 'kind' must be 'threshold' or 'ks', got {self.kind!r}")
        check_fields(self)


@dataclass(frozen=True)
class ThresholdVerdict:
    suspect: bool
    triggering_metric: str
    value: float
    threshold: float


def classify_threshold(avg: IntervalAverage, cfg: ThresholdConfig) -> ThresholdVerdict:
    """Flag an interval average; branch rule checked before the STL rule."""
    branch_value = avg.mean_metrics.branch_instructions
    if branch_value >= cfg.branch_per_itlb_threshold:
        return ThresholdVerdict(
            suspect=True,
            triggering_metric=BRANCH_METRIC_NAME,
            value=branch_value,
            threshold=cfg.branch_per_itlb_threshold,
        )
    stl_value = avg.mean_metrics.mem_disambiguation_resets
    if stl_value >= cfg.stl_reset_threshold:
        return ThresholdVerdict(
            suspect=True,
            triggering_metric=STL_METRIC_NAME,
            value=stl_value,
            threshold=cfg.stl_reset_threshold,
        )
    return ThresholdVerdict(
        suspect=False,
        triggering_metric=BRANCH_METRIC_NAME,
        value=branch_value,
        threshold=cfg.branch_per_itlb_threshold,
    )


def classify_intervals(batch: IntervalBatch,
                       cfg: ThresholdConfig) -> tuple[np.ndarray, np.ndarray]:
    """``classify_threshold`` over every window of a batch, as columns.

    Returns (rule, value): each window's rule code (``_rule_codes``), and the
    triggering value, which is the STL metric where rule is 2 and the branch
    metric otherwise.
    """
    branch, md = map(batch.metric, RULE_METRICS)
    rule = _rule_codes(branch, md, cfg)
    return rule, np.where(rule == 2, md, branch)


def _rule_codes(branch: np.ndarray, md: np.ndarray, cfg: ThresholdConfig) -> np.ndarray:
    """The two rules over columns of window means of the ``RULE_METRICS``, as
    one int8 code per window: 0 where no rule fired, 1 where the branch rule
    fired and 2 where only the STL rule did (the branch rule is checked first)."""
    rule = np.where(md >= cfg.stl_reset_threshold, np.int8(2), np.int8(0))
    rule[branch >= cfg.branch_per_itlb_threshold] = 1
    return rule


def _ascending(thresholds: list[float]) -> bool:
    """The rule of ``sweep_thresholds``'s thresholds: strictly ascending, none NaN."""
    return not any(math.isnan(t) for t in thresholds) and all(
        a < b for a, b in zip(thresholds, thresholds[1:]))


def sweep_thresholds(
    benign_averages: IntervalBatch | Sequence[IntervalAverage],
    thresholds: Sequence[float],
) -> list[tuple[float, float]]:
    """False-positive rate of the branch rule at each candidate threshold.

    fp_rate(t) is the survival function of the benign branch metric, so the
    output is nonincreasing in t.  An IntervalBatch is read by its branch
    column.
    """
    if len(benign_averages) == 0:
        raise EmptyPopulation("benign population is empty")
    thresholds = list(thresholds)
    if not _ascending(thresholds):
        raise ValueError("thresholds must be strictly ascending numbers, not NaN")
    if isinstance(benign_averages, IntervalBatch):
        branch = benign_averages.metric("branch_instructions")
    else:
        branch = [avg.mean_metrics.branch_instructions for avg in benign_averages]
    metrics = np.sort(np.asarray(branch))
    n = metrics.size
    at_or_above = n - np.searchsorted(metrics, thresholds, side="left")
    return [(float(t), float(k) / n) for t, k in zip(thresholds, at_or_above)]


@dataclass(frozen=True)
class EvasionCost:
    """Cost of staying under a detection threshold, per leaked bit.

    ``code_pages`` is the page-inflation route (None when per-page branch
    cost alone already exceeds the target); the remaining fields describe
    the amplification-reduction route.
    """

    target_metric: float
    code_pages: int | None
    code_bytes: int | None
    amplification: int
    requests_per_bit: int
    leakage_bits_per_hour: float


def evasion_cost(target_metric: float, attack_profile: AttackProfile) -> EvasionCost:
    """Both evasion routes for one attack profile and target ratio.

    Page inflation dilutes the full-strength attack below the target;
    amplification reduction runs at the largest factor whose metric stays
    below the target and pays for it in requests, hence leakage rate.
    Raises UnreachableTarget when even amplification 1 exceeds the target,
    and ValueError unless ``target_metric`` is finite and > 0.
    """
    if not 0 < target_metric < math.inf:
        raise ValueError(f"target_metric must be finite and > 0, got {target_metric!r}")
    # metric(a) < target  <=>  a < (target - intercept)/slope, so the answer is
    # ceil of that bound, less 1.  The division can round across a whole
    # number, so the metric itself picks the answer from that guess's neighbours.
    guess = math.ceil((target_metric - METRIC_INTERCEPT) / attack_profile.metric_slope) - 1
    amplification = next((a for a in (guess + 1, guess)
                          if a < 1 or attack_profile.branch_metric(a) < target_metric), guess - 1)
    if amplification < 1:
        raise UnreachableTarget(
            f"metric at amplification 1 "
            f"({attack_profile.branch_metric(1):.2f}) is not below {target_metric}"
        )

    full_metric = attack_profile.branch_metric()
    pages = pages_to_reach(full_metric, target_metric)

    # Imported here, so loading the detector does not load the channel model.
    from .channel import UNIT_AMPLIFICATION_REQUESTS, leakage_rate
    requests = max(1, round(UNIT_AMPLIFICATION_REQUESTS / amplification))
    estimate = leakage_rate(amplification, requests)
    return EvasionCost(
        target_metric=target_metric,
        code_pages=pages,
        code_bytes=None if pages is None else pages * PAGE_BYTES,
        amplification=amplification,
        requests_per_bit=requests,
        leakage_bits_per_hour=estimate.bits_per_hour,
    )
