"""Detection, channel economics, and isolation-policy simulation for
Spectre-style attacks in multi-tenant sandboxed runtimes."""

from .channel import (
    BitSampleSet,
    ChannelParams,
    LeakEstimate,
    RuntimeModel,
    box_test,
    js_worker_params,
    leakage_rate,
    leakage_table,
    native_xeon_params,
    required_requests,
    sample_bit_set,
    simulate_bit,
    success_rate_curve,
)
from .fleet import (
    AttackWorkload,
    BenignWorkload,
    CostModel,
    DetectorSpec,
    EvasiveWorkload,
    FleetConfig,
    FleetReport,
    Placement,
    WorkerRecord,
    run_fleet,
)
from .ks import (
    BranchHistogram,
    KsResult,
    KsVerdict,
    classify_ks,
    ks_two_sample,
    load_default_template,
    read_histogram_csv,
    top_branches,
    write_histogram_csv,
)
from .profiles import (
    AttackProfile,
    AttackVariant,
    BenignProfile,
    DilutionModel,
    generate_attack,
    generate_benign,
)
from .threshold import (
    EvasionCost,
    ThresholdConfig,
    ThresholdVerdict,
    classify_threshold,
    evasion_cost,
    sweep_thresholds,
)
from .trace import (
    CounterSnapshot,
    IntervalAverage,
    IntervalBatch,
    NormalizedMetrics,
    TraceBatch,
    emit_trace,
    fold_intervals,
    ingest_trace,
    normalize,
)

__version__ = "0.1.0"
