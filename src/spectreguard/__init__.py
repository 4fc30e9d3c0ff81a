"""Detection, channel economics, and isolation-policy simulation for
Spectre-style attacks in multi-tenant sandboxed runtimes."""

from .channel import js_worker_params, leakage_table, required_requests
from .fleet import DetectorSpec, FleetConfig, run_fleet
from .ks import classify_ks, load_default_template, top_branches
from .profiles import AttackProfile, BenignProfile, generate_attack, generate_benign
from .threshold import ThresholdConfig, classify_threshold, evasion_cost
from .trace import fold_intervals

__version__ = "0.1.0"
