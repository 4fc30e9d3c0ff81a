"""Operator command-line surface.

Subcommands bind the library into reproducible workflows: ``gen`` writes
synthetic traces and histograms, ``detect`` classifies a trace, ``sweep``
produces a threshold/false-positive curve, ``channel`` emits the leakage
table or a success grid, ``fleet`` runs the isolation simulator, and ``ks``
compares two histogram files.

Every command is pure given its inputs and ``--seed`` (default 1729, never
wall-clock entropy); artifacts are written atomically (temp file + rename)
and start with a ``# schema: <name>-v1`` header line, except the fleet
report: a JSON object whose ``schema`` is ``fleet-report-v3`` and whose
``detector`` object is the detector's config-file section.  Config keys are
the fields of ``fleet.FleetConfig`` and its sections (three are aliased,
``_CONFIG_ALIASES``); each key and numeric flag obeys its field's rule.

Exit codes: 0 success, 1 input/usage error (any ``ValueError`` or ``OSError``).
Any other exception ends with a traceback and status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import itertools
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from typing import Iterable

import numpy as np

from . import ks as ks_mod
from . import threshold as threshold_mod
from .threshold import AttackWorkload, DetectorSpec, ThresholdConfig, at_least, setting_fields
from .profiles import MAX_AMPLIFICATION, AttackVariant, BenignProfile
from .profiles import generate_attack, generate_benign
from .trace import NS_PER_SECOND, emit_trace, fold_intervals, ingest_trace
from .trace import _format_blocks, _unique_object

DEFAULT_SEED = 1729

SWEEP_SCHEMA = "sweep-v1"
VERDICTS_SCHEMA = "verdicts-v1"
LEAKAGE_SCHEMA = "leakage-v1"
SUCCESS_GRID_SCHEMA = "success-grid-v1"
FLEET_SERIES_SCHEMA = "fleet-series-v1"
FLEET_REPORT_SCHEMA = "fleet-report-v3"

# json.dumps(..., sort_keys=True) without building an encoder per record.
_SORTED_JSON = json.JSONEncoder(sort_keys=True).encode

EXIT_OK = 0
EXIT_INPUT = 1


class InputError(ValueError):
    """Bad flags, files, or config; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        raise InputError(message)


@contextlib.contextmanager
def _atomic_file(path: str | Path):
    """A text handle on a temp file that replaces ``path`` on success only.

    The file gets the mode ``open`` would give it (0666 less the umask),
    not ``mkstemp``'s 0600.
    """
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent or Path("."), prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            yield handle
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise


def _atomic_write(path: str | Path, chunks: Iterable[str]) -> None:
    with _atomic_file(path) as handle:
        handle.writelines(chunks)


def _write_csv(path: str | Path, schema: str, header: str, rows: Iterable[str]) -> None:
    _atomic_write(path, itertools.chain([f"# schema: {schema}\n{header}\n"],
                                        (f"{row}\n" for row in rows)))


def _float(x: float) -> str:
    return repr(float(x))


# argparse dest -> the field_value rule of each numeric flag: the settings field it sets,
# or its own.  main checks a command's flags before its handler runs, naming the flag.
_FLAG_RULES = {
    "n": (at_least(1, default=None), int),
    "seed": (at_least(0, default=None), int),
    "intervals": (at_least(1, default=None), int),
    "top_k": (at_least(1, default=None), int),
    "threshold": setting_fields(ThresholdConfig)["branch_per_itlb_threshold"],
    "stl_threshold": setting_fields(ThresholdConfig)["stl_reset_threshold"],
    "amplification": setting_fields(AttackWorkload)["amplification"],
    "pages": setting_fields(AttackWorkload)["pages"],
    "alpha": setting_fields(DetectorSpec)["alpha"],
}


def _numbers(flag: str, text: str, kind, noun: str) -> list:
    try:
        return [kind(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{flag}: expected comma-separated {noun}, got {text!r}") from None


# --- gen -------------------------------------------------------------------

def _cmd_gen(args) -> int:
    if args.profile == "benign":
        if args.amplification is not None or args.pages:
            raise InputError("--amplification/--pages only apply to attack profiles")
        if args.histogram_out:
            raise InputError("--histogram-out requires an attack profile")
        snapshots = generate_benign(BenignProfile.default(), n=args.n, seed=args.seed)
    else:
        snapshots, histogram = generate_attack(
            AttackVariant(args.profile),
            amplification=args.amplification,
            pages=args.pages,
            n=args.n,
            seed=args.seed,
        )
    with _atomic_file(args.out) as handle:
        emit_trace(snapshots, handle)
    if args.histogram_out:
        with _atomic_file(args.histogram_out) as handle:
            ks_mod.write_histogram_csv(histogram, handle)
    return EXIT_OK


# --- detect ------------------------------------------------------------------

# One verdict as _SORTED_JSON writes it: keys sorted, ", " and ": " separators.
# The head, the keys before "value", is its rule code's.
_VERDICT_LINE = '%s%r, "window_start_ns": %d, "worker_id": %s}\n'


def _verdict_lines_threshold(trace_path, cfg):
    folded = fold_intervals(ingest_trace(trace_path))
    rule, value = threshold_mod.classify_intervals(folded, cfg)
    # heads[rule], named as classify_threshold names them: a clean window by the branch rule
    branch = (threshold_mod.BRANCH_METRIC_NAME, cfg.branch_per_itlb_threshold)
    stl = (threshold_mod.STL_METRIC_NAME, cfg.stl_reset_threshold)
    heads = np.array([
        _SORTED_JSON({"suspect": code > 0, "threshold": threshold,
                      "triggering_metric": metric})[:-1] + ', "value": '
        for code, (metric, threshold) in enumerate((branch, branch, stl))
    ], dtype=object)
    quoted = np.array([json.dumps(name) for name in folded.names], dtype=object)
    yield from _format_blocks(_VERDICT_LINE, len(folded), lambda rows: (
        heads[rule[rows]],
        # Window means of int64 counts are finite, so %r of a Python
        # float writes what json does.
        value[rows].astype(object),
        # Python ints: the window of ts = -2**63 starts below -2**63.
        folded.window[rows].astype(object) * NS_PER_SECOND,
        quoted[folded.worker[rows]],
    ))


def _ks_line(verdict, **extra) -> str:
    """A KS verdict and ``extra`` keys as one sorted JSON line."""
    result = verdict.ks
    return _SORTED_JSON({"suspect": verdict.suspect, "d": result.statistic, "p": result.p_value,
                         "n": result.n, "m": result.m, **extra}) + "\n"


def _verdict_lines_ks(histogram_paths, template, alpha, k):
    for path in histogram_paths:
        verdict = ks_mod.classify_ks(ks_mod.read_histogram_csv(path), template, alpha=alpha, k=k)
        yield _ks_line(verdict, worker_id=Path(path).stem, k_effective=verdict.ks.n)


def _cmd_detect(args) -> int:
    if args.detector == "threshold":
        if not args.trace:
            raise InputError("--detector threshold requires --trace")
        cfg = threshold_mod.ThresholdConfig(
            branch_per_itlb_threshold=args.threshold,
            stl_reset_threshold=args.stl_threshold,
        )
        lines = _verdict_lines_threshold(args.trace, cfg)
    else:
        if not args.histograms:
            raise InputError("--detector ks requires --histograms")
        paths = sorted(Path(args.histograms).glob("*.csv"))
        if not paths:
            raise InputError(f"no histogram CSVs under {args.histograms}")
        template = (
            ks_mod.read_histogram_csv(args.template)
            if args.template
            else ks_mod.load_default_template()
        )
        lines = _verdict_lines_ks(paths, template, args.alpha, args.top_k)
    _atomic_write(args.out, itertools.chain([f"# schema: {VERDICTS_SCHEMA}\n"], lines))
    return EXIT_OK


# --- sweep -------------------------------------------------------------------

_DEFAULT_THRESHOLDS = tuple(float(2**k) for k in range(7, 17))  # 128 .. 65536


def _cmd_sweep(args) -> int:
    thresholds = _DEFAULT_THRESHOLDS
    if args.thresholds is not None:
        thresholds = _numbers("--thresholds", args.thresholds, float, "numbers")
        if not threshold_mod._ascending(thresholds):
            raise InputError("--thresholds: values must be strictly ascending and not NaN, "
                             f"got {args.thresholds!r}")
    averages = fold_intervals(ingest_trace(args.trace))
    points = threshold_mod.sweep_thresholds(averages, thresholds)
    rows = (f"{_float(t)},{_float(fp)}" for t, fp in points)
    _write_csv(args.out, SWEEP_SCHEMA, "threshold,fp_rate", rows)
    return EXIT_OK


# --- channel -------------------------------------------------------------------

def _positive_ints(flag: str, text: str, most: float = math.inf) -> list[int]:
    values = _numbers(flag, text, int, "integers")
    if min(values) < 1:
        raise InputError(f"{flag}: values must be >= 1, got {text!r}")
    if max(values) > most:
        raise InputError(f"{flag}: values must be <= {most}, got {text!r}")
    if len(set(values)) != len(values):
        raise InputError(f"{flag}: values must not repeat, got {text!r}")
    return values


def _cmd_channel(args) -> int:
    from . import channel as channel_mod

    if args.table:
        rows = (
            f"{est.amplification},{est.requests_per_bit},"
            f"{_float(est.script_runtime_s * 1000.0)},{_float(est.bits_per_hour)}"
            for est in channel_mod.leakage_table()
        )
        _write_csv(
            args.out,
            LEAKAGE_SCHEMA,
            "amplification,required_requests,script_runtime_ms,leaked_bits_per_hour",
            rows,
        )
        return EXIT_OK

    amplifications = _positive_ints("--amplifications", args.amplifications, MAX_AMPLIFICATION)
    requests = _positive_ints("--requests", args.requests, channel_mod.MAX_REQUESTS)
    grid = channel_mod.success_rate_curve(amplifications, requests, channel_mod.js_worker_params())
    rows = (
        f"{a},{n},{_float(grid[i, j])}"
        for i, a in enumerate(amplifications)
        for j, n in enumerate(requests)
    )
    _write_csv(args.out, SUCCESS_GRID_SCHEMA, "amplification,requests,success_rate", rows)
    return EXIT_OK


# --- fleet -------------------------------------------------------------------

# Config keys whose names differ from their dataclass fields.
_CONFIG_ALIASES = {"rng_seed": "seed", "branch_per_itlb_threshold": "branch_per_itlb",
                   "stl_reset_threshold": "stl_reset"}


def _config_object(cls, section: dict, name: str | None):
    """``cls`` from a config section, popping the keys it reads.

    The fleet's dataclass fields are sections of their own, and deeper ones
    read their parent's.  Each value goes through the field's own rule
    (``threshold.field_value``), which the error names by its key.  A named
    section may have no key left over.
    """
    values = {}
    for f, hint in setting_fields(cls).values():
        key = _CONFIG_ALIASES.get(f.name, f.name)
        if dataclasses.is_dataclass(hint) and name == "fleet":
            sub = section.pop(key, {})
            if not isinstance(sub, dict):
                raise InputError(f"fleet config {key!r} must be a JSON object")
            values[f.name] = _config_object(hint, dict(sub), key)
        elif dataclasses.is_dataclass(hint):
            values[f.name] = _config_object(hint, section, None)
        elif key in section:
            values[f.name] = threshold_mod.field_value(f, hint, section.pop(key),
                                                       f"fleet config {key!r}")
    if name is not None and section:
        raise InputError(f"unknown {name} config keys: {sorted(section)}")
    return cls(**values)


def _config_form(config) -> dict:
    """The config section that ``_config_object`` reads back as ``config``."""
    form = {}
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        form.update(_config_form(value) if dataclasses.is_dataclass(value)
                    else {_CONFIG_ALIASES.get(f.name, f.name): value})
    return form


def _cmd_fleet(args) -> int:
    from . import fleet as fleet_mod

    data = {}
    if args.config:
        try:
            # the trace decoder's hook: a repeated key, at any depth, is an error
            data = json.loads(Path(args.config).read_text(encoding="utf-8"),
                              object_pairs_hook=_unique_object)
        except (OSError, ValueError) as exc:  # also bad UTF-8, repeated keys, huge integers
            raise InputError(f"cannot read fleet config: {exc}") from exc
        if not isinstance(data, dict):
            raise InputError("fleet config must be a JSON object")
    # precedence: flag > file > default.  The seed defaults to DEFAULT_SEED,
    # not FleetConfig's 0.
    flags = {key: getattr(args, key) for key in ("seed", "intervals")
             if getattr(args, key) is not None}
    data = {"seed": DEFAULT_SEED, **data, **flags}
    cfg = _config_object(fleet_mod.FleetConfig, data, "fleet")
    report = fleet_mod.run_fleet(cfg)
    payload = {
        "schema": FLEET_REPORT_SCHEMA,
        # The detector in config-file form, so the block can be fed back.
        "detector": _config_form(cfg.detector),
        **report.to_json_dict(),
    }
    _atomic_write(args.out, [json.dumps(payload, sort_keys=True, indent=2), "\n"])
    if args.series_out:
        rows = (
            f"{p.t_sec},{_float(p.throughput_rps)},{_float(p.memory_bytes)},{p.isolated_count}"
            for p in report.series
        )
        _write_csv(
            args.series_out,
            FLEET_SERIES_SCHEMA,
            "t_sec,throughput_rps,memory_bytes,isolated_count",
            rows,
        )
    return EXIT_OK


# --- ks -------------------------------------------------------------------

def _cmd_ks(args) -> int:
    subject, reference = map(ks_mod.read_histogram_csv, (args.subject, args.reference))
    verdict = ks_mod.classify_ks(subject, reference, alpha=args.alpha, k=args.top_k,
                                 mode="exact" if args.exact else "asymptotic")
    text = _ks_line(verdict, alpha=args.alpha)
    if args.out:
        _atomic_write(args.out, [text])
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="spectreguard", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="write a synthetic trace (and histogram)")
    gen.add_argument("--profile", required=True,
                     choices=["benign", *(variant.value for variant in AttackVariant)])
    gen.add_argument("--n", type=int, default=1000)
    gen.add_argument("--amplification", type=int, default=None)
    gen.add_argument("--pages", type=int, default=0)
    gen.add_argument("--seed", type=int, default=DEFAULT_SEED)
    gen.add_argument("--out", required=True)
    gen.add_argument("--histogram-out", default=None)

    detect = sub.add_parser("detect", help="classify a trace or histogram set")
    detect.add_argument("--detector", choices=["threshold", "ks"], default="threshold")
    detect.add_argument("--trace", default=None)
    detect.add_argument("--histograms", default=None,
                        help="directory of per-worker histogram CSVs (ks detector)")
    detect.add_argument("--template", default=None)
    detect.add_argument("--alpha", type=float, default=ks_mod.DEFAULT_ALPHA)
    detect.add_argument("--top-k", type=int, default=ks_mod.DEFAULT_TOP_K)
    detect.add_argument("--threshold", type=float,
                        default=threshold_mod.BRANCH_THRESHOLD_DEFAULT)
    detect.add_argument("--stl-threshold", type=float,
                        default=threshold_mod.STL_THRESHOLD_DEFAULT)
    detect.add_argument("--out", required=True)

    sweep = sub.add_parser("sweep", help="threshold/false-positive curve")
    sweep.add_argument("--trace", required=True)
    sweep.add_argument("--thresholds", default=None, help="comma-separated, ascending")
    sweep.add_argument("--out", required=True)

    channel = sub.add_parser("channel", help="leakage table or success grid")
    channel.add_argument("--table", action="store_true")
    channel.add_argument("--amplifications", default="1,10,100,1000")
    channel.add_argument("--requests", default="1,10,100,1000,10000")
    channel.add_argument("--seed", type=int, default=DEFAULT_SEED,
                         help="accepted for compatibility; the grid is exact")
    channel.add_argument("--out", required=True)

    fleet = sub.add_parser("fleet", help="run the fleet simulator")
    fleet.add_argument("--config", default=None, help="JSON config file")
    fleet.add_argument("--seed", type=int, default=None,
                       help=f"overrides the config's seed (default {DEFAULT_SEED})")
    fleet.add_argument("--intervals", type=int, default=None)
    fleet.add_argument("--out", required=True)
    fleet.add_argument("--series-out", default=None)

    ks = sub.add_parser("ks", help="compare two histogram CSVs")
    ks.add_argument("subject")
    ks.add_argument("reference")
    ks.add_argument("--alpha", type=float, default=ks_mod.DEFAULT_ALPHA)
    ks.add_argument("--top-k", type=int, default=ks_mod.DEFAULT_TOP_K)
    ks.add_argument("--exact", action="store_true", help="exact p-value, at any --top-k")
    ks.add_argument("--out", default=None)

    return parser


_HANDLERS = {
    "gen": _cmd_gen,
    "detect": _cmd_detect,
    "sweep": _cmd_sweep,
    "channel": _cmd_channel,
    "fleet": _cmd_fleet,
    "ks": _cmd_ks,
}


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)  # None reads sys.argv[1:]
        for dest, (f, hint) in _FLAG_RULES.items():
            value = getattr(args, dest, None)
            if value is not None:
                threshold_mod.field_value(f, hint, value, f"--{dest.replace('_', '-')}")
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
