"""Monte Carlo experiment harness: config, sweep execution, CSV output.

An experiment is a JSON document describing the system size, quantizer
resolutions, SNR sweep, channel mode, and algorithms to compare. Each
trial draws one quantizer assignment and one channel realization from a
per-trial random stream, shares them across every algorithm and SNR
point (paired comparison), and emits one record per
(trial, snr, algorithm).

Per-trial streams are keyed on (base_seed, trial_index), so results do
not depend on execution order or the number of workers.
"""

import json
import math
import os
import re
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from .baselines import BASELINE_KINDS, baseline_precoder
from .channel import (
    CHANNEL_MODES,
    draw_aods,
    one_ring_factor,
    sample_channel,
)
from .errors import ParseError, RsmaSimError, ValidationError
from .gpi import SolveResult, SolverOptions, build_forms, gpi_solve, init_precoder
from .linalg import trial_rng
from .quantization import QuantizerProfile
from .rates import rate_report

_GPI_ALGORITHMS = ("QGPIRS", "QGPISEM")
ALGORITHMS = _GPI_ALGORITHMS + BASELINE_KINDS
# Errors a record captures in its note instead of aborting the sweep.
_RECORDED_ERRORS = (RsmaSimError, np.linalg.LinAlgError)

_ALLOWED_KEYS = {
    "N", "K", "snr_db", "dac_bits", "adc_bits", "channel_mode",
    "trials", "base_seed", "algorithms", "solver",
}
# JSON type each solver key takes; bools are rejected although Python
# counts them as ints.
_SOLVER_TYPES = {"tau": (int, float), "epsilon": (int, float), "t_max": int}
_UNIFORM_RE = re.compile(r"^uniform-random\s+(\d+)\.\.(\d+)$")
_MIXED_PART_RE = re.compile(r"^(\d+)@(\d+)$")


@dataclass(frozen=True)
class BitSpec:
    """Resolved or per-trial-random resolution assignment.

    kind "fixed" carries the explicit per-element tuple; kind "uniform"
    draws each element i.i.d. from [lo, hi] once per trial.
    """

    kind: str
    count: int
    values: tuple = ()
    lo: int = 0
    hi: int = 0

    def resolve(self, rng):
        if self.kind == "fixed":
            return tuple(self.values)
        return tuple(int(b) for b in rng.integers(self.lo, self.hi + 1, size=self.count))


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated sweep configuration."""

    n_antennas: int
    n_users: int
    snr_db: tuple
    dac_bits: BitSpec
    adc_bits: BitSpec
    channel_mode: str
    trials: int
    base_seed: int
    algorithms: tuple
    solver: SolverOptions

    def __post_init__(self):
        # checked here, not in load_spec, so a seed replaced later obeys the same rule
        seed = self.base_seed
        if isinstance(seed, bool) or not isinstance(seed, int) or seed < 0:
            raise ParseError(f"base_seed must be a nonnegative integer, got {seed!r}")


@dataclass(frozen=True)
class TrialRecord:
    """Result of one algorithm on one trial at one SNR point.

    per_antenna_power is the diagonal of the transmit covariance
    (signal plus converter distortion); it sums to at most the power
    budget. wall_time_ms is a runtime diagnostic and is not serialized
    to CSV, which keeps output files byte-deterministic; it is an equal share of
    its algorithm's time over the trial's SNR points plus its own rate evaluation.
    """

    trial_index: int
    snr_db: float
    algorithm: str
    sum_se: float
    common_rate: float
    private_rates: tuple
    iterations: int
    converged: bool
    residual: float
    wall_time_ms: float
    per_antenna_power: tuple
    note: str = ""


def _positive_int(raw, field):
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"field {field!r} must be an integer, got {raw!r}")
    if raw < 1:
        raise ValidationError(f"field {field!r} must be >= 1, got {raw}")
    return raw


def _parse_bit_entry(raw, field):
    if isinstance(raw, str) and raw.strip().lower() == "inf":
        return math.inf
    return _positive_int(raw, field)


def _parse_bit_spec(raw, count, field):
    """Parse the resolution grammar for one converter bank.

    Accepts an explicit list (length must match), a single value applied
    to every element, "uniform-random LO..HI", or
    "mixed N1@B1 + N2@B2 [+ ...]" with counts summing to the bank size.
    """
    if isinstance(raw, list):
        if len(raw) != count:
            raise ValidationError(
                f"field {field!r} lists {len(raw)} resolutions but {count} are needed"
            )
        return BitSpec("fixed", count, tuple(_parse_bit_entry(v, field) for v in raw))
    if not isinstance(raw, str) or raw.strip().lower() == "inf":
        return BitSpec("fixed", count, (_parse_bit_entry(raw, field),) * count)
    text = raw.strip()
    match = _UNIFORM_RE.match(text)
    if match:
        lo, hi = int(match.group(1)), int(match.group(2))
        # each trial draws from the range with numpy's int64 integers
        if lo < 1 or hi < lo or hi > np.iinfo(np.int64).max:
            raise ValidationError(f"field {field!r}: bad range {lo}..{hi}")
        return BitSpec("uniform", count, lo=lo, hi=hi)
    if text.startswith("mixed"):
        parts = []
        for part in text[len("mixed"):].split("+"):
            m = _MIXED_PART_RE.match(part.strip())
            if not m:
                raise ParseError(f"field {field!r}: cannot parse mixed part {part.strip()!r}")
            parts.append((int(m.group(1)), _positive_int(int(m.group(2)), field)))
        total = sum(n for n, _ in parts)
        if total != count:
            raise ValidationError(f"field {field!r}: mixed counts sum to {total}, need {count}")
        return BitSpec("fixed", count, tuple(bits for n, bits in parts for _ in range(n)))
    raise ParseError(f"field {field!r}: unrecognized resolution spec {raw!r}")


def load_spec(document):
    """Parse and validate a JSON experiment document into an ExperimentSpec."""
    try:
        data = json.loads(document)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON at line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError("experiment document must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("N", "K", "snr_db", "dac_bits", "adc_bits", "trials"):
        if key not in data:
            raise ValidationError(f"missing required config key {key!r}")

    n_antennas = _positive_int(data["N"], "N")
    n_users = _positive_int(data["K"], "K")
    trials = _positive_int(data["trials"], "trials")

    snr_db = data["snr_db"]
    if not isinstance(snr_db, list) or not snr_db:
        raise ValidationError("snr_db must be a nonempty list")
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in snr_db):
        raise ParseError("snr_db entries must be numbers")
    for v in snr_db:
        # K/snr is the QRZF loading; positive and finite keeps snr and 1/snr finite
        try:
            loading = n_users / 10.0 ** (v / 10.0)
        except (OverflowError, ZeroDivisionError):
            loading = math.inf
        if not 0.0 < loading < math.inf:
            raise ValidationError(
                f"snr_db entry {v}: K * 10^(-snr_db/10) is not positive and finite"
            )

    channel_mode = data.get("channel_mode", "random_aod")
    if channel_mode not in CHANNEL_MODES:
        raise ValidationError(f"channel_mode must be one of {CHANNEL_MODES}")

    algorithms = data.get("algorithms", list(ALGORITHMS))
    if not isinstance(algorithms, list) or not algorithms:
        raise ValidationError("algorithms must be a nonempty list")
    for alg in algorithms:
        if alg not in ALGORITHMS:
            raise ValidationError(f"unknown algorithm {alg!r}; choose from {ALGORITHMS}")

    solver_raw = data.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ParseError("solver must be a JSON object")
    unknown = set(solver_raw) - set(_SOLVER_TYPES)
    if unknown:
        raise ValidationError(f"unknown solver keys: {sorted(unknown)}")
    for key, value in solver_raw.items():
        if isinstance(value, bool) or not isinstance(value, _SOLVER_TYPES[key]):
            kind = "an integer" if key == "t_max" else "a number"
            raise ParseError(f"solver {key!r} must be {kind}, got {value!r}")
    try:
        solver = SolverOptions(**solver_raw)
    except RsmaSimError as exc:
        raise ValidationError(str(exc)) from exc

    return ExperimentSpec(
        n_antennas=n_antennas,
        n_users=n_users,
        snr_db=tuple(float(v) for v in snr_db),
        dac_bits=_parse_bit_spec(data["dac_bits"], n_antennas, "dac_bits"),
        adc_bits=_parse_bit_spec(data["adc_bits"], n_users, "adc_bits"),
        channel_mode=channel_mode,
        trials=trials,
        base_seed=data.get("base_seed", 0),
        algorithms=tuple(algorithms),
        solver=solver,
    )


def _baseline(algorithm, channel, profile, snr):
    """A closed-form precoder as a zero-iteration SolveResult, or its error."""
    try:
        return SolveResult(baseline_precoder(algorithm, channel, profile, snr), 0, True, 0.0)
    except _RECORDED_ERRORS as exc:
        return exc


def _record(trial_index, snr_db, algorithm, channel, profile, snr, result, share):
    """A SolveResult's record, ``share`` ms of solve time added; an error's is zeroed."""
    started = time.perf_counter()
    key = {"trial_index": trial_index, "snr_db": snr_db, "algorithm": algorithm}
    try:
        if isinstance(result, Exception):
            raise result
        report = rate_report(channel, result.precoder, profile, snr)
    except _RECORDED_ERRORS as exc:
        return TrialRecord(
            **key, sum_se=0.0, common_rate=0.0, private_rates=(0.0,) * profile.n_users,
            iterations=0, converged=False, residual=0.0, wall_time_ms=0.0,
            per_antenna_power=(0.0,) * profile.n_antennas, note=f"{type(exc).__name__}: {exc}",
        )
    antenna_power = snr * profile.dac_alpha * np.sum(np.abs(result.precoder) ** 2, axis=1)
    return TrialRecord(
        **key, sum_se=report.sum_se, common_rate=report.common_rate,
        private_rates=tuple(float(r) for r in report.private_rates),
        iterations=result.iterations, converged=result.converged, residual=result.residual,
        wall_time_ms=share + (time.perf_counter() - started) * 1e3,
        per_antenna_power=tuple(float(p) for p in antenna_power),
    )


def _run_trial(spec, trial_index):
    """All records for one trial: shared channel and bits, every (snr, alg)."""
    rng = trial_rng(spec.base_seed, trial_index)
    dac_bits = spec.dac_bits.resolve(rng)
    adc_bits = spec.adc_bits.resolve(rng)
    profile = QuantizerProfile(dac_bits, adc_bits)

    aods = draw_aods(rng, spec.n_users, spec.channel_mode)
    factors = [one_ring_factor(spec.n_antennas, float(theta)) for theta in aods]
    channel = sample_channel(factors, rng)

    snrs = [10.0 ** (snr_db / 10.0) for snr_db in spec.snr_db]
    records = []
    for algorithm in spec.algorithms:
        started = time.perf_counter()
        try:
            if algorithm in _GPI_ALGORITHMS:
                forms = build_forms(channel, profile, snrs, include_common=algorithm == "QGPIRS")
                results = gpi_solve(forms, spec.solver, init_precoder(forms))
            else:
                results = [_baseline(algorithm, channel, profile, snr) for snr in snrs]
        except _RECORDED_ERRORS as exc:
            results = [exc] * len(snrs)
        share = (time.perf_counter() - started) * 1e3 / len(snrs)
        records += [_record(trial_index, snr_db, algorithm, channel, profile, snr, result, share)
                    for snr_db, snr, result in zip(spec.snr_db, snrs, results)]
    return records


def run_experiment(spec, workers=1):
    """Execute the full sweep; returns records sorted by (trial, snr, algorithm).

    A solver failure inside one record is captured in that record's note
    (converged False, zeroed metrics); it never aborts the sweep.
    Up to ``workers`` trials, but no more than there are trials or CPUs, run in parallel.
    """
    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    workers = min(workers, spec.trials, os.cpu_count() or 1)
    if workers <= 1:  # zero when there are no trials
        batches = [_run_trial(spec, t) for t in range(spec.trials)]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            batches = list(pool.map(_run_trial, [spec] * spec.trials, range(spec.trials)))
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda r: (r.trial_index, r.snr_db, r.algorithm))
    return records


# Column groups of the results and summary CSVs, in dataclass field order.
# A group is (field, kind): kind is the type of a one-column field, or,
# for a vector field, the column prefix; a vector field spans one float
# column per element, numbered from 1.
_RECORD_COLUMNS = (
    ("trial_index", int), ("snr_db", float), ("algorithm", str),
    ("sum_se", float), ("common_rate", float), ("private_rates", "private_rate_"),
    ("iterations", int), ("converged", bool), ("residual", float),
    ("per_antenna_power", "per_antenna_power_"), ("note", str),
)
_SUMMARY_COLUMNS = (
    ("snr_db", float), ("algorithm", str), ("n_records", int),
    ("mean_sum_se", float), ("stderr_sum_se", float), ("mean_common_rate", float),
    ("mean_power_ratio", "mean_power_ratio_"),
)


def _header(groups, widths):
    """Column names; ``widths`` maps each vector field to its element count."""
    columns = []
    for field, kind in groups:
        if isinstance(kind, str):
            columns += [f"{kind}{i + 1}" for i in range(widths[field])]
        else:
            columns.append(field)
    return columns


def _format(kind, value):
    """One cell: floats with 9 significant digits, text without commas or newlines."""
    if kind is bool:
        return "true" if value else "false"
    if kind is int:
        return str(value)
    if kind is str:
        return value.replace(",", ";").replace("\n", " ")
    return format(float(value), ".9g")


def _parse(kind, cell):
    if kind is bool:
        if cell not in ("true", "false"):
            raise ValueError(f"expected true or false, got {cell!r}")
        return cell == "true"
    return cell if kind is str else kind(cell)


def _write_table(groups, items, path):
    """Write dataclass items as UTF-8 CSV with LF endings, one row each."""
    widths = {field: len(getattr(items[0], field)) if items else 0
              for field, kind in groups if isinstance(kind, str)}
    lines = [",".join(_header(groups, widths))]
    for item in items:
        cells = []
        for field, kind in groups:
            value = getattr(item, field)
            if isinstance(kind, str):
                cells += [_format(float, v) for v in value]
            else:
                cells.append(_format(kind, value))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_csv(records, path):
    """Write records as UTF-8 CSV with LF endings.

    Output is byte-deterministic for a given record list: the runtime
    diagnostic wall_time_ms is deliberately not serialized. Vector fields
    occupy one column per element, keeping the field order.
    """
    _write_table(_RECORD_COLUMNS, records, path)


def read_csv(path):
    """Parse a results CSV back into TrialRecords (wall_time_ms is zero)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty results file")
    header = lines[0].split(",")
    widths = {field: sum(c.startswith(kind) for c in header)
              for field, kind in _RECORD_COLUMNS if isinstance(kind, str)}
    if header != _header(_RECORD_COLUMNS, widths):
        raise ParseError(f"{path}: unexpected CSV header")
    records = []
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row {row} has {len(cells)} cells, expected {len(header)}")
        cells = iter(cells)
        fields = {}
        try:
            for field, kind in _RECORD_COLUMNS:
                if isinstance(kind, str):
                    fields[field] = tuple(float(next(cells)) for _ in range(widths[field]))
                else:
                    fields[field] = _parse(kind, next(cells))
        except ValueError as exc:
            raise ParseError(f"{path}: row {row}, column {field!r}: {exc}") from exc
        records.append(TrialRecord(wall_time_ms=0.0, **fields))
    return records


@dataclass(frozen=True)
class SummaryRow:
    """Aggregate of one (snr, algorithm) cell of the sweep."""

    snr_db: float
    algorithm: str
    n_records: int
    mean_sum_se: float
    stderr_sum_se: float
    mean_common_rate: float
    mean_power_ratio: tuple


def summarize(records):
    """Per-(snr, algorithm) means and standard errors, sorted."""
    if not records:
        raise ParseError("cannot summarize an empty record list")
    groups = {}
    for rec in records:
        groups.setdefault((rec.snr_db, rec.algorithm), []).append(rec)
    rows = []
    for (snr_db, algorithm), recs in sorted(groups.items()):
        sums = np.array([r.sum_se for r in recs])
        commons = np.array([r.common_rate for r in recs])
        ratios = []
        for r in recs:
            powers = np.asarray(r.per_antenna_power)
            total = powers.sum()
            ratios.append(powers / total if total > 0 else np.zeros_like(powers))
        stderr = float(sums.std(ddof=1) / np.sqrt(len(recs))) if len(recs) > 1 else 0.0
        rows.append(SummaryRow(
            snr_db=snr_db,
            algorithm=algorithm,
            n_records=len(recs),
            mean_sum_se=float(sums.mean()),
            stderr_sum_se=stderr,
            mean_common_rate=float(commons.mean()),
            mean_power_ratio=tuple(float(v) for v in np.mean(ratios, axis=0)),
        ))
    return rows


def write_summary_csv(rows, path):
    """Write summary rows as CSV (one power-ratio column per antenna)."""
    _write_table(_SUMMARY_COLUMNS, rows, path)
