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

from .baselines import baseline_precoder
from .channel import (
    UserGeometry,
    draw_aods,
    half_wavelength_ula,
    kl_factorize,
    one_ring_covariance,
    sample_channel,
)
from .errors import ParseError, RsmaSimError, ValidationError
from .gpi import SolverOptions, build_forms, gpi_solve, init_precoder
from .linalg import trial_rng
from .quantization import QuantizerProfile
from .rates import rate_report

ALGORITHMS = ("QGPIRS", "QGPISEM", "QMRT", "QZF", "QRZF")
CHANNEL_MODES = ("random_aod", "correlated_aod")
WORKERS_ENV_VAR = "RSMA_SIM_WORKERS"

_ALLOWED_KEYS = {
    "N", "K", "snr_db", "dac_bits", "adc_bits", "channel_mode",
    "trials", "base_seed", "algorithms", "solver",
}
_ALLOWED_SOLVER_KEYS = {"tau", "epsilon", "t_max"}
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


@dataclass(frozen=True)
class TrialRecord:
    """Result of one algorithm on one trial at one SNR point.

    per_antenna_power is the diagonal of the transmit covariance
    (signal plus converter distortion); it sums to at most the power
    budget. wall_time_ms is a runtime diagnostic and is not serialized
    to CSV, which keeps output files byte-deterministic.
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
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ParseError(f"entries of {field!r} must be integers or \"inf\", got {raw!r}")
    if raw < 1:
        raise ValidationError(f"entries of {field!r} must be >= 1, got {raw}")
    return raw


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
    if isinstance(raw, int) and not isinstance(raw, bool):
        return BitSpec("fixed", count, (_parse_bit_entry(raw, field),) * count)
    if isinstance(raw, str):
        text = raw.strip()
        if text.lower() == "inf":
            return BitSpec("fixed", count, (math.inf,) * count)
        match = _UNIFORM_RE.match(text)
        if match:
            lo, hi = int(match.group(1)), int(match.group(2))
            if lo < 1 or hi < lo:
                raise ValidationError(f"field {field!r}: bad range {lo}..{hi}")
            return BitSpec("uniform", count, lo=lo, hi=hi)
        if text.startswith("mixed"):
            values = []
            for part in text[len("mixed"):].split("+"):
                m = _MIXED_PART_RE.match(part.strip())
                if not m:
                    raise ParseError(f"field {field!r}: cannot parse mixed part {part.strip()!r}")
                reps, bits = int(m.group(1)), int(m.group(2))
                if bits < 1:
                    raise ValidationError(f"field {field!r}: resolution must be >= 1")
                values.extend([bits] * reps)
            if len(values) != count:
                raise ValidationError(
                    f"field {field!r}: mixed counts sum to {len(values)}, need {count}"
                )
            return BitSpec("fixed", count, tuple(values))
        raise ParseError(f"field {field!r}: unrecognized resolution spec {raw!r}")
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

    base_seed = data.get("base_seed", 0)
    if isinstance(base_seed, bool) or not isinstance(base_seed, int) or base_seed < 0:
        raise ParseError(f"base_seed must be a nonnegative integer, got {base_seed!r}")

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
    unknown = set(solver_raw) - _ALLOWED_SOLVER_KEYS
    if unknown:
        raise ValidationError(f"unknown solver keys: {sorted(unknown)}")
    try:
        solver = SolverOptions(
            tau=float(solver_raw.get("tau", 0.3)),
            epsilon=float(solver_raw.get("epsilon", 0.01)),
            t_max=int(solver_raw.get("t_max", 500)),
        )
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
        base_seed=base_seed,
        algorithms=tuple(algorithms),
        solver=solver,
    )


def _evaluate_algorithm(trial_index, snr_db, algorithm, channel, profile, power,
                        noise_power, solver):
    """Run one algorithm on one operating point and return its record.

    QGPIRS and QGPISEM are the same solve with and without the common
    stream; the other algorithms are closed-form baselines.
    """
    started = time.perf_counter()
    if algorithm in ("QGPIRS", "QGPISEM"):
        include_common = algorithm == "QGPIRS"
        forms = build_forms(channel, profile, power, noise_power, include_common)
        result = gpi_solve(forms, solver, init_precoder(channel, profile, include_common))
        f_matrix = result.precoder
        iterations, converged, residual = result.iterations, result.converged, result.residual
    else:
        f_matrix = baseline_precoder(algorithm, channel, profile, power, noise_power)
        iterations, converged, residual = 0, True, 0.0

    report = rate_report(channel, f_matrix, profile, power, noise_power)
    antenna_power = power * profile.dac_alpha * np.sum(np.abs(f_matrix) ** 2, axis=1)
    return TrialRecord(
        trial_index=trial_index,
        snr_db=snr_db,
        algorithm=algorithm,
        sum_se=report.sum_se,
        common_rate=report.common_rate,
        private_rates=tuple(float(r) for r in report.private_rates),
        iterations=iterations,
        converged=converged,
        residual=residual,
        wall_time_ms=(time.perf_counter() - started) * 1e3,
        per_antenna_power=tuple(float(p) for p in antenna_power),
    )


def _run_trial(spec, trial_index):
    """All records for one trial: shared channel and bits, every (snr, alg)."""
    rng = trial_rng(spec.base_seed, trial_index)
    dac_bits = spec.dac_bits.resolve(rng)
    adc_bits = spec.adc_bits.resolve(rng)
    profile = QuantizerProfile.from_bits(dac_bits, adc_bits)

    mode = "random" if spec.channel_mode == "random_aod" else "correlated"
    aods = draw_aods(rng, spec.n_users, mode)
    geometry = half_wavelength_ula(spec.n_antennas)
    factorizations = [
        kl_factorize(one_ring_covariance(geometry, UserGeometry(aod=float(theta))))
        for theta in aods
    ]
    realization = sample_channel(factorizations, rng)

    records = []
    for snr_db in spec.snr_db:
        power = 10.0 ** (snr_db / 10.0)
        for algorithm in spec.algorithms:
            try:
                record = _evaluate_algorithm(
                    trial_index, snr_db, algorithm, realization.matrix, profile,
                    power, noise_power=1.0, solver=spec.solver,
                )
            except (RsmaSimError, np.linalg.LinAlgError) as exc:
                record = TrialRecord(
                    trial_index=trial_index, snr_db=snr_db, algorithm=algorithm,
                    sum_se=0.0, common_rate=0.0, private_rates=(0.0,) * spec.n_users,
                    iterations=0, converged=False, residual=0.0, wall_time_ms=0.0,
                    per_antenna_power=(0.0,) * spec.n_antennas,
                    note=f"{type(exc).__name__}: {exc}",
                )
            records.append(record)
    return records


def _worker_count(workers):
    if workers is not None:
        return max(1, int(workers))
    env = os.environ.get(WORKERS_ENV_VAR)
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            pass
    return 1


def run_experiment(spec, workers=None):
    """Execute the full sweep; returns records sorted by (trial, snr, algorithm).

    A solver failure inside one record is captured in that record's note
    (converged False, zeroed metrics); it never aborts the sweep.
    """
    count = _worker_count(workers)
    if count == 1 or spec.trials == 1:
        batches = [_run_trial(spec, t) for t in range(spec.trials)]
    else:
        with ProcessPoolExecutor(max_workers=count) as pool:
            batches = list(pool.map(_run_trial, [spec] * spec.trials, range(spec.trials)))
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda r: (r.trial_index, r.snr_db, r.algorithm))
    return records


def _fmt(value):
    """Serialize one float with 9 significant digits."""
    return format(float(value), ".9g")


def csv_header(n_users, n_antennas):
    columns = ["trial_index", "snr_db", "algorithm", "sum_se", "common_rate"]
    columns += [f"private_rate_{k + 1}" for k in range(n_users)]
    columns += ["iterations", "converged", "residual"]
    columns += [f"per_antenna_power_{n + 1}" for n in range(n_antennas)]
    columns += ["note"]
    return columns


def write_csv(records, path):
    """Write records as UTF-8 CSV with LF endings.

    Output is byte-deterministic for a given record list: the runtime
    diagnostic wall_time_ms is deliberately not serialized. Vector fields
    occupy one column per element, keeping the field order.
    """
    lines = []
    if records:
        n_users = len(records[0].private_rates)
        n_antennas = len(records[0].per_antenna_power)
    else:
        n_users = n_antennas = 0
    lines.append(",".join(csv_header(n_users, n_antennas)))
    for rec in records:
        note = rec.note.replace(",", ";").replace("\n", " ")
        cells = [
            str(rec.trial_index),
            _fmt(rec.snr_db),
            rec.algorithm,
            _fmt(rec.sum_se),
            _fmt(rec.common_rate),
            *[_fmt(v) for v in rec.private_rates],
            str(rec.iterations),
            "true" if rec.converged else "false",
            _fmt(rec.residual),
            *[_fmt(v) for v in rec.per_antenna_power],
            note,
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def read_csv(path):
    """Parse a results CSV back into TrialRecords (wall_time_ms is zero)."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = [line.rstrip("\n") for line in handle if line.strip()]
    if not lines:
        raise ParseError(f"{path}: empty results file")
    header = lines[0].split(",")
    n_users = sum(1 for c in header if c.startswith("private_rate_"))
    n_antennas = sum(1 for c in header if c.startswith("per_antenna_power_"))
    expected = csv_header(n_users, n_antennas)
    if header != expected:
        raise ParseError(f"{path}: unexpected CSV header")
    records = []
    for line in lines[1:]:
        cells = line.split(",")
        if len(cells) != len(header):
            raise ParseError(f"{path}: row has {len(cells)} cells, expected {len(header)}")
        pos = 0
        trial_index = int(cells[pos]); pos += 1
        snr_db = float(cells[pos]); pos += 1
        algorithm = cells[pos]; pos += 1
        sum_se = float(cells[pos]); pos += 1
        common_rate = float(cells[pos]); pos += 1
        private = tuple(float(c) for c in cells[pos:pos + n_users]); pos += n_users
        iterations = int(cells[pos]); pos += 1
        converged = cells[pos] == "true"; pos += 1
        residual = float(cells[pos]); pos += 1
        powers = tuple(float(c) for c in cells[pos:pos + n_antennas]); pos += n_antennas
        note = cells[pos]
        records.append(TrialRecord(
            trial_index=trial_index, snr_db=snr_db, algorithm=algorithm,
            sum_se=sum_se, common_rate=common_rate, private_rates=private,
            iterations=iterations, converged=converged, residual=residual,
            wall_time_ms=0.0, per_antenna_power=powers, note=note,
        ))
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
    n_antennas = len(rows[0].mean_power_ratio) if rows else 0
    columns = ["snr_db", "algorithm", "n_records", "mean_sum_se",
               "stderr_sum_se", "mean_common_rate"]
    columns += [f"mean_power_ratio_{n + 1}" for n in range(n_antennas)]
    lines = [",".join(columns)]
    for row in rows:
        cells = [
            _fmt(row.snr_db), row.algorithm, str(row.n_records),
            _fmt(row.mean_sum_se), _fmt(row.stderr_sum_se),
            _fmt(row.mean_common_rate),
            *[_fmt(v) for v in row.mean_power_ratio],
        ]
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")
