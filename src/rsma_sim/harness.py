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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields as dataclass_fields

import numpy as np

from .baselines import BASELINE_KINDS, baseline_precoder
from .channel import CHANNEL_MODES, MAX_SIZE, draw_aods, sample_channel
from .errors import DimensionMismatch, RsmaSimError, ValidationError, integer, real, shown
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
_UNIFORM_RE = re.compile(r"^uniform-random\s+(\d+)\.\.(\d+)$")
_MIXED_PART_RE = re.compile(r"^(\d+)@(\d+)$")
# Inclusive bounds of an snr_db entry: the paper sweeps 0..60 dB, and with ideal converters a
# rate first divides by zero at 130 dB for N=2048 (160 dB for N=4), where zero forcing cancels
# the interference to roundoff. Every cell is finite from -300 to 120 dB at N=4..2048.
SNR_DB_RANGE = (-100.0, 100.0)
# Trials per pool.map call, which queues every trial it is handed before any result returns
_POOL_WINDOW = 1024


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated sweep configuration; each bank's bits are a tuple or the range trials draw from."""

    n_antennas: int
    n_users: int
    snr_db: tuple
    dac_bits: tuple | range
    adc_bits: tuple | range
    channel_mode: str
    trials: int
    base_seed: int
    algorithms: tuple
    solver: SolverOptions

    def __post_init__(self):
        # checked here, not in load_spec, so a spec made by dataclasses.replace obeys them too
        integer(self.n_antennas, "field 'N'", most=MAX_SIZE)
        integer(self.n_users, "field 'K'", most=MAX_SIZE)
        _check_bits(self.dac_bits, "dac_bits", "N", self.n_antennas)
        _check_bits(self.adc_bits, "adc_bits", "K", self.n_users)
        integer(self.trials, "field 'trials'")
        integer(self.base_seed, "field 'base_seed'", least=0)
        if not isinstance(self.solver, SolverOptions):
            raise ValidationError(f"solver must be a SolverOptions, got {shown(self.solver)}")
        for name in ("snr_db", "algorithms"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)) or not values:
                raise ValidationError(f"{name} must be a nonempty list, got {shown(values)}")
            # a frozen field is set through object; a tuple keeps the spec hashable
            object.__setattr__(self, name, tuple(values))
        object.__setattr__(self, "snr_db",
                           tuple(real(v, "snr_db entry", *SNR_DB_RANGE) for v in self.snr_db))
        if self.channel_mode not in CHANNEL_MODES:
            raise ValidationError(f"channel_mode must be one of {CHANNEL_MODES}")
        for alg in self.algorithms:
            if alg not in ALGORITHMS:
                raise ValidationError(f"unknown algorithm {shown(alg)}; choose from {ALGORITHMS}")
        for name in ("snr_db", "algorithms"):
            values = getattr(self, name)
            # a repeat would repeat records, which summarize counts as independent samples
            if len(set(values)) < len(values):
                raise ValidationError(f"{name} repeats an entry: {list(values)}")


@dataclass(frozen=True)
class TrialRecord:
    """Result of one algorithm on one trial at one SNR point.

    per_antenna_power is the diagonal of the transmit covariance
    (signal plus converter distortion); it sums to at most the power
    budget. A failed point has zero rates and powers and its error in note.
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
    per_antenna_power: tuple
    note: str = ""


def _check_bits(bits, field, key, count):
    """Raise unless a bank's bits are count positive ints or inf, or a range of positive int64s."""
    if isinstance(bits, range):
        # each trial draws from the range with numpy's int64 integers
        if bits.step != 1 or not 1 <= bits.start < bits.stop <= 2**63:
            raise ValidationError(f"field {field!r}: {shown(bits)} is not a step-1 range "
                                  "in 1..2^63 - 1")
    elif not isinstance(bits, tuple):
        raise ValidationError(f"field {field!r} must be a tuple or range of resolutions, "
                              f"got {shown(bits)}")
    elif len(bits) != count:
        raise ValidationError(f"field {field!r} has {len(bits)} resolutions but {key} = {count}")
    else:
        for b in bits:
            if not isinstance(b, float) or b != math.inf:
                integer(b, f"field {field!r}")


def _draw_bits(bits, count, rng):
    """One trial's resolutions: the tuple itself, or count i.i.d. draws from the range."""
    if isinstance(bits, range):
        return tuple(int(b) for b in rng.integers(bits.start, bits.stop, size=count))
    return bits


def _parse_bit_spec(raw, count, field):
    """Parse the resolution grammar for one converter bank of count elements.

    An explicit list, a single value applied to every element, or
    "mixed N1@B1 + N2@B2 [+ ...]" gives a tuple; "uniform-random LO..HI"
    gives range(LO, HI + 1). ExperimentSpec checks the entries and counts.
    """
    if not isinstance(raw, str) or raw.strip().lower() == "inf":
        entries = raw if isinstance(raw, list) else [raw] * count
        # infinity is the text "inf"; ExperimentSpec would take a JSON Infinity for math.inf
        if any(isinstance(v, float) and v == math.inf for v in entries):
            raise ValidationError(f"field {field!r}: write an infinite resolution as \"inf\"")
        return tuple(math.inf if isinstance(v, str) and v.strip().lower() == "inf" else v
                     for v in entries)
    text = raw.strip()
    match = _UNIFORM_RE.match(text)
    if match:
        return range(_grammar_int(match.group(1), field), _grammar_int(match.group(2), field) + 1)
    if text.startswith("mixed"):
        parts = []
        for part in text[len("mixed"):].split("+"):
            m = _MIXED_PART_RE.match(part.strip())
            if not m:
                raise ValidationError(f"field {field!r}: cannot parse mixed part "
                                      f"{shown(part.strip())}")
            parts.append((_grammar_int(m.group(1), field), _grammar_int(m.group(2), field)))
        # checked before the tuple is built, so a count with hundreds of digits allocates nothing
        total = sum(n for n, _ in parts)
        if total != count:
            raise ValidationError(f"field {field!r}: mixed counts sum to {shown(total)}, "
                                  f"need {count}")
        return tuple(bits for n, bits in parts for _ in range(n))
    raise ValidationError(f"field {field!r}: unrecognized resolution spec {shown(raw)}")


def _grammar_int(digits, field):
    """The integer a digit run of the resolution grammar spells."""
    try:
        return int(digits)
    except ValueError:
        # past Python's int-conversion digit limit, as load_spec's JSON numbers are
        raise ValidationError(
            f"field {field!r}: a {len(digits)}-digit number is too long") from None


def _unique_keys(pairs):
    """JSON object hook: a repeated key is an error instead of keeping its last value."""
    repeated = sorted(key for key, n in Counter(key for key, _ in pairs).items() if n > 1)
    if repeated:
        raise ValidationError(f"repeated keys in a JSON object: {repeated}")
    return dict(pairs)


def load_spec(document):
    """Parse and validate a JSON experiment document into an ExperimentSpec."""
    try:
        data = json.loads(document, object_pairs_hook=_unique_keys)
    except ValueError as exc:
        # a JSONDecodeError, or an integer past Python's int-conversion digit limit
        raise ValidationError(f"invalid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ValidationError("experiment document must be a JSON object")
    unknown = set(data) - _ALLOWED_KEYS
    if unknown:
        raise ValidationError(f"unknown config keys: {sorted(unknown)}")
    for key in ("N", "K", "snr_db", "dac_bits", "adc_bits", "trials"):
        if key not in data:
            raise ValidationError(f"missing required config key {key!r}")

    # N and K size the converter banks below; ExperimentSpec checks the rest
    n_antennas = integer(data["N"], "field 'N'", most=MAX_SIZE)
    n_users = integer(data["K"], "field 'K'", most=MAX_SIZE)
    solver_raw = data.get("solver", {})
    if not isinstance(solver_raw, dict):
        raise ValidationError("solver must be a JSON object")
    unknown = set(solver_raw) - {f.name for f in dataclass_fields(SolverOptions)}
    if unknown:
        raise ValidationError(f"unknown solver keys: {sorted(unknown)}")
    solver = SolverOptions(**solver_raw)
    dac_bits = _parse_bit_spec(data["dac_bits"], n_antennas, "dac_bits")
    # checked before the ADCs are parsed, so a document's first bad field is the one reported
    _check_bits(dac_bits, "dac_bits", "N", n_antennas)

    return ExperimentSpec(
        n_antennas=n_antennas,
        n_users=n_users,
        snr_db=data["snr_db"],
        dac_bits=dac_bits,
        adc_bits=_parse_bit_spec(data["adc_bits"], n_users, "adc_bits"),
        channel_mode=data.get("channel_mode", "random_aod"),
        trials=data["trials"],
        base_seed=data.get("base_seed", 0),
        algorithms=data.get("algorithms", ALGORITHMS),
        solver=solver,
    )


def _run_trial(spec, trial_index):
    """All records for one trial: shared channel and bits, every (snr, alg), one scoring call."""
    rng = trial_rng(spec.base_seed, trial_index)
    profile = QuantizerProfile(_draw_bits(spec.dac_bits, spec.n_antennas, rng),
                               _draw_bits(spec.adc_bits, spec.n_users, rng))

    aods = draw_aods(rng, spec.n_users, spec.channel_mode)
    channel = sample_channel(spec.n_antennas, aods, rng)

    snrs = [10.0 ** (snr_db / 10.0) for snr_db in spec.snr_db]
    # a failed point scores as the zero precoder, whose rates and powers are exactly 0
    failed = SolveResult(np.zeros((spec.n_antennas, spec.n_users + 1)), 0, False, 0.0)
    # SDMA is RSMA with the common stream off: one batched solve serves both GPI algorithms
    gpi = tuple(a for a in spec.algorithms if a in _GPI_ALGORITHMS)
    groups = ([gpi] if gpi else []) + [(a,) for a in spec.algorithms if a not in gpi]
    points = []  # (algorithm, snr_db, snr, SolveResult, note)
    for group in groups:
        try:
            if group == gpi:
                forms = build_forms(channel, profile, snrs * len(gpi),
                                    [a == "QGPIRS" for a in gpi for _ in snrs])
                results = gpi_solve(forms, spec.solver, init_precoder(forms))
            else:
                results = [f if isinstance(f, Exception) else SolveResult(f, 0, True, 0.0)
                           for f in baseline_precoder(group[0], channel, profile, snrs)]
        except _RECORDED_ERRORS as exc:
            results = [exc] * (len(group) * len(snrs))
        labels = [(a, snr_db, snr) for a in group for snr_db, snr in zip(spec.snr_db, snrs)]
        for (algorithm, snr_db, snr), result in zip(labels, results):
            error = isinstance(result, Exception)
            note = f"{type(result).__name__}: {result}" if error else ""
            points.append((algorithm, snr_db, snr, failed if error else result, note))

    stack = np.stack([result.precoder for _, _, _, result, _ in points])
    stack_snrs = np.array([snr for _, _, snr, _, _ in points])
    report = rate_report(channel, stack, profile, stack_snrs)
    antenna_power = stack_snrs[:, None] * profile.dac_alpha * np.sum(np.abs(stack) ** 2, axis=2)
    return [
        TrialRecord(
            trial_index=trial_index, snr_db=snr_db, algorithm=algorithm, sum_se=float(sum_se),
            common_rate=float(common_rate), private_rates=tuple(private_rates.tolist()),
            iterations=result.iterations, converged=result.converged, residual=result.residual,
            per_antenna_power=tuple(power.tolist()), note=note,
        )
        for (algorithm, snr_db, _, result, note), sum_se, common_rate, private_rates, power
        in zip(points, report.sum_se, report.common_rate, report.private_rates, antenna_power)
    ]


def run_experiment(spec, workers=1):
    """Execute the full sweep; returns records sorted by (trial, snr, algorithm).

    A solver failure inside one record is captured in that record's note
    (converged False, zeroed metrics); it never aborts the sweep.
    Up to ``workers`` trials, but no more than there are trials or CPUs, run in parallel.
    """
    workers = min(integer(workers, "field 'workers'"), spec.trials, os.cpu_count() or 1)
    if workers == 1:
        batches = [_run_trial(spec, t) for t in range(spec.trials)]
    else:
        batches = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for start in range(0, spec.trials, _POOL_WINDOW):
                window = range(spec.trials)[start:start + _POOL_WINDOW]
                batches += pool.map(_run_trial, [spec] * len(window), window)
    records = [record for batch in batches for record in batch]
    records.sort(key=lambda r: (r.trial_index, r.snr_db, r.algorithm))
    return records


def _prefix(name):
    """The name of a tuple field's columns up to the element number (see write_csv)."""
    return name.removesuffix("s") + "_"


def _header(plan, widths):
    """Column names of a (field, kind) plan; ``widths`` maps each tuple field to its length."""
    columns = []
    for name, kind in plan:
        if kind is tuple:
            columns += [f"{_prefix(name)}{i + 1}" for i in range(widths[name])]
        else:
            columns.append(name)
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
            raise ValueError(f"expected true or false, got {shown(cell)}")
        return cell == "true"
    return cell if kind is str else kind(cell)


def _write_table(table, items, path):
    """Write items of dataclass ``table`` as UTF-8 CSV with LF endings, one row each."""
    plan = [(f.name, f.type) for f in dataclass_fields(table)]
    widths = {name: len(getattr(items[0], name)) if items else 0
              for name, kind in plan if kind is tuple}
    lines = [",".join(_header(plan, widths))]
    for row, item in enumerate(items, start=1):
        cells = []
        for name, kind in plan:
            value = getattr(item, name)
            if kind is tuple:
                # checked before the file is opened, so a ragged table writes nothing
                if len(value) != widths[name]:
                    raise DimensionMismatch(f"field {name!r}: row {row} has {len(value)} "
                                            f"entries, row 1 has {widths[name]}")
                cells += [_format(float, v) for v in value]
            else:
                cells.append(_format(kind, value))
        lines.append(",".join(cells))
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(lines) + "\n")


def write_csv(records, path):
    """Write records as UTF-8 CSV with LF endings, byte-deterministic for a given list.

    The columns are TrialRecord's fields in order, each of the kind its annotation
    names. A tuple field spans one float column per element, named for the field in
    the singular and numbered from 1: private_rates becomes private_rate_1..K.
    """
    _write_table(TrialRecord, records, path)


def read_csv(path):
    """Parse a results CSV, whose header must be write_csv's, back into TrialRecords."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.rstrip("\n") for line in handle if line.strip()]
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{path}: not UTF-8 text: {exc}") from exc
    if not lines:
        raise ValidationError(f"{path}: empty results file")
    plan = [(f.name, f.type) for f in dataclass_fields(TrialRecord)]
    header = lines[0].split(",")
    widths = {name: sum(c.startswith(_prefix(name)) for c in header)
              for name, kind in plan if kind is tuple}
    if header != _header(plan, widths):
        raise ValidationError(f"{path}: unexpected CSV header")
    records = []
    for row, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ValidationError(f"{path}: row {row} has {len(cells)} cells, "
                                  f"expected {len(header)}")
        cells = iter(cells)
        fields = {}
        try:
            for name, kind in plan:
                if kind is tuple:
                    fields[name] = tuple(float(next(cells)) for _ in range(widths[name]))
                else:
                    fields[name] = _parse(kind, next(cells))
        except ValueError as exc:
            raise ValidationError(f"{path}: row {row}, column {name!r}: {exc}") from exc
        records.append(TrialRecord(**fields))
    return records


@dataclass(frozen=True)
class SummaryRow:
    """One (snr, algorithm) cell: n_failed counts records with a note; the means omit them."""

    snr_db: float
    algorithm: str
    n_records: int
    n_failed: int
    mean_sum_se: float
    stderr_sum_se: float
    mean_common_rate: float
    mean_power_ratio: tuple


def summarize(records):
    """Per-(snr, algorithm) means and standard errors of solved records (NaN if none), sorted."""
    if not records:
        raise ValidationError("cannot summarize an empty record list")
    groups = {}
    for rec in records:
        groups.setdefault((rec.snr_db, rec.algorithm), []).append(rec)
    rows = []
    for (snr_db, algorithm), recs in sorted(groups.items()):
        solved = [r for r in recs if not r.note]
        if not solved:
            rows.append(SummaryRow(snr_db, algorithm, len(recs), len(recs), *[math.nan] * 3,
                                   (math.nan,) * len(recs[0].per_antenna_power)))
            continue
        sums = np.array([r.sum_se for r in solved])
        powers = np.array([r.per_antenna_power for r in solved])
        totals = powers.sum(axis=1, keepdims=True)
        ratios = np.divide(powers, totals, out=np.zeros_like(powers), where=totals > 0)
        stderr = float(sums.std(ddof=1) / np.sqrt(len(solved))) if len(solved) > 1 else 0.0
        rows.append(SummaryRow(
            snr_db=snr_db,
            algorithm=algorithm,
            n_records=len(recs),
            n_failed=len(recs) - len(solved),
            mean_sum_se=float(sums.mean()),
            stderr_sum_se=stderr,
            mean_common_rate=float(np.mean([r.common_rate for r in solved])),
            mean_power_ratio=tuple(float(v) for v in np.mean(ratios, axis=0)),
        ))
    return rows


def write_summary_csv(rows, path):
    """Write summary rows as CSV, SummaryRow's fields by write_csv's rule."""
    _write_table(SummaryRow, rows, path)
