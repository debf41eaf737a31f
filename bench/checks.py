"""Output and determinism checks; each failure names the check that tripped."""

import math

GPI_ALGORITHMS = ("QGPIRS", "QGPISEM")
# per_antenna_power must sum to the SNR's power budget this closely.
POWER_RTOL = 1e-9
# sum_se is common_rate + sum(private_rates) up to summation order.
SUM_SE_RTOL = 1e-12


class CheckFailed(Exception):
    """An output or determinism check failed; ``name`` says which."""

    def __init__(self, name, detail):
        super().__init__(f"{name}: {detail}")
        self.name = name


def _where(rec):
    return f"trial {rec.trial_index} snr {rec.snr_db:g} dB {rec.algorithm}"


def check_records(records, expected_count):
    """Rates, power budget and sum-SE identity of every record."""
    if len(records) != expected_count:
        raise CheckFailed("record_count", f"{len(records)} records, expected {expected_count}")
    for rec in records:
        if rec.note:
            continue
        rates = (rec.sum_se, rec.common_rate, *rec.private_rates)
        if not all(math.isfinite(r) for r in rates):
            raise CheckFailed("finite_rates", f"{_where(rec)}: {rates}")
        if rec.common_rate < 0 or min(rec.private_rates) < 0:
            raise CheckFailed("nonnegative_rates", f"{_where(rec)}: {rates}")
        budget = 10.0 ** (rec.snr_db / 10.0)
        used = math.fsum(rec.per_antenna_power)
        if not abs(used - budget) <= POWER_RTOL * budget:
            raise CheckFailed("power_budget", f"{_where(rec)}: uses {used!r} of {budget!r}")
        if rec.algorithm == "QGPIRS":
            total = rec.common_rate + math.fsum(rec.private_rates)
            if not math.isclose(rec.sum_se, total, rel_tol=SUM_SE_RTOL, abs_tol=SUM_SE_RTOL):
                raise CheckFailed("sum_se_identity", f"{_where(rec)}: {rec.sum_se!r} != {total!r}")


def _serialized(value):
    """A float as the CSV stores it (9 significant digits)."""
    return float(format(float(value), ".9g"))


def check_roundtrip(written, read_back):
    """``read_csv(write_csv(records))`` gives back every serialized field."""
    if len(written) != len(read_back):
        raise CheckFailed("csv_roundtrip", f"{len(read_back)} rows read, {len(written)} written")
    for i, (a, b) in enumerate(zip(written, read_back)):
        expected = (
            a.trial_index, _serialized(a.snr_db), a.algorithm, _serialized(a.sum_se),
            _serialized(a.common_rate), tuple(_serialized(v) for v in a.private_rates),
            a.iterations, a.converged, _serialized(a.residual),
            tuple(_serialized(v) for v in a.per_antenna_power),
            a.note.replace(",", ";").replace("\n", " "),
        )
        got = (
            b.trial_index, b.snr_db, b.algorithm, b.sum_se, b.common_rate, b.private_rates,
            b.iterations, b.converged, b.residual, b.per_antenna_power, b.note,
        )
        if got != expected:
            raise CheckFailed("csv_roundtrip", f"row {i}: wrote {expected}, read {got}")


def check_same(name, first, second):
    """Two byte strings (CSV files) that must be identical."""
    if first != second:
        raise CheckFailed(name, f"outputs differ ({len(first)} vs {len(second)} bytes)")
