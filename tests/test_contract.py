"""Generative input contract: outside input is accepted or raises ValidationError, nothing else.

Config documents are built from the config grammar, valid or not, and results
files are arbitrary bytes or corrupted copies of a real one. A config that
loads runs to finite cells, its failures named in typed notes. Examples are
derandomized and few, so the module runs in tier-1 in a few seconds; raise
``max_examples`` to search further offline.
"""

import json
import math
import warnings

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from rsma_sim import (RsmaSimError, TrialRecord, ValidationError, load_spec, read_csv,
                      run_experiment, write_csv)
from rsma_sim.channel import CHANNEL_MODES
from rsma_sim.harness import ALGORITHMS, SNR_DB_RANGE, ExperimentSpec

CONTRACT = settings(max_examples=200, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.function_scoped_fixture])

# integers at and around every bound a config field has, and past the digit limits
EDGE_INTS = st.sampled_from([0, 1, -1, 2, 4, 5, 2048, 2049, 2**31, 2**63 - 1, 2**63, 2**64,
                             10**20, -10**20, 10**400])
FLOATS = st.floats(allow_nan=True, allow_infinity=True)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-10, 10), EDGE_INTS, FLOATS,
                    st.text(max_size=6))
NUMBER_TEXT = st.one_of(st.integers(0, 8), st.integers(0, 2100),
                        EDGE_INTS.filter(lambda n: n >= 0)).map(str)


def _mixed(parts):
    return "mixed " + " + ".join(f"{n}@{b}" for n, b in parts)


GRAMMAR = st.one_of(
    st.sampled_from(["inf", " INF ", "mixed", "uniform-random", "mixed 2@3 +", "4@4"]),
    st.builds("uniform-random {}..{}".format, NUMBER_TEXT, NUMBER_TEXT),
    st.lists(st.tuples(NUMBER_TEXT, NUMBER_TEXT), min_size=1, max_size=3).map(_mixed),
)
JUNK_BANK = st.one_of(SCALARS, GRAMMAR,
                      st.lists(st.one_of(st.integers(1, 8), st.just("inf"), SCALARS), max_size=5))
VALID_BANK = st.one_of(st.integers(1, 8), st.just("inf"),
                       st.builds("uniform-random {}..{}".format, st.integers(1, 3),
                                 st.integers(3, 8)))
# key: (a value that obeys the field's rules on its own, a value that may not)
FIELDS = {
    "N": (st.integers(1, 6), SCALARS),
    "K": (st.integers(1, 4), SCALARS),
    # the range's bounds, values between them and values just past them
    "snr_db": (st.lists(st.one_of(st.integers(-101, 101), st.floats(-100.5, 100.5),
                                  st.sampled_from([-100.0, 100.0, -100.001, 100.001])),
                        min_size=1, max_size=4, unique=True),
               st.one_of(SCALARS, st.lists(st.one_of(st.integers(-30, 60), SCALARS), max_size=4))),
    "dac_bits": (VALID_BANK, JUNK_BANK),
    "adc_bits": (VALID_BANK, JUNK_BANK),
    "channel_mode": (st.sampled_from(CHANNEL_MODES), SCALARS),
    "trials": (st.integers(1, 3), SCALARS),
    "base_seed": (st.integers(0, 99), SCALARS),
    "algorithms": (st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True),
                   st.one_of(SCALARS, st.lists(st.one_of(st.sampled_from(ALGORITHMS), SCALARS),
                                               max_size=6))),
    "solver": (st.fixed_dictionaries({}, optional={"tau": st.floats(0.01, 2.0),
                                                   "epsilon": st.floats(1e-4, 0.1),
                                                   "t_max": st.integers(1, 50)}),
               st.one_of(SCALARS, st.dictionaries(
                   st.sampled_from(["tau", "epsilon", "t_max", "tmax"]),
                   st.one_of(st.integers(1, 50), st.floats(0.001, 2.0), SCALARS), max_size=3))),
    "unknown": (SCALARS, SCALARS),
}
REQUIRED = ("N", "K", "snr_db", "dac_bits", "adc_bits", "trials")


@st.composite
def documents(draw):
    """JSON text of an object with each key present or not and its value valid or not.

    Now and then a key repeats, an unknown key appears or the document is no object.
    """
    if draw(st.integers(0, 19)) == 0:
        return json.dumps(draw(st.one_of(SCALARS, st.lists(SCALARS, max_size=3))))
    keys = [key for key in FIELDS
            if key != "unknown" and draw(st.integers(0, 39)) > (0 if key in REQUIRED else 19)]
    if draw(st.integers(0, 9)) == 0:
        keys.append(draw(st.sampled_from(sorted(FIELDS))))
    pairs = []
    for key in keys:
        valid, junk = FIELDS[key]
        value = draw(junk if draw(st.integers(0, 9)) == 0 else valid)
        pairs.append(f"{json.dumps(key)}: {json.dumps(value)}")
    return "{" + ", ".join(pairs) + "}"


@CONTRACT
@given(documents())
def test_any_config_document_loads_or_raises_validation_error(document):
    try:
        spec = load_spec(document)
    except ValidationError:
        return
    assert isinstance(spec, ExperimentSpec)


RECORD = TrialRecord(trial_index=0, snr_db=10.0, algorithm="QGPIRS", sum_se=3.5,
                     common_rate=1.25, private_rates=(1.0, 1.25), iterations=12, converged=True,
                     residual=0.004, per_antenna_power=(0.25, 0.25, 0.25, 0.25))
CELLS = st.one_of(st.sampled_from(["", "nan", "inf", "-inf", "1e999", "true", "false", "True",
                                   "-0", "1.5", "QGPIRS", "1_0", "0x1f", "9" * 5000]),
                  st.text(max_size=6))


@st.composite
def results_files(draw, valid_lines):
    """Bytes of a real results file with some lines, cells or bytes replaced, or random bytes."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.binary(max_size=200))
    lines = [line.split(",") for line in valid_lines[:draw(st.integers(1, len(valid_lines)))]]
    for _ in range(draw(st.integers(0, 3))):
        row = draw(st.integers(0, len(lines) - 1))
        action = draw(st.sampled_from(["cell", "drop", "add", "line"]))
        if action == "cell":
            lines[row][draw(st.integers(0, len(lines[row]) - 1))] = draw(CELLS)
        elif action == "drop" and len(lines[row]) > 1:
            del lines[row][draw(st.integers(0, len(lines[row]) - 1))]
        elif action == "add":
            lines[row].append(draw(CELLS))
        elif action == "line":
            lines.insert(row, draw(st.lists(CELLS, min_size=1, max_size=4)))
    data = "\n".join(",".join(cells) for cells in lines).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.binary(max_size=3)) + data[cut:]


@CONTRACT
@given(data=st.data())
def test_any_results_bytes_read_or_raise_validation_error(data, tmp_path):
    path = tmp_path / "results.csv"
    write_csv([RECORD] * 3, path)
    path.write_bytes(data.draw(results_files(path.read_text(encoding="utf-8").splitlines())))
    try:
        records = read_csv(path)
    except ValidationError:
        return
    assert all(isinstance(r, TrialRecord) for r in records)


LOW_DB, HIGH_DB = SNR_DB_RANGE
PACKAGE_ERRORS = {cls.__name__ for cls in RsmaSimError.__subclasses__()}


@st.composite
def bank(draw, count):
    """A bank of count converters: one resolution, a list, a mixed spec or a uniform range."""
    bits = st.one_of(st.integers(1, 40), st.just("inf"))
    kind = draw(st.sampled_from(["one", "list", "mixed", "uniform"]))
    if kind == "one":
        return draw(bits)
    if kind == "list":
        return draw(st.lists(bits, min_size=count, max_size=count))
    if kind == "mixed":
        split = draw(st.integers(0, count))
        low, high = draw(st.integers(1, 40)), draw(st.integers(1, 40))
        return _mixed([(split, low), (count - split, high)])
    low = draw(st.integers(1, 40))
    return f"uniform-random {low}..{draw(st.integers(low, 40))}"


@st.composite
def small_runs(draw):
    """JSON text of a valid config with N * K <= 64 and one trial."""
    n_antennas = draw(st.integers(1, 64))
    n_users = draw(st.integers(1, 64 // n_antennas))
    snr_db = st.one_of(st.floats(LOW_DB, HIGH_DB), st.integers(int(LOW_DB), int(HIGH_DB)),
                       st.sampled_from(SNR_DB_RANGE))
    return json.dumps({
        "N": n_antennas, "K": n_users,
        "snr_db": draw(st.lists(snr_db, min_size=1, max_size=4, unique=True)),
        "dac_bits": draw(bank(n_antennas)), "adc_bits": draw(bank(n_users)),
        "channel_mode": draw(st.sampled_from(CHANNEL_MODES)), "trials": 1,
        "base_seed": draw(st.integers(0, 2**32)),
        "algorithms": draw(st.lists(st.sampled_from(ALGORITHMS), min_size=1, unique=True)),
        "solver": draw(FIELDS["solver"][0]),
    })


@settings(CONTRACT, max_examples=100)
@given(small_runs())
def test_any_small_loaded_config_runs_to_finite_cells(document):
    spec = load_spec(document)
    with warnings.catch_warnings():
        # an overflow, a divide-by-zero or an invalid value anywhere in the run fails it
        warnings.simplefilter("error")
        records = run_experiment(spec)
    assert len(records) == len(spec.snr_db) * len(spec.algorithms)
    for r in records:
        cells = (r.snr_db, r.sum_se, r.common_rate, r.residual, *r.private_rates,
                 *r.per_antenna_power)
        assert all(math.isfinite(c) for c in cells), r
        assert not r.note or r.note.split(":")[0] in PACKAGE_ERRORS, r.note
