"""Experiment config parsing, Monte Carlo execution, CSV I/O, CLI."""

import hashlib
import json
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rsma_sim.gpi
import rsma_sim.harness
from rsma_sim import (
    DimensionMismatch,
    ValidationError,
    load_spec,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
    write_summary_csv,
)
from rsma_sim.cli import main as cli_main
from rsma_sim.harness import TrialRecord, _draw_bits

from oracles import dense_blockdiag_solve

MINIMAL = {
    "N": 4,
    "K": 2,
    "snr_db": [10],
    "dac_bits": 4,
    "adc_bits": 6,
    "trials": 1,
}


FIG2_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "fig2_sweep.json"


def make_doc(**overrides):
    doc = dict(MINIMAL)
    doc.update(overrides)
    return json.dumps(doc)


def small_spec(**overrides):
    merged = {"algorithms": ["QMRT", "QZF"], "base_seed": 77}
    merged.update(overrides)
    return load_spec(make_doc(**merged))


class TestLoadSpec:
    def test_minimal_defaults(self):
        spec = load_spec(make_doc())
        assert spec.n_antennas == 4 and spec.n_users == 2
        assert spec.snr_db == (10.0,)
        assert spec.solver.tau == 1.0
        assert spec.solver.epsilon == 0.01
        assert spec.solver.t_max == 500
        assert spec.channel_mode == "random_aod"
        assert spec.base_seed == 0
        assert spec.algorithms == ("QGPIRS", "QGPISEM", "QMRT", "QZF", "QRZF")
        assert spec.dac_bits == (4, 4, 4, 4)

    def test_mixed_grammar(self):
        spec = load_spec(make_doc(dac_bits="mixed 3@3 + 1@8"))
        assert spec.dac_bits == (3, 3, 3, 8)

    def test_uniform_range_up_to_int64_max(self):
        spec = load_spec(make_doc(dac_bits="uniform-random 9223372036854775806..9223372036854775807"))
        assert spec.dac_bits == range(9223372036854775806, 2**63)
        drawn = _draw_bits(spec.dac_bits, 4, np.random.default_rng(0))
        assert all(b >= 9223372036854775806 for b in drawn)

    def test_uniform_random_grammar(self):
        spec = load_spec(make_doc(dac_bits="uniform-random 2..8"))
        assert spec.dac_bits == range(2, 9)
        bits = _draw_bits(spec.dac_bits, 4, np.random.default_rng(0))
        assert len(bits) == 4
        assert all(2 <= b <= 8 for b in bits)
        # per-trial draws differ
        assert any(
            _draw_bits(spec.dac_bits, 4, np.random.default_rng(s)) != bits for s in range(1, 20)
        )

    def test_explicit_list_and_inf(self):
        spec = load_spec(make_doc(dac_bits=[3, "inf", 8, 2], adc_bits="inf"))
        assert spec.dac_bits == (3, math.inf, 8, 2)
        assert spec.adc_bits == (math.inf, math.inf)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(trials=0))

    @pytest.mark.parametrize("key, value", [("N", 2049), ("K", 2049), ("N", 10**400),
                                            ("K", 10**400)],
                             ids=["N-2049", "K-2049", "N-401-digits", "K-401-digits"])
    def test_size_above_bound_rejected_before_banks_are_built(self, key, value):
        # a scalar bank spec is expanded to N or K entries, so the bound is checked first
        with pytest.raises(ValidationError, match=f"'{key}' must be an integer in 1\\.\\.2048"):
            load_spec(make_doc(**{key: value}))

    def test_size_at_bound_loads(self):
        spec = load_spec(make_doc(N=rsma_sim.harness.MAX_SIZE, K=rsma_sim.harness.MAX_SIZE))
        assert len(spec.dac_bits) == len(spec.adc_bits) == 2048

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(wavelength=0.1))

    def test_unknown_solver_key_rejected(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(solver={"tau": 0.3, "anneal": True}))

    def test_bad_json(self):
        with pytest.raises(ValidationError):
            load_spec("{not json")

    def test_non_object(self):
        with pytest.raises(ValidationError):
            load_spec("[1, 2]")

    @pytest.mark.parametrize("document, key", [
        (make_doc().replace('"N": 4,', '"N": 4, "N": 8,'), "N"),
        (make_doc(solver={"tau": 1.0}).replace('"tau": 1.0', '"tau": 1.0, "tau": 0.3'), "tau"),
    ])
    def test_repeated_key_rejected(self, document, key):
        # json.loads alone keeps a repeated key's last value, so N=8 or tau=0.3 would run
        assert document.count(f'"{key}"') == 2
        with pytest.raises(ValidationError,
                           match=f"repeated keys in a JSON object: \\['{key}'\\]"):
            load_spec(document)

    @pytest.mark.parametrize("change, match", [
        ({"base_seed": -1}, "'base_seed' must be an integer >= 0"),
        ({"channel_mode": 5}, "channel_mode must be one of"),
        ({"algorithms": [5]}, "unknown algorithm 5"),
        ({"algorithms": "QMRT"}, "algorithms must be a nonempty list"),
        ({"snr_db": "10"}, "snr_db must be a nonempty list"),
    ], ids=["negative_seed", "number_channel_mode", "number_algorithm", "text_algorithms",
            "text_snr_db"])
    def test_wrong_type_and_bad_value_are_one_error(self, change, match):
        # a field of the wrong type and one with a bad value raise the same error
        with pytest.raises(ValidationError, match=match):
            load_spec(make_doc(**change))

    def test_integer_past_digit_limit_rejected(self):
        # json.loads raises a bare ValueError for an integer past Python's digit limit
        with pytest.raises(ValidationError):
            load_spec(make_doc(N="@").replace('"@"', "1" * 5000))

    def test_missing_required(self):
        doc = dict(MINIMAL)
        del doc["snr_db"]
        with pytest.raises(ValidationError):
            load_spec(json.dumps(doc))

    def test_wrong_list_length(self):
        with pytest.raises(ValidationError, match="'dac_bits' has 2 resolutions but N = 4"):
            load_spec(make_doc(dac_bits=[4, 4]))

    @pytest.mark.parametrize("dac_bits", ["Infinity", "[3, 3, 3, Infinity]"])
    def test_json_infinity_is_not_inf_text(self, dac_bits):
        # the grammar spells an infinite resolution "inf"; a bare JSON Infinity is a float
        document = make_doc(dac_bits="@").replace('"@"', dac_bits)
        with pytest.raises(ValidationError, match="as \"inf\""):
            load_spec(document)

    @pytest.mark.parametrize("dac_bits, adc_bits", [
        ([0, 4, 4, 4], "bad grammar"), (["x", 4, 4, 4], "mixed 1@8"), ([4, 4], "mixed x"),
    ])
    def test_dac_error_reported_before_adc_grammar(self, dac_bits, adc_bits):
        # the banks are checked in document order, so the DACs' error is the one raised
        with pytest.raises(ValidationError, match="'dac_bits'"):
            load_spec(make_doc(dac_bits=dac_bits, adc_bits=adc_bits))

    def test_mixed_count_mismatch(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(dac_bits="mixed 2@3 + 1@8"))

    def test_bad_grammar(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(dac_bits="random 2..8"))

    def test_unknown_algorithm(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(algorithms=["QGPIRS", "WMMSE"]))

    def test_bad_channel_mode(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(channel_mode="clustered"))

    def test_empty_snr(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(snr_db=[]))

    @pytest.mark.parametrize("snr_db", [[10, 10], [10, 0, 10.0]])
    def test_repeated_snr_rejected(self, snr_db):
        with pytest.raises(ValidationError, match="snr_db repeats"):
            load_spec(make_doc(snr_db=snr_db))

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ValidationError, match="algorithms repeats"):
            load_spec(make_doc(algorithms=["QZF", "QMRT", "QZF"]))

    def test_bad_resolution_value(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(adc_bits=0))

    def test_bad_solver_value(self):
        with pytest.raises(ValidationError):
            load_spec(make_doc(solver={"tau": -1.0}))

    @pytest.mark.parametrize("solver", [
        {"tau": "abc"}, {"tau": [1]}, {"tau": None}, {"tau": "0.5"}, {"tau": True},
        {"epsilon": "0.5"}, {"epsilon": None}, {"epsilon": False},
        {"t_max": "9"}, {"t_max": 2.7}, {"t_max": True}, {"t_max": [1]}, {"t_max": None},
    ])
    def test_malformed_solver_value(self, solver):
        with pytest.raises(ValidationError):
            load_spec(make_doc(solver=solver))

    @pytest.mark.parametrize("solver", [
        {"tau": math.inf}, {"tau": math.nan}, {"tau": 10**400},
        {"epsilon": math.inf}, {"epsilon": math.nan},
    ])
    def test_non_finite_solver_value_rejected(self, solver):
        with pytest.raises(ValidationError, match="positive and finite"):
            load_spec(make_doc(solver=solver))

    def test_partial_solver_keeps_other_defaults(self):
        spec = load_spec(make_doc(solver={"tau": 1, "t_max": 20}))
        assert (spec.solver.tau, spec.solver.epsilon, spec.solver.t_max) == (1, 0.01, 20)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_snr_rejected(self, bad):
        with pytest.raises(ValidationError):
            load_spec(make_doc(snr_db=[10, bad]))

    @pytest.mark.parametrize("bad", [1e308, -4000, -1e308, 10**400],
                             ids=["1e308", "-4000", "-1e308", "401-digit-int"])
    def test_snr_power_outside_float_range_rejected(self, bad):
        # 10^(snr/10) would overflow, underflow to zero, or could not be computed
        with pytest.raises(ValidationError, match="snr_db entry"):
            load_spec(make_doc(snr_db=[10, bad]))

    def test_tiny_snr_rejected(self):
        # K * 10^300 is a finite Q-RZF loading, but -3000 dB is outside SNR_DB_RANGE
        with pytest.raises(ValidationError,
                           match=r"snr_db entry must be a number in -100\.\.100, got -3000"):
            load_spec(make_doc(snr_db=[-3000]))

    def test_snr_range_is_inclusive(self):
        assert load_spec(make_doc(snr_db=[-100, 0, 100.0])).snr_db == (-100.0, 0.0, 100.0)
        for bad in (-100.001, np.nextafter(100.0, 101.0)):
            with pytest.raises(ValidationError, match="snr_db entry"):
                load_spec(make_doc(snr_db=[bad]))


class TestExperimentSpec:
    @pytest.mark.parametrize("change, error, match", [
        ({"snr_db": ()}, ValidationError, "snr_db must be a nonempty"),
        ({"snr_db": (40.0, 40.0)}, ValidationError, "snr_db repeats"),
        ({"snr_db": (10, 10.0)}, ValidationError, "snr_db repeats"),
        ({"snr_db": (math.nan,)}, ValidationError, "snr_db entry"),
        ({"snr_db": (10, 10**400)}, ValidationError, "snr_db entry"),
        ({"snr_db": (np.float64(1e308),)}, ValidationError, "snr_db entry"),
        ({"snr_db": ("10",)}, ValidationError, "snr_db entry must be a number"),
        ({"algorithms": ()}, ValidationError, "algorithms must be a nonempty"),
        ({"algorithms": ("QZF", "WMMSE")}, ValidationError, "unknown algorithm"),
        ({"algorithms": ("QZF", "QMRT", "QZF")}, ValidationError, "algorithms repeats"),
        ({"trials": 0}, ValidationError, "'trials' must be an integer >= 1"),
        ({"n_antennas": 0}, ValidationError, "'N' must be an integer in 1\\.\\.2048"),
        ({"n_users": -1}, ValidationError, "'K' must be an integer in 1\\.\\.2048"),
        ({"n_antennas": 2049}, ValidationError, "'N' must be an integer in 1\\.\\.2048"),
        ({"n_users": 10**400}, ValidationError, "'K' must be an integer in 1\\.\\.2048"),
        ({"trials": 2.0}, ValidationError, "'trials' must be an integer"),
        ({"channel_mode": "clustered"}, ValidationError, "channel_mode must be one of"),
        ({"dac_bits": (4, 4)}, ValidationError, "'dac_bits' has 2"),
        ({"adc_bits": (1, 8, 8)}, ValidationError, "'adc_bits' has 3"),
        ({"n_antennas": 8}, ValidationError, "N = 8"),
        ({"dac_bits": (0, 4, 4, 4)}, ValidationError, "'dac_bits' must be an integer >= 1"),
        ({"dac_bits": (4.5, 4, 4, 4)}, ValidationError, "'dac_bits' must be an integer"),
        ({"adc_bits": (8, "inf")}, ValidationError, "'adc_bits' must be an integer"),
        ({"dac_bits": range(0, 2)}, ValidationError, "not a step-1 range"),
        ({"dac_bits": range(3, 2)}, ValidationError, "not a step-1 range"),
        ({"dac_bits": range(2, 9, 2)}, ValidationError, "not a step-1 range"),
        ({"dac_bits": range(2, 2**63 + 1)}, ValidationError, "not a step-1 range"),
        ({"dac_bits": [4, 4, 4, 4]}, ValidationError, "must be a tuple or range"),
        ({"base_seed": -1}, ValidationError, "'base_seed' must be an integer >= 0"),
        ({"base_seed": 1.0}, ValidationError, "'base_seed' must be an integer >= 0"),
        ({"solver": {"tau": 1}}, ValidationError, "solver must be a SolverOptions"),
        ({"algorithms": "QMRT"}, ValidationError, "algorithms must be a nonempty list"),
        ({"snr_db": "10"}, ValidationError, "snr_db must be a nonempty list"),
        ({"n_antennas": 10**5000}, ValidationError, "'N' must be an integer in 1\\.\\.2048"),
        ({"snr_db": (10**5000,)}, ValidationError, "snr_db entry"),
        ({"base_seed": -10**5000}, ValidationError, "'base_seed' must be an integer >= 0"),
        ({"algorithms": (10**5000,)}, ValidationError, "unknown algorithm"),
    ], ids=["empty_snr", "repeated_snr", "repeated_int_snr", "nan_snr", "huge_snr",
            "huge_numpy_snr", "text_snr", "no_algorithm", "unknown_algorithm", "repeated_algorithm",
            "zero_trials", "zero_antennas", "negative_users", "too_many_antennas",
            "too_many_users", "float_trials",
            "unknown_channel_mode", "too_few_dacs", "too_many_adcs",
            "antennas_without_dacs", "zero_bit_dac", "fractional_bit_dac", "text_inf_adc",
            "range_from_zero", "empty_range", "range_with_step", "range_past_int64",
            "list_of_bits", "negative_seed", "float_seed", "solver_dict", "algorithm_text",
            "snr_text", "unprintable_antennas", "unprintable_snr", "unprintable_seed",
            "unprintable_algorithm"])
    def test_replaced_spec_obeys_the_config_rules(self, change, error, match):
        # a spec made by dataclasses.replace meets the rules load_spec enforces; the
        # message stays short for a value too long to print
        with pytest.raises(error, match=match) as info:
            replace(load_spec(make_doc()), **change)
        assert len(str(info.value)) <= 150

    def test_list_fields_stored_as_tuples(self):
        # a frozen spec stays hashable, and equal to the one tuples give
        spec = load_spec(make_doc())
        listed = replace(spec, snr_db=[10, 20], algorithms=["QMRT", "QZF"])
        as_tuples = replace(spec, snr_db=(10, 20), algorithms=("QMRT", "QZF"))
        assert listed == as_tuples
        assert hash(listed) == hash(as_tuples)
        assert listed.algorithms == ("QMRT", "QZF")

    def test_numpy_integers_count_as_integers(self):
        # numpy integers meet the integer rule, and a spec of them runs the same records
        spec = small_spec(trials=2, dac_bits=[3, 3, 3, 8])
        as_numpy = replace(spec, n_antennas=np.int64(4), n_users=np.int32(2),
                           trials=np.int64(2), base_seed=np.uint8(77),
                           dac_bits=tuple(np.int16(b) for b in spec.dac_bits))
        records = run_experiment(spec)
        assert run_experiment(as_numpy, workers=np.int64(1)) == records
        assert run_experiment(spec, workers=np.int64(2)) == records
        for change in ({"trials": np.int64(0)}, {"n_antennas": np.int64(2049)}):
            with pytest.raises(ValidationError):
                replace(spec, **change)
        with pytest.raises(ValidationError, match="'workers' must be an integer >= 1"):
            run_experiment(spec, workers=np.int64(0))

    def test_snr_stored_as_floats(self):
        spec = replace(load_spec(make_doc()), snr_db=(40, 10**2))
        assert spec.snr_db == (40.0, 100.0)
        assert all(type(v) is float for v in spec.snr_db)

    def test_numpy_snr_entries_stored_as_floats(self):
        # any real number but a bool is an SNR, as in the solver settings
        spec = replace(load_spec(make_doc()), snr_db=(np.int64(10), np.float32(20.5)))
        assert spec.snr_db == (10.0, 20.5)
        assert all(type(v) is float for v in spec.snr_db)


class TestRunExperiment:
    def test_record_count_and_order(self):
        spec = small_spec(snr_db=[10, 0], trials=2)
        records = run_experiment(spec)
        assert len(records) == 2 * 2 * 2
        keys = [(r.trial_index, r.snr_db, r.algorithm) for r in records]
        assert keys == sorted(keys)

    def test_rzf_at_tiny_snr_runs(self, monkeypatch):
        # a 2e300 loading leaves direction entries near 1e-301, whose squares
        # underflow; the column norms must still come out positive. -3000 dB
        # is below SNR_DB_RANGE, so the test widens it
        monkeypatch.setattr(rsma_sim.harness, "SNR_DB_RANGE", (-3000.0, 100.0))
        (record,) = run_experiment(small_spec(snr_db=[-3000], algorithms=["QRZF"]))
        assert record.note == ""
        assert math.isfinite(record.sum_se)

    def test_paired_channel_across_algorithms(self):
        # algorithm results must match whether run together or separately,
        # because the channel/bit draws come before any algorithm runs
        joint = run_experiment(small_spec())
        solo = run_experiment(small_spec(algorithms=["QZF"]))
        joint_zf = [r for r in joint if r.algorithm == "QZF"]
        assert len(joint_zf) == len(solo) == 1
        assert joint_zf[0].sum_se == solo[0].sum_se
        assert joint_zf[0].per_antenna_power == solo[0].per_antenna_power

    def test_deterministic_across_runs(self):
        a = run_experiment(small_spec(trials=3))
        b = run_experiment(small_spec(trials=3))
        for x, y in zip(a, b):
            assert x.sum_se == y.sum_se
            assert x.private_rates == y.private_rates
            assert x.per_antenna_power == y.per_antenna_power

    def test_parallel_equals_serial(self):
        spec = small_spec(trials=4)
        serial = run_experiment(spec, workers=1)
        parallel = run_experiment(spec, workers=2)
        assert len(serial) == len(parallel)
        for x, y in zip(serial, parallel):
            assert x.trial_index == y.trial_index
            assert x.algorithm == y.algorithm
            assert x.sum_se == y.sum_se
            assert x.residual == y.residual

    def test_failure_captured_not_raised(self):
        # overloaded zero forcing (K > N) fails per record, sweep continues
        spec = load_spec(json.dumps({
            "N": 2, "K": 3, "snr_db": [10], "dac_bits": 4, "adc_bits": 6,
            "trials": 1, "algorithms": ["QZF", "QMRT"],
        }))
        records = run_experiment(spec)
        by_alg = {r.algorithm: r for r in records}
        assert not by_alg["QZF"].converged
        assert "RankDeficient" in by_alg["QZF"].note
        assert by_alg["QZF"].sum_se == 0.0
        assert by_alg["QMRT"].converged
        assert by_alg["QMRT"].sum_se > 0.0

    def test_trial_with_every_point_failed(self, tmp_path):
        # zero forcing with more users than antennas fails at every point;
        # each record is still scored, as the zero precoder
        spec = load_spec(json.dumps({
            "N": 2, "K": 3, "snr_db": [10, 20], "dac_bits": 4, "adc_bits": 6,
            "trials": 2, "algorithms": ["QZF"],
        }))
        records = run_experiment(spec)
        assert len(records) == 4
        for r in records:
            assert r.note.startswith("RankDeficient: ") and not r.converged
            assert (r.sum_se, r.common_rate, r.iterations, r.residual) == (0.0, 0.0, 0, 0.0)
            assert r.private_rates == (0.0,) * 3 and r.per_antenna_power == (0.0,) * 2
        path = tmp_path / "results.csv"
        write_csv(records, path)
        header = (
            "trial_index,snr_db,algorithm,sum_se,common_rate,private_rate_1,private_rate_2,"
            "private_rate_3,iterations,converged,residual,per_antenna_power_1,"
            "per_antenna_power_2,note\n"
        )
        note = "RankDeficient: effective channel Gram matrix is singular (kind=QZF)"
        rows = "".join(f"{t},{snr},QZF,0,0,0,0,0,0,false,0,0,0,{note}\n"
                       for t in (0, 1) for snr in (10, 20))
        assert path.read_text(encoding="utf-8") == header + rows

    def test_single_user_high_snr_solves_do_not_fail(self):
        # single-user pencils at 40-60 dB cancel most of the gain sum in
        # their blocks; they are valid and must solve
        spec = load_spec(json.dumps({
            "N": 4, "K": 1, "snr_db": [0, 10, 20, 30, 40, 50, 60],
            "dac_bits": 8, "adc_bits": 8, "channel_mode": "random_aod",
            "trials": 10, "base_seed": 70, "algorithms": ["QGPIRS", "QGPISEM"],
            "solver": {"tau": 1.0},
        }))
        records = run_experiment(spec, workers=1)
        assert len(records) == 140
        assert [r.note for r in records if r.note] == []

    def test_ideal_converters_at_160_db_rejected(self):
        # with ideal converters, zero forcing cancels the private interference to exactly 0
        # once the noise 1/snr is below the roundoff of the received total: QZF and QRZF
        # records would get sum_se = inf after a divide-by-zero warning, so the config is
        # refused before any trial runs
        with pytest.raises(ValidationError, match=r"snr_db entry must be a number in -100\.\.100"):
            load_spec(json.dumps({"N": 4, "K": 2, "snr_db": [160], "dac_bits": "inf",
                                  "adc_bits": "inf", "trials": 3}))

    def test_singular_snr_point_leaves_batch_mates_alone(self, tmp_path, monkeypatch):
        # without converter distortion the 150 dB pencils are singular to
        # working precision: those records fail at iteration 0 inside the
        # same batched solves whose 20 dB points converge as they do alone;
        # the notes and the file's bytes are pinned to this seed's channels.
        # 150 dB is above SNR_DB_RANGE, so the test widens it
        monkeypatch.setattr(rsma_sim.harness, "SNR_DB_RANGE", (-100.0, 150.0))
        spec = load_spec(json.dumps({
            "N": 4, "K": 2, "dac_bits": "inf", "adc_bits": "inf", "snr_db": [20, 150],
            "algorithms": ["QGPIRS", "QGPISEM"], "trials": 3, "solver": {"tau": 0.3},
        }))
        records = run_experiment(spec)
        assert all(r.converged and not r.note for r in records if r.snr_db == 20)
        assert [r.note for r in records if r.snr_db == 150] == [
            f"SingularMatrix: block {block} singular: diagonal floor {floor} below tolerance {tol}"
            for block, floor, tol in (
                (1, "4.262e-15", "5.854e-14"), (1, "3.318e-15", "3.790e-14"),
                (1, "1.450e-14", "4.467e-13"), (1, "1.032e-14", "3.180e-13"),
                (1, "1.282e-13", "1.363e-12"), (1, "1.004e-13", "1.052e-12"),
            )
        ]
        assert [r for r in records if r.snr_db == 20] == run_experiment(
            replace(spec, snr_db=(20.0,)))
        path = tmp_path / "results.csv"
        write_csv(records, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "2957bccb02be9d9c6b7bc4076fe31d485651fe80fb8b9c943acd72afc1ca9265"
        )

    def test_one_block_solve_per_iteration_for_all_snr_points(self, monkeypatch):
        # both GPI algorithms solve a trial's SNR points as one batch: one
        # block solve per iteration of its slowest point plus its last stop
        # test, where solving point by point, or each algorithm apart,
        # would make more
        calls = []
        solve = rsma_sim.gpi.blockdiag_solve
        monkeypatch.setattr(
            rsma_sim.gpi, "blockdiag_solve", lambda *args: calls.append(args) or solve(*args)
        )
        spec = replace(load_spec(FIG2_CONFIG.read_text()), trials=1)
        records = run_experiment(spec)
        assert len(calls) == 1 + max(
            r.iterations for r in records if r.algorithm in ("QGPIRS", "QGPISEM"))

    def test_overloaded_solves_follow_dense_block_solves(self, monkeypatch):
        # more users than antennas and no converter distortion: the blocks'
        # gains on the channels dwarf their diagonal floor up to 100 dB, and
        # every solve takes the trajectory it takes with dense block solves
        spec = load_spec(json.dumps({
            "N": 2, "K": 4, "dac_bits": "inf", "adc_bits": "inf",
            "channel_mode": "correlated_aod", "snr_db": [40, 60, 80, 100],
            "algorithms": ["QGPIRS", "QGPISEM"], "trials": 4, "base_seed": 11,
            "solver": {"tau": 1.0, "epsilon": 0.01},
        }))
        records = run_experiment(spec)
        monkeypatch.setattr(rsma_sim.gpi, "blockdiag_solve", dense_blockdiag_solve)
        dense = run_experiment(spec)
        assert len(records) == len(dense) == 32
        for got, want in zip(records, dense):
            assert (got.trial_index, got.snr_db, got.algorithm) == (
                want.trial_index, want.snr_db, want.algorithm)
            assert got.iterations == want.iterations
            assert abs(got.sum_se - want.sum_se) <= 1e-3

    def test_one_scoring_call_per_trial(self, monkeypatch):
        # a trial scores every (algorithm, SNR) precoder in one rate_report
        # call and asks each baseline for all its SNR points at once
        calls = []

        def spy(name):
            original = getattr(rsma_sim.harness, name)

            def call(*args):
                calls.append(args[0] if name == "baseline_precoder" else name)
                return original(*args)
            return call

        for name in ("rate_report", "baseline_precoder"):
            monkeypatch.setattr(rsma_sim.harness, name, spy(name))
        spec = replace(load_spec(FIG2_CONFIG.read_text()), trials=1)
        records = run_experiment(spec)
        assert len(records) == 35 and not any(r.note for r in records)
        assert sorted(calls) == ["QMRT", "QRZF", "QZF", "rate_report"]

    def test_channels_drawn_without_an_eigendecomposition(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a trial called an eigendecomposition")

        monkeypatch.setattr(np.linalg, "eigh", refuse)
        spec = small_spec(N=8, K=3, algorithms=["QGPIRS", "QMRT"], snr_db=[0, 20], trials=2)
        records = run_experiment(spec)
        assert len(records) == 8
        assert all(r.converged and not r.note for r in records)

    def test_sum_se_consistency(self):
        records = run_experiment(small_spec(algorithms=["QGPIRS"], snr_db=[20]))
        rec = records[0]
        assert rec.sum_se == pytest.approx(
            rec.common_rate + sum(rec.private_rates), abs=1e-9
        )
        assert sum(rec.per_antenna_power) <= 10.0 ** 2.0 * (1 + 1e-9)

    def test_uniform_bits_vary_per_trial(self):
        spec = small_spec(dac_bits="uniform-random 1..8", trials=6, algorithms=["QMRT"])
        records = run_experiment(spec)
        # different bit draws give different per-antenna power patterns
        powers = {r.per_antenna_power for r in records}
        assert len(powers) > 1

    @pytest.mark.parametrize("workers", [0, -2, 1.5, 2.0, "2", None, True])
    def test_workers_below_one_rejected(self, workers):
        # a count below one and anything but an int are rejected before a process pool
        # could see them
        with pytest.raises(ValidationError, match="'workers' must be"):
            run_experiment(small_spec(), workers=workers)

    @pytest.mark.parametrize("cpus, expected", [(4, 3), (2, 2), (None, None)])
    def test_workers_clamped_to_trials_and_cpus(self, monkeypatch, cpus, expected):
        # a stub pool records its size and maps serially; no process starts
        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            map = staticmethod(map)

        monkeypatch.setattr(rsma_sim.harness, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(rsma_sim.harness.os, "cpu_count", lambda: cpus)
        spec = small_spec(trials=3)
        pooled = run_experiment(spec, workers=5000)
        # no CPU count means one worker, which runs serially without a pool
        assert sizes == ([] if expected is None else [expected])
        assert pooled == run_experiment(spec, workers=1)

    def test_pool_is_handed_a_window_of_trials(self, monkeypatch):
        # the pool queues every trial it is handed, so a trial count too large for a list
        # starts as the serial path does instead of raising OverflowError
        handed = []

        class Stop(Exception):
            pass

        class FirstWindowPool:
            def __init__(self, max_workers):
                pass

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, specs, trials):
                handed.append((len(specs), trials))
                raise Stop

        monkeypatch.setattr(rsma_sim.harness, "ProcessPoolExecutor", FirstWindowPool)
        monkeypatch.setattr(rsma_sim.harness.os, "cpu_count", lambda: 2)
        with pytest.raises(Stop):
            run_experiment(replace(small_spec(), trials=10**400), workers=2)
        window = rsma_sim.harness._POOL_WINDOW
        assert handed == [(window, range(window))]

    def test_pooled_windows_give_the_serial_records(self, monkeypatch):
        monkeypatch.setattr(rsma_sim.harness, "_POOL_WINDOW", 2)
        monkeypatch.setattr(rsma_sim.harness.os, "cpu_count", lambda: 2)
        spec = small_spec(trials=5)
        assert run_experiment(spec, workers=2) == run_experiment(spec, workers=1)


class TestCsvRoundTrip:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1
        assert text.startswith("trial_index,snr_db,algorithm,")

    def test_single_record_two_lines(self, tmp_path):
        records = run_experiment(small_spec(algorithms=["QMRT"]))
        path = tmp_path / "one.csv"
        write_csv(records, path)
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 2

    def test_round_trip(self, tmp_path):
        records = run_experiment(small_spec(snr_db=[0, 10], trials=2))
        path = tmp_path / "results.csv"
        write_csv(records, path)
        back = read_csv(path)
        assert len(back) == len(records)
        for orig, parsed in zip(records, back):
            assert parsed.trial_index == orig.trial_index
            assert parsed.algorithm == orig.algorithm
            assert parsed.converged == orig.converged
            assert parsed.sum_se == pytest.approx(orig.sum_se, rel=1e-8)
            assert parsed.residual == pytest.approx(orig.residual, rel=1e-8, abs=1e-12)
            for a, b in zip(parsed.per_antenna_power, orig.per_antenna_power):
                assert a == pytest.approx(b, rel=1e-8, abs=1e-12)

    def test_byte_identical_across_runs(self, tmp_path):
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(run_experiment(small_spec(trials=2)), p1)
        write_csv(run_experiment(small_spec(trials=2)), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_lf_line_endings(self, tmp_path):
        path = tmp_path / "lf.csv"
        write_csv(run_experiment(small_spec()), path)
        assert b"\r" not in path.read_bytes()

    @pytest.mark.parametrize("column, renamed", [
        ("private_rate_1", "private_rates_1"), ("per_antenna_power_2", "per_antenna_powers_2"),
        ("note", "notes"),
    ])
    def test_renamed_column_rejected(self, tmp_path, column, renamed):
        # the header must be the one TrialRecord's fields give, names and order
        path = tmp_path / "results.csv"
        write_csv(run_experiment(small_spec()), path)
        text = path.read_text(encoding="utf-8")
        path.write_text(text.replace(column, renamed, 1), encoding="utf-8")
        with pytest.raises(ValidationError, match="unexpected CSV header"):
            read_csv(path)

    def test_ragged_tables_are_not_written(self, tmp_path):
        # a tuple column's width comes from row 1, so a wider later row would not read back
        records = (run_experiment(small_spec(algorithms=["QMRT"]))
                   + run_experiment(small_spec(algorithms=["QMRT"], K=3, adc_bits=6)))
        path = tmp_path / "results.csv"
        with pytest.raises(DimensionMismatch, match="'private_rates': row 2 has 3 entries"):
            write_csv(records, path)
        rows = summarize(records[:1]) + summarize(run_experiment(small_spec(N=5, dac_bits=4)))
        with pytest.raises(DimensionMismatch, match="'mean_power_ratio': row 2 has 5"):
            write_summary_csv(rows, path)
        assert not path.exists()

    @pytest.mark.parametrize("cell", ["True", "1", "yes", ""])
    def test_bad_converged_cell_rejected(self, tmp_path, cell):
        path = tmp_path / "results.csv"
        write_csv(run_experiment(small_spec()), path)
        lines = path.read_text(encoding="utf-8").splitlines()
        column = lines[0].split(",").index("converged")
        cells = lines[2].split(",")
        cells[column] = cell
        lines[2] = ",".join(cells)
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValidationError, match="row 2, column .converged."):
            read_csv(path)


class TestSummarize:
    def _record(self, snr, alg, sum_se, powers=(1.0, 3.0)):
        return TrialRecord(
            trial_index=0, snr_db=snr, algorithm=alg, sum_se=sum_se,
            common_rate=0.5, private_rates=(1.0,), iterations=3,
            converged=True, residual=0.0,
            per_antenna_power=powers,
        )

    def test_single_record(self):
        rows = summarize([self._record(10.0, "QMRT", 2.0)])
        assert len(rows) == 1
        assert rows[0].mean_sum_se == 2.0
        assert rows[0].stderr_sum_se == 0.0
        assert rows[0].mean_power_ratio == (0.25, 0.75)

    def test_two_equal_records(self):
        rows = summarize([self._record(10.0, "QMRT", 2.0)] * 2)
        assert rows[0].n_records == 2
        assert rows[0].stderr_sum_se == 0.0

    def test_hand_computed_aggregate(self):
        records = [
            self._record(10.0, "QMRT", 1.0),
            self._record(10.0, "QMRT", 3.0),
            self._record(20.0, "QMRT", 5.0),
        ]
        rows = summarize(records)
        assert [(r.snr_db, r.algorithm) for r in rows] == [(10.0, "QMRT"), (20.0, "QMRT")]
        assert rows[0].mean_sum_se == 2.0
        # sample std of {1, 3} is sqrt(2); stderr = sqrt(2)/sqrt(2) = 1
        assert rows[0].stderr_sum_se == pytest.approx(1.0, rel=1e-12)
        assert rows[1].mean_sum_se == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            summarize([])

    def test_failed_records_counted_and_left_out(self):
        failed = replace(self._record(10.0, "QMRT", 0.0, powers=(0.0, 0.0)),
                         converged=False, note="RankDeficient: channel rank 1 < 2 users")
        solved = [self._record(10.0, "QMRT", 2.0), self._record(10.0, "QMRT", 4.0)]
        [row] = summarize([solved[0], failed, solved[1]])
        assert (row.n_records, row.n_failed) == (3, 1)
        assert row.mean_sum_se == 3.0
        assert row.stderr_sum_se == pytest.approx(1.0, rel=1e-12)
        assert row.mean_common_rate == 0.5
        assert row.mean_power_ratio == (0.25, 0.75)

    def test_cell_with_every_record_failed_is_nan(self, tmp_path):
        # the suite turns RuntimeWarnings into errors, so no mean of an empty slice is taken
        failed = replace(self._record(150.0, "QGPIRS", 0.0, powers=(0.0, 0.0)),
                         converged=False, note="SingularMatrix: block 1 singular")
        rows = summarize([failed, failed, self._record(20.0, "QGPIRS", 2.0)])
        assert [(r.n_records, r.n_failed) for r in rows] == [(1, 0), (2, 2)]
        assert all(math.isnan(v) for v in (
            rows[1].mean_sum_se, rows[1].stderr_sum_se, rows[1].mean_common_rate,
            *rows[1].mean_power_ratio))
        path = tmp_path / "summary.csv"
        write_summary_csv(rows, path)
        assert path.read_text().splitlines() == [
            "snr_db,algorithm,n_records,n_failed,mean_sum_se,stderr_sum_se,mean_common_rate,"
            "mean_power_ratio_1,mean_power_ratio_2",
            "20,QGPIRS,1,0,2,0,0.5,0.25,0.75",
            "150,QGPIRS,2,2,nan,nan,nan,nan,nan",
        ]


class TestCli:
    def _write_config(self, tmp_path, **overrides):
        doc = dict(MINIMAL)
        doc["algorithms"] = ["QMRT", "QZF"]
        doc["base_seed"] = 5
        doc.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path

    def test_run_and_summarize(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "results.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        assert out.exists()
        summary = tmp_path / "summary.csv"
        assert cli_main(["summarize", "--in", str(out), "--out", str(summary)]) == 0
        text = summary.read_text(encoding="utf-8").splitlines()
        assert text[0].startswith("snr_db,algorithm,n_records,n_failed,mean_sum_se")
        assert len(text) == 3  # header + 2 algorithms at 1 SNR

    def test_seed_override_changes_results(self, tmp_path):
        config = self._write_config(tmp_path)
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b),
                         "--seed", "999"]) == 0
        assert out_a.read_bytes() != out_b.read_bytes()

    def test_negative_seed_override_is_config_error(self, tmp_path, capsys):
        # the --seed override obeys the config's base_seed rule
        config = self._write_config(tmp_path)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out),
                         "--seed", "-1"]) == 1
        assert "config error: field 'base_seed' must be an integer >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_flag(self, tmp_path):
        config = self._write_config(tmp_path, trials=2)
        out_a = tmp_path / "serial.csv"
        out_b = tmp_path / "parallel.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out_a)]) == 0
        assert cli_main(["run", "--config", str(config), "--out", str(out_b),
                         "--workers", "2"]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"N": 4}), encoding="utf-8")
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(bad), "--out", str(out)]) == 1

    def test_malformed_solver_is_config_error(self, tmp_path, capsys):
        config = self._write_config(tmp_path, solver={"tau": "abc"})
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    def test_snr_overflow_is_config_error(self, tmp_path, capsys):
        config = self._write_config(tmp_path, snr_db=[1e308])
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr_db", [-3080, -3200])
    def test_snr_with_infinite_loading_is_config_error(self, tmp_path, capsys, snr_db):
        # K / snr would overflow although the power 10^(snr_db/10) is positive; both
        # entries are far below SNR_DB_RANGE
        config = self._write_config(tmp_path, snr_db=[snr_db])
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dac_bits", [
        [10**400, 3, 3, 3],
        "mixed 2@" + "9" * 400 + " + 2@3",
    ], ids=["401-digit-list-entry", "400-digit-mixed-bits"])
    def test_huge_resolution_runs_cleanly(self, tmp_path, dac_bits):
        config = self._write_config(tmp_path, dac_bits=dac_bits)
        out = tmp_path / "results.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 0
        records = read_csv(out)
        assert len(records) == 2
        assert all(r.note == "" and np.isfinite(r.sum_se) for r in records)

    @pytest.mark.parametrize("dac_bits", [
        "uniform-random 2.." + "9" * 30,
        "uniform-random 2..9223372036854775808",
        "mixed " + "9" * 400 + "@2",
        # past Python's int-conversion digit limit
        "uniform-random 2.." + "9" * 5000,
        "mixed " + "9" * 5000 + "@2",
        "mixed 4@" + "9" * 5000,
        "mixed " + "9" * 4300 + "@2 + " + "9" * 4300 + "@2",
    ], ids=["30-digit-range", "int64-max-plus-one", "400-digit-mixed-count",
            "5000-digit-range", "5000-digit-mixed-count", "5000-digit-mixed-bits",
            "4301-digit-mixed-total"])
    def test_unrepresentable_resolution_is_config_error(self, tmp_path, capsys, dac_bits):
        config = self._write_config(tmp_path, dac_bits=dac_bits)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("key", ["N", "K"])
    def test_huge_size_is_config_error(self, tmp_path, capsys, key):
        config = self._write_config(tmp_path, **{key: 10**400})
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert (f"config error: field '{key}' must be an integer in 1..2048"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_zero_workers_is_config_error(self, tmp_path, capsys):
        config = self._write_config(tmp_path)
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out),
                         "--workers", "0"]) == 1
        assert "config error" in capsys.readouterr().err

    def test_missing_config_is_io_error(self, tmp_path):
        out = tmp_path / "never.csv"
        code = cli_main(["run", "--config", str(tmp_path / "nope.json"), "--out", str(out)])
        assert code == 2

    def test_unwritable_output_is_io_error(self, tmp_path):
        config = self._write_config(tmp_path)
        out = tmp_path / "no" / "such" / "dir" / "results.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 2

    def test_non_utf8_config_is_config_error(self, tmp_path, capsys):
        config = tmp_path / "config.json"
        config.write_bytes(b'{"N": 4}\xff')
        out = tmp_path / "never.csv"
        assert cli_main(["run", "--config", str(config), "--out", str(out)]) == 1
        assert "rsma-sim: config error" in capsys.readouterr().err
        assert not out.exists()

    def test_non_utf8_results_is_bad_results_file(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        write_csv(run_experiment(small_spec()), results)
        results.write_bytes(results.read_bytes().replace(b"QZF", b"QZ\xff"))
        out = tmp_path / "summary.csv"
        assert cli_main(["summarize", "--in", str(results), "--out", str(out)]) == 1
        assert "rsma-sim: bad results file" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_missing_input(self, tmp_path):
        out = tmp_path / "summary.csv"
        assert cli_main(["summarize", "--in", str(tmp_path / "none.csv"),
                         "--out", str(out)]) == 2

    def test_summarize_header_only_results_is_bad_results_file(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        write_csv([], results)
        out = tmp_path / "summary.csv"
        assert cli_main(["summarize", "--in", str(results), "--out", str(out)]) == 1
        assert "rsma-sim: bad results file: cannot summarize" in capsys.readouterr().err
        assert not out.exists()

    def test_summarize_unwritable_output_is_io_error(self, tmp_path, capsys):
        results = tmp_path / "results.csv"
        write_csv(run_experiment(small_spec()), results)
        out = tmp_path / "no" / "such" / "dir" / "summary.csv"
        assert cli_main(["summarize", "--in", str(results), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("rsma-sim: ") and str(out) in err
