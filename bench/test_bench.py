"""Tests of the benchmark itself.

Run from the root of the checkout with ``python3 -m pytest bench/test_bench.py``.
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import checks  # noqa: E402
import rsma_sim  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "fig2", "--seed", "3",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.mark.parametrize("trace, kind", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric_with_its_unit(trace, kind):
    done = _bench(ROOT, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    assert reported == {m["name"]: m["unit"] for m in SPEC[kind]}
    assert all(math.isfinite(m["value"]) for m in result["metrics"].values())


def test_without_package_source_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench(tmp_path, 0)
    assert done.returncode != 0
    assert done.stdout == ""


def _trial_outputs(seed):
    spec = workloads.trial_specs("fig2", seed, 1)[0]
    return [(r.sum_se, r.per_antenna_power) for r in rsma_sim.run_experiment(spec, workers=1)]


def test_seed_changes_the_generated_channels():
    assert _trial_outputs(1) == _trial_outputs(1)
    assert _trial_outputs(1) != _trial_outputs(2)


@pytest.fixture(scope="module")
def records():
    spec = workloads.trial_specs("fig2", 5, 1)[0]
    return rsma_sim.run_experiment(spec, workers=1)


@pytest.fixture(scope="module")
def read_back(records, tmp_path_factory):
    path = tmp_path_factory.mktemp("csv") / "results.csv"
    rsma_sim.write_csv(records, path)
    return rsma_sim.read_csv(path)


def _corrupt(records, **fields):
    index = next(i for i, r in enumerate(records) if r.algorithm == "QGPIRS")
    return records[:index] + [replace(records[index], **fields)] + records[index + 1:]


def test_valid_records_pass(records, read_back):
    checks.check_records(records, len(records))
    checks.check_roundtrip(records, read_back)


@pytest.mark.parametrize("fields, name", [
    ({"common_rate": -0.25}, "nonnegative_rates"),
    ({"sum_se": math.nan}, "finite_rates"),
    ({"per_antenna_power": (0.0, 0.0, 0.0, 0.5)}, "power_budget"),
    ({"sum_se": 1e3}, "sum_se_identity"),
])
def test_corrupted_record_trips_the_output_check(records, fields, name):
    with pytest.raises(checks.CheckFailed) as failure:
        checks.check_records(_corrupt(records, **fields), len(records))
    assert failure.value.name == name


def test_corrupted_read_back_trips_the_roundtrip_check(records, read_back):
    with pytest.raises(checks.CheckFailed) as failure:
        checks.check_roundtrip(records, _corrupt(read_back, iterations=10**6))
    assert failure.value.name == "csv_roundtrip"
