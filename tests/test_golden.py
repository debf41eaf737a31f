"""Golden summaries: the shipped sweeps' ``rsma-sim summarize`` output, byte for byte.

A change that moves results on purpose regenerates the files, from the
root of a checkout:

    rsma-sim run --config configs/fig2_sweep.json --out results.csv
    rsma-sim summarize --in results.csv --out tests/golden/fig2_summary.csv
    rsma-sim run --config tests/golden/criterion_9.json --out results.csv
    rsma-sim summarize --in results.csv --out tests/golden/criterion_9_summary.csv

so the moved means show up in its diff. Summaries carry no residual
column, so block-solve roundoff in the residual digits cannot move them.
"""

from pathlib import Path

import pytest

from rsma_sim.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"


@pytest.mark.parametrize("config, summary", [
    (ROOT / "configs" / "fig2_sweep.json", GOLDEN / "fig2_summary.csv"),
    (GOLDEN / "criterion_9.json", GOLDEN / "criterion_9_summary.csv"),
], ids=["fig2_sweep", "criterion_9"])
def test_summary_matches_golden_file(tmp_path, config, summary):
    results, got = tmp_path / "results.csv", tmp_path / "summary.csv"
    assert main(["run", "--config", str(config), "--out", str(results)]) == 0
    assert main(["summarize", "--in", str(results), "--out", str(got)]) == 0
    assert got.read_bytes() == summary.read_bytes()
