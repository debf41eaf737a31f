"""Golden summaries: the shipped sweeps' ``rsma-sim summarize`` output, byte for byte.

A change that moves results on purpose regenerates the files, from the
root of a checkout:

    rsma-sim run --config configs/fig2_sweep.json --out results.csv
    rsma-sim summarize --in results.csv --out tests/golden/fig2_summary.csv
    rsma-sim run --config tests/golden/criterion_9.json --out results.csv
    rsma-sim summarize --in results.csv --out tests/golden/criterion_9_summary.csv

so the moved means show up in its diff, and updates the README's Results
table to match. Summaries carry no residual column, so block-solve
roundoff in the residual digits cannot move them.
"""

import csv
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


def test_readme_results_table_matches_golden_summary():
    # every cell of the README's Results table is the golden mean sum-SE at its printed precision
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Results\n", 1)[1].split("\n## ", 1)[0]
    header, _, *rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in section.splitlines() if line.startswith("|")
    ]
    with open(GOLDEN / "fig2_summary.csv", encoding="utf-8", newline="") as handle:
        golden = {(float(row["snr_db"]), row["algorithm"]): float(row["mean_sum_se"])
                  for row in csv.DictReader(handle)}
    printed = {(float(row[0]), algorithm): cell
               for row in rows for algorithm, cell in zip(header[1:], row[1:], strict=True)}
    assert printed.keys() == golden.keys()
    for key, cell in printed.items():
        digits = len(cell.partition(".")[2])
        assert cell == f"{golden[key]:.{digits}f}", key
