"""Package-level guards."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import rsma_sim


def test_import_loads_no_scipy():
    # The package is numpy-only; scipy is needed only by the test oracles.
    src = str(Path(rsma_sim.__file__).resolve().parent.parent)
    code = (
        "import sys, rsma_sim; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


def test_bench_layer_functions_exist():
    # bench/tracing.py times package functions by name; a deleted or renamed
    # one would otherwise show up only as zero calls in a traced run.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.missing_layers() == []
