"""Package-level guards."""

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
