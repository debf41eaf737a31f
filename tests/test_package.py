"""Package-level guards."""

import ast
import importlib.util
import inspect
import os
import re
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


def _bench_tracing():
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_bench_layer_functions_exist():
    # bench/tracing.py times package functions by name; a deleted or renamed
    # one would otherwise show up only as zero calls in a traced run. The four
    # below moved to tests/oracles.py or were deleted, and no sweep called them;
    # ROADMAP item 4 takes them out of bench/ and then resets this list to [].
    assert _bench_tracing().missing_layers() == [
        "channel.one_ring_covariance", "channel.kl_factorize", "gpi.objective", "gpi.nep_residual"]


def test_every_package_definition_has_a_package_caller():
    # A module-level function or class that no package code names is API without
    # a caller: it belongs in tests/oracles.py if only tests need it. Imports do not
    # count as a use.
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in Path(rsma_sim.__file__).resolve().parent.glob("*.py")]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    assert sorted(defined - used) == []


def test_every_oracle_has_a_caller():
    # A reference computation that no test module and no other oracle names is
    # left over from a consolidation: it checks nothing and should be deleted.
    # Imports do not count as a use.
    def names(tree):
        return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute))}

    tests = Path(__file__).resolve().parent
    used = set().union(*(names(ast.parse(path.read_text(encoding="utf-8")))
                         for path in tests.glob("test_*.py")))
    oracles = ast.parse((tests / "oracles.py").read_text(encoding="utf-8")).body
    inner = [names(node) for node in oracles]
    uncalled = [node.name for i, node in enumerate(oracles)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name not in used.union(*inner[:i], *inner[i + 1:])]
    assert uncalled == []


def test_readme_library_example_runs(capsys):
    # The README's library example is run as written, so a renamed or
    # re-signatured entry point fails here rather than in a reader's hands.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library\n", 1)[1]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    assert capsys.readouterr().out.strip()


def test_every_export_is_documented_in_readme():
    # The top-level namespace is the documented API: each public name appears in
    # a code span of the README's prose, bare or as rs.name, so an internal
    # re-exported by mistake fails here. A module-qualified span such as
    # rsma_sim.gpi.kkt_matrices names an internal and does not count.
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    prose = re.sub(r"```.*?```", "", readme, flags=re.S)
    documented = {
        re.sub(r"^(rs|rsma_sim)\.", "", token)
        for span in re.findall(r"`([^`]+)`", prose)
        for token in re.findall(r"[\w.]*\w", span)
    }
    exported = {
        name for name in dir(rsma_sim)
        if not name.startswith("_") and not inspect.ismodule(getattr(rsma_sim, name))
    }
    assert sorted(exported - documented) == []
