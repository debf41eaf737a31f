"""rsma-sim benchmark: one command for every workload, metric and check.

Usage, from the root of a source checkout:

    python3 bench/run.py --workload fig2 --seed 1 --seconds 35 --trace 0

Runs the workload's trial pool through the public API (``load_spec``,
``run_experiment(spec, workers=1)``, ``write_csv``, ``read_csv``,
``summarize``), checks every output, and prints each metric by name and
unit. The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``, as
BENCHMARK.json names them. A failed check prints no result, names the
check on standard error and exits with status 1. CSVs, spans and the run
record go to ``.bench_out/`` in the checkout.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

# BLAS must be pinned before numpy is first imported.
THREAD_PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}
os.environ.update(THREAD_PINS)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "rsma_sim"
OUT = ROOT / ".bench_out"
# The metrics a run reports are the ones BENCHMARK.json names. The trial
# latency percentiles and failed_fraction are printed only: on a shared
# machine the tail varies by more than any allowed bound, mixed_dac's median
# flips between its converged and its cycling trials, and no workload fails.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Import rsma_sim from this checkout's src/, never from an installed copy.
if not (PACKAGE_DIR / "__init__.py").is_file():
    raise SystemExit(f"bench: no package source at {PACKAGE_DIR}")
sys.path.insert(0, str(SRC))
import rsma_sim  # noqa: E402

if Path(rsma_sim.__file__).resolve().parent != PACKAGE_DIR.resolve():
    raise SystemExit(f"bench: imported rsma_sim from {rsma_sim.__file__}, not {PACKAGE_DIR}")

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
# fig2 trials run as one multi-trial spec at workers=1 and at workers=2.
DETERMINISM_TRIALS = 3
# A tail percentile needs at least this many trials beyond it.
TAIL_BEYOND = 10
# Spans' self times must cover this share of the traced wall time.
MIN_TRACE_COVERAGE = 0.95

_SETUP_CODE = """
import sys, time
started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rsma_sim
rsma_sim.load_spec(sys.argv[2])
print(time.perf_counter() - started)
"""


def _parse_args(argv):
    parser = argparse.ArgumentParser(description="rsma-sim benchmark")
    parser.add_argument("--workload", required=True, choices=tuple(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def _measure_setup(document):
    """Median seconds to import rsma_sim and load a spec in a fresh process."""
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_CODE, str(SRC), document],
            capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


def _environment(args):
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        done = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                              cwd=ROOT, timeout=30)
        if done.returncode == 0:
            commit = done.stdout.strip()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_PINS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


class Pass:
    """Closed-loop trials over the pool, then write, read back and summarize."""

    def __init__(self):
        self.records, self.trial_s = [], []

    def run_trial(self, spec):
        begin = time.perf_counter()
        self.records.extend(rsma_sim.run_experiment(spec, workers=1))
        self.trial_s.append(time.perf_counter() - begin)

    def finish(self, csv_path):
        begin = time.perf_counter()
        rsma_sim.write_csv(self.records, csv_path)
        self.write_s = time.perf_counter() - begin
        self.read_back = rsma_sim.read_csv(csv_path)
        rsma_sim.summarize(self.read_back)
        self.busy_s = sum(self.trial_s) + time.perf_counter() - begin
        self.csv = Path(csv_path).read_bytes()
        return self


def _plain_pass(specs, csv_path):
    done = Pass()
    for spec in specs:
        done.run_trial(spec)
    return done.finish(csv_path)


def _tail(trial_ms):
    """Highest nearest-rank percentile with TAIL_BEYOND trials beyond it."""
    ordered = sorted(trial_ms)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def _end_to_end(passes, setup_s):
    records = passes[0].records
    # Each trial, and the CSV write, is timed by its fastest pass.
    trial_ms = [min(times) * 1e3 for times in zip(*(p.trial_s for p in passes))]
    busy_s = sum(trial_ms) / 1e3 + min(p.write_s for p in passes)
    gpi = [r for r in records if r.algorithm in checks.GPI_ALGORITHMS]
    qgpirs = [r.sum_se for r in records if r.algorithm == "QGPIRS" and not r.note]
    tail, tail_pct = _tail(trial_ms)
    metrics = {
        "records_per_s": (len(records) / busy_s, "records/s"),
        "trial_ms_p50": (statistics.median(trial_ms), "ms"),
        "trial_ms_tail": (tail, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "failed_fraction": (sum(1 for r in records if r.note) / len(records), "fraction"),
        "converged_fraction": (sum(r.converged for r in gpi) / len(gpi), "fraction"),
        "sum_se_qgpirs": (statistics.fmean(qgpirs), "bits/s/Hz"),
    }
    notes = {"trial_ms_tail": f"p{tail_pct:.1f} of {len(trial_ms)} trials"}
    return metrics, notes


def _solver_counts(records, t_max):
    gpi = [r for r in records if r.algorithm in checks.GPI_ALGORITHMS and not r.note]
    return {
        "gpi.iterations_mean": (statistics.fmean(r.iterations for r in gpi), "count"),
        "gpi.t_max_fraction": (
            sum(r.iterations == t_max and not r.converged for r in gpi) / len(gpi), "fraction"),
        "gpi.residual_p50": (statistics.median(r.residual for r in gpi), "1"),
    }


def _check_workers(seed, out_dir):
    """A multi-trial fig2 spec gives identical CSVs at workers=1 and workers=2."""
    spec = replace(workloads.trial_specs("fig2", seed, 1)[0], trials=DETERMINISM_TRIALS)
    outputs = []
    for count in (1, 2):
        path = out_dir / f"workers{count}.csv"
        rsma_sim.write_csv(rsma_sim.run_experiment(spec, workers=count), path)
        outputs.append(path.read_bytes())
    checks.check_same("workers_determinism", *outputs)


def _traced_run(specs, out_dir):
    """Each trial untraced, then traced, so drift in machine speed hits both alike."""
    tracer = tracing.Tracer()
    plain, traced = Pass(), Pass()
    for i, spec in enumerate(specs):
        plain.run_trial(spec)
        tracer.trial = i
        with tracing.installed(tracer):
            traced.run_trial(spec)
    tracer.trial = None
    plain.finish(out_dir / "results.csv")
    with tracing.installed(tracer):
        traced.finish(out_dir / "traced.csv")
    checks.check_same("traced_csv_identical", plain.csv, traced.csv)

    coverage = sum(tracer.self_times()) / traced.busy_s
    if not MIN_TRACE_COVERAGE <= coverage <= 1.0 + 1e-9:
        raise checks.CheckFailed(
            "trace_coverage", f"span self times cover {coverage:.3f} of the traced wall time")
    tracer.write_jsonl(out_dir / "spans.jsonl")
    metrics = tracing.layer_metrics(tracer)
    metrics["trace_overhead"] = (traced.busy_s / plain.busy_s - 1.0, "ratio")
    notes = {"trace_coverage": f"{coverage:.4f} of {traced.busy_s:.3f} s traced wall time"}
    missing = tracing.missing_layers()
    if missing:
        notes["missing_layers"] = ", ".join(missing)
    return plain, metrics, notes


def run(args):
    env = _environment(args)
    out_dir = OUT / f"{args.workload}-seed{args.seed}"
    out_dir.mkdir(parents=True, exist_ok=True)

    setup_s = _measure_setup(workloads.spec_document(args.workload))
    specs = workloads.trial_specs(
        args.workload, args.seed, workloads.pool_size(args.workload, args.seconds))
    records_per_trial = len(specs[0].snr_db) * len(specs[0].algorithms)
    rsma_sim.run_experiment(specs[0], workers=1)  # warm-up, not timed

    # A traced run's end-to-end figures, from its untraced half, are printed
    # but not reported.
    if args.trace:
        first, layer, notes = _traced_run(specs, out_dir)
        passes = [first]
    else:
        passes, notes = [], {}
        for _ in range(workloads.WORKLOADS[args.workload]["passes"]):
            passes.append(_plain_pass(specs, out_dir / "results.csv"))
            checks.check_same("repeat_pass_identical", passes[0].csv, passes[-1].csv)
        first = passes[0]
    checks.check_records(first.records, records_per_trial * len(specs))
    checks.check_roundtrip(first.records, first.read_back)
    _check_workers(args.seed, out_dir)

    metrics, e2e_notes = _end_to_end(passes, setup_s)
    notes.update(e2e_notes)
    notes["passes"] = f"{len(passes)} x {len(specs)} trials"
    notes["csv_sha256"] = hashlib.sha256(first.csv).hexdigest()
    solver = _solver_counts(first.records, specs[0].solver.t_max)
    if args.trace:
        measured, kind = {**solver, **layer}, "per_layer"
    else:
        measured, kind = metrics, "end_to_end"
    reported = {m["name"]: measured[m["name"]] for m in SPEC[kind]}
    for name, (value, unit) in {**metrics, **solver}.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.trace:
        for name, (value, unit) in layer.items():
            print(f"{name} = {value:.6g} {unit}")
    for name, text in notes.items():
        print(f"{name}: {text}")
    print("env " + json.dumps(env, sort_keys=True))

    result = {
        "correct": True,
        "attempted": len(first.records),
        "failed": sum(1 for r in first.records if r.note),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }
    (out_dir / "result.json").write_text(json.dumps({"env": env, "notes": notes, **result}, indent=1))
    return result


def main(argv=None):
    args = _parse_args(argv)
    try:
        result = run(args)
    except checks.CheckFailed as exc:
        print(f"bench: check failed: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
