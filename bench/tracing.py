"""Spans around the package's layer functions, recorded from outside ``src/``.

A span records its name, start, end, parent span and trial id. Spans stay
in memory and are written out once, when the run ends. Each function is
wrapped at every name it is bound to inside the package, because callers
look functions up by the name their own module imported: ``gpi`` calls
``rsma_sim.gpi.blockdiag_solve``, so patching ``rsma_sim.linalg`` alone
would record nothing.
"""

import functools
import importlib
import json
import statistics
import sys
import time
from contextlib import contextmanager

# Layer functions, named "<module>.<function>" after the module that defines
# them. QuantizerProfile.from_bits and the cli cost microseconds per trial
# and stay in the self time of harness.run_experiment.
LAYER_FUNCTIONS = (
    "channel.one_ring_covariance",
    "channel.kl_factorize",
    "channel.sample_channel",
    "gpi.build_forms",
    "gpi.init_precoder",
    "gpi.gpi_solve",
    "gpi.kkt_matrices",
    "gpi.objective",
    "gpi.nep_residual",
    "linalg.blockdiag_solve",
    "rates.rate_report",
    "baselines.baseline_precoder",
    "harness.run_experiment",
    "harness.write_csv",
    "harness.read_csv",
    "harness.summarize",
)

PACKAGE = "rsma_sim"


class Tracer:
    """In-memory span recorder; spans are (name, start, end, parent, trial)."""

    def __init__(self):
        self.spans = []
        self.trial = None
        self._open = []

    def wrap(self, name, fn):
        spans, open_spans, clock = self.spans, self._open, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = open_spans[-1] if open_spans else None
            spans.append(None)
            open_spans.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                open_spans.pop()
                spans[index] = (name, start, end, parent, self.trial)

        return traced

    def self_times(self):
        """Each span's duration minus the time its child spans cover."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                own[parent] -= end - start
        return own

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as handle:
            for i, (name, start, end, parent, trial) in enumerate(self.spans):
                handle.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "trial": trial,
                }) + "\n")


def _original(layer):
    module_name, func_name = layer.split(".")
    return getattr(importlib.import_module(f"{PACKAGE}.{module_name}"), func_name, None)


def missing_layers():
    """Layer functions the package no longer defines; they report zero calls."""
    return [layer for layer in LAYER_FUNCTIONS if _original(layer) is None]


@contextmanager
def installed(tracer):
    """Wrap every package binding of each layer function; restore on exit."""
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    patched = []
    try:
        for layer in LAYER_FUNCTIONS:
            original = _original(layer)
            if original is None:
                continue
            wrapper = tracer.wrap(layer, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        yield
    finally:
        for module, attr, original in reversed(patched):
            setattr(module, attr, original)


def layer_metrics(tracer):
    """``F.calls``, ``F.us_p50`` and ``F.self_s`` for every layer function."""
    durations = {layer: [] for layer in LAYER_FUNCTIONS}
    self_s = dict.fromkeys(LAYER_FUNCTIONS, 0.0)
    for (name, start, end, _, _), own in zip(tracer.spans, tracer.self_times()):
        durations[name].append(end - start)
        self_s[name] += own
    metrics = {}
    for layer in LAYER_FUNCTIONS:
        values = durations[layer]
        metrics[f"{layer}.calls"] = (len(values), "count")
        metrics[f"{layer}.us_p50"] = (statistics.median(values) * 1e6 if values else 0.0, "us")
        metrics[f"{layer}.self_s"] = (self_s[layer], "s")
    return metrics
