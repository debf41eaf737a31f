"""Benchmark workloads: sweep parameters, trial pools and layer predictions.

Each workload is a closed loop with one client. A request is one Monte
Carlo trial: one ``run_experiment`` call on a one-trial spec whose
``base_seed`` the benchmark derives from its own ``--seed`` and the trial
number, so the program receives only generated inputs.

The trial pool of a run is fixed by (workload, seed, seconds), never by
how fast the machine is, so every quality figure and CSV digest repeats
exactly for the same arguments. The pool runs ``passes`` times and each
trial is timed by its fastest pass: on a shared machine, bursts of
interference from other tenants slow single trials by up to 2x for
seconds at a time, and the passes are far enough apart that one of them
usually misses the burst. Slow phases that last minutes are not removed;
they set the spread between runs. Workloads whose trial cost varies widely with
the channel draw use one pass and a larger pool instead, because there the
spread between seeds comes from the inputs.
"""

import json
from dataclasses import replace

import rsma_sim

# Why each workload was chosen is in BENCHMARK.json. mixed_dac (the
# criterion-9 config, where about half the QGPIRS solves cycle to t_max)
# runs by hand but is left out of BENCHMARK.json: its bimodal trial cost
# spreads records_per_s beyond the allowed bound between seeds.
# trial_s is the mean seconds per trial measured on a shared 2-core x86 box;
# it sizes the pool so that all passes take about the requested seconds.
WORKLOADS = {
    "fig2": {
        "trial_s": 0.2,
        "passes": 4,
        "config": {
            "N": 4, "K": 2, "snr_db": [0, 10, 20, 30, 40, 50, 60],
            "dac_bits": 4, "adc_bits": 6, "channel_mode": "random_aod",
            "algorithms": ["QGPIRS", "QGPISEM", "QMRT", "QZF", "QRZF"],
            "solver": {"tau": 1.0, "epsilon": 0.01, "t_max": 500},
        },
    },
    "mixed_dac": {
        "trial_s": 0.3,
        "passes": 1,
        "config": {
            "N": 4, "K": 2, "snr_db": [50],
            "dac_bits": "mixed 3@3 + 1@8", "adc_bits": 8, "channel_mode": "correlated_aod",
            "algorithms": ["QGPIRS", "QGPISEM"],
            "solver": {"tau": 1.0, "epsilon": 0.01, "t_max": 500},
        },
    },
    "large_array": {
        "trial_s": 1.0,
        "passes": 2,
        "config": {
            "N": 64, "K": 8, "snr_db": [0, 10, 20],
            "dac_bits": "uniform-random 2..8", "adc_bits": 8, "channel_mode": "random_aod",
            "algorithms": ["QGPIRS", "QRZF"],
            "solver": {"tau": 1.0, "epsilon": 0.01, "t_max": 500},
        },
    },
}

# Predictions, made before any optimization, of which end-to-end metric
# each per-layer metric should move and on which workload. Later changes
# cite them by metric name.
# - linalg.blockdiag_solve, gpi.kkt_matrices: records_per_s and trial_ms_*
#   on mixed_dac, and on fig2 (about 67% and 17% of self time there); much
#   less on large_array.
# - gpi.objective, gpi.nep_residual, gpi.gpi_solve (self time): mixed_dac.
# - channel.one_ring_covariance, channel.kl_factorize,
#   channel.sample_channel: records_per_s on large_array; under 1.5% of
#   self time on the others.
# - gpi.build_forms, gpi.init_precoder, rates.rate_report,
#   baselines.baseline_precoder, harness.write_csv, harness.read_csv,
#   harness.summarize: fig2.
# - harness.run_experiment (self time): the harness overhead around each
#   trial.
# - gpi.iterations_mean, gpi.t_max_fraction: trial_ms_* and
#   converged_fraction on mixed_dac; no change on fig2. The cycling fix
#   (ROADMAP item 2) should not move fig2 at all.

# Base seeds of consecutive benchmark seeds never overlap below this many trials.
_SEED_STRIDE = 1_000_000


def pool_size(name, seconds):
    """Trials in one pass, so that all passes take about ``seconds``; at least 1."""
    workload = WORKLOADS[name]
    return max(1, round(seconds / (workload["passes"] * workload["trial_s"])))


def trial_specs(name, seed, count):
    """One-trial specs for trials ``0..count-1`` of a workload under a seed."""
    spec = rsma_sim.load_spec(spec_document(name))
    return [replace(spec, base_seed=seed * _SEED_STRIDE + t) for t in range(count)]


def spec_document(name):
    """The workload's one-trial JSON document, as a user's config file holds it."""
    return json.dumps(dict(WORKLOADS[name]["config"], trials=1, base_seed=0))
