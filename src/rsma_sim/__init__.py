"""Quantization-aware RSMA precoding: Q-GPI-RS solver, baselines, Monte Carlo harness."""

from .baselines import baseline_precoder
from .channel import sample_channel
from .errors import (
    DimensionMismatch,
    RankDeficient,
    RsmaSimError,
    SingularMatrix,
    ValidationError,
    ZeroPrecoder,
)
from .gpi import QuadraticForms, SolveResult, SolverOptions, build_forms, gpi_solve, init_precoder
from .harness import (
    TrialRecord,
    load_spec,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
    write_summary_csv,
)
from .linalg import trial_rng
from .quantization import QuantizerProfile
from .rates import RateReport, check_power, rate_report

__version__ = "0.1.0"
