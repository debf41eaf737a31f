"""Quantization-aware RSMA precoding: Q-GPI-RS solver, baselines, Monte Carlo harness."""

from .baselines import baseline_precoder
from .channel import (
    draw_aods,
    kl_factorize,
    one_ring_covariance,
    one_ring_factor,
    sample_channel,
)
from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    InvalidResolution,
    ParseError,
    RankDeficient,
    RsmaSimError,
    SingularMatrix,
    ValidationError,
    ZeroChannel,
    ZeroPrecoder,
)
from .gpi import (
    QuadraticForms,
    SolveResult,
    SolverOptions,
    build_forms,
    gpi_solve,
    init_precoder,
    kkt_matrices,
    nep_residual,
    objective,
)
from .harness import (
    ALGORITHMS,
    TrialRecord,
    load_spec,
    read_csv,
    run_experiment,
    summarize,
    write_csv,
    write_summary_csv,
)
from .linalg import (
    BlockDiag,
    blockdiag_solve,
    sample_complex_gaussian,
    trial_rng,
)
from .quantization import (
    BETA_TABLE,
    QuantizerProfile,
    beta_of_bits,
)
from .rates import (
    RateReport,
    check_power,
    lse_min,
    rate_report,
    softmin_weights,
)

__version__ = "0.1.0"
