"""spcelab: a Monte Carlo laboratory for correlation experiments and purity tests.

Modules
-------
randkit
    Reproducible counter-based random streams, one at a time or many in one
    vectorized pass, spherical-cap sampling, and the urn step-probability
    formula.
coin_lab
    Macroscopic coin experiments E1-E6: deterministic, alternating,
    Bernoulli, urn, mixed-box, and pure-box devices.
spce
    Contextual singlet pair model, empirical correlators, the CHSH statistic,
    and the single-probability-space models bounded by 2.
purity
    Nonparametric homogeneity and randomness battery with a
    pure / mixed / inconclusive verdict.
bertrand
    Three random-chord machines converging to 1/2, 1/3, and 1/4.
qkd
    Raw key extraction from matched-basis pairs and the CHSH eavesdropping
    check.
cli
    Config-driven command line with replayable run manifests.
"""

__version__ = "0.3.0"

from .errors import ConfigError, DomainError, FormatError
from .randkit import (
    CapSpec,
    Direction,
    RngStream,
    angle_between,
    hypergeometric_step_prob,
    sample_cap,
    stream_uniforms,
    substream,
    uniform_direction,
)
from .coin_lab import (
    OutcomeLaw,
    TimeSeries,
    UrnState,
    read_timeseries_jsonl,
    regenerate_series,
    remove_coins,
    sample_runs,
    write_timeseries_jsonl,
)
from .spce import (
    BoundCheck,
    ExperimentRun,
    LambdaModel,
    Polarizer,
    SharedLambdaRun,
    ch_factorized_probability,
    chsh,
    correlator_stderr,
    empirical_correlator,
    factorized_correlator,
    independent_bound_check,
    passage_probability,
    record_directions,
    run_experiment,
    run_shared_lambda_model,
    singlet_joint_probs,
    write_run_jsonl,
)
from .purity import (
    PurityVerdict,
    Reduction,
    Sample,
    TestReport,
    Verdict,
    chi2_homogeneity,
    holm_adjust,
    purity_verdict,
    random_subensemble,
    reduce_intensity,
    runs_test,
)
from .bertrand import Machine, ProbabilityEstimate, estimate_probability
from .qkd import KeyPair, ekert_test_statistic, generate_keys, mismatch_rate
