"""spcelab: a Monte Carlo laboratory for correlation experiments and purity tests.

Modules
-------
randkit
    Reproducible counter-based random streams, one at a time or many in one
    vectorized pass, and spherical-cap sampling.
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
