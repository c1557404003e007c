"""Probability models for spin-polarization correlation experiments.

Three models live here:

* The contextual smeared-polarizer singlet model: each polarizer is a
  spherical cap of microscopic direction vectors around its macroscopic axis,
  and the pair outcome law conditional on the microscopic pair ``(a, b)`` is
  the singlet table, same-outcome probability ``sin^2(theta_ab / 2)``.
* The shared-hidden-direction sign model: one direction per pair generates
  outcomes for every setting via ``sign(x . lambda)``, the single-probability-
  space construction whose CHSH value can never exceed 2.
* The factorized detection model ``p(A, B) = integral p1(lambda, A)
  p2(lambda, B) d rho(lambda)``, equally bounded by 2.

Correlators follow the convention ``r = -(1/N) sum s1_i s2_i``: the leading
minus makes aligned settings (perfectly anti-correlated outcomes) give
``r = +1``, so the contextual model's correlator law is
``(1 - eps_A/2) (1 - eps_B/2) cos(theta_AB)``.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .randkit import (
    _FULL_SPHERE,
    CapSpec,
    Direction,
    RngStream,
    _cap_coefficients,
    _cap_frame,
    _cap_from_uniforms,
    sample_cap,
    stream_blocks,
    substream,
)


@dataclass
class ExperimentRun:
    """N pairs sampled under two fixed polarizer caps: the +/-1 outcome arrays and the stream key.

    The microscopic directions are not kept; :func:`record_directions`
    rebuilds those of any leading pairs from ``(master_seed, stream_id)``.
    """

    pol_a: CapSpec
    pol_b: CapSpec
    s1: np.ndarray
    s2: np.ndarray
    master_seed: int
    stream_id: int

    def __post_init__(self):
        if len(self.s1) < 1:
            raise DomainError("an experiment run must contain at least one pair")

    def __len__(self):
        return int(self.s1.size)


@dataclass
class SharedLambdaRun:
    """The pair count and the four settings of a shared-hidden-direction run; its directions are not kept."""

    n: int
    settings: dict

    def __len__(self):
        return self.n


def _pair_blocks(pol_a: CapSpec, pol_b: CapSpec, n: int, master_seed, stream_id, width):
    """Yield ``(uniforms, cos_ab)`` for ``n`` pairs, in the blocks of ``randkit.stream_blocks``.

    Pair ``i`` consumes the ``width`` uniforms at positions ``width i ..`` of
    the keyed stream; the first four are (cap A cosine, cap A azimuth, cap B
    cosine, cap B azimuth).  No direction is built: with ``alpha`` and
    ``beta`` the caps' coordinates in their frames ``F_A`` and ``F_B`` (see
    ``randkit._cap_coefficients``), ``cos(theta_ab) = alpha . (F_A F_B^T) beta``.
    """
    gram = _cap_frame(pol_a) @ _cap_frame(pol_b).T
    for u in stream_blocks(substream(master_seed, stream_id), n, width):
        xa, ya, za = _cap_coefficients(pol_a, u[:, 0], u[:, 1])
        beta = _cap_coefficients(pol_b, u[:, 2], u[:, 3])
        # column j of the Gram matrix gives the j-th coordinate of alpha F_A F_B^T
        cos_ab = sum((xa * g[0] + ya * g[1] + za * g[2]) * b for g, b in zip(gram.T, beta))
        yield u, cos_ab


def _outcomes_from_uniform(cos_ab, u, s1, s2):
    """Write the singlet outcome pairs for ``cos(theta_ab)`` and one uniform each into ``s1``, ``s2``.

    The cumulative layout puts both ``s1 = +1`` cells first, so ``u < 1/2``
    decides ``s1``, and ``s2`` matches ``s1`` exactly when ``u`` falls in one
    of the two tails of mass ``sin^2(theta/2) / 2``.  A ``cos_ab`` rounded
    past +/-1 gives the same outcomes as the clipped value: both tails stay
    empty above 1 and cover [0, 1) below -1.
    """
    half_same = 0.25 * (1.0 - cos_ab)
    minus = u >= 0.5
    same = (u < half_same) | (u >= 1.0 - half_same)
    # outcome = 1 - 2 * flag, in int8 without a wider temporary
    np.subtract(1, 2 * minus.view(np.int8), out=s1)
    np.subtract(1, 2 * (minus == same).view(np.int8), out=s2)


def run_experiment(pol_a: CapSpec, pol_b: CapSpec, n: int, master_seed, stream_id=0) -> ExperimentRun:
    """Sample ``n`` independent pairs under fixed polarizers.

    Bit-reproducible from ``(master_seed, stream_id)``: pair ``i`` consumes
    the five uniforms at positions ``5 i .. 5 i + 4`` of the keyed stream, in
    the order (cap A cosine, cap A azimuth, cap B cosine, cap B azimuth,
    outcome).  The outcome depends on the two microscopic directions only
    through ``cos(theta_ab)``, so only the int8 outcomes are kept and memory
    grows by 2 bytes per pair.
    """
    if n < 1:
        raise DomainError(f"pair count must be >= 1, got {n}")
    n = int(n)
    s1 = np.empty(n, dtype=np.int8)
    s2 = np.empty(n, dtype=np.int8)
    start = 0
    for u, cos_ab in _pair_blocks(pol_a, pol_b, n, master_seed, stream_id, 5):
        stop = start + len(u)
        _outcomes_from_uniform(cos_ab, u[:, 4], s1[start:stop], s2[start:stop])
        start = stop
    return ExperimentRun(pol_a, pol_b, s1, s2, int(master_seed), int(stream_id))


def record_directions(run: ExperimentRun, count=None):
    """Yield the microscopic directions ``(a, b)`` of the first ``count`` pairs of a run.

    Rebuilt from the run's stream exactly as :func:`run_experiment` drew
    them, in blocks of two ``(m, 3)`` arrays of at most ``randkit.BLOCK_ROWS``
    rows; ``count`` defaults to the whole run.
    """
    count = len(run) if count is None else min(len(run), int(count))
    if count == 0:
        return
    for u in stream_blocks(substream(run.master_seed, run.stream_id), count, 5):
        yield (_cap_from_uniforms(run.pol_a, u[:, 0], u[:, 1]),
               _cap_from_uniforms(run.pol_b, u[:, 2], u[:, 3]))


def empirical_correlator(run: ExperimentRun) -> float:
    """The empirical spin expectation ``r = -(1/N) sum s1_i s2_i``.

    With the leading minus, a perfectly anti-correlated run (``s2 = -s1``
    throughout, as for aligned zero-smear polarizers) gives ``r = +1``.
    Under the contextual cap model the expectation is
    ``(1 - eps_A/2) (1 - eps_B/2) cos(theta_AB)``.
    """
    return float(-np.mean(run.s1.astype(np.float64) * run.s2))


def correlator_stderr(r: float, n: int) -> float:
    """Binomial standard error of an empirical correlator of ``n`` +/-1 products."""
    return math.sqrt(max(1.0 - r * r, 0.0) / n)


def passage_probability(pol_a: CapSpec, pol_b: CapSpec, method="quadrature", *,
                        n=200_000, master_seed=0, stream_id=0, nodes=48) -> float:
    """Probability that both particles pass, averaged over the caps.

    Evaluates the double integral of ``sin^2(theta_ab / 2) / 2`` over the two
    cap distributions, either by Monte Carlo (``method="monte_carlo"``, ``n``
    sampled direction pairs) or by tensor-product Gauss-Legendre quadrature
    over both caps' (cosine, azimuth) coordinates (``method="quadrature"``,
    ``nodes`` points per coordinate).
    """
    if method == "monte_carlo":
        if n < 1:
            raise DomainError(f"pair count must be >= 1, got {n}")
        blocks = _pair_blocks(pol_a, pol_b, int(n), master_seed, stream_id, 4)
        return math.fsum(float(np.sum(0.25 * (1.0 - cos_ab))) for _, cos_ab in blocks) / int(n)
    if method == "quadrature":
        pts_a, w_a = _cap_quadrature(pol_a, nodes)
        pts_b, w_b = _cap_quadrature(pol_b, nodes)
        mean_dot = float(w_a @ (pts_a @ pts_b.T) @ w_b)
        return 0.25 * (1.0 - mean_dot)
    raise DomainError(f"method must be 'monte_carlo' or 'quadrature', got {method!r}")


def _cap_quadrature(cap: CapSpec, nodes: int):
    """Gauss-Legendre points and normalized weights for a uniform cap."""
    x, w = np.polynomial.legendre.leggauss(nodes)
    u = 0.5 * (x + 1.0)          # cosine coordinate on [0, 1]
    v = 0.5 * (x + 1.0)          # azimuth coordinate on [0, 1]
    wu = 0.5 * w
    pts = _cap_from_uniforms(cap, np.repeat(u, nodes), np.tile(v, nodes))
    weights = np.repeat(wu, nodes) * np.tile(wu, nodes)
    return pts, weights


def chsh(r_ab, r_ab_prime, r_a_prime_b, r_a_prime_b_prime) -> float:
    """The CHSH combination ``|r(A,B) - r(A,B')| + |r(A',B) + r(A',B')|``."""
    values = (r_ab, r_ab_prime, r_a_prime_b, r_a_prime_b_prime)
    for value in values:
        if not -1.0 <= value <= 1.0:
            raise DomainError(f"correlators must lie in [-1, 1], got {value}")
    return abs(r_ab - r_ab_prime) + abs(r_a_prime_b + r_a_prime_b_prime)


#: Canonical CHSH setting-pair labels, in the order the statistic consumes them.
SETTING_PAIRS = ("AB", "AB'", "A'B", "A'B'")


def run_shared_lambda_model(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction,
                            n: int, master_seed, stream_id=0):
    """Evaluate all four CHSH correlators on one shared hidden-direction sample.

    Each pair carries a direction ``lambda_i`` uniform on the sphere and
    definite outcomes ``sign(x . lambda_i)`` for *every* setting ``x``
    (particle 2 reports the opposite sign).  All four correlators are
    evaluated on the same ``lambda`` sample, so they live on one probability
    space and their CHSH combination is bounded by 2 exactly, not just in
    expectation.  The expected correlator is ``1 - 2 theta_XY / pi``.

    Returns ``(SharedLambdaRun, correlators)`` with correlator keys
    :data:`SETTING_PAIRS`.  Directions exactly orthogonal to a setting are
    re-drawn (a measure-zero event) as ``randkit.stream_blocks`` re-draws
    degenerate rows.  Only the four sums of sign products are kept: they are
    exact integers, so each correlator equals the mean of the materialized
    products bit for bit.
    """
    if n < 1:
        raise DomainError(f"pair count must be >= 1, got {n}")
    n = int(n)
    settings = {"A": a, "A'": a_prime, "B": b, "B'": b_prime}
    setting_matrix = np.stack([s.as_array() for s in settings.values()])

    def dots(u):
        # one mapping per block, so the degeneracy test and the signs see the same dot products
        d = _cap_from_uniforms(_FULL_SPHERE, u[:, 0], u[:, 1]) @ setting_matrix.T
        return d, np.any(d == 0.0, axis=1)

    # r(X, Y) = -mean(s1(X) * s2(Y)) with s2 = -s1, i.e. +mean(sign_X * sign_Y):
    # each pair adds +1, or -1 where the signs of its two settings disagree
    disagree = np.zeros(len(SETTING_PAIRS), dtype=np.int64)
    for d in stream_blocks(substream(master_seed, stream_id), n, 2, dots):
        positive = d > 0.0
        disagree += np.count_nonzero(positive[:, [0, 0, 1, 1]] != positive[:, [2, 3, 2, 3]], axis=0)
    correlators = {key: (n - 2 * int(k)) / n for key, k in zip(SETTING_PAIRS, disagree)}
    return SharedLambdaRun(n, settings), correlators


@dataclass
class LambdaModel:
    """A factorized detection model: a prior over hidden states plus two maps.

    ``prior`` is ``"uniform_sphere"`` or a discrete ``(points, weights)`` pair
    (weights non-negative, summing to 1); ``p1`` and ``p2`` map a batch of
    hidden states and a setting to detection probabilities in [0, 1].
    """

    prior: object
    p1: object
    p2: object

    def sample(self, rng: RngStream, n: int) -> np.ndarray:
        if isinstance(self.prior, str):
            if self.prior != "uniform_sphere":
                raise DomainError(f"unknown named prior {self.prior!r}")
            return sample_cap(_FULL_SPHERE, rng, size=n)
        points, weights = self.prior
        points = np.asarray(points, dtype=float)
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0) or abs(float(weights.sum()) - 1.0) > 1e-9:
            raise DomainError("discrete prior weights must be non-negative and sum to 1")
        idx = rng.generator.choice(len(points), size=n, p=weights)
        return points[idx]


def _detection_values(p, lam, setting) -> np.ndarray:
    values = np.asarray(p(lam, setting), dtype=float)
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise DomainError("detection probabilities must lie in [0, 1]")
    return np.clip(values, 0.0, 1.0)


def ch_factorized_probability(model: LambdaModel, a: Direction, b: Direction, *,
                              n=200_000, master_seed=0, stream_id=0) -> float:
    """Monte Carlo estimate of the factorized passage probability.

    Averages ``p1(lambda, A) * p2(lambda, B)`` over the model's prior.  For
    any model of this form the CHSH combination of the derived correlators
    (see :func:`factorized_correlator`) obeys the 2 bound up to sampling
    error.
    """
    rng = substream(master_seed, stream_id)
    lam = model.sample(rng, int(n))
    v1 = _detection_values(model.p1, lam, a)
    v2 = _detection_values(model.p2, lam, b)
    return float(np.mean(v1 * v2))


def factorized_correlator(model: LambdaModel, a: Direction, b: Direction, *,
                          n=200_000, master_seed=0, stream_id=0) -> float:
    """Correlator ``-E[s1 s2]`` of the factorized model's +/-1 outcomes."""
    rng = substream(master_seed, stream_id)
    lam = model.sample(rng, int(n))
    m1 = 2.0 * _detection_values(model.p1, lam, a) - 1.0
    m2 = 2.0 * _detection_values(model.p2, lam, b) - 1.0
    return float(-np.mean(m1 * m2))


def independent_bound_check(m1, m1_prime, m2, m2_prime):
    """CHSH-type combination for four independent +/-1 variables' means.

    For independent variables every joint expectation factorizes, so the
    combination ``|m1 m2 - m1 m2'| + |m1' m2 + m1' m2'|`` is bounded by
    ``|m2 - m2'| + |m2 + m2'|`` and hence by 2.  Returns the pair
    ``(lhs, bound_holds)``: the left-hand side and whether the 2 bound holds
    (it always does for valid inputs; the flag is the explicit check).
    """
    values = (m1, m1_prime, m2, m2_prime)
    for value in values:
        if not -1.0 <= value <= 1.0:
            raise DomainError(f"means must lie in [-1, 1], got {value}")
    lhs = abs(m1 * m2 - m1 * m2_prime) + abs(m1_prime * m2 + m1_prime * m2_prime)
    return lhs, lhs <= 2.0 + 1e-12


# ---------------------------------------------------------------------------
# Serialization: JSONL run records with a JSON header line.

def run_to_jsonl_lines(run: ExperimentRun, record_limit=None):
    """Yield JSONL lines for a run: a header, then one record per pair.

    ``record_limit`` caps the number of serialized pair records (the header
    keeps the true N and the seed, so the full run stays regenerable).
    """
    count = len(run) if record_limit is None else min(len(run), int(record_limit))
    header = {
        "kind": "header",
        "axes": {
            "A": list(run.pol_a.axis.as_array()),
            "B": list(run.pol_b.axis.as_array()),
        },
        "epsilons": {"A": run.pol_a.epsilon, "B": run.pol_b.epsilon},
        "N": len(run),
        "records_serialized": count,
        "seed": run.master_seed,
        "stream_id": run.stream_id,
    }
    yield json.dumps(header, sort_keys=True)
    start = 0
    for a, b in record_directions(run, count):
        stop = start + len(a)
        # row by row: a whole block of Python floats would outweigh the block itself
        for a_i, b_i, s1, s2 in zip(a, b, run.s1[start:stop].tolist(), run.s2[start:stop].tolist()):
            yield json.dumps({"a": a_i.tolist(), "b": b_i.tolist(), "s1": s1, "s2": s2}, sort_keys=True)
        start = stop


def write_run_jsonl(runs, path, record_limit=None):
    """Write a list of runs to a JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            for line in run_to_jsonl_lines(run, record_limit=record_limit):
                fh.write(line + "\n")
