"""Probability models for spin-polarization correlation experiments.

Two models live here:

* The contextual smeared-polarizer singlet model: each polarizer is a
  spherical cap of microscopic direction vectors around its macroscopic axis,
  and the pair outcome law conditional on the microscopic pair ``(a, b)`` is
  the singlet table, same-outcome probability ``sin^2(theta_ab / 2)``.
  :func:`outcome_blocks` walks a stream key's pairs block by block and keeps
  nothing: :func:`correlator` counts same-outcome pairs, ``qkd`` keeps key
  bits, and :func:`run_to_jsonl_lines` rebuilds the serialized records.
* The shared-hidden-direction sign model: one direction per pair generates
  outcomes for every setting via ``sign(x . lambda)``, the single-probability-
  space construction whose CHSH value can never exceed 2.

Correlators follow the convention ``r = -(1/N) sum s1_i s2_i``: the leading
minus makes aligned settings (perfectly anti-correlated outcomes) give
``r = +1``, so the contextual model's correlator law is
``(1 - eps_A/2) (1 - eps_B/2) cos(theta_AB)``.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import DomainError
from .randkit import (
    _FULL_SPHERE,
    CapSpec,
    Direction,
    _cap_coefficients,
    _cap_frame,
    _cap_from_uniforms,
    stream_blocks,
    substream,
)


def _singlet_outcomes(pol_a: CapSpec, pol_b: CapSpec, gram, u):
    """The flags ``(minus, same)`` of the singlet outcomes for one block of pair uniforms.

    ``cos(theta_ab) = alpha . (F_A F_B^T) beta``, with ``alpha`` and ``beta``
    the caps' coordinates in their frames ``F_A`` and ``F_B`` (see
    ``randkit._cap_coefficients``) and ``gram = F_A F_B^T``; no direction is
    built.  The cumulative layout puts both ``s1 = +1`` cells first, so the
    outcome uniform ``w >= 1/2`` decides ``s1 = -1``, and ``s2`` matches
    ``s1`` exactly when ``w`` falls in one of the two tails of mass
    ``sin^2(theta/2) / 2``.  A ``cos_ab`` rounded past +/-1 gives the same
    outcomes as the clipped value: both tails stay empty above 1 and cover
    [0, 1) below -1.
    """
    xa, ya, za = _cap_coefficients(pol_a, u[:, 0], u[:, 1])
    beta = _cap_coefficients(pol_b, u[:, 2], u[:, 3])
    # column j of the Gram matrix gives the j-th coordinate of alpha F_A F_B^T
    cos_ab = sum((xa * g[0] + ya * g[1] + za * g[2]) * b for g, b in zip(gram.T, beta))
    half_same = 0.25 * (1.0 - cos_ab)
    w = u[:, 4]
    return w >= 0.5, (w < half_same) | (w >= 1.0 - half_same)


def outcome_blocks(pol_a: CapSpec, pol_b: CapSpec, n: int, master_seed, stream_id=0):
    """Yield ``(u, minus, same)`` for ``n`` pairs under fixed polarizers, in ``stream_blocks`` blocks.

    Pair ``i`` consumes the five uniforms ``u[i]`` at positions
    ``5 i .. 5 i + 4`` of the keyed stream, in the order (cap A cosine, cap A
    azimuth, cap B cosine, cap B azimuth, outcome); ``minus`` flags
    ``s1 = -1`` and ``same`` flags ``s2 = s1``.  A walk over the first ``m``
    pairs sees the first ``m`` pairs of any longer walk on the same key.
    """
    if n < 1:
        raise DomainError(f"pair count must be >= 1, got {n}")
    gram = _cap_frame(pol_a) @ _cap_frame(pol_b).T
    for u in stream_blocks(substream(master_seed, stream_id), int(n), 5):
        yield (u, *_singlet_outcomes(pol_a, pol_b, gram, u))


def correlator(pol_a: CapSpec, pol_b: CapSpec, n: int, master_seed, stream_id=0) -> float:
    """The empirical spin expectation ``r = -(1/N) sum s1_i s2_i`` of ``n`` sampled pairs.

    With the leading minus, a perfectly anti-correlated run (``s2 = -s1``
    throughout, as for aligned zero-smear polarizers) gives ``r = +1``.
    Under the contextual cap model the expectation is
    ``(1 - eps_A/2) (1 - eps_B/2) cos(theta_AB)``.  The sum of products is
    an exact integer, and a zero sum gives ``-0.0``.
    """
    total = 0
    for u, _, same in outcome_blocks(pol_a, pol_b, n, master_seed, stream_id):
        total += 2 * int(np.count_nonzero(same)) - len(u)
    return -(total / n)


def correlator_stderr(r: float, n: int) -> float:
    """Binomial standard error of an empirical correlator of ``n`` +/-1 products."""
    return math.sqrt(max(1.0 - r * r, 0.0) / n)


def chsh(r_ab, r_ab_prime, r_a_prime_b, r_a_prime_b_prime) -> float:
    """The CHSH combination ``|r(A,B) - r(A,B')| + |r(A',B) + r(A',B')|``."""
    values = (r_ab, r_ab_prime, r_a_prime_b, r_a_prime_b_prime)
    for value in values:
        if not -1.0 <= value <= 1.0:
            raise DomainError(f"correlators must lie in [-1, 1], got {value}")
    return abs(r_ab - r_ab_prime) + abs(r_a_prime_b + r_a_prime_b_prime)


#: Canonical CHSH setting-pair labels, in the order the statistic consumes them.
SETTING_PAIRS = ("AB", "AB'", "A'B", "A'B'")


def shared_lambda_correlators(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction,
                              n: int, master_seed, stream_id=0) -> dict:
    """Evaluate all four CHSH correlators on one shared hidden-direction sample.

    Each pair carries a direction ``lambda_i`` uniform on the sphere and
    definite outcomes ``sign(x . lambda_i)`` for *every* setting ``x``
    (particle 2 reports the opposite sign).  All four correlators are
    evaluated on the same ``lambda`` sample, so they live on one probability
    space and their CHSH combination is bounded by 2 exactly, not just in
    expectation.  The expected correlator is ``1 - 2 theta_XY / pi``.

    Returns the correlators keyed by :data:`SETTING_PAIRS`.  Directions
    exactly orthogonal to a setting are re-drawn (a measure-zero event) as
    ``randkit.stream_blocks`` re-draws degenerate rows.  Only the four sums
    of sign products are kept: they are exact integers, so each correlator
    equals the mean of the materialized products bit for bit.
    """
    if n < 1:
        raise DomainError(f"pair count must be >= 1, got {n}")
    n = int(n)
    setting_matrix = np.stack([s.as_array() for s in (a, a_prime, b, b_prime)])

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
    return {key: (n - 2 * int(k)) / n for key, k in zip(SETTING_PAIRS, disagree)}


# ---------------------------------------------------------------------------
# Serialization: JSONL run records with a JSON header line.

def run_to_jsonl_lines(pol_a: CapSpec, pol_b: CapSpec, n: int, master_seed, stream_id=0,
                       record_limit=None):
    """Yield JSONL lines for the run of ``n`` pairs on a stream key: a header, then one record per pair.

    ``record_limit`` caps the number of serialized pair records (the header
    keeps the true N and the seed, so the full run stays regenerable).  Each
    record's directions and outcomes are rebuilt from the stream, block by
    block, exactly as :func:`outcome_blocks` draws them.
    """
    count = n if record_limit is None else min(n, int(record_limit))
    header = {
        "kind": "header",
        "axes": {"A": list(pol_a.axis.as_array()), "B": list(pol_b.axis.as_array())},
        "epsilons": {"A": pol_a.epsilon, "B": pol_b.epsilon},
        "N": int(n),
        "records_serialized": count,
        "seed": int(master_seed),
        "stream_id": int(stream_id),
    }
    yield json.dumps(header, sort_keys=True)
    if count == 0:
        return
    for u, minus, same in outcome_blocks(pol_a, pol_b, count, master_seed, stream_id):
        a = _cap_from_uniforms(pol_a, u[:, 0], u[:, 1])
        b = _cap_from_uniforms(pol_b, u[:, 2], u[:, 3])
        # row by row: a whole block of Python floats would outweigh the block itself
        for a_i, b_i, s1, s2 in zip(a, b, (1 - 2 * minus).tolist(), (1 - 2 * (minus == same)).tolist()):
            yield json.dumps({"a": a_i.tolist(), "b": b_i.tolist(), "s1": s1, "s2": s2}, sort_keys=True)


def write_run_jsonl(runs, path, record_limit=None):
    """Write runs, each the ``(pol_a, pol_b, n, master_seed, stream_id)`` of one, to a JSONL file."""
    with open(path, "w", encoding="utf-8") as fh:
        for run in runs:
            for line in run_to_jsonl_lines(*run, record_limit=record_limit):
                fh.write(line + "\n")
