"""Entanglement-based raw key extraction and its mismatch under smeared polarizers.

Alice and Bob measure matched-basis pairs from the contextual singlet model
and map outcomes to bits, with Bob's bit flipped so that perfect
anti-correlation yields identical keys.  With zero polarizer smear the keys
agree bit for bit; any smear ``epsilon > 0`` destroys strict anti-correlation
and the keys disagree at the same-outcome rate, which grows with ``epsilon``
(about ``(1 - (1 - eps/2)^2) / 2`` for equal smears under the uniform-cap
model).  The CHSH statistic over four test settings plays the eavesdropping
check: an intercept-resend adversary that substitutes shared-hidden-direction
outcomes caps it at 2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .randkit import CapSpec, Direction
from .spce import chsh, correlator, outcome_blocks, shared_lambda_correlators


@dataclass
class KeyPair:
    """Alice's and Bob's raw key bits plus generation metadata."""

    alice: np.ndarray
    bob: np.ndarray
    meta: dict

    def __post_init__(self):
        self.alice = np.asarray(self.alice, dtype=np.uint8)
        self.bob = np.asarray(self.bob, dtype=np.uint8)
        if self.alice.shape != self.bob.shape:
            raise DomainError(
                f"key lengths differ: {self.alice.size} vs {self.bob.size}"
            )

    def __len__(self):
        return int(self.alice.size)


def generate_keys(axis: Direction, n: int, eps_a: float, eps_b: float, master_seed,
                  stream_id=0) -> KeyPair:
    """Extract raw keys from ``n`` matched-basis pairs.

    Both polarizers sit on the same macroscopic axis.  Alice's bit is
    ``(s1 + 1) / 2``; Bob's is ``(-s2 + 1) / 2``, i.e. flipped, so ideal
    anti-correlated outcomes give identical keys.  Bit-reproducible from the
    seed.
    """
    alice = np.empty(int(n), dtype=np.uint8)
    bob = np.empty(int(n), dtype=np.uint8)
    start = 0
    for u, minus, same in outcome_blocks(CapSpec(axis, eps_a), CapSpec(axis, eps_b), n, master_seed,
                                         stream_id):
        stop = start + len(u)
        alice[start:stop] = ~minus
        bob[start:stop] = minus == same
        start = stop
    meta = {
        "axis": list(axis.as_array()),
        "eps_a": eps_a,
        "eps_b": eps_b,
        "n": int(n),
        "master_seed": int(master_seed),
        "stream_id": int(stream_id),
    }
    return KeyPair(alice, bob, meta)


def mismatch_rate(keys: KeyPair) -> float:
    """Hamming distance between the keys divided by their length."""
    if len(keys) == 0:
        raise DomainError("cannot compute a mismatch rate on empty keys")
    return float(np.mean(keys.alice != keys.bob))


def ekert_test_statistic(a: Direction, a_prime: Direction, b: Direction, b_prime: Direction,
                         n_test: int, eps_a: float, eps_b: float, master_seed,
                         adversary=False, stream_base=0) -> float:
    """CHSH value over the four test setting pairs.

    Runs the four experiments (A,B), (A,B'), (A',B), (A',B') on stream ids
    ``stream_base .. stream_base + 3`` of the master seed and combines their
    empirical correlators.  The clean channel with zero smear at the standard
    angles gives about ``2 sqrt(2)``; with ``adversary=True`` every outcome is
    replaced by the shared-hidden-direction model, whose value never
    exceeds 2.
    """
    if adversary:
        return chsh(*shared_lambda_correlators(a, a_prime, b, b_prime, n_test, master_seed,
                                               stream_id=stream_base).values())
    pairs = [(a, b), (a, b_prime), (a_prime, b), (a_prime, b_prime)]
    return chsh(*(correlator(CapSpec(x, eps_a), CapSpec(y, eps_b), n_test, master_seed, stream_base + k)
                  for k, (x, y) in enumerate(pairs)))
