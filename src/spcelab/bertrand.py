"""Three random-chord machines realizing three incompatible chord probabilities.

All machines answer the same question: does a random chord of the unit circle
meet the concentric circle of radius 1/2?  Each machine is a different,
perfectly legitimate randomization, and they converge to 1/2, 1/3, and 1/4:
the probability belongs to the generating experiment, not to the question.

* M1 picks a point Q on the circle, walks a uniform distance r in [0, 2]
  along the diameter from Q, and lays a chord perpendicular to the diameter
  there; the chord's distance from the center is |r - 1|.
* M2 joins two independent uniform points on the circle; the center distance
  is cos(separation / 2).
* M3 drops the chord midpoint uniformly on the disk; the center distance is
  the midpoint's radius.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .randkit import stream_blocks, substream

#: Outer circle radius (canonical) and the inner hit radius.
RADIUS = 1.0
INNER_RADIUS = 0.5


class Machine(enum.Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


@dataclass(frozen=True)
class ProbabilityEstimate:
    machine: Machine
    n: int
    p_hat: float
    stderr: float
    master_seed: int


#: Default stream id per machine, so one master seed drives all three independently.
STREAM_IDS = {Machine.M1: 0, Machine.M2: 1, Machine.M3: 2}


def _batch_hits(machine: Machine, u: np.ndarray) -> np.ndarray:
    """Vectorized hit flags from an (n, 2) uniform block (degeneracies re-drawn by caller)."""
    if machine is Machine.M1:
        return np.abs(2.0 * RADIUS * u[:, 1] - RADIUS) <= INNER_RADIUS
    if machine is Machine.M2:
        diff = np.abs(2.0 * math.pi * (u[:, 0] - u[:, 1]))
        separation = math.pi - np.abs(math.pi - diff)
        return separation >= 2.0 * math.pi / 3.0
    return np.sqrt(u[:, 0]) <= INNER_RADIUS


def _batch_degenerate(machine: Machine, u: np.ndarray) -> np.ndarray:
    if machine is Machine.M2:
        return u[:, 0] == u[:, 1]
    if machine is Machine.M3:
        return u[:, 0] == 0.0
    return np.zeros(len(u), dtype=bool)


def estimate_probability(machine: Machine, n: int, master_seed, stream_id=None) -> ProbabilityEstimate:
    """Hit fraction over ``n`` independent trials, with its binomial standard error.

    Trials consume consecutive uniform pairs of the stream keyed by
    ``(master_seed, stream_id)``: trial ``i`` takes the ``i``-th pair, and a
    degenerate pair (no unique chord) is re-drawn after all ``n`` in trial
    order (see ``randkit.stream_blocks``).  ``stream_id`` defaults to the
    machine's index so one master seed runs all machines independently.
    Draws the trials in blocks and keeps only the hit count.
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    n = int(n)
    if stream_id is None:
        stream_id = STREAM_IDS[machine]
    blocks = stream_blocks(substream(master_seed, stream_id), n, 2,
                           lambda u: (_batch_hits(machine, u), _batch_degenerate(machine, u)))
    hits = sum(int(np.count_nonzero(block)) for block in blocks)
    p_hat = hits / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return ProbabilityEstimate(machine, n, p_hat, stderr, int(master_seed))
