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
from .randkit import RngStream, substream

#: Outer circle radius (canonical) and the inner hit radius.
RADIUS = 1.0
INNER_RADIUS = 0.5


class Machine(enum.Enum):
    M1 = "M1"
    M2 = "M2"
    M3 = "M3"


@dataclass(frozen=True)
class ChordTrial:
    machine: Machine
    hit: bool
    geometry: dict


@dataclass(frozen=True)
class ProbabilityEstimate:
    machine: Machine
    n: int
    p_hat: float
    stderr: float
    master_seed: int


def chord_hits_m1(r) -> bool:
    """Hit predicate for M1: offset ``r`` along the diameter from Q."""
    return bool(abs(r - RADIUS) <= INNER_RADIUS)


def chord_hits_m2(separation) -> bool:
    """Hit predicate for M2: angular separation of the endpoints in [0, pi]."""
    return bool(separation >= 2.0 * math.pi / 3.0)


def chord_hits_m3(midpoint_radius) -> bool:
    """Hit predicate for M3: radial position of the chord midpoint."""
    return bool(midpoint_radius <= INNER_RADIUS)


def machine_m1(rng: RngStream) -> ChordTrial:
    """Perpendicular-stick machine: Q uniform on the circle, offset uniform on [0, 2R]."""
    u = rng.random(2)
    q_angle = 2.0 * math.pi * u[0]
    r = 2.0 * RADIUS * u[1]
    return ChordTrial(Machine.M1, chord_hits_m1(r), {"q_angle": q_angle, "r": r})


def machine_m2(rng: RngStream) -> ChordTrial:
    """Two-endpoint machine: both chord ends independent and uniform on the circle."""
    while True:
        u = rng.random(2)
        phi1 = 2.0 * math.pi * u[0]
        phi2 = 2.0 * math.pi * u[1]
        if phi1 != phi2:  # coincident endpoints give no chord; redraw
            break
    separation = math.pi - abs(math.pi - abs(phi1 - phi2))
    return ChordTrial(Machine.M2, chord_hits_m2(separation), {"phi1": phi1, "phi2": phi2})


def machine_m3(rng: RngStream) -> ChordTrial:
    """Midpoint machine: chord midpoint uniform on the disk (area measure)."""
    while True:
        u = rng.random(2)
        radius = math.sqrt(u[0])
        if radius != 0.0:  # center midpoint has no unique chord; redraw
            break
    angle = 2.0 * math.pi * u[1]
    return ChordTrial(Machine.M3, chord_hits_m3(radius), {"mid_radius": radius, "mid_angle": angle})


_SCALAR = {Machine.M1: machine_m1, Machine.M2: machine_m2, Machine.M3: machine_m3}

#: Default stream id per machine, so one master seed drives all three independently.
STREAM_IDS = {Machine.M1: 0, Machine.M2: 1, Machine.M3: 2}


def run_trial(machine: Machine, rng: RngStream) -> ChordTrial:
    """Draw one chord from the given machine."""
    return _SCALAR[machine](rng)


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


#: Trials per block of :func:`estimate_probability`: a (2^16, 2) block of uniforms is 1 MiB.
TRIAL_CHUNK = 1 << 16


def estimate_probability(machine: Machine, n: int, master_seed, stream_id=None) -> ProbabilityEstimate:
    """Hit fraction over ``n`` independent trials, with its binomial standard error.

    Trials consume consecutive uniform pairs of the stream keyed by
    ``(master_seed, stream_id)``; trial ``i`` matches the ``i``-th scalar
    machine call on the same substream.  ``stream_id`` defaults to the
    machine's index so one master seed runs all machines independently.
    Draws :data:`TRIAL_CHUNK` trials at a time and keeps only the hit count.
    """
    if n < 1:
        raise DomainError(f"trial count must be >= 1, got {n}")
    n = int(n)
    if stream_id is None:
        stream_id = STREAM_IDS[machine]
    rng = substream(master_seed, stream_id)
    hits = redraws = 0
    for start in range(0, n, TRIAL_CHUNK):
        u = rng.random((min(TRIAL_CHUNK, n - start), 2))
        degenerate = _batch_degenerate(machine, u)
        redraws += int(np.count_nonzero(degenerate))
        hits += int(np.count_nonzero(_batch_hits(machine, u) & ~degenerate))
    if redraws:
        # re-drawing the degenerate trials after the main pass, in trial order, consumes
        # the stream exactly as one draw of all n trials followed by its re-draws
        u = rng.random((redraws, 2))
        degenerate = _batch_degenerate(machine, u)
        while np.any(degenerate):
            u[degenerate] = rng.random((int(np.sum(degenerate)), 2))
            degenerate = _batch_degenerate(machine, u)
        hits += int(np.count_nonzero(_batch_hits(machine, u)))
    p_hat = hits / n
    stderr = math.sqrt(p_hat * (1.0 - p_hat) / n)
    return ProbabilityEstimate(machine, n, p_hat, stderr, int(master_seed))
