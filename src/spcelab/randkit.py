"""Deterministic random streams and the low-level samplers shared by all modules.

Randomness is organized around counter-based Philox streams keyed by
``(master_seed, stream_id)``: the same key pair always reproduces the same
sequence, regardless of how many other streams exist or in which order they
are consumed.  Monte Carlo drivers parallelize by assigning disjoint stream
ids; within a stream, batch draws fill row-major so that a batched draw of
shape ``(n, k)`` consumes the stream exactly like ``n`` sequential scalar
draws of ``k`` variates each.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
# imported here, not on first use: numpy loads numpy.random lazily, and every
# command draws from a stream, so the import belongs to start-up
from numpy.random import Generator, Philox

from .errors import DomainError

_U64_MAX = 2**64 - 1

#: Tolerance on the unit-norm invariant of :class:`Direction`.
UNIT_NORM_TOL = 1e-12


def _check_u64(value, name):
    # bool is an int subclass, but True is not a seed, a stream id or a count
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise DomainError(f"{name} must be an integer, got {type(value).__name__}")
    if not 0 <= int(value) <= _U64_MAX:
        raise DomainError(f"{name} must fit in an unsigned 64-bit integer, got {value}")
    return int(value)


class RngStream:
    """A reproducible random stream keyed by ``(master_seed, stream_id)``.

    Two streams built from the same key pair emit identical sequences; streams
    with distinct ids are statistically independent.  The stream is value-like:
    it can be reconstructed anywhere from its two integers, so workers never
    need to share generator state.
    """

    __slots__ = ("master_seed", "stream_id", "_generator")

    def __init__(self, master_seed, stream_id=0):
        self.master_seed = _check_u64(master_seed, "master_seed")
        self.stream_id = _check_u64(stream_id, "stream_id")
        key = np.array([self.master_seed, self.stream_id], dtype=np.uint64)
        self._generator = Generator(Philox(key=key))

    @property
    def generator(self) -> Generator:
        """The underlying ``numpy.random.Generator``."""
        return self._generator

    def random(self, size=None):
        """Uniform variates on [0, 1), scalar when ``size`` is None."""
        return self._generator.random(size)

    def __repr__(self):
        return f"RngStream(master_seed={self.master_seed}, stream_id={self.stream_id})"


def substream(master_seed, stream_id) -> RngStream:
    """Return the stream deterministically associated with ``(master_seed, stream_id)``.

    Pure function of its arguments: repeated calls return streams that emit
    identical sequences, independent of worker count or call order.
    """
    return RngStream(master_seed, stream_id)


#: Rows per block of :func:`stream_blocks`: a (2^16, 5) block of uniforms is 2.5 MiB.
BLOCK_ROWS = 1 << 16


def stream_blocks(rng, n, width, mapping=None):
    """Draw ``n`` rows of ``width`` uniforms from ``rng``, at most :data:`BLOCK_ROWS` rows at a time.

    Without ``mapping``, yields the ``(m, width)`` blocks of uniforms; together
    they are the rows of ``rng.random((n, width))``.  With ``mapping``, a
    callable ``block -> (values, degenerate)`` whose outputs are indexed by
    row, yields the values of each block's non-degenerate rows.  The dropped
    rows are re-drawn after the main pass, in row order, and any row still
    degenerate is re-drawn again until none is; their values come last.  The
    stream is consumed exactly as by one draw of all ``n`` rows followed by
    the same re-draws, so the block size never changes a result.
    """
    redraws = 0
    for start in range(0, n, BLOCK_ROWS):
        u = rng.random((min(BLOCK_ROWS, n - start), width))
        if mapping is None:
            yield u
            continue
        values, degenerate = mapping(u)
        dropped = int(np.count_nonzero(degenerate))
        redraws += dropped
        yield values[~degenerate] if dropped else values
    if redraws:
        u = rng.random((redraws, width))
        values, degenerate = mapping(u)
        while np.any(degenerate):
            u[degenerate] = rng.random((int(np.count_nonzero(degenerate)), width))
            values, degenerate = mapping(u)
        yield values


# Philox4x64-10 constants (Salmon et al., SC'11), as in numpy's Philox.
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_LO32 = np.uint64(0xFFFFFFFF)
_SHIFT32 = np.uint64(32)


def _mulhilo(m, x):
    """High and low 64-bit words of the 128-bit product of the constant ``m`` and the array ``x``."""
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    x_lo, x_hi = x & _LO32, x >> _SHIFT32
    lo_lo, lo_hi, hi_lo = x_lo * m_lo, x_lo * m_hi, x_hi * m_lo
    mid = (lo_lo >> _SHIFT32) + (lo_hi & _LO32) + (hi_lo & _LO32)
    hi = x_hi * m_hi + (lo_hi >> _SHIFT32) + (hi_lo >> _SHIFT32) + (mid >> _SHIFT32)
    return hi, x * np.uint64(m)


def stream_uniforms(master_seed, stream_ids, count) -> np.ndarray:
    """The first ``count`` uniforms of many streams, computed in one vectorized pass.

    Returns a ``(len(stream_ids), count)`` float64 array whose row ``i`` is
    bit-identical to ``substream(master_seed, stream_ids[i]).random(count)``.
    Philox is counter-based: block ``j`` of a stream (counter ``j + 1``, key
    ``[master_seed, stream_id]``) yields four 64-bit words, and each word
    ``x`` gives the double ``(x >> 11) * 2**-53``, so every block of every
    stream is computed independently.
    """
    seed = _check_u64(master_seed, "master_seed")
    ids = np.asarray(stream_ids)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu"):
        raise DomainError("stream_ids must be a one-dimensional array of integers")
    if ids.size and ids.dtype.kind == "i" and ids.min() < 0:
        raise DomainError("stream ids must fit in an unsigned 64-bit integer")
    count = _check_u64(count, "count")
    blocks = -(-count // 4)
    # counter words c1..c3 stay 0 below 2**64 blocks; key word 0 is the seed for every stream
    c0 = np.arange(1, blocks + 1, dtype=np.uint64)[None, :]
    c1 = c2 = c3 = np.zeros((1, 1), dtype=np.uint64)
    ids = ids.astype(np.uint64)[:, None]
    for r in range(10):
        # the key is bumped by the Weyl constants before every round but the first
        k0 = np.uint64((seed + r * _PHILOX_W[0]) & _U64_MAX)
        k1 = ids + np.uint64((r * _PHILOX_W[1]) & _U64_MAX)
        hi0, lo0 = _mulhilo(_PHILOX_M[0], c0)
        hi1, lo1 = _mulhilo(_PHILOX_M[1], c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
    words = np.stack(np.broadcast_arrays(c0, c1, c2, c3), axis=-1).reshape(ids.shape[0], 4 * blocks)
    return (words[:, :count] >> np.uint64(11)).astype(np.float64) * 2.0**-53


@dataclass(frozen=True)
class Direction:
    """A unit vector on the two-sphere.

    Parameters
    ----------
    x, y, z : float
        Cartesian components; their squared sum must equal 1 within
        ``UNIT_NORM_TOL``.
    """

    x: float
    y: float
    z: float

    def __post_init__(self):
        norm = math.sqrt(self.x * self.x + self.y * self.y + self.z * self.z)
        if not abs(norm - 1.0) <= UNIT_NORM_TOL:  # a NaN norm fails too
            raise DomainError(f"direction ({self.x}, {self.y}, {self.z}) is not unit length (|v| = {norm})")

    @classmethod
    def normalized(cls, x, y, z) -> "Direction":
        """Build a Direction from an arbitrary non-zero vector by normalizing it."""
        norm = math.sqrt(x * x + y * y + z * z)
        if norm == 0.0:
            raise DomainError("cannot normalize the zero vector")
        return cls(x / norm, y / norm, z / norm)

    @classmethod
    def from_plane_angle(cls, degrees) -> "Direction":
        """Direction at ``degrees`` from the z-axis, rotating in the x-z plane.

        The coplanar parametrization used for polarizer settings given as
        plain angles: 0 deg is +z, 90 deg is +x.
        """
        rad = math.radians(degrees)
        return cls.normalized(math.sin(rad), 0.0, math.cos(rad))

    def as_array(self) -> np.ndarray:
        return np.array([self.x, self.y, self.z])


@dataclass(frozen=True)
class CapSpec:
    """A spherical cap around a macroscopic axis.

    The cap is ``{a : |1 - a.axis| <= epsilon}``, i.e. all unit vectors whose
    cosine with ``axis`` is at least ``1 - epsilon``.  ``epsilon = 0``
    degenerates to the single point ``axis``; ``epsilon = 2`` is the full
    sphere.
    """

    axis: Direction
    epsilon: float

    def __post_init__(self):
        eps = float(self.epsilon)
        if not 0.0 <= eps <= 2.0 or math.isnan(eps):
            raise DomainError(f"cap epsilon must lie in [0, 2], got {self.epsilon}")
        object.__setattr__(self, "epsilon", eps)


def _orthonormal_frame(axis: np.ndarray):
    """Two unit vectors completing ``axis`` to a right-handed frame."""
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    return e1, e2


def _cap_frame(cap: CapSpec) -> np.ndarray:
    """The rows ``e1, e2, axis``: the right-handed frame cap coordinates refer to."""
    axis = cap.axis.as_array()
    return np.stack([*_orthonormal_frame(axis), axis])


def _cap_coefficients(cap: CapSpec, u, v):
    """Map uniforms ``(u, v)`` on [0,1)^2 to cap directions in the cap's frame.

    The cosine with the axis is ``c = 1 - epsilon * u`` (uniform on
    ``[1 - epsilon, 1]``) and the azimuth about the axis is ``phi = 2 pi v``:
    the uniform distribution on the cap.  Returns the coordinates
    ``(s cos phi, s sin phi, c)`` along the rows of :func:`_cap_frame`, with
    ``s = sqrt(1 - c^2)``.
    """
    c = 1.0 - cap.epsilon * np.asarray(u, dtype=float)
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    phi = 2.0 * math.pi * np.asarray(v, dtype=float)
    return s * np.cos(phi), s * np.sin(phi), c


def _cap_from_uniforms(cap: CapSpec, u, v):
    """Map uniforms ``(u, v)`` on [0,1)^2 to cap directions (see :func:`_cap_coefficients`).

    Scalar inputs give a 3-vector, arrays of shape (n,) give an (n, 3) array.
    """
    x, y, c = _cap_coefficients(cap, u, v)
    e1, e2, axis = _cap_frame(cap)
    return np.multiply.outer(x, e1) + np.multiply.outer(y, e2) + np.multiply.outer(c, axis)


#: The whole sphere, an ``epsilon = 2`` cap.
_FULL_SPHERE = CapSpec(Direction(0.0, 0.0, 1.0), 2.0)
