"""Independent oracles the tests check library results against.

Everything here is computed from first principles: brute-force enumeration,
midpoint quadrature on explicit grids, or closed-form moments rederived in
place.  Nothing imports the sampling code paths under test; the pair twins
below draw from a stream and map uniforms to cap directions with
``randkit._cap_from_uniforms``, whose geometry ``test_randkit`` checks on its
own, and build everything else here.  The scalar chord machines draw one
trial per call.  ``purity_reports`` is a second implementation of the purity
battery, one member at a time: it takes the chi-square from scipy and counts
runs with ``np.diff``, and it uses nothing of ``spcelab.purity`` but the
``Sample`` and ``TestReport`` data classes.
"""

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from spcelab.bertrand import INNER_RADIUS, RADIUS, Machine
from spcelab.errors import DomainError
from spcelab.purity import Sample, TestReport
from spcelab.randkit import CapSpec, Direction, RngStream, _cap_from_uniforms, substream


# ---------------------------------------------------------------------------
# spherical caps: midpoint quadrature over the (cosine, azimuth) rectangle

def cap_mean_cos(eps, n=4001):
    """E[a . axis] for the uniform cap, by 1-D midpoint quadrature."""
    if eps == 0.0:
        return 1.0
    u = (np.arange(n) + 0.5) / n
    return float(np.mean(1.0 - eps * u))


def _cap_grid(axis, eps, n_u=400, n_phi=400):
    """Cap directions on a midpoint grid, equal weights (uniform cap measure)."""
    axis = np.asarray(axis, dtype=float)
    helper = np.array([0.0, 0.0, 1.0]) if abs(axis[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    e1 = np.cross(helper, axis)
    e1 /= np.linalg.norm(e1)
    e2 = np.cross(axis, e1)
    u = (np.arange(n_u) + 0.5) / n_u
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    c = 1.0 - eps * u
    s = np.sqrt(np.clip(1.0 - c * c, 0.0, None))
    cu, pu = np.meshgrid(c, phi, indexing="ij")
    su = np.sqrt(np.clip(1.0 - cu * cu, 0.0, None))
    pts = (
        np.multiply.outer((su * np.cos(pu)).ravel(), e1)
        + np.multiply.outer((su * np.sin(pu)).ravel(), e2)
        + np.multiply.outer(cu.ravel(), axis)
    )
    return pts


def pair_mean_dot(eps_a, eps_b, cos_ab, n_u=400, n_phi=400):
    """E[a . b] over both caps, axes separated by arccos(cos_ab), by quadrature."""
    sin_ab = math.sqrt(max(1.0 - cos_ab * cos_ab, 0.0))
    axis_a = np.array([0.0, 0.0, 1.0])
    axis_b = np.array([sin_ab, 0.0, cos_ab])
    mean_a = _cap_grid(axis_a, eps_a, n_u, n_phi).mean(axis=0)
    mean_b = _cap_grid(axis_b, eps_b, n_u, n_phi).mean(axis=0)
    return float(mean_a @ mean_b)


def same_outcome_prob(eps_a, eps_b, cos_ab):
    """P(s1 = s2) for the singlet cap model: E[sin^2(theta_ab / 2)]."""
    return 0.5 * (1.0 - pair_mean_dot(eps_a, eps_b, cos_ab))


def contextual_correlator(eps_a, eps_b, cos_ab):
    """Expected empirical correlator of the cap model (equals E[a . b])."""
    return pair_mean_dot(eps_a, eps_b, cos_ab)


def cap_contains(cap, direction):
    """Cap membership ``|1 - a . axis| <= epsilon`` of one direction (tolerance-free)."""
    return bool(abs(1.0 - float(np.asarray(direction) @ cap.axis.as_array())) <= cap.epsilon)


# ---------------------------------------------------------------------------
# the singlet pair law at fixed microscopic settings

def angle_between(a, b) -> float:
    """Angle in radians, in [0, pi], between two unit vectors.

    Accepts :class:`Direction` or plain 3-vectors.  The dot product is clamped
    to [-1, 1] before the arccosine, so floating-point excursions never raise.
    Symmetric in its arguments.
    """
    av = a.as_array() if isinstance(a, Direction) else np.asarray(a, dtype=float)
    bv = b.as_array() if isinstance(b, Direction) else np.asarray(b, dtype=float)
    return float(np.arccos(np.clip(av @ bv, -1.0, 1.0)))


def singlet_joint_probs(a, b) -> np.ndarray:
    """Joint outcome probabilities for one pair at microscopic settings (a, b).

    Returns the 4-vector over ``(s1, s2)`` in the order
    ``(++, +-, -+, --)``:  ``p(++) = p(--) = sin^2(theta/2) / 2`` and
    ``p(+-) = p(-+) = cos^2(theta/2) / 2``, where ``theta`` is the angle
    between ``a`` and ``b``.  Both marginals are uniform and the entries sum
    to 1.
    """
    theta = angle_between(a, b)
    p_same = 0.5 * math.sin(theta / 2.0) ** 2
    p_diff = 0.5 * math.cos(theta / 2.0) ** 2
    return np.array([p_same, p_diff, p_diff, p_same])


# ---------------------------------------------------------------------------
# pair sampling with materialized directions: the scalar and the one-draw twin
# of the chunked pair kernel in spce

@dataclass(frozen=True)
class PairRecord:
    """One detected pair: microscopic settings (3-vectors) and the two +/-1 outcomes."""

    a: np.ndarray
    b: np.ndarray
    s1: int
    s2: int


def singlet_outcomes(cos_ab, u):
    """Singlet outcome pairs from cos(theta_ab) and one uniform each.

    Cells in the order (++, +-, -+, --): ``s1 = +1`` iff ``u < 1/2``, and
    ``s2 = s1`` iff ``u`` lies in one of the two tails of mass
    ``sin^2(theta/2) / 2``.
    """
    half_same = 0.25 * (1.0 - np.clip(cos_ab, -1.0, 1.0))
    u = np.asarray(u, dtype=float)
    s1 = np.where(u < 0.5, 1, -1).astype(np.int8)
    same = (u < half_same) | (u >= 1.0 - half_same)
    return s1, np.where(same, s1, -s1).astype(np.int8)


def sample_pair(pol_a, pol_b, rng):
    """Draw one pair from five uniforms (cap A cosine, azimuth, cap B cosine, azimuth, outcome)."""
    u = rng.random(5)
    a = _cap_from_uniforms(pol_a, u[0], u[1])
    b = _cap_from_uniforms(pol_b, u[2], u[3])
    s1, s2 = singlet_outcomes(float(a @ b), u[4])
    return PairRecord(a, b, int(s1), int(s2))


def materialized_run(pol_a, pol_b, n, master_seed, stream_id=0):
    """``(a, b, s1, s2)`` of ``n`` pairs from one ``(n, 5)`` draw, directions built in full."""
    u = substream(master_seed, stream_id).random((int(n), 5))
    a = _cap_from_uniforms(pol_a, u[:, 0], u[:, 1])
    b = _cap_from_uniforms(pol_b, u[:, 2], u[:, 3])
    s1, s2 = singlet_outcomes(np.einsum("ij,ij->i", a, b), u[:, 4])
    return a, b, s1, s2


class ScriptedStream:
    """A stream that serves a fixed sequence of uniforms and counts what it served."""

    def __init__(self, values):
        self.values = values
        self.position = 0

    def random(self, size):
        count = int(np.prod(size))
        out = self.values[self.position:self.position + count].reshape(size)
        self.position += count
        return out.copy()


# ---------------------------------------------------------------------------
# the shared-hidden-direction model with its directions built in full: the
# one-draw twin of spce.shared_lambda_correlators

SPHERE = CapSpec(Direction(0.0, 0.0, 1.0), 2.0)


def materialized_shared_lambda(a, a_prime, b, b_prime, n, rng):
    """Correlators of ``n`` shared-direction pairs from one ``(n, 2)`` draw of ``rng``.

    Every direction and sign is kept.  Directions orthogonal to a setting are
    re-drawn together, in row order, until none is.
    """
    setting_matrix = np.stack([x.as_array() for x in (a, a_prime, b, b_prime)])
    uv = rng.random((int(n), 2))
    lambdas = _cap_from_uniforms(SPHERE, uv[:, 0], uv[:, 1])
    dots = lambdas @ setting_matrix.T
    degenerate = np.any(dots == 0.0, axis=1)
    while np.any(degenerate):
        uv = rng.random((int(np.sum(degenerate)), 2))
        lambdas[degenerate] = _cap_from_uniforms(SPHERE, uv[:, 0], uv[:, 1])
        dots[degenerate] = lambdas[degenerate] @ setting_matrix.T
        degenerate = np.any(dots == 0.0, axis=1)
    s = np.where(dots > 0.0, 1, -1).astype(np.float64)
    return {
        "AB": float(np.mean(s[:, 0] * s[:, 2])),
        "AB'": float(np.mean(s[:, 0] * s[:, 3])),
        "A'B": float(np.mean(s[:, 1] * s[:, 2])),
        "A'B'": float(np.mean(s[:, 1] * s[:, 3])),
    }


# ---------------------------------------------------------------------------
# a uniform sphere grid for the shared-hidden-direction model

def _sphere_grid(n_c=2000, n_phi=2000):
    c = -1.0 + 2.0 * (np.arange(n_c) + 0.5) / n_c
    phi = 2.0 * math.pi * (np.arange(n_phi) + 0.5) / n_phi
    cu, pu = np.meshgrid(c, phi, indexing="ij")
    su = np.sqrt(np.clip(1.0 - cu * cu, 0.0, None))
    return np.stack([(su * np.cos(pu)).ravel(), (su * np.sin(pu)).ravel(), cu.ravel()], axis=1)


def sign_model_correlator(theta, n_c=2000, n_phi=2000):
    """E[sign(X . v) sign(Y . v)] over the uniform sphere, X and Y at angle theta."""
    grid = _sphere_grid(n_c, n_phi)
    x = np.array([0.0, 0.0, 1.0])
    y = np.array([math.sin(theta), 0.0, math.cos(theta)])
    sx = np.where(grid @ x > 0, 1.0, -1.0)
    sy = np.where(grid @ y > 0, 1.0, -1.0)
    return float(np.mean(sx * sy))


# ---------------------------------------------------------------------------
# urns: exhaustive enumeration over labeled-coin permutations

def urn_step_prob_enumerated(n_blue, n_red, k, m):
    """P(blue on draw k+1 | m blues among the first k), by counting permutations.

    Exact rational arithmetic over all orderings of the labeled coins;
    feasible for small urns only.
    """
    coins = [1] * n_blue + [-1] * n_red
    hits = 0
    total = 0
    for perm in itertools.permutations(range(len(coins))):
        colors = [coins[i] for i in perm]
        if sum(1 for c in colors[:k] if c == 1) != m:
            continue
        total += 1
        if colors[k] == 1:
            hits += 1
    if total == 0:
        raise ValueError("conditioning event has no permutations")
    return Fraction(hits, total)


def urn_count_pmf_enumerated(n_blue, n_red, n_draws):
    """Exact pmf of the blue count in the first n_draws, by counting permutations."""
    coins = [1] * n_blue + [-1] * n_red
    counts = {}
    total = 0
    for perm in itertools.permutations(range(len(coins))):
        blues = sum(1 for i in perm[:n_draws] if coins[i] == 1)
        counts[blues] = counts.get(blues, 0) + 1
        total += 1
    return {b: Fraction(c, total) for b, c in sorted(counts.items())}


def hypergeom_count_pmf(n_blue, n_red, n_draws):
    """Exact pmf of the blue count in n draws without replacement, by counting subsets."""
    total = math.comb(n_blue + n_red, n_draws)
    return {b: Fraction(math.comb(n_blue, b) * math.comb(n_red, n_draws - b), total)
            for b in range(max(0, n_draws - n_red), min(n_draws, n_blue) + 1)}


def hypergeom_count_moments(n_blue, n_red, n_draws):
    """Mean and variance of the blue count in n draws without replacement."""
    total = n_blue + n_red
    p = n_blue / total
    mean = n_draws * p
    var = n_draws * p * (1.0 - p) * (total - n_draws) / (total - 1.0)
    return mean, var


# ---------------------------------------------------------------------------
# runs-test moments: closed form plus exact enumeration for small series

def runs_moments(n_pos, n_neg):
    n = n_pos + n_neg
    mu = 2.0 * n_pos * n_neg / n + 1.0
    var = 2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0))
    return mu, math.sqrt(var)


def runs_moments_enumerated(n, n_pos):
    """Exact mean/std of the runs count over all sequences with n_pos ones."""
    runs_counts = []
    for ones in itertools.combinations(range(n), n_pos):
        seq = np.full(n, -1, dtype=int)
        seq[list(ones)] = 1
        runs_counts.append(1 + int(np.sum(seq[1:] != seq[:-1])))
    arr = np.asarray(runs_counts, dtype=float)
    return float(arr.mean()), float(arr.std(ddof=0))


# ---------------------------------------------------------------------------
# misc statistics helpers

def fraction_b(series):
    """Fraction of +1 (blue) outcomes of a series."""
    return float(np.mean(series.values == 1))


def outcome_string(series):
    """A series as B/R characters, e.g. ``'RRRRRR'``."""
    return "".join("B" if v == 1 else "R" for v in series.values)


def binomial_sigma(p, n):
    return math.sqrt(p * (1.0 - p) / n)


def two_proportion_z(k1, n1, k2, n2):
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    se = math.sqrt(pooled * (1.0 - pooled) * (1.0 / n1 + 1.0 / n2))
    return (p1 - p2) / se


# ---------------------------------------------------------------------------
# Bertrand chords: the scalar machines, one trial per call, and the geometry

@dataclass(frozen=True)
class ChordTrial:
    machine: Machine
    hit: bool
    geometry: dict


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


def run_trial(machine: Machine, rng: RngStream) -> ChordTrial:
    """Draw one chord from the given machine."""
    return _SCALAR[machine](rng)


def chord_center_distance(machine, geometry):
    """Distance from the circle center to the chord, rebuilt from raw geometry.

    Geometry values may be scalars or equal-length arrays.
    """
    if machine == "M1":
        angle = np.asarray(geometry["q_angle"], dtype=float)
        r = np.asarray(geometry["r"], dtype=float)
        q = np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        inward = -q  # unit vector from Q toward the center along the diameter
        anchor = q + r[..., None] * inward
        direction = np.stack([-inward[..., 1], inward[..., 0]], axis=-1)
        along = np.sum(anchor * direction, axis=-1)
        perp = anchor - along[..., None] * direction
        return np.linalg.norm(perp, axis=-1)
    if machine == "M2":
        p1 = np.stack(
            [np.cos(np.asarray(geometry["phi1"], dtype=float)),
             np.sin(np.asarray(geometry["phi1"], dtype=float))], axis=-1,
        )
        p2 = np.stack(
            [np.cos(np.asarray(geometry["phi2"], dtype=float)),
             np.sin(np.asarray(geometry["phi2"], dtype=float))], axis=-1,
        )
        chord = p2 - p1
        cross = chord[..., 0] * p1[..., 1] - chord[..., 1] * p1[..., 0]
        return np.abs(cross) / np.linalg.norm(chord, axis=-1)
    if machine == "M3":
        radius = np.asarray(geometry["mid_radius"], dtype=float)
        angle = np.asarray(geometry["mid_angle"], dtype=float)
        mid = radius[..., None] * np.stack([np.cos(angle), np.sin(angle)], axis=-1)
        return np.linalg.norm(mid, axis=-1)
    raise ValueError(f"unknown machine {machine!r}")


def ks_two_sample(x, y, alpha):
    """Two-sample Kolmogorov-Smirnov test with the asymptotic p-value.

    For real-valued statistics (for example batch hit fractions); both
    samples must hold at least 20 observations for the asymptotic regime.
    """
    from scipy.stats import kstwo

    xv = np.sort(np.asarray(x, dtype=float))
    yv = np.sort(np.asarray(y, dtype=float))
    n, m = len(xv), len(yv)
    if n < 20 or m < 20:
        raise DomainError(f"KS test needs both samples >= 20, got sizes {n} and {m}")
    pooled = np.concatenate([xv, yv])
    cdf_x = np.searchsorted(xv, pooled, side="right") / n
    cdf_y = np.searchsorted(yv, pooled, side="right") / m
    statistic = float(np.max(np.abs(cdf_x - cdf_y)))
    # one-sample KS tail at the effective size, the standard two-sample asymptotic
    effective = round(n * m / (n + m))
    p_value = float(kstwo.sf(statistic, effective))
    return TestReport("ks_two_sample", statistic, min(p_value, 1.0), alpha)


# ---------------------------------------------------------------------------
# purity battery: an independent second implementation, one member at a time

#: The richness floor the battery documents: a sub-ensemble needs this many outcomes.
SUBENSEMBLE_FLOOR = 20


def holm_loop(p_values):
    """Holm step-down adjusted p-values from an explicit running maximum."""
    p = np.asarray(p_values, dtype=float)
    m = len(p)
    adjusted = np.empty(m, dtype=float)
    running = 0.0
    for rank, idx in enumerate(np.argsort(p)):
        running = max(running, (m - rank) * p[idx])
        adjusted[idx] = min(running, 1.0)
    return adjusted


def runs_report(values, alpha, label=""):
    """Wald-Wolfowitz runs test of one +/-1 series, two-sided normal approximation.

    Runs are counted as one plus the nonzero steps of ``np.diff``, and ``z``
    uses :func:`runs_moments`.  Raises :class:`DomainError` with the
    battery's wording for a series shorter than 20 or of one symbol.
    """
    from scipy.stats import norm

    values = np.asarray(values)
    n = len(values)
    if n < 20:
        raise DomainError(f"runs test needs series length >= 20, got {n}")
    n_pos = int(np.count_nonzero(values == 1))
    if n_pos in (0, n):
        raise DomainError("runs test is undefined for a single-symbol series")
    runs = 1 + int(np.count_nonzero(np.diff(values)))
    mu, sigma = runs_moments(n_pos, n - n_pos)
    z = (runs - mu) / sigma
    return TestReport("runs_test", z, float(2.0 * norm.sf(abs(z))), alpha, label, note=f"runs={runs}")


def chi2_family_report(arrays, alpha):
    """Chi-square homogeneity of k +/-1 series from ``scipy.stats.chi2_contingency``.

    The k x 2 table of (+1, -1) counts has k - 1 degrees of freedom.  As in
    the battery, an expected count of 0 leaves the statistic undefined and
    one below 5 makes the report invalid.
    """
    from scipy.stats import chi2_contingency
    from scipy.stats.contingency import expected_freq

    table = np.array([[np.count_nonzero(a == 1), np.count_nonzero(a == -1)] for a in arrays])
    expected = expected_freq(table)
    if np.any(expected == 0):
        return TestReport("chi2_homogeneity", math.nan, math.nan, alpha, "family", valid=False,
                          note="expected cell count of 0; statistic undefined")
    result = chi2_contingency(table, correction=False)
    valid = bool(np.all(expected >= 5))
    note = "" if valid else "expected cell count below 5; approximation unreliable"
    return TestReport("chi2_homogeneity", float(result.statistic), float(result.pvalue), alpha,
                      "family", valid=valid, note=note)


def _procedure_name(procedure):
    if procedure.kind == "every_kth":
        return f"every_kth({int(procedure.param)})"
    return f"{procedure.kind}({procedure.param:g})"


def _reduced(values, procedure, rng):
    """The outcomes a reduction keeps, by index arrays; ``thin`` draws one uniform per outcome."""
    if procedure.kind == "thin":
        return values[np.flatnonzero(rng.random(len(values)) < procedure.param)]
    if procedure.kind == "every_kth":
        return values[np.arange(0, len(values), int(procedure.param))]
    return values[np.arange(int(procedure.param * len(values)))]


def purity_reports(base_samples, procedures, subensemble_count, alpha, master_seed=0,
                   subensemble_fraction=0.5):
    """Reports and notes of the purity battery (power-floor note aside), member by member.

    Builds the family on stream 0 in the battery's order: each base sample's
    reductions, then the sub-ensembles round-robin over the base samples,
    each ``np.sort(permutation(n)[:m])``, drawn only when ``m`` reaches the
    richness floor.  Then :func:`chi2_family_report` over the family,
    :func:`runs_report` on each member and :func:`holm_loop` over the valid
    reports.
    """
    rng = substream(master_seed, 0)
    notes = []
    family = [(s.label, s.series.values) for s in base_samples]
    for sample in base_samples:
        for procedure in procedures:
            label = f"{sample.label}({_procedure_name(procedure)})"
            reduced = _reduced(sample.series.values, procedure, rng)
            if len(reduced) == 0:
                notes.append(f"{label}: reduction emptied the sample; excluded")
            else:
                family.append((label, reduced))
    for k in range(subensemble_count):
        parent = base_samples[k % len(base_samples)]
        label = f"{parent.label}[sub{k}]"
        n = len(parent.series)
        m = int(subensemble_fraction * n)
        if m < SUBENSEMBLE_FLOOR:
            notes.append(f"{label}: sub-ensemble of size {m} is below the richness floor of "
                         f"{SUBENSEMBLE_FLOOR} outcomes; excluded")
            continue
        family.append((label, parent.series.values[np.sort(rng.generator.permutation(n)[:m])]))

    reports = [chi2_family_report([values for _, values in family], alpha)]
    for label, values in family:
        try:
            reports.append(runs_report(values, alpha, label))
        except DomainError as exc:
            reports.append(TestReport("runs_test", math.nan, math.nan, alpha, label,
                                      valid=False, note=str(exc)))
            notes.append(f"{label}: runs test invalid ({exc})")
    valid = [r for r in reports if r.valid]
    for report, p_adj in zip(valid, holm_loop([r.p_value for r in valid])):
        report.p_adjusted = float(p_adj)
    return reports, notes
