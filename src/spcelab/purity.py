"""Nonparametric purity testing of repeated measurement samples.

The protocol: collect repeated samples from a source, derive intensity-reduced
versions and random sub-ensembles of each, and test the null hypothesis that
every member of the enlarged family is drawn from one and the same population.
A pure ensemble survives arbitrary reduction and sub-sampling with unchanged
statistics; a mixed one can be pushed off balance.

The battery is a chi-square homogeneity test across the family plus a
Wald-Wolfowitz runs test inside each member, with Holm correction over all
reported p-values (valid under arbitrary dependence between the overlapping
family members).  Homogeneity rejections drive the ``mixed`` verdict;
randomness rejections alone block ``pure`` without implying a mixture.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .coin_lab import TimeSeries
from .errors import DomainError, shorten
from .randkit import RngStream, substream

#: Minimum length for a sub-ensemble to count as "rich".
RICHNESS_FLOOR = 20

#: Minimum total base-sample size for a ``pure`` verdict (power floor).
DEFAULT_POWER_FLOOR = 10_000


@dataclass
class Sample:
    """A labeled binary sample entering the test battery."""

    series: TimeSeries
    label: str

    def __post_init__(self):
        if len(self.series) == 0:
            raise DomainError(f"sample {self.label!r} is empty")


class Verdict(enum.Enum):
    PURE = "pure"
    MIXED = "mixed"
    INCONCLUSIVE = "inconclusive"


def _finite_or_none(x):
    """An undefined (NaN) statistic as None, so serialized reports stay strict JSON."""
    return None if x is None or math.isnan(x) else x


@dataclass
class TestReport:
    """Outcome of one hypothesis test at significance ``alpha``.

    ``reject`` is derived, never stored: it is true exactly when
    ``p_value < alpha``.  ``valid`` is false when a precondition of the test
    failed (the report is then excluded from any verdict).  ``p_adjusted``
    is filled by multiple-testing correction when the report is part of a
    battery.
    """

    test_name: str
    statistic: float
    p_value: float
    alpha: float
    label: str = ""
    valid: bool = True
    note: str = ""
    p_adjusted: float = None

    @property
    def reject(self) -> bool:
        return bool(self.p_value < self.alpha)

    def to_dict(self) -> dict:
        return {
            "test": self.test_name,
            "label": self.label,
            "statistic": _finite_or_none(self.statistic),
            "p": _finite_or_none(self.p_value),
            "p_adjusted": _finite_or_none(self.p_adjusted),
            "alpha": self.alpha,
            "reject": self.reject,
            "valid": self.valid,
            "note": self.note,
        }


@dataclass
class PurityVerdict:
    """Aggregate verdict over a test battery."""

    verdict: Verdict
    reports: list
    notes: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "correction": "holm",
            "reports": [r.to_dict() for r in self.reports],
            "notes": list(self.notes),
        }


@dataclass(frozen=True)
class Reduction:
    """An intensity-reduction procedure: ``thin``, ``every_kth``, or ``prefix``."""

    kind: str
    param: float

    def __post_init__(self):
        if self.kind == "thin":
            if not 0.0 < self.param <= 1.0:
                raise DomainError("thin keep-probability must be in (0, 1],"
                                  f" got {shorten(str(self.param))}")
        elif self.kind == "every_kth":
            if int(self.param) != self.param or self.param < 1:
                raise DomainError("every_kth stride must be an integer >= 1,"
                                  f" got {shorten(str(self.param))}")
        elif self.kind == "prefix":
            if not 0.0 < self.param <= 1.0:
                raise DomainError("prefix fraction must be in (0, 1],"
                                  f" got {shorten(str(self.param))}")
        else:
            raise DomainError(f"unknown reduction kind {shorten(repr(self.kind))}")

    def __str__(self):
        if self.kind == "every_kth":
            return f"every_kth({int(self.param)})"
        return f"{self.kind}({self.param:g})"


def _reduce(values, procedure: Reduction, rng) -> np.ndarray:
    """The outcomes a reduction keeps, in order; ``thin`` draws one uniform per outcome."""
    if procedure.kind == "thin":
        return values[rng.random(len(values)) < procedure.param]
    if procedure.kind == "every_kth":
        return values[:: int(procedure.param)]
    return values[: int(procedure.param * len(values))]  # prefix


def _subensemble(values, fraction, rng: RngStream) -> np.ndarray:
    """A uniformly random subset of the stated fraction of ``values``, order preserved."""
    if not 0.0 < fraction <= 1.0:
        raise DomainError(f"fraction must be in (0, 1], got {fraction}")
    n = len(values)
    m = int(fraction * n)
    if m < RICHNESS_FLOOR:
        raise DomainError(
            f"sub-ensemble of size {m} is below the richness floor of {RICHNESS_FLOOR} outcomes"
        )
    return values[np.sort(rng.generator.permutation(n)[:m])]


#: Outcomes counted per pass of :func:`_member_counts`; a longer member is a pass of its own.
COUNT_BLOCK = 2**15


def _member_counts(arrays):
    """Length, +1 count and run count of each member, as int64 arrays.

    Nonempty members are concatenated in blocks of at most :data:`COUNT_BLOCK`
    outcomes and counted with ``np.add.reduceat`` over bool masks, so no array
    as long as the family is built.  The outcome steps summed from a member's
    start include the step into the next member, which is taken off again.
    """
    lengths = np.array([len(a) for a in arrays], dtype=np.int64)
    n_pos = np.zeros_like(lengths)
    runs = np.minimum(lengths, 1)
    members = np.flatnonzero(lengths)
    ends = np.cumsum(lengths[members])
    first = 0
    while first < len(members):
        offset = ends[first] - lengths[members[first]]
        last = max(int(np.searchsorted(ends, offset + COUNT_BLOCK, side="right")), first + 1)
        block = members[first:last]
        flat = arrays[block[0]] if len(block) == 1 else np.concatenate([arrays[i] for i in block])
        block_ends = ends[first:last] - offset
        starts = block_ends - lengths[block]
        n_pos[block] = np.add.reduceat(flat == 1, starts, dtype=np.int64)
        steps = np.zeros(len(flat), dtype=bool)
        np.not_equal(flat[1:], flat[:-1], out=steps[:-1])
        runs[block] += np.add.reduceat(steps, starts, dtype=np.int64) - steps[block_ends - 1]
        first = last
    return lengths, n_pos, runs


def _chi2_sf(x, dof) -> float:
    """Chi-square survival function ``P(X > x)`` for an integer ``dof >= 1``.

    With ``lam = x / 2`` it is the Poisson tail
    ``sum_{j < dof/2} e^-lam lam^j / j!`` for even ``dof``, and
    ``erfc(sqrt(lam)) + sum_{j < (dof-1)/2} e^-lam lam^(j+1/2) / Gamma(j+3/2)``
    for odd ``dof``.  Every term is positive, so the sum cannot cancel; each
    is formed in log space and scaled by the largest, so neither large
    ``dof`` nor far-tail ``x`` underflows before the final product.
    """
    lam = x / 2.0
    if lam <= 0.0:
        return 1.0
    half, odd = divmod(dof, 2)
    p_value = math.erfc(math.sqrt(lam)) if odd else 0.0
    if half:
        powers = np.arange(half) + 0.5 * odd
        log_terms = powers * math.log(lam) - lam - np.array([math.lgamma(a + 1.0) for a in powers])
        top = float(log_terms.max())
        p_value += math.exp(top) * float(np.sum(np.exp(log_terms - top)))
    return p_value


def _chi2_report(n_pos, n_neg, alpha) -> TestReport:
    """Chi-square homogeneity report from the members' (+1, -1) counts."""
    table = np.column_stack((n_pos, n_neg)).astype(float)
    row = table.sum(axis=1, keepdims=True)
    col = table.sum(axis=0, keepdims=True)
    expected = row * col / table.sum()
    dof = table.shape[0] - 1
    if np.any(expected == 0.0):
        return TestReport("chi2_homogeneity", math.nan, math.nan, alpha,
                          valid=False, note="expected cell count of 0; statistic undefined")
    statistic = float(np.sum((table - expected) ** 2 / expected))
    p_value = _chi2_sf(statistic, dof)
    if np.any(expected < 5.0):
        return TestReport("chi2_homogeneity", statistic, p_value, alpha,
                          valid=False, note="expected cell count below 5; approximation unreliable")
    return TestReport("chi2_homogeneity", statistic, p_value, alpha)


def _runs_report(n, n_pos, runs, alpha, label="") -> TestReport:
    """Runs test report from a member's length, +1 count and run count (Python ints)."""
    if n < 20:
        raise DomainError(f"runs test needs series length >= 20, got {n}")
    n_neg = n - n_pos
    if n_pos == 0 or n_neg == 0:
        raise DomainError("runs test is undefined for a single-symbol series")
    mu = 2.0 * n_pos * n_neg / n + 1.0
    sigma = math.sqrt(2.0 * n_pos * n_neg * (2.0 * n_pos * n_neg - n) / (n * n * (n - 1.0)))
    z = (runs - mu) / sigma
    p_value = float(math.erfc(abs(z) / math.sqrt(2.0)))
    return TestReport("runs_test", z, p_value, alpha, label, note=f"runs={runs}")


def holm_adjust(p_values) -> np.ndarray:
    """Holm step-down adjusted p-values (monotone, capped at 1).

    The ``rank``-th smallest of ``m`` p-values becomes the running maximum of
    ``(m - rank) * p`` over the ranks up to its own.
    """
    p = np.asarray(p_values, dtype=float)
    order = np.argsort(p)
    scaled = (len(p) - np.arange(len(p))) * p[order]
    adjusted = np.empty(len(p), dtype=float)
    adjusted[order] = np.minimum(np.maximum.accumulate(scaled), 1.0)
    return adjusted


def purity_verdict(base_samples, procedures, subensemble_count, alpha, *,
                   master_seed=0, subensemble_fraction=0.5,
                   power_floor=DEFAULT_POWER_FLOOR) -> PurityVerdict:
    """Run the full purity battery and aggregate a verdict.

    The family under test is the base samples, each base sample reduced by
    each procedure, and ``subensemble_count`` random sub-ensembles (drawn from
    the base samples in round-robin order at ``subensemble_fraction``).  One
    chi-square homogeneity test spans the family; a runs test probes each
    member.  Holm correction is applied across all valid reports.  Every
    member's counts come from one blocked pass (:func:`_member_counts`).

    Verdict logic: ``mixed`` if any corrected homogeneity rejection exists;
    ``pure`` if nothing rejects and the pooled base size reaches
    ``power_floor``; ``inconclusive`` otherwise (insufficient power, or
    randomness failures without distributional heterogeneity).  The whole
    battery is a pure function of (samples, procedures, master_seed, alpha).
    """
    if len(base_samples) < 2:
        raise DomainError(f"purity verdict needs at least 2 base samples, got {len(base_samples)}")
    rng = substream(master_seed, 0)
    notes = []

    # the family as parallel lists: a tuple per member would outlive the call on the tuple free list
    labels = [s.label for s in base_samples]
    arrays = [s.series.values for s in base_samples]
    named = [(procedure, str(procedure)) for procedure in procedures]
    for sample in base_samples:
        for procedure, name in named:
            label = f"{sample.label}({name})"
            reduced = _reduce(sample.series.values, procedure, rng)
            if len(reduced) == 0:
                notes.append(f"{label}: reduction emptied the sample; excluded")
                continue
            labels.append(label)
            arrays.append(reduced)
    for k in range(subensemble_count):
        parent = base_samples[k % len(base_samples)]
        label = f"{parent.label}[sub{k}]"
        try:
            arrays.append(_subensemble(parent.series.values, subensemble_fraction, rng))
        except DomainError as exc:
            notes.append(f"{label}: {exc}; excluded")
            continue
        labels.append(label)

    lengths, n_pos, runs = _member_counts(arrays)
    reports = [_chi2_report(n_pos, lengths - n_pos, alpha)]
    reports[0].label = "family"
    for label, n, pos, r in zip(labels, lengths.tolist(), n_pos.tolist(), runs.tolist()):
        try:
            reports.append(_runs_report(n, pos, r, alpha, label))
        except DomainError as exc:
            reports.append(TestReport("runs_test", math.nan, math.nan, alpha, label,
                                      valid=False, note=str(exc)))
            notes.append(f"{label}: runs test invalid ({exc})")

    valid = [r for r in reports if r.valid]
    if valid:
        adjusted = holm_adjust([r.p_value for r in valid])
        for report, p_adj in zip(valid, adjusted):
            report.p_adjusted = float(p_adj)

    homogeneity_reject = any(
        r.valid and r.test_name == "chi2_homogeneity" and r.p_adjusted < alpha for r in valid
    )
    any_reject = any(r.p_adjusted < alpha for r in valid)
    total_base = sum(len(s.series) for s in base_samples)
    if homogeneity_reject:
        verdict = Verdict.MIXED
    elif not any_reject and total_base >= power_floor and valid:
        verdict = Verdict.PURE
    else:
        verdict = Verdict.INCONCLUSIVE
        if total_base < power_floor:
            notes.append(
                f"total base size {total_base} below power floor {power_floor}; cannot certify purity"
            )
    return PurityVerdict(verdict, reports, notes)
