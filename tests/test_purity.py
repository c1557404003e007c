import math

import numpy as np
import pytest
from scipy import stats as scipy_stats

import oracles
from spcelab.coin_lab import OutcomeLaw, TimeSeries
from spcelab import purity
from spcelab.errors import DomainError
from spcelab.purity import (
    COUNT_BLOCK,
    DEFAULT_POWER_FLOOR,
    _chi2_report,
    _chi2_sf,
    _member_counts,
    _reduce,
    _runs_report,
    _subensemble,
    Reduction,
    Sample,
    TestReport as HypothesisTestReport,
    Verdict,
    holm_adjust,
    purity_verdict,
)
from spcelab.randkit import substream


def fair_series(n, seed, stream=0):
    return OutcomeLaw("device:D3", {"initial_face": "B", "n": n}).series(substream(seed, stream))


def series_from_count(n_blue, n_total):
    return TimeSeries(np.repeat(np.array([1, -1], dtype=np.int8), [n_blue, n_total - n_blue]))


def battery_chi2(series_list, alpha):
    """The battery's family chi-square report over the given series."""
    lengths, n_pos, _ = _member_counts([s.values for s in series_list])
    return _chi2_report(n_pos, lengths - n_pos, alpha)


def battery_runs(series, alpha):
    """The battery's runs-test report of one series."""
    (n,), (n_pos,), (runs,) = _member_counts([series.values])
    return _runs_report(int(n), int(n_pos), int(runs), alpha)


class TestReduceIntensity:
    def test_thin_full_keep_is_identity(self):
        series = fair_series(200, 1)
        reduced = _reduce(series.values, Reduction("thin", 1.0), substream(1, 1))
        np.testing.assert_array_equal(reduced, series.values)

    def test_every_kth_selects_congruent_indices(self):
        series = TimeSeries(np.array([1, -1, 1, -1, 1, -1], dtype=np.int8))  # BRBRBR
        reduced = _reduce(series.values, Reduction("every_kth", 2), None)
        assert oracles.outcome_string(TimeSeries(reduced)) == "BBB"

    def test_prefix_keeps_leading_fraction(self):
        series = TimeSeries(np.array([1, 1, -1, -1], dtype=np.int8))
        reduced = _reduce(series.values, Reduction("prefix", 0.5), None)
        np.testing.assert_array_equal(reduced, [1, 1])

    def test_thin_length_is_binomial(self):
        n = 100_000
        reduced = _reduce(fair_series(n, 2).values, Reduction("thin", 0.5), substream(2, 1))
        assert abs(len(reduced) - 50_000) < 3 * math.sqrt(n * 0.25)

    def test_parameter_validation(self):
        with pytest.raises(DomainError):
            Reduction("thin", 0.0)
        with pytest.raises(DomainError):
            Reduction("thin", 1.5)
        with pytest.raises(DomainError):
            Reduction("every_kth", 0)
        with pytest.raises(DomainError):
            Reduction("prefix", -0.1)
        with pytest.raises(DomainError):
            Reduction("decimate", 2)

    def test_thinned_fair_stream_stays_fair(self):
        # thin output must be i.i.d. with the parent's success probability:
        # chi-square against an independent fair series calibrates to alpha
        rejections = 0
        reps = 400
        for seed in range(reps):
            thinned = _reduce(fair_series(20_000, seed, 0).values, Reduction("thin", 0.5),
                              substream(seed, 1))
            fresh = fair_series(len(thinned), seed, 2)
            if battery_chi2([TimeSeries(thinned), fresh], 0.05).reject:
                rejections += 1
        assert 8 <= rejections <= 36  # 400 * 0.05 = 20, binomial sd ~ 4.4


class TestRandomSubensemble:
    def test_full_fraction_is_identity(self):
        series = fair_series(100, 3)
        sub = _subensemble(series.values, 1.0, substream(3, 1))
        np.testing.assert_array_equal(sub, series.values)

    def test_half_fraction_size(self):
        assert len(_subensemble(fair_series(100, 4).values, 0.5, substream(4, 1))) == 50

    def test_order_preserved(self):
        series = TimeSeries(np.array([1] * 30 + [-1] * 30, dtype=np.int8))
        sub = _subensemble(series.values, 0.5, substream(5, 1))
        # blues all precede reds in the parent, so any ordered subset does too
        changes = np.sum(sub[1:] != sub[:-1])
        assert changes <= 1

    def test_fraction_tracks_parent(self):
        parent = OutcomeLaw("box:E6", {"n_blue": 50, "n_red": 50, "n": 10_000}).series(substream(6, 0))
        sub = TimeSeries(_subensemble(parent.values, 0.4, substream(6, 1)))
        m, n = len(sub), len(parent)
        p = oracles.fraction_b(parent)
        sigma = math.sqrt(p * (1 - p) * (n - m) / ((n - 1) * m))
        assert abs(oracles.fraction_b(sub) - p) < 4 * sigma

    def test_richness_floor_named_in_error(self):
        with pytest.raises(DomainError, match="richness floor"):
            _subensemble(fair_series(30, 7).values, 0.5, substream(7, 1))

    def test_fraction_validated(self):
        with pytest.raises(DomainError):
            _subensemble(fair_series(100, 8).values, 0.0, substream(8, 1))


class TestChi2Homogeneity:
    def test_identical_counts_give_zero_statistic(self):
        report = battery_chi2([series_from_count(50, 100), series_from_count(50, 100)], 0.05)
        assert report.statistic == 0.0
        assert report.p_value == 1.0
        assert not report.reject

    def test_matches_scipy_contingency(self):
        samples = [series_from_count(48, 100), series_from_count(55, 100), series_from_count(60, 120)]
        report = battery_chi2(samples, 0.05)
        table = np.array([[48, 52], [55, 45], [60, 60]])
        expected = scipy_stats.chi2_contingency(table, correction=False)
        assert report.statistic == pytest.approx(expected.statistic)
        assert report.p_value == pytest.approx(expected.pvalue)

    def test_size_calibration_under_null(self):
        gen = substream(2025, 0)
        reps, n, k = 1000, 10_000, 10
        counts = gen.generator.binomial(n, 0.5, size=(reps, k))
        rejections = sum(
            battery_chi2([series_from_count(c, n) for c in row], 0.05).reject
            for row in counts
        )
        sigma = math.sqrt(reps * 0.05 * 0.95)
        assert abs(rejections - 0.05 * reps) < 3 * sigma

    def test_power_against_composition_shift(self):
        e5_even = OutcomeLaw("box:E5", {"n_blue": 50, "n_red": 50, "n": 10_000}).series(substream(9, 0))
        e5_skew = OutcomeLaw("box:E5", {"n_blue": 4, "n_red": 6, "n": 10_000}).series(substream(9, 1))
        report = battery_chi2([e5_even, e5_skew], 0.05)
        assert report.reject
        assert report.p_value < 1e-6

    def test_low_expected_counts_flagged_invalid(self):
        report = battery_chi2([series_from_count(1, 6), series_from_count(2, 6)], 0.05)
        assert not report.valid
        assert "below 5" in report.note

    def test_zero_expected_counts_flagged_invalid(self):
        report = battery_chi2([series_from_count(6, 6), series_from_count(6, 6)], 0.05)
        assert not report.valid
        assert math.isnan(report.statistic)
        assert not report.reject


class TestChi2Sf:
    @pytest.mark.parametrize("dof", [*range(1, 61), 999, 1000, 3009, 3010, 5000])
    def test_matches_scipy(self, dof):
        mean, sd = dof, math.sqrt(2 * dof)
        xs = np.concatenate([[0.0], mean + sd * np.linspace(-6, 6, 25),
                             mean + sd * np.geomspace(8, 1e4, 80)])
        smallest = 1.0
        for x in xs[xs >= 0]:
            expected = scipy_stats.chi2.sf(x, dof)
            if expected > 1e-300:
                assert _chi2_sf(float(x), dof) == pytest.approx(expected, rel=1e-10, abs=0), x
                smallest = min(smallest, expected)
        assert smallest < 1e-250  # the grid reached the far tail

    @pytest.mark.parametrize("x", [0.0, 1e-6, 0.3, 1.0, 5.0, 40.0, 700.0, 1300.0])
    def test_closed_forms(self, x):
        assert _chi2_sf(x, 1) == math.erfc(math.sqrt(x / 2))
        assert _chi2_sf(x, 2) == math.exp(-x / 2)


class TestKsTwoSample:
    def test_identical_samples(self):
        x = np.linspace(0.0, 1.0, 50)
        report = oracles.ks_two_sample(x, x.copy(), 0.05)
        assert report.statistic == 0.0
        assert report.p_value == 1.0

    def test_disjoint_supports(self):
        report = oracles.ks_two_sample(np.arange(30.0), np.arange(30.0) + 100.0, 0.05)
        assert report.statistic == 1.0
        assert report.reject

    def test_matches_scipy_asymptotic(self):
        gen = substream(11, 0).generator
        x = gen.normal(size=300)
        y = gen.normal(size=400) + 0.1
        report = oracles.ks_two_sample(x, y, 0.05)
        expected = scipy_stats.ks_2samp(x, y, method="asymp")
        assert report.statistic == pytest.approx(expected.statistic)
        assert report.p_value == pytest.approx(expected.pvalue, rel=1e-6)

    def test_size_calibration_under_null(self):
        gen = substream(2026, 0).generator
        reps, n = 10_000, 1000
        rejections = 0
        for _ in range(reps):
            x = gen.random(n)
            y = gen.random(n)
            if oracles.ks_two_sample(x, y, 0.05).reject:
                rejections += 1
        rate = rejections / reps
        assert abs(rate - 0.05) < 2 * math.sqrt(0.05 * 0.95 / reps)

    def test_minimum_sizes(self):
        with pytest.raises(DomainError):
            oracles.ks_two_sample(np.arange(10.0), np.arange(30.0), 0.05)


class TestRunsTest:
    def test_alternating_series_strongly_rejected(self):
        series = OutcomeLaw("device:D2", {"initial_face": "B", "n": 100}).series(substream(12, 0))
        mu, sigma = oracles.runs_moments(50, 50)
        assert (mu, sigma) == (51.0, pytest.approx(4.97468338163091))
        report = battery_runs(series, 0.01)
        assert report.statistic == pytest.approx((100 - mu) / sigma)
        assert report.statistic == pytest.approx(9.85, abs=0.01)
        assert report.p_value < 1e-15
        assert report.reject

    def test_constant_series_is_undefined(self):
        series = OutcomeLaw("device:D1", {"initial_face": "B", "n": 100}).series(substream(0, 0))
        with pytest.raises(DomainError):
            battery_runs(series, 0.05)

    def test_short_series_rejected(self):
        with pytest.raises(DomainError):
            battery_runs(TimeSeries(np.array([1, -1] * 5, dtype=np.int8)), 0.05)

    def test_moments_match_exact_enumeration(self):
        for n, n_pos in ((10, 4), (12, 6), (9, 3)):
            exact_mu, exact_sigma = oracles.runs_moments_enumerated(n, n_pos)
            mu, sigma = oracles.runs_moments(n_pos, n - n_pos)
            assert mu == pytest.approx(exact_mu, abs=1e-12)
            assert sigma == pytest.approx(exact_sigma, abs=1e-12)

    def test_size_calibration_on_fair_series(self):
        reps, n, alpha = 1000, 10_000, 0.05
        rejections = sum(
            battery_runs(fair_series(n, seed, 5), alpha).reject for seed in range(reps)
        )
        rate = rejections / reps
        assert abs(rate - alpha) < 3 * math.sqrt(alpha * (1 - alpha) / reps)


class TestHolm:
    def test_adjustment_against_hand_computation(self):
        adjusted = holm_adjust([0.01, 0.04, 0.03, 0.005])
        np.testing.assert_allclose(adjusted, [0.03, 0.06, 0.06, 0.02])

    def test_capped_and_monotone(self):
        adjusted = holm_adjust([0.9, 0.8, 0.7])
        assert np.all(adjusted <= 1.0)
        assert adjusted[0] >= adjusted[1] >= adjusted[2]

    def test_matches_running_max_loop(self):
        g = np.random.default_rng(41)
        for m in (0, 1, 2, 3, 7, 100, 3011):
            pool = np.concatenate([[0.0, 0.0, 1.0, 0.5, 1e-300], g.random(4), g.random(m)])
            p = g.choice(pool, size=m)  # ties and zeros
            assert holm_adjust(p).tobytes() == oracles.holm_loop(p).tobytes()


def e6_family(seed, runs=10, n=10_000):
    return [
        Sample(OutcomeLaw("box:E6", {"n_blue": 50, "n_red": 50, "n": n}).series(substream(seed, i + 1)), f"S{i}")
        for i in range(runs)
    ]


class TestPurityVerdict:
    def test_pure_family_passes(self):
        verdict = purity_verdict(
            e6_family(301), [Reduction("thin", 0.5)], 5, 0.05, master_seed=301
        )
        assert verdict.verdict is Verdict.PURE
        assert len(verdict.reports) == 1 + 10 + 10 + 5

    def test_perturbed_mixture_detected(self):
        samples = [
            Sample(OutcomeLaw("box:E5", {"n_blue": 50, "n_red": 50, "n": 10_000}).series(substream(17, i + 1)), f"even{i}")
            for i in range(5)
        ] + [
            Sample(OutcomeLaw("box:E5", {"n_blue": 4, "n_red": 6, "n": 10_000}).series(substream(17, i + 6)), f"skew{i}")
            for i in range(5)
        ]
        verdict = purity_verdict(samples, [Reduction("thin", 0.5)], 5, 0.05, master_seed=17)
        assert verdict.verdict is Verdict.MIXED
        chi2_report = verdict.reports[0]
        assert chi2_report.test_name == "chi2_homogeneity"
        assert chi2_report.p_adjusted < 1e-4

    def test_small_identical_pair_is_inconclusive(self):
        series = series_from_count(50, 100)
        verdict = purity_verdict(
            [Sample(series, "a"), Sample(TimeSeries(series.values.copy()), "b")],
            [], 0, 0.05, master_seed=0,
        )
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert any("power floor" in note for note in verdict.notes)

    def test_identical_distributions_never_mixed(self):
        # alternating members fail the randomness test but carry identical
        # outcome distributions: that must not be called a mixture
        base = OutcomeLaw("device:D2", {"initial_face": "B", "n": DEFAULT_POWER_FLOOR}).series(substream(13, 0))
        samples = [Sample(base, "a"), Sample(TimeSeries(base.values.copy()), "b")]
        verdict = purity_verdict(samples, [], 0, 0.05, master_seed=13)
        assert verdict.verdict is Verdict.INCONCLUSIVE
        assert verdict.reports[0].p_value == 1.0

    def test_invalid_members_are_excluded_and_noted(self):
        constant = TimeSeries(np.ones(10_000, dtype=np.int8))
        samples = [Sample(constant, "const"), Sample(fair_series(10_000, 19), "fair")]
        verdict = purity_verdict(samples, [], 0, 0.05, master_seed=19)
        invalid = [r for r in verdict.reports if not r.valid]
        assert invalid
        assert any("const" in note for note in verdict.notes)
        assert all(r.p_adjusted is None for r in invalid)

    def test_subensembles_below_floor_are_noted(self):
        samples = [Sample(fair_series(30, 23, i), f"tiny{i}") for i in range(2)]
        verdict = purity_verdict(samples, [], 2, 0.05, master_seed=23)
        assert any("richness floor" in note for note in verdict.notes)

    def test_deterministic_given_seed(self):
        samples = e6_family(29, runs=3, n=2000)
        a = purity_verdict(samples, [Reduction("every_kth", 2)], 2, 0.05, master_seed=29)
        b = purity_verdict(samples, [Reduction("every_kth", 2)], 2, 0.05, master_seed=29)
        assert a.to_dict() == b.to_dict()

    def test_report_invariant_reject_iff_p_below_alpha(self):
        verdict = purity_verdict(e6_family(31, runs=2, n=1000), [], 0, 0.05, master_seed=31)
        for report in verdict.reports:
            assert report.reject == (report.p_value < report.alpha)

    def test_empty_sample_rejected(self):
        with pytest.raises(DomainError, match="sample 'S0' is empty"):
            Sample(TimeSeries([]), "S0")

    def test_needs_two_samples(self):
        with pytest.raises(DomainError):
            purity_verdict([Sample(fair_series(100, 0), "only")], [], 0, 0.05)

    def test_verdict_serialization_schema(self):
        verdict = purity_verdict(e6_family(37, runs=2, n=1000), [], 0, 0.05, master_seed=37)
        doc = verdict.to_dict()
        assert doc["verdict"] in ("pure", "mixed", "inconclusive")
        assert doc["correction"] == "holm"
        for entry in doc["reports"]:
            assert set(entry) >= {"test", "statistic", "p", "reject", "alpha"}


class TestReportInvariant:
    def test_reject_is_derived(self):
        report = HypothesisTestReport("t", 1.0, 0.01, 0.05)
        assert report.reject
        report = HypothesisTestReport("t", 1.0, 0.5, 0.05)
        assert not report.reject
        nan_report = HypothesisTestReport("t", math.nan, math.nan, 0.05)
        assert not nan_report.reject


def random_member(g):
    """A +/-1 series that is often short (< 20) or single-symbol."""
    n = int(g.integers(1, 20)) if g.random() < 0.3 else int(g.integers(20, 400))
    p_blue = g.choice([0.0, 1.0, g.random(), g.random()])
    return np.where(g.random(n) < p_blue, 1, -1).astype(np.int8)


def random_procedure(g):
    kind = int(g.integers(3))
    if kind == 0:
        return Reduction("thin", g.choice([0.02, 0.5, 1.0]))
    if kind == 1:
        return Reduction("every_kth", int(g.integers(1, 5)))
    return Reduction("prefix", g.choice([0.01, 0.3, 1.0]))


def family_of(sizes, g):
    return [Sample(TimeSeries(np.where(g.random(n) < 0.5, 1, -1).astype(np.int8)), f"m{i}")
            for i, n in enumerate(sizes)]


#: Relative tolerance between the battery's statistics and the scipy-based oracle's, as for _chi2_sf.
ORACLE_REL = 1e-10


class TestBatteryAgainstOracle:
    """purity_verdict's reports and notes match the independent member-by-member battery.

    Statistics and p-values agree to :data:`ORACLE_REL`; labels, tests,
    validity, notes and ``reject`` (wherever p is not within that tolerance
    of alpha) agree exactly.
    """

    @staticmethod
    def battery(samples, procedures, subensembles, alpha=0.05, seed=0, fraction=0.5):
        verdict = purity_verdict(samples, procedures, subensembles, alpha, master_seed=seed,
                                 subensemble_fraction=fraction, power_floor=0)
        reports, notes = oracles.purity_reports(samples, procedures, subensembles, alpha, seed, fraction)
        assert len(verdict.reports) == len(reports)
        for mine, theirs in zip(verdict.reports, reports):
            got, want = mine.to_dict(), theirs.to_dict()
            for key in ("statistic", "p", "p_adjusted"):
                assert got.pop(key) == pytest.approx(want.pop(key), rel=ORACLE_REL, abs=0), (key, want)
            if abs(theirs.p_value - alpha) <= ORACLE_REL * alpha:  # too close to alpha to call
                del got["reject"], want["reject"]
            assert got == want
        assert verdict.notes == notes
        return notes

    @pytest.mark.parametrize("block", [7, 64, COUNT_BLOCK])
    def test_random_families(self, monkeypatch, block):
        monkeypatch.setattr(purity, "COUNT_BLOCK", block)
        seen = set()
        for seed in range(40):
            g = np.random.default_rng(seed)
            samples = [Sample(TimeSeries(random_member(g)), f"s{i}") for i in range(int(g.integers(2, 6)))]
            procedures = [random_procedure(g) for _ in range(int(g.integers(0, 4)))]
            notes = self.battery(samples, procedures, int(g.integers(0, 6)), g.choice([0.01, 0.05, 0.5]),
                                 int(g.integers(2**63)), g.choice([0.05, 0.5, 1.0]))
            for needle in ("length >= 20", "single-symbol", "emptied", "richness floor"):
                seen.update(needle for note in notes if needle in note)
        assert seen == {"length >= 20", "single-symbol", "emptied", "richness floor"}

    @pytest.mark.parametrize("edge", [-1, 0, 1])
    @pytest.mark.parametrize("tail", [[], [300, 77, 41]])
    def test_family_at_a_block_edge(self, edge, tail):
        g = np.random.default_rng(edge + 2)
        head = [COUNT_BLOCK // 3, COUNT_BLOCK - COUNT_BLOCK // 3 - sum(tail[:1]) + edge]
        samples = family_of(head + tail, g)
        assert sum(len(s.series) for s in samples[:len(head) + 1]) == COUNT_BLOCK + edge
        self.battery(samples, [], 0)
        self.battery(samples, [Reduction("every_kth", 1), Reduction("thin", 0.5)], 4, seed=edge + 9)

    def test_member_longer_than_a_block(self):
        samples = family_of([500, 3 * COUNT_BLOCK + 5, 700], np.random.default_rng(11))
        self.battery(samples, [Reduction("thin", 0.5), Reduction("every_kth", 3)], 3, seed=12)

    @pytest.mark.parametrize("block", [1, 5, COUNT_BLOCK])
    def test_member_counts_match_per_member_sums(self, monkeypatch, block):
        monkeypatch.setattr(purity, "COUNT_BLOCK", block)
        g = np.random.default_rng(13)
        arrays = [random_member(g) for _ in range(60)] + [np.array([], dtype=np.int8)]
        arrays[7] = arrays[30] = np.array([], dtype=np.int8)
        arrays[40] = family_of([2 * COUNT_BLOCK + 3], g)[0].series.values
        lengths, n_pos, runs = _member_counts(arrays)
        assert lengths.tolist() == [len(a) for a in arrays]
        assert n_pos.tolist() == [int(np.sum(a == 1)) for a in arrays]
        assert runs.tolist() == [1 + int(np.sum(a[1:] != a[:-1])) if len(a) else 0 for a in arrays]
