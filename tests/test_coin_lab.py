import math

import numpy as np
import pytest

import oracles
import spcelab.coin_lab
from spcelab.coin_lab import (
    BoxKind,
    CoinFace,
    DeviceKind,
    TimeSeries,
    UrnState,
    box_law,
    device_law,
    draw_urn,
    read_timeseries_jsonl,
    regenerate_series,
    remove_coins,
    run_box_experiment,
    run_device,
    sample_runs,
    urn_law,
    write_timeseries_jsonl,
)
from spcelab.errors import DomainError, FormatError
from spcelab.randkit import substream


class TestDevices:
    def test_d1_constant_complement(self):
        series = run_device(DeviceKind.D1_FLIP, CoinFace.B, 6, substream(0, 0))
        assert series.as_string() == "RRRRRR"
        series = run_device(DeviceKind.D1_FLIP, CoinFace.R, 5, substream(0, 0))
        assert series.as_string() == "BBBBB"

    def test_d2_alternating_with_random_start(self):
        seen = set()
        for seed in range(40):
            series = run_device(DeviceKind.D2_ALTERNATING, CoinFace.B, 7, substream(seed, 0))
            assert series.as_string() in ("BRBRBRB", "RBRBRBR")
            seen.add(series.as_string())
        assert seen == {"BRBRBRB", "RBRBRBR"}

    def test_d2_start_is_fair(self):
        firsts = [
            run_device(DeviceKind.D2_ALTERNATING, CoinFace.B, 1, substream(seed, 0)).values[0]
            for seed in range(400)
        ]
        n_b = sum(1 for f in firsts if f == 1)
        assert abs(n_b - 200) < 4 * math.sqrt(400 * 0.25)

    def test_run_counts(self):
        # D2 has n runs (all length 1); D1 has a single run
        d2 = run_device(DeviceKind.D2_ALTERNATING, CoinFace.B, 100, substream(5, 0)).values
        assert 1 + int(np.sum(d2[1:] != d2[:-1])) == 100
        d1 = run_device(DeviceKind.D1_FLIP, CoinFace.B, 100, substream(5, 0)).values
        assert 1 + int(np.sum(d1[1:] != d1[:-1])) == 1

    def test_d3_fair_and_face_independent(self):
        n = 100_000
        series_b = run_device(DeviceKind.D3_BERNOULLI, CoinFace.B, n, substream(9, 0))
        series_r = run_device(DeviceKind.D3_BERNOULLI, CoinFace.R, n, substream(9, 0))
        np.testing.assert_array_equal(series_b.values, series_r.values)
        sigma = oracles.binomial_sigma(0.5, n)
        assert abs(series_b.fraction_b - 0.5) < 3 * sigma

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            run_device(DeviceKind.D3_BERNOULLI, CoinFace.B, 0, substream(0, 0))


class TestDrawUrn:
    def test_exhaustion_forces_counts(self):
        series, post = draw_urn(UrnState(51, 51), 102, False, substream(1, 0))
        assert int(np.sum(series.values == 1)) == 51
        assert (post.n_blue, post.n_red) == (0, 0)

    def test_overdraw_rejected(self):
        with pytest.raises(DomainError):
            draw_urn(UrnState(3, 3), 7, False, substream(0, 0))

    def test_with_replacement_restores_urn(self):
        urn = UrnState(51, 51)
        _, post = draw_urn(urn, 200, True, substream(2, 0))
        assert post == urn

    def test_step_probability_matches_urn_formula(self):
        # P(B at step k+1 | m blues so far) from 200k short draws, small urn
        n_per_color = 3
        hits = {}
        totals = {}
        rng = substream(33, 0)
        for _ in range(200_000):
            series, _ = draw_urn(UrnState(n_per_color, n_per_color), 4, False, rng)
            m = 0
            for k, v in enumerate(series.values):
                key = (k, m)
                totals[key] = totals.get(key, 0) + 1
                if v == 1:
                    hits[key] = hits.get(key, 0) + 1
                    m += 1
        for (k, m), total in totals.items():
            if total < 500:
                continue
            expected = float(oracles.urn_step_prob_enumerated(n_per_color, n_per_color, k, m))
            observed = hits.get((k, m), 0) / total
            assert abs(observed - expected) < 4 * math.sqrt(max(expected * (1 - expected), 1e-9) / total)

    def test_count_pmf_matches_enumeration(self):
        counts, _ = sample_runs(urn_law(UrnState(3, 3), 4, False), 8, np.arange(100_000))
        pmf = oracles.urn_count_pmf_enumerated(3, 3, 4)
        for blues, prob in pmf.items():
            observed = float(np.mean(counts == blues))
            expected = float(prob)
            assert abs(observed - expected) < 4 * oracles.binomial_sigma(expected, 100_000)

    def test_variance_structure(self):
        # dependent draws shrink the count variance far below the binomial value
        runs = 100_000
        counts_dep, _ = sample_runs(urn_law(UrnState(51, 51), 100, False), 17, np.arange(runs))
        counts_iid, _ = sample_runs(urn_law(UrnState(51, 51), 100, True), 18, np.arange(runs))
        mean_h, var_h = oracles.hypergeom_count_moments(51, 51, 100)
        assert abs(counts_dep.mean() - mean_h) < 0.05
        assert abs(counts_dep.var(ddof=1) - var_h) / var_h < 0.05
        assert abs(counts_iid.var(ddof=1) - 25.0) / 25.0 < 0.05
        assert abs(counts_iid.mean() - 50.0) < 0.1

    def test_step_law_count_pmf_on_asymmetric_urn(self):
        runs = 100_000
        counts, _ = sample_runs(urn_law(UrnState(6, 3), 5, False), 9, np.arange(runs))
        pmf = oracles.urn_count_pmf_enumerated(6, 3, 5)
        assert set(np.unique(counts)) <= set(pmf)
        for blues, prob in pmf.items():
            observed = float(np.mean(counts == blues))
            expected = float(prob)
            assert abs(observed - expected) < 4 * oracles.binomial_sigma(expected, runs)

    def test_batch_matches_draw_urn_distributionally(self):
        # same urn, same n: batch counts and per-run counts share moments
        per_run = []
        rng = substream(44, 0)
        for _ in range(4000):
            series, _ = draw_urn(UrnState(5, 5), 6, False, rng)
            per_run.append(int(np.sum(series.values == 1)))
        batch, _ = sample_runs(urn_law(UrnState(5, 5), 6, False), 44, np.arange(1, 4001))
        assert abs(np.mean(per_run) - batch.mean()) < 0.1
        assert abs(np.var(per_run, ddof=1) - batch.var(ddof=1)) < 0.1


class TestBoxExperiments:
    @pytest.mark.parametrize(
        "box,urn,expected",
        [
            (BoxKind.MIXED_E5, UrnState(50, 50), 0.5),
            (BoxKind.MIXED_E5, UrnState(4, 6), 0.4),
            (BoxKind.PURE_E6, UrnState(4, 6), 0.5),
        ],
    )
    def test_fraction_tracks_model(self, box, urn, expected):
        n = 100_000
        series = run_box_experiment(box, urn, n, substream(21, 0))
        assert abs(series.fraction_b - expected) < 3 * oracles.binomial_sigma(expected, n)

    def test_e5_e6_indistinguishable_at_even_composition(self):
        n = 10_000
        rejections = 0
        reps = 200
        for seed in range(reps):
            e5 = run_box_experiment(BoxKind.MIXED_E5, UrnState(50, 50), n, substream(seed, 1))
            e6 = run_box_experiment(BoxKind.PURE_E6, UrnState(50, 50), n, substream(seed, 2))
            z = oracles.two_proportion_z(
                int(np.sum(e5.values == 1)), n, int(np.sum(e6.values == 1)), n
            )
            if abs(z) > 1.959964:
                rejections += 1
        assert 2 <= rejections <= 20  # ~5% of 200, generous band

    def test_removal_discriminates_mixed_from_pure(self):
        urn = remove_coins(UrnState(50, 50), 90, substream(3, 0))
        assert urn.total == 10
        n = 100_000
        e5 = run_box_experiment(BoxKind.MIXED_E5, urn, n, substream(3, 1))
        e6 = run_box_experiment(BoxKind.PURE_E6, urn, n, substream(3, 2))
        p_mixed = urn.n_blue / urn.total
        assert abs(e5.fraction_b - p_mixed) < 3 * oracles.binomial_sigma(max(p_mixed, 0.01), n)
        assert abs(e6.fraction_b - 0.5) < 3 * oracles.binomial_sigma(0.5, n)

    def test_empty_urn_rejected(self):
        with pytest.raises(DomainError):
            run_box_experiment(BoxKind.PURE_E6, UrnState(0, 0), 10, substream(0, 0))


class TestRemoveCoins:
    def test_full_removal(self):
        assert remove_coins(UrnState(50, 50), 100, substream(0, 0)) == UrnState(0, 0)

    def test_removal_mean_matches_hypergeometric(self):
        remaining = [
            remove_coins(UrnState(50, 50), 90, substream(seed, 0)).n_blue
            for seed in range(4000)
        ]
        mean_removed, var_removed = oracles.hypergeom_count_moments(50, 50, 90)
        expected_remaining = 50 - mean_removed
        assert expected_remaining == pytest.approx(5.0)
        stderr = math.sqrt(var_removed / 4000)
        assert abs(np.mean(remaining) - expected_remaining) < 4 * stderr

    def test_noop_removal_and_certain_outcome(self):
        urn = remove_coins(UrnState(1, 0), 0, substream(0, 0))
        assert urn == UrnState(1, 0)
        series = run_box_experiment(BoxKind.MIXED_E5, urn, 1000, substream(0, 1))
        assert series.fraction_b == 1.0

    def test_blue_removed_matches_hypergeometric_pmf(self):
        seeds = 20_000
        removed = np.array([7 - remove_coins(UrnState(7, 5), 6, substream(seed, 0)).n_blue
                            for seed in range(seeds)])
        # the closed form against enumeration where enumeration is cheap
        assert oracles.hypergeom_count_pmf(4, 3, 3) == oracles.urn_count_pmf_enumerated(4, 3, 3)
        pmf = oracles.hypergeom_count_pmf(7, 5, 6)
        assert set(np.unique(removed)) <= set(pmf)
        for blues, prob in pmf.items():
            observed = float(np.mean(removed == blues))
            expected = float(prob)
            assert abs(observed - expected) < 4 * oracles.binomial_sigma(expected, seeds)

    def test_overremoval_rejected(self):
        with pytest.raises(DomainError):
            remove_coins(UrnState(2, 2), 5, substream(0, 0))


class TestSampleRuns:
    LAWS = [
        device_law(DeviceKind.D1_FLIP, CoinFace.R, 7),
        device_law(DeviceKind.D2_ALTERNATING, CoinFace.B, 7),
        device_law(DeviceKind.D3_BERNOULLI, CoinFace.B, 7),
        urn_law(UrnState(4, 3), 7, False),
        urn_law(UrnState(4, 3), 9, True),
        box_law(BoxKind.MIXED_E5, UrnState(2, 5), 7),
        box_law(BoxKind.PURE_E6, UrnState(2, 5), 7),
    ]

    @pytest.mark.parametrize("law", LAWS, ids=lambda law: law.generator_id)
    def test_runs_match_scalar_streams_across_chunks(self, law, monkeypatch):
        # 20 uniforms per pass hold two runs of 7 to 9 trials; 53 runs is not a multiple of two
        monkeypatch.setattr(spcelab.coin_lab, "BATCH_UNIFORMS", 20)
        ids = np.arange(100, 153, dtype=np.uint64)
        counts, kept = sample_runs(law, 2**64 - 1, ids, keep=45)
        assert len(counts) == 53 and len(kept) == 45
        for i, sid in enumerate(ids):
            series = law.series(substream(2**64 - 1, int(sid)))
            assert counts[i] == int(np.sum(series.values == 1))
            if i < len(kept):
                np.testing.assert_array_equal(kept[i].values, series.values)
                assert kept[i].meta == series.meta

    def test_kept_series_regenerate(self):
        _, kept = sample_runs(urn_law(UrnState(5, 4), 8, False), 3, [7, 8, 9], keep=5)
        assert [s.meta["stream_id"] for s in kept] == [7, 8, 9]
        for series in kept:
            np.testing.assert_array_equal(regenerate_series(series.meta).values, series.values)


class TestSeriesRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        series = run_device(DeviceKind.D3_BERNOULLI, CoinFace.B, 50, substream(77, 3))
        path = tmp_path / "series.jsonl"
        write_timeseries_jsonl(series, path)
        loaded = read_timeseries_jsonl(path)
        assert len(loaded) == 1
        np.testing.assert_array_equal(loaded[0].values, series.values)
        assert loaded[0].meta["master_seed"] == 77
        assert loaded[0].meta["generator_id"] == "device:D3"

    def test_multiple_series_per_file(self, tmp_path):
        a = run_device(DeviceKind.D3_BERNOULLI, CoinFace.B, 30, substream(1, 0))
        b, _ = draw_urn(UrnState(5, 5), 8, False, substream(1, 1))
        path = tmp_path / "two.jsonl"
        write_timeseries_jsonl([a, b], path)
        loaded = read_timeseries_jsonl(path)
        assert [len(s) for s in loaded] == [30, 8]

    def test_metadata_regenerates_bit_exactly(self):
        for series in (
            run_device(DeviceKind.D2_ALTERNATING, CoinFace.R, 25, substream(5, 2)),
            draw_urn(UrnState(7, 3), 9, False, substream(6, 1))[0],
            run_box_experiment(BoxKind.MIXED_E5, UrnState(4, 6), 40, substream(8, 4)),
        ):
            regenerated = regenerate_series(series.meta)
            np.testing.assert_array_equal(regenerated.values, series.values)

    def test_truncated_file_raises_with_line_number(self, tmp_path):
        series = run_device(DeviceKind.D3_BERNOULLI, CoinFace.B, 10, substream(0, 0))
        lines = list(__import__("spcelab.coin_lab", fromlist=["x"]).timeseries_to_jsonl_lines(series))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(FormatError):
            read_timeseries_jsonl(path)

    def test_garbage_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"kind": "header", "n": 1}\nnot json\n')
        with pytest.raises(FormatError, match="line 2"):
            read_timeseries_jsonl(path)

    def test_values_validated(self):
        with pytest.raises(DomainError):
            TimeSeries(np.array([1, 0, -1]))

    def test_index_gap_raises_with_line_number(self, tmp_path):
        path = tmp_path / "gap.jsonl"
        path.write_text(
            '{"kind": "header", "n": 2}\n'
            '{"index": 0, "outcome": 1, "generator_id": ""}\n'
            '{"index": 3, "outcome": 1, "generator_id": ""}\n'
        )
        with pytest.raises(FormatError, match="line 3"):
            read_timeseries_jsonl(path)


class TestEnums:
    def test_face_complement(self):
        assert CoinFace.B.complement is CoinFace.R
        assert CoinFace.R.complement is CoinFace.B
        assert CoinFace.B.value == 1 and CoinFace.R.value == -1

    def test_urn_counts_validated(self):
        with pytest.raises(DomainError):
            UrnState(-1, 5)
