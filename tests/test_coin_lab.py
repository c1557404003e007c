import math

import numpy as np
import pytest

import oracles
import spcelab.coin_lab
from spcelab.coin_lab import (
    OutcomeLaw,
    TimeSeries,
    UrnState,
    read_timeseries_jsonl,
    regenerate_series,
    remove_coins,
    sample_runs,
    timeseries_to_jsonl_lines,
    write_timeseries_jsonl,
)
from spcelab.errors import DomainError, FormatError
from spcelab.randkit import substream


class TestDevices:
    def test_d1_constant_complement(self):
        series = OutcomeLaw("device:D1", {"initial_face": "B", "n": 6}).series(substream(0, 0))
        assert oracles.outcome_string(series) == "RRRRRR"
        series = OutcomeLaw("device:D1", {"initial_face": "R", "n": 5}).series(substream(0, 0))
        assert oracles.outcome_string(series) == "BBBBB"

    def test_d2_alternating_with_random_start(self):
        seen = set()
        for seed in range(40):
            series = OutcomeLaw("device:D2", {"initial_face": "B", "n": 7}).series(substream(seed, 0))
            assert oracles.outcome_string(series) in ("BRBRBRB", "RBRBRBR")
            seen.add(oracles.outcome_string(series))
        assert seen == {"BRBRBRB", "RBRBRBR"}

    def test_d2_start_is_fair(self):
        firsts = [
            OutcomeLaw("device:D2", {"initial_face": "B", "n": 1}).series(substream(seed, 0)).values[0]
            for seed in range(400)
        ]
        n_b = sum(1 for f in firsts if f == 1)
        assert abs(n_b - 200) < 4 * math.sqrt(400 * 0.25)

    def test_run_counts(self):
        # D2 has n runs (all length 1); D1 has a single run
        d2 = OutcomeLaw("device:D2", {"initial_face": "B", "n": 100}).series(substream(5, 0)).values
        assert 1 + int(np.sum(d2[1:] != d2[:-1])) == 100
        d1 = OutcomeLaw("device:D1", {"initial_face": "B", "n": 100}).series(substream(5, 0)).values
        assert 1 + int(np.sum(d1[1:] != d1[:-1])) == 1

    def test_d3_fair_and_face_independent(self):
        n = 100_000
        series_b = OutcomeLaw("device:D3", {"initial_face": "B", "n": n}).series(substream(9, 0))
        series_r = OutcomeLaw("device:D3", {"initial_face": "R", "n": n}).series(substream(9, 0))
        np.testing.assert_array_equal(series_b.values, series_r.values)
        sigma = oracles.binomial_sigma(0.5, n)
        assert abs(oracles.fraction_b(series_b) - 0.5) < 3 * sigma


class TestDrawUrn:
    def test_exhaustion_forces_counts(self):
        law = OutcomeLaw("urn:noreplace", {"n_blue": 51, "n_red": 51, "n": 102})
        series = law.series(substream(1, 0))
        assert int(np.sum(series.values == 1)) == 51
        assert int(np.sum(series.values == -1)) == 51

    def test_step_probability_matches_urn_formula(self):
        # P(B at step k+1 | m blues so far) from 200k short draws, one stream each, small urn
        n_per_color = 3
        law = OutcomeLaw("urn:noreplace", {"n_blue": n_per_color, "n_red": n_per_color, "n": 4})
        _, kept = sample_runs(law, 33, np.arange(200_000), keep=200_000)
        blue = np.stack([series.values for series in kept]) == 1
        before = np.cumsum(blue, axis=1) - blue  # blues drawn before each step
        for k in range(blue.shape[1]):
            totals = np.bincount(before[:, k], minlength=n_per_color + 1)
            hits = np.bincount(before[:, k], weights=blue[:, k], minlength=n_per_color + 1)
            for m, total in enumerate(totals):
                if total < 500:
                    continue
                expected = float(oracles.urn_step_prob_enumerated(n_per_color, n_per_color, k, m))
                observed = hits[m] / total
                assert abs(observed - expected) < 4 * math.sqrt(max(expected * (1 - expected), 1e-9) / total)

    def test_count_pmf_matches_enumeration(self):
        law = OutcomeLaw("urn:noreplace", {"n_blue": 3, "n_red": 3, "n": 4})
        counts, _ = sample_runs(law, 8, np.arange(100_000))
        pmf = oracles.urn_count_pmf_enumerated(3, 3, 4)
        for blues, prob in pmf.items():
            observed = float(np.mean(counts == blues))
            expected = float(prob)
            assert abs(observed - expected) < 4 * oracles.binomial_sigma(expected, 100_000)

    def test_variance_structure(self):
        # dependent draws shrink the count variance far below the binomial value
        runs = 100_000
        urn = {"n_blue": 51, "n_red": 51, "n": 100}
        counts_dep, _ = sample_runs(OutcomeLaw("urn:noreplace", urn), 17, np.arange(runs))
        counts_iid, _ = sample_runs(OutcomeLaw("urn:replace", urn), 18, np.arange(runs))
        mean_h, var_h = oracles.hypergeom_count_moments(51, 51, 100)
        assert abs(counts_dep.mean() - mean_h) < 0.05
        assert abs(counts_dep.var(ddof=1) - var_h) / var_h < 0.05
        assert abs(counts_iid.var(ddof=1) - 25.0) / 25.0 < 0.05
        assert abs(counts_iid.mean() - 50.0) < 0.1

    def test_step_law_count_pmf_on_asymmetric_urn(self):
        runs = 100_000
        law = OutcomeLaw("urn:noreplace", {"n_blue": 6, "n_red": 3, "n": 5})
        counts, _ = sample_runs(law, 9, np.arange(runs))
        pmf = oracles.urn_count_pmf_enumerated(6, 3, 5)
        assert set(np.unique(counts)) <= set(pmf)
        for blues, prob in pmf.items():
            observed = float(np.mean(counts == blues))
            expected = float(prob)
            assert abs(observed - expected) < 4 * oracles.binomial_sigma(expected, runs)

    def test_batch_matches_draw_urn_distributionally(self):
        # same urn, same n: batch counts and per-run counts share moments
        law = OutcomeLaw("urn:noreplace", {"n_blue": 5, "n_red": 5, "n": 6})
        per_run = []
        rng = substream(44, 0)
        for _ in range(4000):
            series = law.series(rng)
            per_run.append(int(np.sum(series.values == 1)))
        batch, _ = sample_runs(law, 44, np.arange(1, 4001))
        assert abs(np.mean(per_run) - batch.mean()) < 0.1
        assert abs(np.var(per_run, ddof=1) - batch.var(ddof=1)) < 0.1


class TestBoxExperiments:
    @pytest.mark.parametrize(
        "box,urn,expected",
        [
            ("box:E5", (50, 50), 0.5),
            ("box:E5", (4, 6), 0.4),
            ("box:E6", (4, 6), 0.5),
        ],
    )
    def test_fraction_tracks_model(self, box, urn, expected):
        n = 100_000
        series = OutcomeLaw(box, {"n_blue": urn[0], "n_red": urn[1], "n": n}).series(substream(21, 0))
        assert abs(oracles.fraction_b(series) - expected) < 3 * oracles.binomial_sigma(expected, n)

    def test_e5_e6_indistinguishable_at_even_composition(self):
        n = 10_000
        rejections = 0
        reps = 200
        for seed in range(reps):
            e5 = OutcomeLaw("box:E5", {"n_blue": 50, "n_red": 50, "n": n}).series(substream(seed, 1))
            e6 = OutcomeLaw("box:E6", {"n_blue": 50, "n_red": 50, "n": n}).series(substream(seed, 2))
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
        params = {"n_blue": urn.n_blue, "n_red": urn.n_red, "n": n}
        e5 = OutcomeLaw("box:E5", params).series(substream(3, 1))
        e6 = OutcomeLaw("box:E6", params).series(substream(3, 2))
        p_mixed = urn.n_blue / urn.total
        assert abs(oracles.fraction_b(e5) - p_mixed) < 3 * oracles.binomial_sigma(max(p_mixed, 0.01), n)
        assert abs(oracles.fraction_b(e6) - 0.5) < 3 * oracles.binomial_sigma(0.5, n)


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
        params = {"n_blue": urn.n_blue, "n_red": urn.n_red, "n": 1000}
        series = OutcomeLaw("box:E5", params).series(substream(0, 1))
        assert oracles.fraction_b(series) == 1.0

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


class TestOutcomeLaw:
    @pytest.mark.parametrize("generator_id,params,message", [
        ("device:D3", {"initial_face": "B", "n": 0}, "trial count must be >= 1, got 0"),
        ("urn:noreplace", {"n_blue": 3, "n_red": 3, "n": 7},
         "cannot draw 7 coins without replacement from 6"),
        ("box:E6", {"n_blue": 0, "n_red": 0, "n": 10}, "box experiment requires a non-empty urn"),
        ("urn:replace", {"n_blue": 0, "n_red": 0, "n": 10}, "cannot draw from an empty urn"),
        ("urn:replace", {"n_blue": 2, "n_red": 2, "n": -1}, "draw count must be >= 0, got -1"),
        ("device:D4", {"initial_face": "B", "n": 5}, "unknown generator_id 'device:D4'"),
        (["box:E5"], {"n_blue": 5, "n_red": 5, "n": 5}, r"unknown generator_id \['box:E5'\]"),
        ("box:E5", {"n_blue": 5, "n": 5}, "box:E5 needs params n_blue, n_red, n"),
        ("urn:noreplace", {"n_blue": -1, "n_red": 5, "n": 2}, r"urn counts must be non-negative"),
        ("device:D1", {"initial_face": "G", "n": 5}, "'initial_face' must be 'B' or 'R', got 'G'"),
        ("box:E5", {"n_blue": 5, "n_red": 5, "n": 5.0}, "param 'n' must be an integer, got 5.0"),
    ], ids=["zero-trials", "overdraw", "empty-box", "empty-urn", "negative-draws",
            "unknown-generator", "list-generator", "missing-param", "negative-counts", "bad-face", "float-count"])
    def test_bad_header_rejected(self, generator_id, params, message):
        with pytest.raises(DomainError, match=message):
            OutcomeLaw(generator_id, params)
        meta = {"master_seed": 0, "stream_id": 0, "generator_id": generator_id, "params": params}
        with pytest.raises(DomainError, match=message):
            regenerate_series(meta)

    @pytest.mark.parametrize("key", [{"master_seed": True, "stream_id": 0},
                                     {"master_seed": 1, "stream_id": False}])
    def test_bool_stream_key_rejected(self, key):
        meta = {**key, "generator_id": "device:D3", "params": {"initial_face": "B", "n": 5}}
        with pytest.raises(DomainError, match="must be an integer, got bool"):
            regenerate_series(meta)

    def test_keeps_only_the_params_it_reads(self):
        law = OutcomeLaw("device:D2", {"initial_face": "R", "n": 3, "n_blue": 4, "n_red": 1})
        assert law.params == {"initial_face": "R", "n": 3}
        assert law.series(substream(1, 2)).meta["params"] == {"initial_face": "R", "n": 3}


class TestSampleRuns:
    LAWS = [
        OutcomeLaw("device:D1", {"initial_face": "R", "n": 7}),
        OutcomeLaw("device:D2", {"initial_face": "B", "n": 7}),
        OutcomeLaw("device:D3", {"initial_face": "B", "n": 7}),
        OutcomeLaw("urn:noreplace", {"n_blue": 4, "n_red": 3, "n": 7}),
        OutcomeLaw("urn:replace", {"n_blue": 4, "n_red": 3, "n": 9}),
        OutcomeLaw("box:E5", {"n_blue": 2, "n_red": 5, "n": 7}),
        OutcomeLaw("box:E6", {"n_blue": 2, "n_red": 5, "n": 7}),
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
        _, kept = sample_runs(OutcomeLaw("urn:noreplace", {"n_blue": 5, "n_red": 4, "n": 8}), 3, [7, 8, 9],
                               keep=5)
        assert [s.meta["stream_id"] for s in kept] == [7, 8, 9]
        for series in kept:
            np.testing.assert_array_equal(regenerate_series(series.meta).values, series.values)


class TestSeriesRoundTrip:
    def test_jsonl_round_trip(self, tmp_path):
        series = OutcomeLaw("device:D3", {"initial_face": "B", "n": 50}).series(substream(77, 3))
        path = tmp_path / "series.jsonl"
        write_timeseries_jsonl([series], path)
        loaded = read_timeseries_jsonl(path)
        assert len(loaded) == 1
        np.testing.assert_array_equal(loaded[0].values, series.values)
        assert loaded[0].meta["master_seed"] == 77
        assert loaded[0].meta["generator_id"] == "device:D3"

    def test_multiple_series_per_file(self, tmp_path):
        a = OutcomeLaw("device:D3", {"initial_face": "B", "n": 30}).series(substream(1, 0))
        b = OutcomeLaw("urn:noreplace", {"n_blue": 5, "n_red": 5, "n": 8}).series(substream(1, 1))
        path = tmp_path / "two.jsonl"
        write_timeseries_jsonl([a, b], path)
        loaded = read_timeseries_jsonl(path)
        assert [len(s) for s in loaded] == [30, 8]

    def test_metadata_regenerates_bit_exactly(self):
        for series in (
            OutcomeLaw("device:D2", {"initial_face": "R", "n": 25}).series(substream(5, 2)),
            OutcomeLaw("urn:noreplace", {"n_blue": 7, "n_red": 3, "n": 9}).series(substream(6, 1)),
            OutcomeLaw("box:E5", {"n_blue": 4, "n_red": 6, "n": 40}).series(substream(8, 4)),
        ):
            regenerated = regenerate_series(series.meta)
            np.testing.assert_array_equal(regenerated.values, series.values)

    def test_truncated_file_raises_with_line_number(self, tmp_path):
        series = OutcomeLaw("device:D3", {"initial_face": "B", "n": 10}).series(substream(0, 0))
        lines = list(timeseries_to_jsonl_lines(series))
        path = tmp_path / "bad.jsonl"
        path.write_text("\n".join(lines[:-2]) + "\n")
        # the header and 8 of 10 records fill lines 1-9; the reader reports the end of file
        with pytest.raises(FormatError, match="line 10: series declared n=10 but 8 records found"):
            read_timeseries_jsonl(path)

    def test_garbage_line_raises_with_line_number(self, tmp_path):
        path = tmp_path / "garbage.jsonl"
        path.write_text('{"kind": "header", "n": 1}\nnot json\n')
        with pytest.raises(FormatError, match="line 2"):
            read_timeseries_jsonl(path)

    def test_values_validated(self):
        with pytest.raises(DomainError):
            TimeSeries(np.array([1, 0, -1]))

    @pytest.mark.parametrize("values", [[1.9, -1.2, 1.0], np.array([True, True]), [1, -1, 257]],
                             ids=["fractional", "bool", "wraps-in-int8"])
    def test_values_checked_before_the_int8_cast(self, values):
        with pytest.raises(DomainError, match=r"\+1 or -1"):
            TimeSeries(values)
        assert TimeSeries([1.0, -1.0, 1]).values.tolist() == [1, -1, 1]

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
    def test_urn_counts_validated(self):
        with pytest.raises(DomainError):
            UrnState(-1, 5)
