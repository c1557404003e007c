import math

import numpy as np
import pytest

import oracles
from spcelab import randkit
from spcelab.errors import DomainError
from spcelab.purity import runs_test
from spcelab.randkit import (
    BLOCK_ROWS,
    CapSpec,
    Direction,
    sample_cap,
    stream_blocks,
    stream_uniforms,
    substream,
)

Z = Direction(0.0, 0.0, 1.0)


class TestStreams:
    def test_same_key_same_sequence(self):
        a = substream(42, 0).random(100)
        b = substream(42, 0).random(100)
        np.testing.assert_array_equal(a, b)

    def test_distinct_stream_ids_differ(self):
        assert substream(42, 0).random() != substream(42, 1).random()

    def test_sequence_independent_of_other_streams(self):
        # simulating 1 vs 8 workers: stream (42, 7) must not care who else draws
        solo = substream(42, 7).random(50)
        workers = [substream(42, i) for i in range(8)]
        for w in workers[:5]:
            w.random(1000)
        np.testing.assert_array_equal(workers[7].random(50), solo)

    def test_streams_statistically_independent(self):
        # interleaving two independent streams must still look random
        bits_a = substream(123, 0).random(10_000) < 0.5
        bits_b = substream(123, 1).random(10_000) < 0.5
        interleaved = np.empty(20_000, dtype=np.int8)
        interleaved[0::2] = np.where(bits_a, 1, -1)
        interleaved[1::2] = np.where(bits_b, 1, -1)
        assert runs_test(interleaved, alpha=0.01).p_value > 0.01
        corr = np.corrcoef(bits_a, bits_b)[0, 1]
        assert abs(corr) < 4.0 / math.sqrt(10_000)

    def test_key_range_validation(self):
        with pytest.raises(DomainError):
            substream(-1, 0)
        with pytest.raises(DomainError):
            substream(0, 2**64)
        with pytest.raises(DomainError):
            substream(1.5, 0)

    def test_bool_keys_rejected(self):
        for master_seed, stream_id in ((True, False), (0, True), (False, 0)):
            with pytest.raises(DomainError, match="must be an integer, got bool"):
                substream(master_seed, stream_id)
        with pytest.raises(DomainError, match="must be an integer, got bool"):
            stream_uniforms(True, [0], 4)
        with pytest.raises(DomainError, match="must be an integer, got bool"):
            stream_uniforms(0, [0], True)


class TestStreamBlocks:
    @pytest.mark.parametrize("n", [0, 1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    def test_blocks_are_the_rows_of_one_draw(self, n):
        blocks = list(stream_blocks(substream(2**64 - 1, 3), n, 3))
        assert all(0 < len(u) <= BLOCK_ROWS for u in blocks)
        one_draw = substream(2**64 - 1, 3).random((n, 3))
        np.testing.assert_array_equal(np.concatenate([np.empty((0, 3)), *blocks]), one_draw)

    def test_degenerate_rows_are_redrawn_after_the_main_pass(self, monkeypatch):
        monkeypatch.setattr(randkit, "BLOCK_ROWS", 7)
        n, width = 50, 2

        def mapping(u):
            return u.sum(axis=1), u[:, 0] < 0.3

        rng = substream(4, 1)
        values = np.concatenate(list(stream_blocks(rng, n, width, mapping)))
        reference = substream(4, 1)
        u = reference.random((n, width))
        kept = u[:, 0] >= 0.3
        redrawn = reference.random((n - int(kept.sum()), width))
        while np.any(redrawn[:, 0] < 0.3):
            bad = redrawn[:, 0] < 0.3
            redrawn[bad] = reference.random((int(bad.sum()), width))
        assert len(redrawn) > 7
        np.testing.assert_array_equal(values, np.concatenate([u[kept].sum(axis=1), redrawn.sum(axis=1)]))
        assert rng.random() == reference.random()


class TestStreamUniforms:
    """The batched Philox4x64-10 kernel against numpy's Philox, through RngStream."""

    @pytest.mark.parametrize("count", [1, 3, 4, 5, 41, 1000])
    def test_rows_match_substreams(self, count):
        ids = np.arange(2048)
        rows = stream_uniforms(2**64 - 5, ids, count)
        assert rows.shape == (2048, count) and rows.dtype == np.float64
        for sid in ids:
            np.testing.assert_array_equal(rows[sid], substream(2**64 - 5, int(sid)).random(count))

    def test_extreme_keys(self):
        top = 2**64 - 1
        ids = np.array([top, top - 1, 2**63, 0], dtype=np.uint64)
        for seed in (0, top):
            rows = stream_uniforms(seed, ids, 9)
            for row, sid in zip(rows, ids):
                np.testing.assert_array_equal(row, substream(seed, int(sid)).random(9))

    def test_empty_shapes(self):
        assert stream_uniforms(1, np.arange(3), 0).shape == (3, 0)
        assert stream_uniforms(1, np.arange(0), 5).shape == (0, 5)

    def test_key_and_count_validation(self):
        with pytest.raises(DomainError):
            stream_uniforms(-1, [0], 4)
        with pytest.raises(DomainError):
            stream_uniforms(0, [-1], 4)
        with pytest.raises(DomainError):
            stream_uniforms(0, [0.5], 4)
        with pytest.raises(DomainError):
            stream_uniforms(0, [2**64], 4)
        with pytest.raises(DomainError):
            stream_uniforms(0, [[0]], 4)
        with pytest.raises(DomainError):
            stream_uniforms(0, [0], -1)


class TestDirection:
    def test_unit_invariant(self):
        with pytest.raises(DomainError):
            Direction(1.0, 1.0, 1.0)

    @pytest.mark.parametrize("components", [(math.nan, 0.0, 0.0), (0.0, math.inf, 0.0)],
                             ids=["nan", "inf"])
    def test_non_finite_components_rejected(self, components):
        with pytest.raises(DomainError, match="not unit length"):
            Direction(*components)

    def test_normalized(self):
        d = Direction.normalized(0.0, 0.0, 5.0)
        assert d == Z
        with pytest.raises(DomainError):
            Direction.normalized(0.0, 0.0, 0.0)

    def test_from_plane_angle(self):
        assert oracles.angle_between(Direction.from_plane_angle(0.0), Z) == pytest.approx(0.0)
        d = Direction.from_plane_angle(90.0)
        assert d.x == pytest.approx(1.0)
        assert oracles.angle_between(d, Z) == pytest.approx(math.pi / 2)

    def test_angle_between(self):
        a = Direction.from_plane_angle(37.0)
        b = Direction.from_plane_angle(122.0)
        assert oracles.angle_between(a, a) == 0.0
        assert oracles.angle_between(a, -a.as_array()) == pytest.approx(math.pi)
        assert oracles.angle_between(a, b) == oracles.angle_between(b, a)
        assert oracles.angle_between(Direction(1.0, 0.0, 0.0), Z) == pytest.approx(math.pi / 2)


class TestSampleCap:
    def test_epsilon_zero_returns_axis_exactly(self):
        axis = Direction.from_plane_angle(33.0)
        (d,) = sample_cap(CapSpec(axis, 0.0), substream(1, 0), size=1)
        assert tuple(d) == (axis.x, axis.y, axis.z)

    def test_epsilon_range_validated(self):
        with pytest.raises(DomainError):
            CapSpec(Z, -0.1)
        with pytest.raises(DomainError):
            CapSpec(Z, 2.5)

    def test_full_sphere_mean_dot(self):
        pts = sample_cap(CapSpec(Z, 2.0), substream(7, 0), size=1_000_000)
        mean_dot = pts[:, 2].mean()
        # cos is uniform on [-1, 1]: sd = 1/sqrt(3)
        assert abs(mean_dot) < 3.0 / math.sqrt(3 * 1_000_000)
        assert np.linalg.norm(pts.mean(axis=0)) < 0.005

    def test_narrow_cap_mean_dot_matches_quadrature(self):
        eps = 0.1
        expected = oracles.cap_mean_cos(eps)
        assert expected == pytest.approx(0.95, abs=1e-12)
        pts = sample_cap(CapSpec(Z, eps), substream(11, 0), size=1_000_000)
        sigma = (eps / math.sqrt(12.0)) / 1000.0  # sd of uniform cosine / sqrt(n)
        assert abs(pts[:, 2].mean() - expected) < 3.0 * sigma

    def test_membership_property(self):
        rng = substream(2024, 0)
        gen = np.random.Generator(np.random.Philox(key=5))
        for _ in range(100):
            axis = Direction.normalized(*(gen.normal(size=3)))
            cap = CapSpec(axis, float(gen.uniform(0.0, 2.0)))
            pts = sample_cap(cap, rng, size=1000)
            slack = np.abs(1.0 - pts @ axis.as_array())
            assert np.all(slack <= cap.epsilon + 1e-12)
            norms = np.linalg.norm(pts, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-12)
