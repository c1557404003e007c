import itertools
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracles
import spcelab
from spcelab.errors import DomainError
from spcelab import randkit, spce
from spcelab.randkit import BLOCK_ROWS, CapSpec, Direction, _cap_from_uniforms, substream
from spcelab.spce import (
    chsh,
    correlator,
    correlator_stderr,
    outcome_blocks,
    run_to_jsonl_lines,
    shared_lambda_correlators,
)

Z = Direction(0.0, 0.0, 1.0)
STANDARD_ANGLES = (0.0, 90.0, 45.0, 135.0)  # A, A', B, B'


def pol(degrees, eps=0.0):
    return CapSpec(Direction.from_plane_angle(degrees), eps)


def flag_counts(pol_a, pol_b, n, master_seed, stream_id=0):
    """The numbers of ``s1 = -1`` and of ``s2 = s1`` pairs in a walk."""
    blocks = [(np.count_nonzero(minus), np.count_nonzero(same))
              for _, minus, same in outcome_blocks(pol_a, pol_b, n, master_seed, stream_id)]
    return tuple(int(k) for k in np.sum(blocks, axis=0))


def records(pol_a, pol_b, n, master_seed, stream_id=0, record_limit=None):
    """The header and the pair records of a run's JSONL lines."""
    header, *rest = map(json.loads, run_to_jsonl_lines(pol_a, pol_b, n, master_seed, stream_id,
                                                       record_limit=record_limit))
    return header, rest


def random_rotation(gen):
    q, r = np.linalg.qr(gen.normal(size=(3, 3)))
    q *= np.sign(np.diag(r))
    return q


class TestSingletJointProbs:
    def test_aligned_is_perfectly_anticorrelated(self):
        np.testing.assert_allclose(
            oracles.singlet_joint_probs(Z, Z), [0.0, 0.5, 0.5, 0.0], atol=1e-15
        )

    def test_antiparallel_is_perfectly_correlated(self):
        np.testing.assert_allclose(
            oracles.singlet_joint_probs(Z, -Z.as_array()), [0.5, 0.0, 0.0, 0.5], atol=1e-15
        )

    def test_orthogonal_is_uniform(self):
        # sin^2(pi/4) = 1/2, so every cell is 1/4
        probs = oracles.singlet_joint_probs(Z, Direction(1.0, 0.0, 0.0))
        np.testing.assert_allclose(probs, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_normalization_and_symmetries(self):
        gen = np.random.Generator(np.random.Philox(key=99))
        for _ in range(50):
            a = Direction.normalized(*gen.normal(size=3))
            b = Direction.normalized(*gen.normal(size=3))
            probs = oracles.singlet_joint_probs(a, b)
            assert np.all(probs >= 0.0)
            assert abs(probs.sum() - 1.0) < 1e-12
            np.testing.assert_allclose(probs, oracles.singlet_joint_probs(b, a), atol=1e-15)
            rot = random_rotation(gen)
            rotated = oracles.singlet_joint_probs(
                Direction.normalized(*(rot @ a.as_array())),
                Direction.normalized(*(rot @ b.as_array())),
            )
            np.testing.assert_allclose(probs, rotated, atol=1e-12)


class TestSamplePair:
    def test_zero_smear_aligned_forces_anticorrelation(self):
        p = pol(25.0, 0.0)
        assert flag_counts(p, p, 300, master_seed=10)[1] == 0

    def test_marginal_is_uniform(self):
        n = 100_000
        n_minus, _ = flag_counts(pol(0.0), pol(77.0), n, master_seed=3)
        assert abs(1.0 - n_minus / n - 0.5) < 3 * oracles.binomial_sigma(0.5, n)

    def test_same_outcome_rate_matches_quadrature(self):
        expected = oracles.same_outcome_prob(0.1, 0.1, 1.0)
        assert expected == pytest.approx(0.04875, abs=1e-9)
        p = pol(0.0, 0.1)
        n = 1_000_000
        rate = flag_counts(p, p, n, master_seed=12)[1] / n
        assert abs(rate - expected) < 3 * oracles.binomial_sigma(expected, n)

    def test_samples_live_in_their_caps(self):
        cap_a = CapSpec(Direction.from_plane_angle(20.0), 0.3)
        cap_b = CapSpec(Direction.from_plane_angle(65.0), 0.7)
        for record in records(cap_a, cap_b, 200, master_seed=4)[1]:
            assert oracles.cap_contains(cap_a, np.array(record["a"]))
            assert oracles.cap_contains(cap_b, np.array(record["b"]))


class TestRunExperiment:
    def test_single_pair(self):
        (block,) = outcome_blocks(pol(0.0), pol(10.0), 1, master_seed=0)
        assert [len(part) for part in block] == [1, 1, 1]
        assert correlator(pol(0.0), pol(10.0), 1, master_seed=0) in (1.0, -1.0)

    def test_deterministic(self):
        a = list(outcome_blocks(pol(0.0, 0.2), pol(45.0, 0.1), 500, master_seed=6, stream_id=2))
        b = list(outcome_blocks(pol(0.0, 0.2), pol(45.0, 0.1), 500, master_seed=6, stream_id=2))
        for block_a, block_b in zip(a, b, strict=True):
            for part_a, part_b in zip(block_a, block_b):
                np.testing.assert_array_equal(part_a, part_b)

    def test_matches_sequential_sample_pair(self):
        p_a, p_b = pol(0.0, 0.4), pol(30.0, 0.2)
        _, rows = records(p_a, p_b, 5, master_seed=8, stream_id=3)
        rng = substream(8, 3)
        for row in rows:
            record = oracles.sample_pair(p_a, p_b, rng)
            assert (record.s1, record.s2) == (row["s1"], row["s2"])
            np.testing.assert_allclose(record.a, row["a"], atol=0)

    def test_two_seeds_agree_on_the_correlator(self):
        expected = math.cos(math.radians(60.0))
        n = 200_000
        for seed in (101, 202):
            r = correlator(pol(0.0), pol(60.0), n, master_seed=seed)
            assert abs(r - expected) < 4 * correlator_stderr(expected, n)

    def test_zero_pairs_rejected(self):
        with pytest.raises(DomainError, match="pair count must be >= 1, got 0"):
            correlator(pol(0.0), pol(0.0), 0, master_seed=0)

    def test_empty_run_rejected(self):
        with pytest.raises(DomainError, match="pair count must be >= 1, got 0"):
            next(outcome_blocks(pol(0.0), pol(0.0), 0, master_seed=0))


#: Pair counts around the kernel's block boundaries.
BLOCK_EDGES = (1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7)

#: Polarizer pairs for the kernel checks: sharp, smeared, full sphere, aligned, antiparallel, 3-D axes.
KERNEL_POLARIZERS = (
    (pol(0.0), pol(45.0)),
    (pol(20.0, 0.1), pol(20.0, 0.1)),
    (pol(0.0, 0.3), pol(180.0, 2.0)),
    (CapSpec(Direction.normalized(1.0, 2.0, -0.5), 0.7),
     CapSpec(Direction.normalized(-0.3, 0.1, 0.9), 1.3)),
)


def _spce_peak_mb(tmp_path, n):
    """Peak resident set (MB) of a fresh process that runs the four-setting ``spce`` command."""
    cfg = tmp_path / f"spce-{n}.json"
    cfg.write_text(json.dumps({"axes": {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135},
                               "epsilon": 0.1, "n": n, "seed": 1, "record_limit": 1000}))
    script = (
        "from spcelab.cli import main\n"
        f"code = main(['spce', '--config', {str(cfg)!r}, '--out', {str(tmp_path / f'out-{n}')!r}])\n"
        "status = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
        "print(code, int(status) / 1024)\n"
    )
    src = Path(spcelab.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 0, result.stderr
    code, peak_mb = result.stdout.splitlines()[-1].split()
    assert code == "0"
    return float(peak_mb)


class TestPairKernel:
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_outcomes_match_materialized_directions(self, n):
        for k, (p_a, p_b) in enumerate(KERNEL_POLARIZERS):
            blocks = list(outcome_blocks(p_a, p_b, n, master_seed=2**64 - 1 - k, stream_id=k))
            minus = np.concatenate([m for _, m, _ in blocks])
            same = np.concatenate([s for _, _, s in blocks])
            _, _, s1, s2 = oracles.materialized_run(p_a, p_b, n, 2**64 - 1 - k, k)
            np.testing.assert_array_equal(minus, s1 == -1)
            np.testing.assert_array_equal(same, s1 == s2)

    def test_record_directions_are_the_streams_cap_points(self):
        p_a, p_b = KERNEL_POLARIZERS[3]
        n = BLOCK_ROWS + 3
        u = substream(31, 5).random((n, 5))
        for count in (0, 1, 2, n + 10):
            header, rows = records(p_a, p_b, n, master_seed=31, stream_id=5, record_limit=count)
            assert header["N"] == n
            assert header["records_serialized"] == len(rows) == min(count, n)
            if not rows:
                continue
            np.testing.assert_allclose([r["a"] for r in rows],
                                       _cap_from_uniforms(p_a, u[:len(rows), 0], u[:len(rows), 1]), atol=0)
            np.testing.assert_allclose([r["b"] for r in rows],
                                       _cap_from_uniforms(p_b, u[:len(rows), 2], u[:len(rows), 3]), atol=0)

    def test_serialized_records_carry_the_rebuilt_directions(self):
        p_a, p_b = KERNEL_POLARIZERS[2]
        n = BLOCK_ROWS + 2
        a, b, s1, s2 = oracles.materialized_run(p_a, p_b, n, 3, 1)
        header, rows = records(p_a, p_b, n, master_seed=3, stream_id=1, record_limit=n - 1)
        assert header["records_serialized"] == n - 1
        assert len(rows) == n - 1
        np.testing.assert_allclose([r["a"] for r in rows], a[:n - 1], atol=0)
        np.testing.assert_allclose([r["b"] for r in rows], b[:n - 1], atol=0)
        assert [r["s1"] for r in rows] == s1[:n - 1].tolist()
        assert [r["s2"] for r in rows] == s2[:n - 1].tolist()

    def test_spce_memory_does_not_grow_with_n(self, tmp_path):
        # ten times the pairs per setting pair: anything kept per pair would show as tens of MB
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for the peak resident set")
        small, large = _spce_peak_mb(tmp_path, 200_000), _spce_peak_mb(tmp_path, 2_000_000)
        assert large - small < 5.0, f"peak {small:.1f} MB at n = 2e5, {large:.1f} MB at n = 2e6"


class TestEmpiricalCorrelator:
    def test_anticorrelated_run_gives_plus_one(self):
        # aligned zero-smear caps: s2 = -s1 for every pair, so every product is -1
        assert correlator(pol(30.0), pol(30.0), 1000, master_seed=0) == 1.0

    def test_orthogonal_settings_vanish(self):
        assert abs(correlator(pol(0.0), pol(90.0), 1_000_000, master_seed=14)) < 3e-3

    def test_smeared_aligned_settings(self):
        expected = oracles.contextual_correlator(0.2, 0.2, 1.0)
        assert expected == pytest.approx(0.81, abs=1e-9)
        n = 1_000_000
        r = correlator(pol(0.0, 0.2), pol(0.0, 0.2), n, master_seed=15)
        assert abs(r - expected) < 3 * correlator_stderr(expected, n)

    @pytest.mark.parametrize("eps_a,eps_b", list(itertools.product([0.0, 0.1, 0.3], repeat=2)))
    def test_correlator_law_over_the_grid(self, eps_a, eps_b):
        n = 100_000
        for theta_deg in (0.0, 30.0, 60.0, 90.0, 120.0, 180.0):
            expected = oracles.contextual_correlator(eps_a, eps_b, math.cos(math.radians(theta_deg)))
            r = correlator(
                pol(0.0, eps_a), pol(theta_deg, eps_b), n,
                master_seed=1000 + int(theta_deg), stream_id=int(10 * eps_a + 100 * eps_b),
            )
            assert abs(r - expected) < 4.0 / math.sqrt(n)

    def test_no_signaling_marginal(self):
        # Alice's outcome distribution must not depend on Bob's polarizer
        n = 200_000
        base, _ = flag_counts(pol(10.0, 0.1), pol(0.0, 0.0), n, master_seed=71)
        moved, _ = flag_counts(pol(10.0, 0.1), pol(120.0, 0.5), n, master_seed=72)
        z = oracles.two_proportion_z(n - base, n, n - moved, n)
        assert abs(z) < 4.0

    def test_correlator_is_the_mean_of_the_materialized_products(self):
        # an exact integer sum: bit for bit the float64 mean, a zero sum included (-0.0)
        for n, (p_a, p_b) in ((BLOCK_ROWS + 1, KERNEL_POLARIZERS[2]), (2, (pol(0.0), pol(90.0)))):
            _, _, s1, s2 = oracles.materialized_run(p_a, p_b, n, 0)
            want = float(-np.mean(s1.astype(np.float64) * s2))
            got = correlator(p_a, p_b, n, master_seed=0)
            assert (got, math.copysign(1.0, got)) == (want, math.copysign(1.0, want))


class TestChsh:
    def test_algebraic_extremes(self):
        assert chsh(1.0, -1.0, 1.0, 1.0) == 4.0
        assert chsh(0.0, 0.0, 0.0, 0.0) == 0.0

    def test_input_validation(self):
        with pytest.raises(DomainError):
            chsh(1.5, 0.0, 0.0, 0.0)

    def test_contextual_model_reaches_tsirelson_value(self):
        n = 200_000
        a, a_p, b, b_p = STANDARD_ANGLES
        correlators = [
            correlator(pol(x), pol(y), n, master_seed=55, stream_id=i)
            for i, (x, y) in enumerate([(a, b), (a, b_p), (a_p, b), (a_p, b_p)])
        ]
        s = chsh(*correlators)
        assert abs(s - 2.0 * math.sqrt(2.0)) < 0.05
        sigma_s = math.sqrt(sum(correlator_stderr(r, n) ** 2 for r in correlators))
        assert (s - 2.0) / sigma_s > 5.0


class TestSharedLambdaModel:
    def test_identical_settings_are_perfectly_correlated(self):
        a = Direction.from_plane_angle(15.0)
        corr = shared_lambda_correlators(a, a, a, a, 2000, master_seed=1)
        assert corr["AB"] == 1.0

    def test_orthogonal_settings_vanish(self):
        corr = shared_lambda_correlators(
            Direction.from_plane_angle(0.0), Direction.from_plane_angle(0.0),
            Direction.from_plane_angle(90.0), Direction.from_plane_angle(90.0),
            1_000_000, master_seed=2,
        )
        assert abs(corr["AB"]) < 3e-3

    @pytest.mark.parametrize("theta_deg", [0.0, 30.0, 45.0, 90.0, 135.0, 180.0])
    def test_correlator_law_matches_sphere_oracle(self, theta_deg):
        theta = math.radians(theta_deg)
        law = 1.0 - 2.0 * theta / math.pi
        assert abs(oracles.sign_model_correlator(theta, 1200, 1200) - law) < 5e-3
        corr = shared_lambda_correlators(
            Direction.from_plane_angle(0.0), Direction.from_plane_angle(0.0),
            Direction.from_plane_angle(theta_deg), Direction.from_plane_angle(theta_deg),
            200_000, master_seed=int(theta_deg) + 3,
        )
        assert abs(corr["AB"] - law) < 4.0 / math.sqrt(200_000)

    def test_per_sample_identity_is_exactly_two(self):
        for x, x_p, y, y_p in itertools.product((1, -1), repeat=4):
            assert abs(x * y - x * y_p) + abs(x_p * y + x_p * y_p) == 2

    def test_chsh_never_exceeds_two(self):
        a, a_p, b, b_p = (Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        for seed in range(30):
            corr = shared_lambda_correlators(a, a_p, b, b_p, 20_000, master_seed=seed)
            s = chsh(corr["AB"], corr["AB'"], corr["A'B"], corr["A'B'"])
            assert s <= 2.0 + 1e-12

    def test_expected_chsh_is_two_at_standard_angles(self):
        a, a_p, b, b_p = (Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        corr = shared_lambda_correlators(a, a_p, b, b_p, 1_000_000, master_seed=77)
        s = chsh(corr["AB"], corr["AB'"], corr["A'B"], corr["A'B'"])
        assert abs(s - 2.0) < 0.01

    def test_zero_pairs_rejected(self):
        a, a_p, b, b_p = (Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        with pytest.raises(DomainError, match="pair count must be >= 1, got 0"):
            shared_lambda_correlators(a, a_p, b, b_p, 0, master_seed=0)

    def test_correlators_are_keyed_by_the_setting_pairs(self):
        assert tuple(shared_lambda_correlators(Z, Z, Z, Z, 100, master_seed=0)) == spce.SETTING_PAIRS

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_blocks_match_materialized_run(self, n):
        plane = tuple(Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        spatial = (Direction.normalized(1.0, 2.0, -0.5), Direction.normalized(-0.3, 0.1, 0.9),
                   Direction.normalized(0.2, -1.0, 0.4), Z)
        for k, settings in enumerate((plane, spatial)):
            for seed in (2**64 - 1 - k, 11 + k):
                corr = shared_lambda_correlators(*settings, n, master_seed=seed, stream_id=k)
                assert corr == oracles.materialized_shared_lambda(*settings, n, substream(seed, k))

    def test_degenerate_pairs_consume_the_stream_as_one_draw(self, monkeypatch):
        n = 23
        values = substream(6, 0).random(400)
        # setting A is +z, so a pair whose cosine uniform is 1/2 has a direction orthogonal to it;
        # such pairs sit in the first, middle and last block, and among the re-draws
        for pair in (0, 4, 5, 11, 22, 23, 24, 26):
            values[2 * pair] = 0.5
        settings = (Z, *(Direction.from_plane_angle(d) for d in STANDARD_ANGLES[1:]))
        blocked = oracles.ScriptedStream(values)
        monkeypatch.setattr(randkit, "BLOCK_ROWS", 5)
        monkeypatch.setattr(spce, "substream", lambda seed, stream_id: blocked)
        corr = shared_lambda_correlators(*settings, n, master_seed=0)
        one_draw = oracles.ScriptedStream(values)
        assert corr == oracles.materialized_shared_lambda(*settings, n, one_draw)
        assert blocked.position == one_draw.position > 2 * n + 2 * 5


class TestRunSerialization:
    def test_jsonl_lines(self):
        lines = list(run_to_jsonl_lines(pol(0.0, 0.1), pol(45.0), 7, master_seed=4, stream_id=1))
        assert len(lines) == 8
        header = json.loads(lines[0])
        assert header["N"] == 7
        assert header["seed"] == 4
        assert header["epsilons"] == {"A": 0.1, "B": 0.0}
        record = json.loads(lines[1])
        assert set(record) == {"a", "b", "s1", "s2"}
        assert record["s1"] in (1, -1)
        np.testing.assert_allclose(np.linalg.norm(record["a"]), 1.0, atol=1e-12)
