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
    ExperimentRun,
    chsh,
    correlator_stderr,
    empirical_correlator,
    record_directions,
    run_experiment,
    run_shared_lambda_model,
    run_to_jsonl_lines,
)

Z = Direction(0.0, 0.0, 1.0)
STANDARD_ANGLES = (0.0, 90.0, 45.0, 135.0)  # A, A', B, B'


def pol(degrees, eps=0.0):
    return CapSpec(Direction.from_plane_angle(degrees), eps)


def directions(run, count=None):
    """The rebuilt microscopic directions of a run's first ``count`` pairs, as two arrays."""
    blocks = list(record_directions(run, count))
    return np.concatenate([a for a, _ in blocks]), np.concatenate([b for _, b in blocks])


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
        run = run_experiment(p, p, 300, master_seed=10)
        np.testing.assert_array_equal(run.s2, -run.s1)

    def test_marginal_is_uniform(self):
        run = run_experiment(pol(0.0), pol(77.0), 100_000, master_seed=3)
        frac = np.mean(run.s1 == 1)
        assert abs(frac - 0.5) < 3 * oracles.binomial_sigma(0.5, len(run))

    def test_same_outcome_rate_matches_quadrature(self):
        expected = oracles.same_outcome_prob(0.1, 0.1, 1.0)
        assert expected == pytest.approx(0.04875, abs=1e-9)
        p = pol(0.0, 0.1)
        run = run_experiment(p, p, 1_000_000, master_seed=12)
        rate = float(np.mean(run.s1 == run.s2))
        assert abs(rate - expected) < 3 * oracles.binomial_sigma(expected, len(run))

    def test_samples_live_in_their_caps(self):
        cap_a = CapSpec(Direction.from_plane_angle(20.0), 0.3)
        cap_b = CapSpec(Direction.from_plane_angle(65.0), 0.7)
        a, b = directions(run_experiment(cap_a, cap_b, 200, master_seed=4))
        for a_i, b_i in zip(a, b):
            assert oracles.cap_contains(cap_a, a_i)
            assert oracles.cap_contains(cap_b, b_i)


class TestRunExperiment:
    def test_single_pair(self):
        assert len(run_experiment(pol(0.0), pol(10.0), 1, master_seed=0)) == 1

    def test_deterministic(self):
        a = run_experiment(pol(0.0, 0.2), pol(45.0, 0.1), 500, master_seed=6, stream_id=2)
        b = run_experiment(pol(0.0, 0.2), pol(45.0, 0.1), 500, master_seed=6, stream_id=2)
        np.testing.assert_array_equal(a.s1, b.s1)
        np.testing.assert_array_equal(directions(a)[0], directions(b)[0])

    def test_matches_sequential_sample_pair(self):
        p_a, p_b = pol(0.0, 0.4), pol(30.0, 0.2)
        run = run_experiment(p_a, p_b, 5, master_seed=8, stream_id=3)
        run_a, _ = directions(run)
        rng = substream(8, 3)
        for i in range(5):
            record = oracles.sample_pair(p_a, p_b, rng)
            assert (record.s1, record.s2) == (int(run.s1[i]), int(run.s2[i]))
            np.testing.assert_allclose(record.a, run_a[i], atol=0)

    def test_two_seeds_agree_on_the_correlator(self):
        expected = math.cos(math.radians(60.0))
        for seed in (101, 202):
            run = run_experiment(pol(0.0), pol(60.0), 200_000, master_seed=seed)
            r = empirical_correlator(run)
            assert abs(r - expected) < 4 * correlator_stderr(expected, len(run))

    def test_zero_pairs_rejected(self):
        with pytest.raises(DomainError):
            run_experiment(pol(0.0), pol(0.0), 0, master_seed=0)

    def test_empty_run_rejected(self):
        empty = np.zeros(0, dtype=np.int8)
        with pytest.raises(DomainError, match="at least one pair"):
            ExperimentRun(pol(0.0), pol(0.0), empty, empty, master_seed=0, stream_id=0)


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


class TestPairKernel:
    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_outcomes_match_materialized_directions(self, n):
        for k, (p_a, p_b) in enumerate(KERNEL_POLARIZERS):
            run = run_experiment(p_a, p_b, n, master_seed=2**64 - 1 - k, stream_id=k)
            _, _, s1, s2 = oracles.materialized_run(p_a, p_b, n, 2**64 - 1 - k, k)
            assert run.s1.dtype == run.s2.dtype == np.int8
            np.testing.assert_array_equal(run.s1, s1)
            np.testing.assert_array_equal(run.s2, s2)

    def test_record_directions_are_the_streams_cap_points(self):
        p_a, p_b = KERNEL_POLARIZERS[3]
        n = 2 * BLOCK_ROWS + 3
        run = run_experiment(p_a, p_b, n, master_seed=31, stream_id=5)
        u = substream(31, 5).random((n, 5))
        for count in (0, 1, BLOCK_ROWS, BLOCK_ROWS + 1, n, n + 10):
            blocks = list(record_directions(run, count))
            assert all(len(a) <= BLOCK_ROWS for a, _ in blocks)
            if min(count, n) == 0:
                assert blocks == []
                continue
            a, b = directions(run, count)
            rows = min(count, n)
            np.testing.assert_allclose(a, _cap_from_uniforms(p_a, u[:rows, 0], u[:rows, 1]), atol=0)
            np.testing.assert_allclose(b, _cap_from_uniforms(p_b, u[:rows, 2], u[:rows, 3]), atol=0)

    def test_serialized_records_carry_the_rebuilt_directions(self):
        p_a, p_b = KERNEL_POLARIZERS[2]
        n = BLOCK_ROWS + 2
        run = run_experiment(p_a, p_b, n, master_seed=3, stream_id=1)
        a, b, s1, s2 = oracles.materialized_run(p_a, p_b, n, 3, 1)
        lines = list(run_to_jsonl_lines(run, record_limit=n - 1))
        assert json.loads(lines[0])["records_serialized"] == n - 1
        records = [json.loads(line) for line in lines[1:]]
        assert len(records) == n - 1
        np.testing.assert_allclose([r["a"] for r in records], a[:n - 1], atol=0)
        np.testing.assert_allclose([r["b"] for r in records], b[:n - 1], atol=0)
        assert [r["s1"] for r in records] == s1[:n - 1].tolist()
        assert [r["s2"] for r in records] == s2[:n - 1].tolist()

    def test_spce_memory_does_not_grow_with_n(self, tmp_path):
        # 2e6 pairs per setting pair: materialized directions would take several hundred MB
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for the peak resident set")
        cfg = tmp_path / "spce.json"
        cfg.write_text(json.dumps({"axes": {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135},
                                   "epsilon": 0.1, "n": 2_000_000, "seed": 1, "record_limit": 1000}))
        script = (
            "from spcelab.cli import main\n"
            f"code = main(['spce', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
            "print(code, int(status) // 1024)\n"
        )
        src = Path(spcelab.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        code, peak_mb = map(int, result.stdout.splitlines()[-1].split())
        assert code == 0
        assert peak_mb < 120


class TestEmpiricalCorrelator:
    def test_anticorrelated_run_gives_plus_one(self):
        s1 = np.array([1, -1, 1, 1], dtype=np.int8)
        run = ExperimentRun(pol(0.0), pol(0.0), s1, -s1, master_seed=0, stream_id=0)
        assert empirical_correlator(run) == 1.0

    def test_orthogonal_settings_vanish(self):
        run = run_experiment(pol(0.0), pol(90.0), 1_000_000, master_seed=14)
        assert abs(empirical_correlator(run)) < 3e-3

    def test_smeared_aligned_settings(self):
        expected = oracles.contextual_correlator(0.2, 0.2, 1.0)
        assert expected == pytest.approx(0.81, abs=1e-9)
        run = run_experiment(pol(0.0, 0.2), pol(0.0, 0.2), 1_000_000, master_seed=15)
        r = empirical_correlator(run)
        assert abs(r - expected) < 3 * correlator_stderr(expected, len(run))

    @pytest.mark.parametrize("eps_a,eps_b", list(itertools.product([0.0, 0.1, 0.3], repeat=2)))
    def test_correlator_law_over_the_grid(self, eps_a, eps_b):
        n = 100_000
        for theta_deg in (0.0, 30.0, 60.0, 90.0, 120.0, 180.0):
            expected = oracles.contextual_correlator(eps_a, eps_b, math.cos(math.radians(theta_deg)))
            run = run_experiment(
                pol(0.0, eps_a), pol(theta_deg, eps_b), n,
                master_seed=1000 + int(theta_deg), stream_id=int(10 * eps_a + 100 * eps_b),
            )
            assert abs(empirical_correlator(run) - expected) < 4.0 / math.sqrt(n)

    def test_no_signaling_marginal(self):
        # Alice's outcome distribution must not depend on Bob's polarizer
        n = 200_000
        base = run_experiment(pol(10.0, 0.1), pol(0.0, 0.0), n, master_seed=71)
        moved = run_experiment(pol(10.0, 0.1), pol(120.0, 0.5), n, master_seed=72)
        z = oracles.two_proportion_z(
            int(np.sum(base.s1 == 1)), n, int(np.sum(moved.s1 == 1)), n
        )
        assert abs(z) < 4.0


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
            empirical_correlator(run_experiment(pol(x), pol(y), n, master_seed=55, stream_id=i))
            for i, (x, y) in enumerate([(a, b), (a, b_p), (a_p, b), (a_p, b_p)])
        ]
        s = chsh(*correlators)
        assert abs(s - 2.0 * math.sqrt(2.0)) < 0.05
        sigma_s = math.sqrt(sum(correlator_stderr(r, n) ** 2 for r in correlators))
        assert (s - 2.0) / sigma_s > 5.0


class TestSharedLambdaModel:
    def test_identical_settings_are_perfectly_correlated(self):
        a = Direction.from_plane_angle(15.0)
        _, corr = run_shared_lambda_model(a, a, a, a, 2000, master_seed=1)
        assert corr["AB"] == 1.0

    def test_orthogonal_settings_vanish(self):
        _, corr = run_shared_lambda_model(
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
        _, corr = run_shared_lambda_model(
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
            _, corr = run_shared_lambda_model(a, a_p, b, b_p, 20_000, master_seed=seed)
            s = chsh(corr["AB"], corr["AB'"], corr["A'B"], corr["A'B'"])
            assert s <= 2.0 + 1e-12

    def test_expected_chsh_is_two_at_standard_angles(self):
        a, a_p, b, b_p = (Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        _, corr = run_shared_lambda_model(a, a_p, b, b_p, 1_000_000, master_seed=77)
        s = chsh(corr["AB"], corr["AB'"], corr["A'B"], corr["A'B'"])
        assert abs(s - 2.0) < 0.01

    def test_zero_pairs_rejected(self):
        a, a_p, b, b_p = (Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        with pytest.raises(DomainError, match="pair count must be >= 1, got 0"):
            run_shared_lambda_model(a, a_p, b, b_p, 0, master_seed=0)

    def test_run_carries_count_and_settings(self):
        run, _ = run_shared_lambda_model(Z, Z, Z, Z, 100, master_seed=0)
        assert len(run) == 100
        assert set(run.settings) == {"A", "A'", "B", "B'"}

    @pytest.mark.parametrize("n", BLOCK_EDGES)
    def test_blocks_match_materialized_run(self, n):
        plane = tuple(Direction.from_plane_angle(d) for d in STANDARD_ANGLES)
        spatial = (Direction.normalized(1.0, 2.0, -0.5), Direction.normalized(-0.3, 0.1, 0.9),
                   Direction.normalized(0.2, -1.0, 0.4), Z)
        for k, settings in enumerate((plane, spatial)):
            for seed in (2**64 - 1 - k, 11 + k):
                _, corr = run_shared_lambda_model(*settings, n, master_seed=seed, stream_id=k)
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
        _, corr = run_shared_lambda_model(*settings, n, master_seed=0)
        one_draw = oracles.ScriptedStream(values)
        assert corr == oracles.materialized_shared_lambda(*settings, n, one_draw)
        assert blocked.position == one_draw.position > 2 * n + 2 * 5


class TestRunSerialization:
    def test_jsonl_lines(self):
        run = run_experiment(pol(0.0, 0.1), pol(45.0), 7, master_seed=4, stream_id=1)
        lines = list(run_to_jsonl_lines(run))
        assert len(lines) == 8
        header = json.loads(lines[0])
        assert header["N"] == 7
        assert header["seed"] == 4
        assert header["epsilons"] == {"A": 0.1, "B": 0.0}
        record = json.loads(lines[1])
        assert set(record) == {"a", "b", "s1", "s2"}
        assert record["s1"] in (1, -1)
        np.testing.assert_allclose(np.linalg.norm(record["a"]), 1.0, atol=1e-12)
