import math

import numpy as np
import pytest

import oracles
from oracles import (
    ScriptedStream,
    chord_hits_m1,
    chord_hits_m2,
    chord_hits_m3,
    machine_m1,
    machine_m2,
    machine_m3,
    run_trial,
)
from spcelab import bertrand, randkit
from spcelab.bertrand import (
    INNER_RADIUS,
    Machine,
    _batch_degenerate,
    _batch_hits,
    estimate_probability,
)
from spcelab.errors import DomainError
from spcelab.randkit import BLOCK_ROWS, substream

EXPECTED = {Machine.M1: 0.5, Machine.M2: 1.0 / 3.0, Machine.M3: 0.25}


class TestHitPredicates:
    def test_m1_center_and_tangent(self):
        assert chord_hits_m1(1.0)       # chord through the center
        assert not chord_hits_m1(0.0)   # tangent point on the outer circle
        assert chord_hits_m1(0.5) and chord_hits_m1(1.5)
        assert not chord_hits_m1(0.49)

    def test_m2_separations(self):
        assert chord_hits_m2(math.pi)   # diametrically opposite endpoints
        # separation pi/6: center distance cos(pi/12) ~ 0.966 > 1/2
        assert math.cos(math.pi / 12.0) > INNER_RADIUS
        assert not chord_hits_m2(math.pi / 6.0)
        assert chord_hits_m2(2.0 * math.pi / 3.0)

    def test_m3_midpoint_radius(self):
        assert chord_hits_m3(0.49)
        assert not chord_hits_m3(0.51)


class TestTrials:
    @pytest.mark.parametrize("machine,fn", [
        (Machine.M1, machine_m1), (Machine.M2, machine_m2), (Machine.M3, machine_m3),
    ])
    def test_trial_shape(self, machine, fn):
        trial = fn(substream(0, 0))
        assert trial.machine is machine
        assert isinstance(trial.hit, bool)
        assert trial.geometry

    @pytest.mark.parametrize("machine", list(Machine))
    def test_hits_agree_with_geometric_oracle(self, machine):
        n = 100_000
        rng = substream(71, 0)
        trials = [run_trial(machine, rng) for _ in range(n)]
        geometry = {
            key: np.array([t.geometry[key] for t in trials])
            for key in trials[0].geometry
        }
        distances = oracles.chord_center_distance(machine.value, geometry)
        oracle_hits = distances <= INNER_RADIUS
        observed = np.array([t.hit for t in trials])
        assert np.array_equal(observed, oracle_hits)


class TestEstimates:
    @pytest.mark.parametrize("machine", list(Machine))
    def test_converges_to_its_own_constant(self, machine):
        est = estimate_probability(machine, 1_000_000, master_seed=5)
        expected = EXPECTED[machine]
        assert est.stderr == pytest.approx(
            math.sqrt(est.p_hat * (1 - est.p_hat) / est.n)
        )
        assert abs(est.p_hat - expected) < 3 * oracles.binomial_sigma(expected, est.n)

    def test_three_constants_are_distinct_data(self):
        n = 1_000_000
        estimates = {m: estimate_probability(m, n, master_seed=6) for m in Machine}
        for a, b in ((Machine.M1, Machine.M2), (Machine.M1, Machine.M3), (Machine.M2, Machine.M3)):
            z = oracles.two_proportion_z(
                round(estimates[a].p_hat * n), n, round(estimates[b].p_hat * n), n
            )
            assert abs(z) > 50.0

    @pytest.mark.parametrize("machine", list(Machine))
    def test_estimate_agrees_with_geometric_oracle(self, machine):
        n = BLOCK_ROWS + 34_465  # crosses a block edge
        est = estimate_probability(machine, n, master_seed=73, stream_id=5)
        u = substream(73, 5).random((n, 2))
        assert not np.any(_batch_degenerate(machine, u))
        if machine is Machine.M1:
            geometry = {"q_angle": 2 * math.pi * u[:, 0], "r": 2 * u[:, 1]}
        elif machine is Machine.M2:
            geometry = {"phi1": 2 * math.pi * u[:, 0], "phi2": 2 * math.pi * u[:, 1]}
        else:
            geometry = {"mid_radius": np.sqrt(u[:, 0]), "mid_angle": 2 * math.pi * u[:, 1]}
        hits = int(np.sum(oracles.chord_center_distance(machine.value, geometry) <= INNER_RADIUS))
        assert est.p_hat == hits / n

    def test_batch_matches_scalar_trials(self):
        n = 200
        est = estimate_probability(Machine.M2, n, master_seed=11, stream_id=4)
        rng = substream(11, 4)
        scalar_hits = [run_trial(Machine.M2, rng).hit for _ in range(n)]
        assert est.p_hat == pytest.approx(np.mean(scalar_hits))

    def test_single_trial_edge(self):
        est = estimate_probability(Machine.M1, 1, master_seed=0)
        assert est.p_hat in (0.0, 1.0)
        assert est.stderr == 0.0

    def test_zero_trials_rejected(self):
        with pytest.raises(DomainError):
            estimate_probability(Machine.M1, 0, master_seed=0)

    def test_deterministic(self):
        a = estimate_probability(Machine.M3, 10_000, master_seed=9)
        b = estimate_probability(Machine.M3, 10_000, master_seed=9)
        assert a == b


def one_draw_p_hat(machine, n, rng):
    """Hit fraction of ``n`` trials drawn as one (n, 2) block, degenerate rows re-drawn in place."""
    u = rng.random((n, 2))
    degenerate = _batch_degenerate(machine, u)
    while np.any(degenerate):
        u[degenerate] = rng.random((int(np.sum(degenerate)), 2))
        degenerate = _batch_degenerate(machine, u)
    return float(np.mean(_batch_hits(machine, u)))


class TestBlockedEstimate:
    @pytest.mark.parametrize("n", [1, BLOCK_ROWS - 1, BLOCK_ROWS, BLOCK_ROWS + 1, 3 * BLOCK_ROWS + 7])
    @pytest.mark.parametrize("machine", list(Machine))
    def test_blocks_match_one_draw(self, machine, n):
        est = estimate_probability(machine, n, master_seed=2**64 - 1, stream_id=9)
        assert est.p_hat == one_draw_p_hat(machine, n, substream(2**64 - 1, 9))

    @pytest.mark.parametrize("machine", [Machine.M2, Machine.M3])
    def test_degenerate_trials_consume_the_stream_as_one_draw(self, machine, monkeypatch):
        n = 23
        values = substream(5, 0).random(400)
        # degenerate trials in the first, middle and last block, and among the re-draws
        for trial in (0, 4, 5, 11, 22, 23, 24, 26):
            if machine is Machine.M2:
                values[2 * trial + 1] = values[2 * trial]
            else:
                values[2 * trial] = 0.0
        blocked = ScriptedStream(values)
        monkeypatch.setattr(randkit, "BLOCK_ROWS", 5)
        monkeypatch.setattr(bertrand, "substream", lambda seed, stream_id: blocked)
        est = estimate_probability(machine, n, master_seed=0)
        one_draw = ScriptedStream(values)
        assert est.p_hat == one_draw_p_hat(machine, n, one_draw)
        assert blocked.position == one_draw.position > 2 * n + 2 * 5


def rotated_batch_p_hats(machine, delta, seed, batches, n):
    """Hit fractions computed through the geometric oracle on rotated geometry."""
    p_hats = []
    for i in range(batches):
        u = substream(seed, 200 + i).random((n, 2))
        if machine is Machine.M1:
            geometry = {"q_angle": 2 * math.pi * u[:, 0] + delta, "r": 2 * u[:, 1]}
        elif machine is Machine.M2:
            geometry = {"phi1": 2 * math.pi * u[:, 0] + delta, "phi2": 2 * math.pi * u[:, 1] + delta}
        else:
            geometry = {"mid_radius": np.sqrt(u[:, 0]), "mid_angle": 2 * math.pi * u[:, 1] + delta}
        hits = oracles.chord_center_distance(machine.value, geometry) <= INNER_RADIUS
        p_hats.append(float(np.mean(hits)))
    return np.array(p_hats)


class TestRotationalInvariance:
    @pytest.mark.parametrize("machine", [Machine.M1, Machine.M2])
    def test_rotated_batches_indistinguishable(self, machine):
        batches, n = 60, 2000
        non_rejections = 0
        seeds = range(20)
        for seed in seeds:
            plain = np.array([
                estimate_probability(machine, n, master_seed=seed, stream_id=100 + i).p_hat
                for i in range(batches)
            ])
            rotated = rotated_batch_p_hats(machine, 0.7, seed, batches, n)
            if not oracles.ks_two_sample(plain, rotated, 0.05).reject:
                non_rejections += 1
        assert non_rejections >= 17  # ~95% of 20 seeds
