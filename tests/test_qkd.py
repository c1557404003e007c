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
from spcelab.purity import runs_test
from spcelab.qkd import (
    KeyPair,
    ekert_test_statistic,
    generate_keys,
    mismatch_rate,
)
from spcelab.randkit import BLOCK_ROWS, CapSpec, Direction

AXIS = Direction.from_plane_angle(20.0)
STANDARD = tuple(Direction.from_plane_angle(d) for d in (0.0, 90.0, 45.0, 135.0))


class TestGenerateKeys:
    def test_sharp_polarizers_agree_exactly_for_every_seed(self):
        for seed in range(25):
            keys = generate_keys(AXIS, 2000, 0.0, 0.0, master_seed=seed)
            assert mismatch_rate(keys) == 0.0
            np.testing.assert_array_equal(keys.alice, keys.bob)

    def test_single_bit(self):
        keys = generate_keys(AXIS, 1, 0.0, 0.0, master_seed=0)
        assert len(keys) == 1
        assert keys.alice[0] in (0, 1)

    def test_smear_mismatch_matches_quadrature(self):
        expected = oracles.same_outcome_prob(0.1, 0.1, 1.0)
        keys = generate_keys(AXIS, 1_000_000, 0.1, 0.1, master_seed=3)
        assert abs(mismatch_rate(keys) - expected) < 3 * oracles.binomial_sigma(expected, len(keys))

    def test_heavier_smear(self):
        expected = oracles.same_outcome_prob(0.2, 0.2, 1.0)
        assert expected == pytest.approx(0.095, abs=1e-9)
        keys = generate_keys(AXIS, 1_000_000, 0.2, 0.2, master_seed=4)
        assert abs(mismatch_rate(keys) - expected) < 3 * oracles.binomial_sigma(expected, len(keys))

    def test_key_bits_look_uniform(self):
        keys = generate_keys(AXIS, 10_000, 0.1, 0.1, master_seed=5)
        for bits in (keys.alice, keys.bob):
            pm = np.where(bits == 1, 1, -1).astype(np.int8)
            assert runs_test(pm, 0.01).p_value > 0.01
            frac = float(np.mean(bits))
            assert abs(frac - 0.5) < 2.576 * oracles.binomial_sigma(0.5, len(bits))

    def test_bits_are_the_outcome_signs(self):
        # Alice's bit is (s1 + 1) / 2, Bob's (1 - s2) / 2, over several kernel blocks
        n = 3 * BLOCK_ROWS + 7
        keys = generate_keys(AXIS, n, 0.3, 0.1, master_seed=8, stream_id=2)
        _, _, s1, s2 = oracles.materialized_run(CapSpec(AXIS, 0.3), CapSpec(AXIS, 0.1), n, 8, 2)
        np.testing.assert_array_equal(keys.alice, (s1 + 1) // 2)
        np.testing.assert_array_equal(keys.bob, (1 - s2) // 2)

    def test_deterministic(self):
        a = generate_keys(AXIS, 500, 0.3, 0.1, master_seed=6)
        b = generate_keys(AXIS, 500, 0.3, 0.1, master_seed=6)
        np.testing.assert_array_equal(a.alice, b.alice)
        np.testing.assert_array_equal(a.bob, b.bob)

    def test_zero_length_rejected(self):
        with pytest.raises(DomainError):
            generate_keys(AXIS, 0, 0.0, 0.0, master_seed=0)


class TestMismatchRate:
    def test_identical_and_complementary(self):
        bits = np.array([0, 1, 1, 0, 1], dtype=np.uint8)
        meta = {}
        assert mismatch_rate(KeyPair(bits, bits.copy(), meta)) == 0.0
        assert mismatch_rate(KeyPair(bits, 1 - bits, meta)) == 1.0

    def test_empty_keys_rejected(self):
        empty = np.zeros(0, dtype=np.uint8)
        with pytest.raises(DomainError, match="empty keys"):
            mismatch_rate(KeyPair(empty, empty, {}))

    def test_length_mismatch_is_an_invariant_breach(self):
        with pytest.raises(DomainError):
            KeyPair(np.zeros(4, dtype=np.uint8), np.zeros(5, dtype=np.uint8), {})

    def test_mismatch_monotone_in_smear(self):
        n = 200_000
        rates = []
        for i, eps in enumerate((0.0, 0.05, 0.1, 0.2, 0.4)):
            keys = generate_keys(AXIS, n, eps, eps, master_seed=7, stream_id=i)
            rates.append(mismatch_rate(keys))
        assert rates[0] == 0.0
        for lo, hi in zip(rates, rates[1:]):
            sigma = oracles.binomial_sigma(max(hi, 1e-4), n)
            assert hi >= lo - 3 * sigma


class TestEkertStatistic:
    def test_clean_channel_hits_tsirelson(self):
        s = ekert_test_statistic(*STANDARD, 1_000_000, 0.0, 0.0, master_seed=8)
        assert abs(s - 2.0 * math.sqrt(2.0)) < 0.02

    def test_smear_shrinks_the_statistic(self):
        shrink = oracles.pair_mean_dot(0.3, 0.3, 1.0)  # (1 - eps/2)^2 = 0.7225
        expected = 2.0 * math.sqrt(2.0) * shrink
        assert expected == pytest.approx(2.0435, abs=1e-3)
        s = ekert_test_statistic(*STANDARD, 1_000_000, 0.3, 0.3, master_seed=9)
        assert abs(s - expected) < 0.02

    def test_intercept_resend_adversary_is_capped_at_two(self):
        for seed in range(5):
            s = ekert_test_statistic(*STANDARD, 100_000, 0.0, 0.0, master_seed=seed,
                                     adversary=True)
            assert s <= 2.0 + 1e-12

    def test_zero_test_rounds_rejected(self):
        with pytest.raises(DomainError):
            ekert_test_statistic(*STANDARD, 0, 0.0, 0.0, master_seed=0)

    def test_adversary_peaks_within_the_clean_channel(self, tmp_path):
        # 10^6 key pairs and 250,000 test pairs: a materialized adversary sample would add about 14 MB
        if not Path("/proc/self/status").exists():
            pytest.skip("needs /proc/self/status for the peak resident set")
        script = (
            "import sys\n"
            "from spcelab.cli import main\n"
            "code = main(['qkd', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
            "status = open('/proc/self/status').read().split('VmHWM:')[1].split()[0]\n"
            "print(code, status)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(spcelab.__file__).resolve().parents[1])}
        peak_kb = {}
        for adversary in (False, True):
            cfg = tmp_path / f"qkd-{adversary}.json"
            cfg.write_text(json.dumps({"axis": 0, "epsilon": [0.1, 0.1], "n": 1_000_000, "seed": 1,
                                       "test": {"axes": {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135},
                                                "n": 250_000, "adversary": adversary}}))
            result = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / f"out-{adversary}")],
                                    capture_output=True, text=True, env=env)
            assert result.returncode == 0, result.stderr
            code, peak_kb[adversary] = map(int, result.stdout.splitlines()[-1].split())
            assert code == 0
        assert peak_kb[True] <= peak_kb[False] + 5 * 1024

