"""Acceptance suite: every criterion at its stated scale and tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one printed
PASS/FAIL line per criterion.
"""

import itertools
import json
import math

import numpy as np
import pytest

import oracles
from spcelab.bertrand import Machine, estimate_probability
from spcelab.cli import main as cli_main
from spcelab.coin_lab import OutcomeLaw, sample_runs
from spcelab.purity import Reduction, Sample, Verdict, _member_counts, _runs_report, purity_verdict
from spcelab.qkd import generate_keys, mismatch_rate
from spcelab.randkit import CapSpec, Direction, substream
from spcelab.spce import chsh, correlator, correlator_stderr, outcome_blocks, shared_lambda_correlators

STANDARD = tuple(Direction.from_plane_angle(d) for d in (0.0, 90.0, 45.0, 135.0))


def criterion(num, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"[ACCEPTANCE {num}] {label}: {status} ({detail})", flush=True)
    assert ok, f"acceptance criterion {num} failed: {detail}"


def test_criterion_1_bertrand_triple():
    n = 1_000_000
    expected = {Machine.M1: 0.5, Machine.M2: 1.0 / 3.0, Machine.M3: 0.25}
    details = []
    ok = True
    for machine in Machine:
        est = estimate_probability(machine, n, master_seed=1)
        sigma = oracles.binomial_sigma(expected[machine], n)
        ok &= abs(est.p_hat - expected[machine]) < 3 * sigma
        details.append(f"{machine.value}={est.p_hat:.5f} vs {expected[machine]:.5f}")
    criterion(1, "chord machines converge to 1/2, 1/3, 1/4", ok, "; ".join(details))


def test_criterion_2_contextual_chsh_violation():
    n = 1_000_000
    a, a_p, b, b_p = STANDARD
    correlators = [
        correlator(CapSpec(x, 0.0), CapSpec(y, 0.0), n, master_seed=2, stream_id=i)
        for i, (x, y) in enumerate([(a, b), (a, b_p), (a_p, b), (a_p, b_p)])
    ]
    s = chsh(*correlators)
    tsirelson = 2.0 * math.sqrt(2.0)
    sigma_s = math.sqrt(sum(correlator_stderr(r, n) ** 2 for r in correlators))
    significance = (s - 2.0) / sigma_s
    ok = (tsirelson - 0.02 <= s <= tsirelson + 0.02) and significance > 5.0
    criterion(2, "contextual model violates the 2 bound at 2*sqrt(2)", ok,
              f"S={s:.4f}, target {tsirelson:.4f}+-0.02, violation at {significance:.0f} sigma")


def test_criterion_3_shared_lambda_bound():
    n = 1_000_000
    a, a_p, b, b_p = STANDARD
    worst = 0.0
    ok = True
    for seed in range(20):
        corr = shared_lambda_correlators(a, a_p, b, b_p, n, master_seed=seed)
        s = chsh(corr["AB"], corr["AB'"], corr["A'B"], corr["A'B'"])
        worst = max(worst, s)
        ok &= s <= 2.0 + 4.0 / math.sqrt(n)
    # the per-sample algebraic identity behind the bound, checked exactly
    for x, x_p, y, y_p in itertools.product((1, -1), repeat=4):
        ok &= abs(x * y - x * y_p) + abs(x_p * y + x_p * y_p) == 2
    criterion(3, "shared-hidden-direction model never beats 2", ok,
              f"max S over 20 seeds = {worst:.4f} <= {2.0 + 4.0 / math.sqrt(n):.4f}")


def test_criterion_4_anticorrelation_failure():
    n = 1_000_000
    axis = Direction.from_plane_angle(0.0)

    def same_rate(eps, stream_id):
        cap = CapSpec(axis, eps)
        blocks = outcome_blocks(cap, cap, n, master_seed=4, stream_id=stream_id)
        return sum(int(np.count_nonzero(same)) for _, _, same in blocks) / n

    sharp_rate = same_rate(0.0, 0)
    rate = same_rate(0.1, 1)
    expected = oracles.same_outcome_prob(0.1, 0.1, 1.0)
    sigma = oracles.binomial_sigma(expected, n)
    ok = sharp_rate == 0.0 and abs(rate - expected) < 3 * sigma
    criterion(4, "strict anti-correlation fails exactly when smear > 0", ok,
              f"P(same)={rate:.5f} vs oracle {expected:.5f} at eps=0.1; exactly {sharp_rate} at eps=0")


def test_criterion_5_qkd_mismatch_monotonicity():
    n = 1_000_000
    grid = (0.0, 0.05, 0.1, 0.2, 0.4)
    axis = Direction.from_plane_angle(0.0)
    rates = []
    for i, eps in enumerate(grid):
        keys = generate_keys(axis, n, eps, eps, master_seed=5, stream_id=i)
        rates.append(mismatch_rate(keys))
    ok = rates[0] == 0.0
    for lo, hi in zip(rates, rates[1:]):
        band = 3.0 * math.sqrt(
            sum(oracles.binomial_sigma(max(r, 1e-6), n) ** 2 for r in (lo, hi))
        )
        ok &= hi >= lo - band
    for rate in rates[1:]:  # any smear at all must show a mismatch, decisively
        ok &= rate > 5.0 * oracles.binomial_sigma(max(rate, 1e-6), n)
    criterion(5, "key mismatch grows with the smear and is 0 at eps=0", ok,
              "rates " + ", ".join(f"{eps}:{r:.5f}" for eps, r in zip(grid, rates)))


def test_criterion_6_urn_variance_structure():
    runs, n = 100_000, 100
    urn = {"n_blue": 51, "n_red": 51, "n": n}
    counts_dep, _ = sample_runs(OutcomeLaw("urn:noreplace", urn), 6, np.arange(runs))
    counts_iid, _ = sample_runs(OutcomeLaw("urn:replace", urn), 7, np.arange(runs))
    _, var_expected = oracles.hypergeom_count_moments(51, 51, n)
    var_dep = float(counts_dep.var(ddof=1))
    var_iid = float(counts_iid.var(ddof=1))
    ok = (
        abs(var_dep - var_expected) / var_expected < 0.05
        and abs(var_iid - 25.0) / 25.0 < 0.05
        and abs(float(counts_dep.mean()) - 50.0) < 0.03
        and abs(float(counts_iid.mean()) - 50.0) < 0.07
    )
    criterion(6, "urn draws share the mean but not the variance structure", ok,
              f"var without replacement {var_dep:.4f} vs {var_expected:.4f}; "
              f"with replacement {var_iid:.3f} vs 25")


def _e6_family(seed, runs=10, n=10_000):
    return [
        Sample(OutcomeLaw("box:E6", {"n_blue": 50, "n_red": 50, "n": n}).series(substream(seed, i + 1)), f"S{i}")
        for i in range(runs)
    ]


def test_criterion_7_purity_discrimination():
    perturbed = [
        Sample(OutcomeLaw("box:E5", {"n_blue": 50, "n_red": 50, "n": 10_000}).series(substream(700, i + 1)), f"even{i}")
        for i in range(5)
    ] + [
        Sample(OutcomeLaw("box:E5", {"n_blue": 4, "n_red": 6, "n": 10_000}).series(substream(700, i + 6)), f"skew{i}")
        for i in range(5)
    ]
    mixed = purity_verdict(perturbed, [Reduction("thin", 0.5)], 5, 0.05, master_seed=700)
    corrected_p = mixed.reports[0].p_adjusted
    ok = mixed.verdict is Verdict.MIXED and corrected_p < 1e-4

    pure_count = 0
    for seed in range(100):
        verdict = purity_verdict(_e6_family(seed), [Reduction("thin", 0.5)], 5, 0.05, master_seed=seed)
        if verdict.verdict is Verdict.PURE:
            pure_count += 1
    ok &= pure_count >= 90
    criterion(7, "purity battery separates mixed from pure families", ok,
              f"perturbed: mixed with corrected p={corrected_p:.2e}; "
              f"pure verdicts {pure_count}/100 seeds")


def lab_runs_test(series, alpha):
    """The purity battery's runs test of one series: its counting pass and its report."""
    (n,), (n_pos,), (runs,) = _member_counts([series.values])
    return _runs_report(int(n), int(n_pos), int(runs), alpha)


def test_criterion_8_randomness_tests():
    d2 = OutcomeLaw("device:D2", {"initial_face": "B", "n": 100}).series(substream(8, 0))
    d2_report = lab_runs_test(d2, 0.01)
    ok = d2_report.p_value < 1e-15

    alpha, reps, n = 0.05, 1000, 10_000
    rejections = sum(
        lab_runs_test(OutcomeLaw("device:D3", {"initial_face": "B", "n": n}).series(substream(seed, 1)), alpha).reject
        for seed in range(reps)
    )
    rate = rejections / reps
    band = 2.0 * math.sqrt(alpha * (1 - alpha) / reps)
    ok &= abs(rate - alpha) < band
    criterion(8, "runs test rejects alternation and calibrates on fair coins", ok,
              f"alternating p={d2_report.p_value:.2e}; fair rejection rate {rate:.3f} "
              f"within {alpha}+-{band:.3f}")


def test_criterion_9_cli_reproducibility(tmp_path):
    jobs = {
        "spce": {"axes": {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135}, "n": 500, "seed": 91},
        "coins": {"experiment": "E4", "n": 100, "urn": [51, 51], "runs": 5, "seed": 92},
        "purity": {
            "generate": {"experiments": [{"box": "E6", "urn": [50, 50], "n": 3000, "count": 4}]},
            "procedures": [{"kind": "every_kth", "param": 2}],
            "subensemble_count": 2,
            "seed": 93,
        },
        "bertrand": {"machines": ["M1", "M2", "M3"], "n": 2000, "seed": 94},
        "qkd": {"axis": 0, "epsilon": 0.1, "n": 3000, "seed": 95,
                "test": {"axes": {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135}, "n": 2000}},
    }
    ok = True
    details = []
    for command, cfg in jobs.items():
        cfg_path = tmp_path / f"{command}.json"
        cfg_path.write_text(json.dumps(cfg))
        original = tmp_path / command
        code_first = cli_main([command, "--config", str(cfg_path), "--out", str(original)])
        replayed = tmp_path / f"{command}-replay"
        code_second = cli_main(["replay", str(original / "manifest.json"), "--out", str(replayed)])
        manifest = json.loads((original / "manifest.json").read_text())
        identical = all(
            (original / name).read_bytes() == (replayed / name).read_bytes()
            for name in manifest["outputs"]
        )
        ok &= identical and code_first == code_second
        details.append(f"{command}:{'ok' if identical else 'DIFFERS'}")
    criterion(9, "every command replays byte-identically from its manifest", ok,
              "; ".join(details))
