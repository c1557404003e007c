"""The three workloads: configs made from a workload seed, the spcelab
commands of one round, and the checks of each command's outputs.

Every check compares against a value computed here (a closed form, an exact
pmf, a recount of the output records, a regenerated series) or a property
the method must have; none compares against a stored copy of earlier output.
Statistical tolerances are 5 standard errors, so the checks hold on any
workload seed.
"""

from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

Z = 5.0  # tolerance of every statistical check, in standard errors

STANDARD_AXES = {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135}
SETTING_PAIRS = (("A", "B"), ("A", "B_prime"), ("A_prime", "B"), ("A_prime", "B_prime"))
PAIR_LABELS = ("AB", "AB'", "A'B", "A'B'")


class CheckError(Exception):
    """An output of a command is wrong."""


@dataclass
class Command:
    """One spcelab invocation of a round; ``trials`` counts the trials it simulates."""

    name: str
    argv: list
    out: Path
    trials: int
    check: Callable[[], None]
    exit_codes: tuple = (0,)


# ---------------------------------------------------------------------------
# check helpers

def _reject_constant(name):
    raise CheckError(f"non-standard JSON constant {name}")


def strict_json(text):
    """Parse RFC 8259 JSON; NaN and Infinity are rejected."""
    return json.loads(text, parse_constant=_reject_constant)


def load_json(path):
    return strict_json(Path(path).read_text(encoding="utf-8"))


def load_jsonl(path):
    return [strict_json(line) for line in Path(path).read_text(encoding="utf-8").splitlines() if line]


def load_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def expect(condition, message):
    if not condition:
        raise CheckError(message)


def near(label, value, expected, stderr):
    """``value`` lies within ``Z`` standard errors of ``expected``."""
    expect(abs(value - expected) <= Z * stderr,
           f"{label}: {value} is not within {Z} x {stderr:.3g} of {expected}")


def same(label, value, expected, rel=1e-9):
    expect(math.isclose(value, expected, rel_tol=rel, abs_tol=1e-12),
           f"{label}: {value} != {expected}")


def check_manifest(out, command):
    manifest = load_json(out / "manifest.json")
    expect(manifest["command"] == command, f"manifest command {manifest['command']!r}")
    for name in manifest["outputs"]:
        expect((out / name).is_file(), f"listed output {name} is missing")
    return manifest


def pmf_moments(pmf):
    """Mean, variance and 4th central moment of a pmf given as {value: p}."""
    mean = sum(k * p for k, p in pmf.items())
    var = sum((k - mean) ** 2 * p for k, p in pmf.items())
    mu4 = sum((k - mean) ** 4 * p for k, p in pmf.items())
    return mean, var, mu4


def binomial_pmf(n, p):
    return {k: math.comb(n, k) * p ** k * (1 - p) ** (n - k) for k in range(n + 1)}


def hypergeometric_pmf(n_blue, n_red, n):
    total = math.comb(n_blue + n_red, n)
    return {k: math.comb(n_blue, k) * math.comb(n_red, n - k) / total
            for k in range(max(0, n - n_red), min(n, n_blue) + 1)}


def check_count_moments(label, row, runs, pmf):
    """Mean and sample variance of per-run blue counts match the count law."""
    mean, var, mu4 = pmf_moments(pmf)
    near(f"{label} mean count", float(row["mean_count_b"]), mean, math.sqrt(var / runs))
    var_stderr = math.sqrt((mu4 - var * var * (runs - 3) / (runs - 1)) / runs)
    near(f"{label} count variance", float(row["var_count_b"]), var, var_stderr)


def plane_axis(degrees):
    rad = math.radians(degrees)
    return (math.sin(rad), 0.0, math.cos(rad))


def cap_correlator(theta_deg, eps_a, eps_b):
    """Cap-model correlator law ``(1 - eps_A/2)(1 - eps_B/2) cos theta``."""
    return (1 - eps_a / 2) * (1 - eps_b / 2) * math.cos(math.radians(theta_deg))


def check_correlators(out, n, eps):
    """correlators.csv and chsh.json against the cap-model law at the standard axes."""
    rows = load_csv(out / "correlators.csv")
    expect([row["setting_pair"] for row in rows] == list(PAIR_LABELS),
           f"setting pairs {[row['setting_pair'] for row in rows]}")
    variances = []
    for row, (x, y) in zip(rows, SETTING_PAIRS):
        expect(int(row["n"]) == n, f"correlator n {row['n']} != {n}")
        expected = cap_correlator(STANDARD_AXES[x] - STANDARD_AXES[y], eps, eps)
        variances.append((1 - expected ** 2) / n)
        near(f"r({row['setting_pair']})", float(row["r"]), expected, math.sqrt(variances[-1]))
    report = load_json(out / "chsh.json")
    expect(report["n_per_pair"] == n, f"chsh n_per_pair {report['n_per_pair']} != {n}")
    near("S", report["S"], 2 * math.sqrt(2) * (1 - eps / 2) ** 2, math.sqrt(sum(variances)))
    return rows


def check_runs_jsonl(out, n, eps, record_limit):
    """Headers keep the true N; records are unit vectors inside their caps with +/-1 outcomes.

    Returns the correlator recomputed from each run's serialized records.
    """
    lines = load_jsonl(out / "runs.jsonl")
    expect(len(lines) == 4 * (record_limit + 1), f"runs.jsonl has {len(lines)} lines")
    correlators = []
    for k, (x, y) in enumerate(SETTING_PAIRS):
        header, records = lines[k * (record_limit + 1)], lines[k * (record_limit + 1) + 1:(k + 1) * (record_limit + 1)]
        expect(header.get("kind") == "header", f"run {k} does not start with a header")
        expect(header["N"] == n, f"run {k} header N {header['N']} != {n}")
        expect(header["records_serialized"] == record_limit,
               f"run {k} records_serialized {header['records_serialized']} != {record_limit}")
        axis_a, axis_b = plane_axis(STANDARD_AXES[x]), plane_axis(STANDARD_AXES[y])
        product_sum = 0
        for rec in records:
            for key, axis in (("a", axis_a), ("b", axis_b)):
                v = rec[key]
                expect(abs(math.fsum(c * c for c in v) - 1.0) < 1e-9, f"run {k}: {key} not unit")
                expect(math.fsum(c * a for c, a in zip(v, axis)) >= 1.0 - eps - 1e-9,
                       f"run {k}: {key} outside its cap")
            expect(rec["s1"] in (1, -1) and rec["s2"] in (1, -1), f"run {k}: outcome not +/-1")
            product_sum += rec["s1"] * rec["s2"]
        correlators.append(-product_sum / max(len(records), 1))
    return correlators


def series_file(path):
    """Parse a series JSONL file with plain json: [(header, [outcomes...]), ...]."""
    series = []
    for record in load_jsonl(path):
        if record.get("kind") == "header":
            series.append((record, []))
        else:
            values = series[-1][1]
            expect(record["index"] == len(values), f"{path.name}: index {record['index']} out of order")
            expect(record["outcome"] in (1, -1), f"{path.name}: outcome {record['outcome']}")
            values.append(record["outcome"])
    for header, values in series:
        expect(header["n"] == len(values), f"{path.name}: header n {header['n']} != {len(values)}")
    return series


def write_config(work, name, doc):
    path = work / "configs" / f"{name}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1), encoding="utf-8")
    return path


def _command(work, name, subcommand, doc, trials, check_factory, exit_codes=(0,)):
    out = work / name
    config = write_config(work, name, doc)
    return Command(name, [subcommand, "--config", str(config), "--out", str(out)], out, trials,
                   check_factory(out), exit_codes)


def _replay(work, name, source, trials):
    out = work / name

    def check():
        original = load_json(source / "manifest.json")
        replayed = check_manifest(out, original["command"])
        del original["timestamp"], replayed["timestamp"]
        expect(replayed == original, "replayed manifest differs beyond its timestamp")
        for name_ in original["outputs"]:
            expect((out / name_).read_bytes() == (source / name_).read_bytes(),
                   f"replayed {name_} is not byte-identical")

    return Command(name, ["replay", str(source / "manifest.json"), "--out", str(out)], out, trials, check)


# ---------------------------------------------------------------------------
# pairs: bulk pair sampling over a handful of streams, little output

def pairs(seed, work):
    rng = random.Random(seed)
    n = 1_000_000
    eps = round(rng.uniform(0.05, 0.30), 4)
    eps_a, eps_b = round(rng.uniform(0.0, 0.2), 4), round(rng.uniform(0.0, 0.2), 4)
    n_key, n_test = 1_000_000, 250_000
    record_limit = 100
    n_chords = 1_000_000

    def spce_check(out):
        def check():
            check_manifest(out, "spce")
            check_correlators(out, n, eps)
            check_runs_jsonl(out, n, eps, record_limit)
        return check

    def qkd_check(adversary):
        def factory(out):
            def check():
                check_manifest(out, "qkd")
                report = load_json(out / "report.json")
                keys = load_json(out / "keys.json")
                expect(report["n"] == n_key and keys["header"]["n"] == n_key, "key length != n")
                p = (1 - (1 - eps_a / 2) * (1 - eps_b / 2)) / 2
                near("key mismatch", report["mismatch"], p, math.sqrt(p * (1 - p) / n_key))
                differ = int(keys["alice"], 16) ^ int(keys["bob"], 16)
                expect(len(keys["alice"]) == len(keys["bob"]) == 2 * math.ceil(n_key / 8), "hex length")
                same("mismatch recount", report["mismatch"], differ.bit_count() / n_key, rel=1e-12)
                chsh = report["chsh"]
                expect(chsh["n_test"] == n_test and chsh["adversary"] is adversary, "test block header")
                if adversary:
                    expect(chsh["S"] <= 2.0 + 1e-12, f"adversary S {chsh['S']} > 2")
                else:
                    k = (1 - eps_a / 2) * (1 - eps_b / 2)
                    near("test S", chsh["S"], 2 * math.sqrt(2) * k,
                         math.sqrt(4 * (1 - k * k / 2) / n_test))
            return check
        return factory

    def bertrand_check(out):
        def check():
            check_manifest(out, "bertrand")
            rows = load_csv(out / "bertrand.csv")
            expect([row["machine"] for row in rows] == ["M1", "M2", "M3"], "machines")
            for row, p in zip(rows, (1 / 2, 1 / 3, 1 / 4)):
                expect(int(row["n"]) == n_chords, f"{row['machine']} n {row['n']} != {n_chords}")
                near(f"{row['machine']} p_hat", float(row["p_hat"]), p, math.sqrt(p * (1 - p) / n_chords))
        return check

    qkd_doc = {"axis": 0, "epsilon": [eps_a, eps_b], "n": n_key,
               "test": {"axes": STANDARD_AXES, "n": n_test, "adversary": False}}
    return [
        _command(work, "spce", "spce", {"axes": STANDARD_AXES, "epsilon": eps, "n": n,
                                        "seed": rng.getrandbits(64), "record_limit": record_limit},
                 4 * n, spce_check),
        _command(work, "qkd", "qkd", {**qkd_doc, "seed": rng.getrandbits(64)},
                 n_key + 4 * n_test, qkd_check(False)),
        _command(work, "qkd_adversary", "qkd",
                 {**qkd_doc, "seed": rng.getrandbits(64), "test": {**qkd_doc["test"], "adversary": True}},
                 n_key + n_test, qkd_check(True)),
        _command(work, "bertrand", "bertrand", {"machines": ["M1", "M2", "M3"], "n": n_chords,
                                                "seed": rng.getrandbits(64)},
                 3 * n_chords, bertrand_check),
    ]


# ---------------------------------------------------------------------------
# ensembles: many short runs, one stream each

def ensembles(seed, work):
    rng = random.Random(seed)
    e4_urn, e4_remove, e4_n, e4_runs = [rng.randint(40, 70), rng.randint(40, 70)], rng.randint(5, 15), 40, 20_000
    e56_urn, e56_n, e56_runs = [rng.randint(20, 40), rng.randint(60, 80)], 100, 15_000
    count, n_member, subensembles = 500, 200, 10
    mixed_urns = [[50, 50], [rng.randint(35, 42), 60]]
    procedures = [{"kind": "thin", "param": 0.5}, {"kind": "every_kth", "param": 2}]

    def e4_check(out):
        def check():
            check_manifest(out, "coins")
            (row,) = load_csv(out / "summary.csv")
            expect(row["experiment"] == "E4" and int(row["runs"]) == e4_runs and int(row["n"]) == e4_n,
                   "E4 summary row")
            series = series_file(out / "series.jsonl")
            expect(len(series) == 5, f"{len(series)} series serialized, expected 5")
            blue, red = series[0][0]["params"]["n_blue"], series[0][0]["params"]["n_red"]
            expect(blue + red == sum(e4_urn) - e4_remove and blue <= e4_urn[0] and red <= e4_urn[1],
                   f"post-removal urn ({blue}, {red}) does not follow from {e4_urn} less {e4_remove}")
            for header, values in series:
                expect(header["params"] == {"n_blue": blue, "n_red": red, "n": e4_n}, "E4 header params")
                expect(values.count(1) <= blue and values.count(-1) <= red, "E4 draws exceed the urn")
            check_count_moments("E4", row, e4_runs, hypergeometric_pmf(blue, red, e4_n))
        return check

    def e56_check(out):
        def check():
            check_manifest(out, "coins")
            rows = load_csv(out / "summary.csv")
            expect([row["experiment"] for row in rows] == ["E5", "E6", "E5_vs_E6"], "E5E6 summary rows")
            p5 = e56_urn[0] / sum(e56_urn)
            check_count_moments("E5", rows[0], e56_runs, binomial_pmf(e56_n, p5))
            check_count_moments("E6", rows[1], e56_runs, binomial_pmf(e56_n, 0.5))
            for name in ("series_e5.jsonl", "series_e6.jsonl"):
                expect(len(series_file(out / name)) == 5, f"{name} series count")
        return check

    def purity_check(pure):
        def factory(out):
            def check():
                check_manifest(out, "purity")
                verdict = load_json(out / "verdict.json")
                family = verdict["reports"][0]
                expect(family["test"] == "chi2_homogeneity" and family["valid"], "family report")
                expect(len(verdict["reports"]) == 1 + 2 * count * (1 + len(procedures)) + subensembles,
                       f"{len(verdict['reports'])} reports")
                if pure:
                    expect(family["p"] >= 3e-7, f"pure family homogeneity p {family['p']} < 3e-7")
                else:
                    expect(verdict["verdict"] == "mixed", f"mixed family judged {verdict['verdict']}")
            return check
        return factory

    def purity_doc(box, urns):
        return {"generate": {"experiments": [{"box": box, "urn": urn, "n": n_member, "count": count}
                                             for urn in urns]},
                "procedures": procedures, "subensemble_count": subensembles, "alpha": 0.05,
                "seed": rng.getrandbits(64)}

    return [
        _command(work, "coins_e4", "coins",
                 {"experiment": "E4", "n": e4_n, "urn": e4_urn, "remove": e4_remove, "runs": e4_runs,
                  "series_limit": 5, "seed": rng.getrandbits(64)},
                 e4_runs * e4_n, e4_check),
        _command(work, "coins_e5e6", "coins",
                 {"experiment": "E5E6", "n": e56_n, "urn": e56_urn, "runs": e56_runs, "series_limit": 5,
                  "seed": rng.getrandbits(64)},
                 2 * e56_runs * e56_n, e56_check),
        _command(work, "purity_mixed", "purity", purity_doc("E5", mixed_urns),
                 2 * count * n_member, purity_check(False), exit_codes=(1,)),
        # a pure family is judged pure, or at rate alpha mixed/inconclusive
        _command(work, "purity_pure", "purity", purity_doc("E6", [[50, 50], [rng.randint(5, 95), 50]]),
                 2 * count * n_member, purity_check(True), exit_codes=(0, 1, 2)),
    ]


# ---------------------------------------------------------------------------
# roundtrip: serialize everything, read it back, replay

def roundtrip(seed, work):
    rng = random.Random(seed)
    runs, n = 100, 500
    blue = rng.randint(20, 35)
    urn = [blue, 100 - blue]
    n_spce = 10_000
    eps = round(rng.uniform(0.05, 0.30), 4)
    purity_seed = rng.getrandbits(64)
    purity_cfg = {"inputs": ["../coins/series_e5.jsonl", "../coins/series_e6.jsonl"],
                  "procedures": [{"kind": "thin", "param": 0.5}], "subensemble_count": 10,
                  "subensemble_fraction": 0.5, "power_floor": 10_000, "alpha": 0.05, "seed": purity_seed}

    def regenerated(out):
        """Each serialized series next to the one regenerate_series builds from its header."""
        from spcelab.coin_lab import regenerate_series
        pairs_ = {}
        for name in ("series_e5.jsonl", "series_e6.jsonl"):
            pairs_[name] = [(values, regenerate_series(header)) for header, values in series_file(out / name)]
        return pairs_

    def coins_check(out):
        def check():
            check_manifest(out, "coins")
            rows = load_csv(out / "summary.csv")
            expect([row["experiment"] for row in rows] == ["E5", "E6", "E5_vs_E6"], "summary rows")
            for row, (name, series), p in zip(rows, regenerated(out).items(), (blue / 100, 0.5)):
                expect(len(series) == runs, f"{name}: {len(series)} series, expected {runs}")
                counts = []
                for values, regen in series:
                    expect(values == regen.values.tolist(), f"{name}: series differs from its regeneration")
                    counts.append(values.count(1))
                mean = math.fsum(counts) / runs
                same(f"{name} mean count", float(row["mean_count_b"]), mean)
                same(f"{name} count variance", float(row["var_count_b"]),
                     math.fsum((c - mean) ** 2 for c in counts) / (runs - 1))
                near(f"{name} fraction", float(row["mean_fraction_b"]), p, math.sqrt(p * (1 - p) / (runs * n)))
        return check

    def purity_check(out):
        def check():
            from spcelab import purity
            check_manifest(out, "purity")
            verdict = load_json(out / "verdict.json")
            samples = [purity.Sample(regen, f"S{i}") for i, (_, regen) in
                       enumerate(s for series in regenerated(work / "coins").values() for s in series)]
            expected = purity.purity_verdict(
                samples, [purity.Reduction(p["kind"], p["param"]) for p in purity_cfg["procedures"]],
                purity_cfg["subensemble_count"], purity_cfg["alpha"], master_seed=purity_seed,
                subensemble_fraction=purity_cfg["subensemble_fraction"], power_floor=purity_cfg["power_floor"])
            expect(verdict["verdict"] == expected.verdict.value,
                   f"inputs-mode verdict {verdict['verdict']} != regenerated {expected.verdict.value}")
            same("family chi2", verdict["reports"][0]["statistic"], expected.reports[0].statistic)
            expect(len(verdict["reports"]) == len(expected.reports), "report count")
        return check

    def spce_check(out):
        def check():
            check_manifest(out, "spce")
            rows = check_correlators(out, n_spce, eps)
            recounted = check_runs_jsonl(out, n_spce, eps, n_spce)
            for row, r in zip(rows, recounted):
                same(f"r({row['setting_pair']}) recount", float(row["r"]), r, rel=1e-12)
        return check

    coins_trials = 2 * runs * n
    return [
        _command(work, "coins", "coins", {"experiment": "E5E6", "n": n, "urn": urn, "runs": runs,
                                          "series_limit": runs, "seed": rng.getrandbits(64)},
                 coins_trials, coins_check),
        _command(work, "purity", "purity", purity_cfg, coins_trials, purity_check, exit_codes=(1,)),
        _command(work, "spce", "spce", {"axes": STANDARD_AXES, "epsilon": eps, "n": n_spce,
                                        "record_limit": n_spce, "seed": rng.getrandbits(64)},
                 4 * n_spce, spce_check),
        _replay(work, "coins_replay", work / "coins", coins_trials),
        _replay(work, "spce_replay", work / "spce", 4 * n_spce),
    ]


WORKLOADS = {"pairs": pairs, "ensembles": ensembles, "roundtrip": roundtrip}
