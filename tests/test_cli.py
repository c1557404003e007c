import copy
import csv
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
from spcelab.cli import main
from spcelab.coin_lab import read_timeseries_jsonl, regenerate_series
from spcelab.qkd import generate_keys
from spcelab.randkit import Direction, RngStream


#: A JSON array nested 100,000 deep, deeper than the parser can recurse.
DEEP_JSON = "[" * 100_000 + "]" * 100_000


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def _reject_constant(token):
    raise ValueError(f"{token} is not valid JSON")


def load_json(path):
    """Parse a JSON output strictly: bare NaN or Infinity fails the test."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def read_outputs(out_dir):
    manifest = load_json(out_dir / "manifest.json")
    outputs = {name: (out_dir / name).read_bytes() for name in manifest["outputs"]}
    for name in outputs:
        if name.endswith(".json"):
            load_json(out_dir / name)
    return outputs


STANDARD_AXES = {"A": 0, "A_prime": 90, "B": 45, "B_prime": 135}
PURITY_GENERATE = {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]}}


class TestSpceCommand:
    def test_minimal_single_pair(self, tmp_path):
        cfg = write_config(tmp_path, {"axes": {"A": 0, "B": 45}, "n": 10, "seed": 1})
        out = tmp_path / "out"
        assert main(["spce", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("runs.jsonl", "correlators.csv", "chsh.json", "manifest.json"):
            assert (out / name).exists()
        report = load_json(out / "chsh.json")
        assert report["S"] is None
        assert report["low_n"] is True
        lines = (out / "runs.jsonl").read_text().splitlines()
        assert len(lines) == 11  # header + 10 records

    def test_standard_angles_reach_tsirelson(self, tmp_path):
        cfg = write_config(tmp_path, {
            "axes": STANDARD_AXES, "epsilon": 0.0, "n": 1_000_000,
            "seed": 7, "record_limit": 500,
        })
        out = tmp_path / "out"
        assert main(["spce", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_json(out / "chsh.json")
        assert 2.81 <= report["S"] <= 2.85
        assert report["low_n"] is False

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"axes": STANDARD_AXES, "n": 200, "seed": 3})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["spce", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["spce", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)

    def test_invalid_epsilon_is_a_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, {"axes": {"A": 0, "B": 45}, "epsilon": 3.0, "n": 10})
        assert main(["spce", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 3
        assert "epsilon" in capsys.readouterr().err

    def test_axis_vector_matches_its_plane_angle(self, tmp_path):
        outputs = []
        for name, axis in (("angle", 0), ("vector", [0, 0, 2])):
            cfg = write_config(tmp_path, {"axes": {"A": axis, "B": 45}, "n": 20, "seed": 4}, f"{name}.json")
            assert main(["spce", "--config", str(cfg), "--out", str(tmp_path / name)]) == 0
            outputs.append(read_outputs(tmp_path / name))
        assert outputs[0] == outputs[1]

    def test_per_axis_epsilon_follows_the_cap_law(self, tmp_path):
        eps = {"A": 0.2, "A_prime": 0, "B": 0.4, "B_prime": 1.0}
        n = 100_000
        cfg = write_config(tmp_path, {"axes": STANDARD_AXES, "epsilon": eps, "n": n, "seed": 8,
                                      "record_limit": 0})
        out = tmp_path / "out"
        assert main(["spce", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "correlators.csv", newline="") as fh:
            rows = {r["setting_pair"]: float(r["r"]) for r in csv.DictReader(fh)}
        for x, y in (("A", "B"), ("A", "B_prime"), ("A_prime", "B"), ("A_prime", "B_prime")):
            cos_xy = math.cos(math.radians(STANDARD_AXES[y] - STANDARD_AXES[x]))
            expected = oracles.contextual_correlator(eps[x], eps[y], cos_xy)
            label = (x + y).replace("_prime", "'")
            assert abs(rows[label] - expected) < 5 * math.sqrt((1 - expected ** 2) / n), label

    def test_json_table_format(self, tmp_path):
        cfg = write_config(tmp_path, {"axes": {"A": 0, "B": 45}, "n": 50, "seed": 2})
        out = tmp_path / "out"
        assert main(["spce", "--config", str(cfg), "--out", str(out), "--format", "json"]) == 0
        records = load_json(out / "correlators.json")
        assert records[0]["setting_pair"] == "AB"
        assert isinstance(records[0]["r"], float)


class TestCoinsCommand:
    def test_e1_constant_series(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "E1", "n": 6, "initial_face": "B", "seed": 0})
        out = tmp_path / "out"
        assert main(["coins", "--config", str(cfg), "--out", str(out)]) == 0
        records = [json.loads(line) for line in (out / "series.jsonl").read_text().splitlines()]
        outcomes = [r["outcome"] for r in records if "outcome" in r]
        assert outcomes == [-1] * 6  # face B in, face R out, every time

    def test_e4_summary_variance(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "E4", "n": 100, "urn": [51, 51],
                                      "runs": 100_000, "series_limit": 2, "seed": 5})
        out = tmp_path / "out"
        assert main(["coins", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["experiment"] == "E4"
        var = float(rows[0]["var_count_b"])
        assert abs(var - 0.495) / 0.495 < 0.05
        series_lines = (out / "series.jsonl").read_text().splitlines()
        headers = [json.loads(l) for l in series_lines if json.loads(l).get("kind") == "header"]
        assert len(headers) == 2

    def test_e5_vs_e6_paired(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "E5E6", "n": 5000, "urn": [50, 50],
                                      "runs": 2, "seed": 9})
        out = tmp_path / "out"
        assert main(["coins", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "series_e5.jsonl").exists()
        assert (out / "series_e6.jsonl").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["experiment"] for r in rows] == ["E5", "E6", "E5_vs_E6"]
        assert abs(float(rows[2]["z"])) < 5.0

    def test_removal_changes_e5_composition(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "E5", "n": 20_000, "urn": [50, 50],
                                      "remove": 90, "seed": 2})
        out = tmp_path / "out"
        assert main(["coins", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        fraction = float(row["mean_fraction_b"])
        # 10 coins survive the removal, so the revealed fraction sits near a tenth
        nearest = round(fraction * 10) / 10
        assert abs(fraction - nearest) < 4 * math.sqrt(0.25 / 20_000)

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"experiment": "E3", "n": 500, "runs": 3, "seed": 11})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["coins", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["coins", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)


    @pytest.mark.parametrize("cfg", [
        {"experiment": "E1", "initial_face": "R"},
        {"experiment": "E2"},
        {"experiment": "E3"},
        {"experiment": "E4", "urn": [7, 5]},
        {"experiment": "E4", "urn": [7, 5], "remove": 3},
        {"experiment": "E4", "urn": [7, 5], "with_replacement": True},
        {"experiment": "E5", "urn": [7, 5], "remove": 4},
        {"experiment": "E6", "urn": [7, 5]},
        {"experiment": "E5E6", "urn": [7, 5]},
    ], ids=lambda cfg: "-".join(map(str, cfg.values())))
    def test_every_series_regenerates_from_its_header(self, tmp_path, monkeypatch, cfg):
        monkeypatch.setattr("spcelab.coin_lab.BATCH_UNIFORMS", 24)  # three runs per pass
        runs = 10
        cfg_path = write_config(tmp_path, {**cfg, "n": 8, "runs": runs, "series_limit": runs,
                                           "seed": 2**64 - 2})
        out = tmp_path / "out"
        assert main(["coins", "--config", str(cfg_path), "--out", str(out)]) == 0
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [n for n in load_json(out / "manifest.json")["outputs"] if n.endswith(".jsonl")]
        assert len(names) == (2 if cfg["experiment"] == "E5E6" else 1)
        for name, row in zip(names, rows):
            series = read_timeseries_jsonl(out / name)
            assert len(series) == runs
            for s in series:
                assert (regenerate_series(s.meta).values == s.values).all()
            counts = [int((s.values == 1).sum()) for s in series]
            assert float(row["mean_count_b"]) == pytest.approx(sum(counts) / runs, rel=1e-12)

    def test_streams_are_built_per_command_not_per_run(self, tmp_path, monkeypatch):
        built = []
        init = RngStream.__init__

        def counting_init(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RngStream, "__init__", counting_init)
        cfg_path = write_config(tmp_path, {"experiment": "E4", "n": 20, "urn": [30, 30], "remove": 5,
                                           "runs": 5000, "series_limit": 3, "seed": 4})
        assert main(["coins", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 0
        assert 1 <= len(built) <= 2


class TestPurityCommand:
    def test_generated_pure_family_exits_zero(self, tmp_path):
        cfg = write_config(tmp_path, {
            "generate": {"experiments": [{"box": "E6", "urn": [50, 50], "n": 5000, "count": 4}]},
            "procedures": [{"kind": "thin", "param": 0.5}],
            "subensemble_count": 2,
            "alpha": 0.05,
            "seed": 21,
        })
        out = tmp_path / "out"
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 0
        doc = load_json(out / "verdict.json")
        assert doc["verdict"] == "pure"
        assert doc["correction"] == "holm"

    def test_perturbed_family_exits_one(self, tmp_path):
        cfg = write_config(tmp_path, {
            "generate": {"experiments": [
                {"box": "E5", "urn": [50, 50], "n": 2000, "count": 2},
                {"box": "E5", "urn": [4, 6], "n": 2000, "count": 2},
            ]},
            "alpha": 0.05,
            "seed": 22,
        })
        out = tmp_path / "out"
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 1
        doc = load_json(out / "verdict.json")
        assert doc["verdict"] == "mixed"

    def test_small_family_is_inconclusive(self, tmp_path):
        cfg = write_config(tmp_path, {
            "generate": {"experiments": [{"box": "E6", "urn": [1, 1], "n": 100, "count": 2}]},
            "seed": 23,
        })
        assert main(["purity", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2

    def test_input_files_mode(self, tmp_path):
        gen_cfg = write_config(tmp_path, {"experiment": "E6", "n": 6000, "urn": [50, 50],
                                          "runs": 4, "series_limit": 4, "seed": 24}, "gen.json")
        data_dir = tmp_path / "data"
        assert main(["coins", "--config", str(gen_cfg), "--out", str(data_dir)]) == 0
        cfg = write_config(tmp_path, {"inputs": [str(data_dir / "series.jsonl")], "seed": 25})
        assert main(["purity", "--config", str(cfg), "--out", str(tmp_path / "out"),
                     "--alpha", "0.05"]) == 0

    def test_truncated_input_exits_above_two(self, tmp_path, capsys):
        head = '{"kind": "header", "n": 5}\n{"index": 0, "outcome": 1}\n'
        for third_line in ("not json", "[1]", '{"index": 1, "outcome": true}',
                           '{"index": 1.0, "outcome": 1}'):
            bad = tmp_path / "bad.jsonl"
            bad.write_text(head + third_line + "\n")
            cfg = write_config(tmp_path, {"inputs": [str(bad)], "seed": 0})
            code = main(["purity", "--config", str(cfg), "--out", str(tmp_path / "out")])
            assert code == 4, third_line
            assert "line 3" in capsys.readouterr().err, third_line

    def test_malformed_file_among_inputs_is_named(self, tmp_path, capsys):
        good = tmp_path / "good.jsonl"
        good.write_text('{"kind": "header", "n": 1}\n{"index": 0, "outcome": 1}\n')
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"kind": "header", "n": 2}\n{"index": 0, "outcome": 1}\nnot json\n')
        cfg = write_config(tmp_path, {"inputs": ["good.jsonl", "bad.jsonl"], "seed": 0})
        out = tmp_path / "out"
        out.mkdir()
        (out / "verdict.json").write_text("kept\n")
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert "bad.jsonl: line 3" in err and "good.jsonl" not in err
        assert [p.name for p in out.iterdir()] == ["verdict.json"]
        assert (out / "verdict.json").read_text() == "kept\n"

    @pytest.mark.parametrize("data,message", [
        (b'{"kind": "header", "n": 1}\n\xff\n', "not UTF-8 text"),
        ((DEEP_JSON + "\n").encode(), "line 1: invalid JSON (nested too deeply)"),
    ], ids=["not-utf8", "too-deep"])
    def test_undecodable_input_is_an_input_error(self, tmp_path, capsys, data, message):
        (tmp_path / "bad.jsonl").write_bytes(data)
        cfg = write_config(tmp_path, {"inputs": ["bad.jsonl"], "seed": 0})
        out = tmp_path / "out"
        out.mkdir()
        (out / "verdict.json").write_text("kept\n")
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 4
        assert f"bad.jsonl: {message}" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["verdict.json"]
        assert (out / "verdict.json").read_text() == "kept\n"

    def test_empty_input_series_is_an_input_error(self, tmp_path, capsys):
        data = tmp_path / "series.jsonl"
        data.write_text('{"kind": "header", "n": 2}\n{"index": 0, "outcome": 1}\n'
                        '{"index": 1, "outcome": -1}\n{"kind": "header", "n": 0}\n')
        assert [len(s) for s in read_timeseries_jsonl(data)] == [2, 0]
        cfg = write_config(tmp_path, {"inputs": [str(data)], "seed": 0})
        out = tmp_path / "out"
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 4
        err = capsys.readouterr().err
        assert str(data) in err and "series 1 is empty" in err
        assert not out.exists()

    def test_invalid_runs_tests_write_strict_json(self, tmp_path):
        # prefix(0.005) leaves 15 trials per member, too few for a runs test
        cfg = write_config(tmp_path, {
            "generate": {"experiments": [{"box": "E6", "urn": [50, 50], "n": 3000, "count": 3}]},
            "procedures": [{"kind": "prefix", "param": 0.005}],
            "seed": 3,
        })
        out = tmp_path / "out"
        assert main(["purity", "--config", str(cfg), "--out", str(out)]) == 2
        invalid = [r for r in load_json(out / "verdict.json")["reports"] if not r["valid"]]
        assert invalid and all(r["p"] is None for r in invalid)


class TestBertrandCommand:
    def test_three_machines_converge(self, tmp_path):
        cfg = write_config(tmp_path, {"machines": ["M1", "M2", "M3"], "n": 200_000, "seed": 31})
        out = tmp_path / "out"
        assert main(["bertrand", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "bertrand.csv", newline="") as fh:
            rows = {r["machine"]: r for r in csv.DictReader(fh)}
        for machine, expected in (("M1", 0.5), ("M2", 1 / 3), ("M3", 0.25)):
            p_hat = float(rows[machine]["p_hat"])
            stderr = float(rows[machine]["stderr"])
            assert abs(p_hat - expected) < 4 * stderr
            assert rows[machine]["low_n"] == "False"

    def test_single_trial_flagged(self, tmp_path):
        cfg = write_config(tmp_path, {"machines": ["M1"], "n": 1, "seed": 0})
        out = tmp_path / "out"
        assert main(["bertrand", "--config", str(cfg), "--out", str(out)]) == 0
        with open(out / "bertrand.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["low_n"] == "True"
        assert float(row["stderr"]) == 0.0

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, {"machines": ["M2"], "n": 1000, "seed": 2})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["bertrand", "--config", str(cfg), "--out", str(out_a)]) == 0
        assert main(["bertrand", "--config", str(cfg), "--out", str(out_b)]) == 0
        assert read_outputs(out_a) == read_outputs(out_b)


class TestQkdCommand:
    def test_sharp_polarizers_mismatch_zero(self, tmp_path):
        cfg = write_config(tmp_path, {"axis": 0, "epsilon": 0.0, "n": 2000, "seed": 41})
        out = tmp_path / "out"
        assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_json(out / "report.json")
        assert report["mismatch"] == 0.0
        keys = load_json(out / "keys.json")
        assert keys["alice"] == keys["bob"]

    def test_smeared_mismatch_with_test_block(self, tmp_path):
        cfg = write_config(tmp_path, {
            "axis": 0, "epsilon": 0.1, "n": 100_000, "seed": 42,
            "test": {"axes": STANDARD_AXES, "n": 100_000},
        })
        out = tmp_path / "out"
        assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_json(out / "report.json")
        assert abs(report["mismatch"] - 0.04875) < 4 * math.sqrt(0.04875 * 0.95 / 100_000)
        assert abs(report["chsh"]["S"] - 2 * math.sqrt(2) * 0.9025) < 0.05

    def test_adversary_is_capped(self, tmp_path):
        cfg = write_config(tmp_path, {
            "axis": 0, "epsilon": 0.0, "n": 1000, "seed": 43,
            "test": {"axes": STANDARD_AXES, "n": 50_000, "adversary": True},
        })
        out = tmp_path / "out"
        assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
        report = load_json(out / "report.json")
        assert report["chsh"]["S"] <= 2.0 + 1e-12
        assert report["chsh"]["adversary"] is True

    def test_keys_json_decodes_to_the_generated_keys(self, tmp_path):
        # 77 bits: the hex strings end in a zero-padded partial byte
        cfg = write_config(tmp_path, {"axis": 20, "epsilon": 0.2, "n": 77, "seed": 10})
        out = tmp_path / "out"
        assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
        doc = load_json(out / "keys.json")
        keys = generate_keys(Direction.from_plane_angle(20.0), 77, 0.2, 0.2, master_seed=10)
        assert doc["header"] == keys.meta
        assert set(doc) == {"header", "alice", "bob"}
        for party in ("alice", "bob"):
            bits = np.unpackbits(np.frombuffer(bytes.fromhex(doc[party]), dtype=np.uint8))
            assert len(bits) == 80 and not bits[77:].any()
            np.testing.assert_array_equal(bits[:77], getattr(keys, party))


@pytest.mark.parametrize("command,cfg,field", [
    ("spce", {"axes": {"A": 0, "B": 45}, "n": 10, "record_limit": True}, "record_limit"),
    ("coins", {"experiment": "E5", "n": 10, "urn": [True, 5]}, "urn"),
    ("coins", {"experiment": "E5", "n": 10, "urn": [5, 5], "remove": True}, "remove"),
    ("coins", {"experiment": "E4", "n": 10, "urn": [5, 5], "with_replacement": "no"},
     "with_replacement"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": ["a", 5], "n": 100}]}}, "urn"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [2.7, 3], "n": 100}]}}, "urn"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "procedures": [{"kind": "thin", "param": "half"}]}, "param"),
    ("purity", {"inputs": [5]}, "inputs"),
    ("qkd", {"n": 10, "test": {"axes": STANDARD_AXES, "n": 10, "adversary": "no"}}, "adversary"),
    ("coins", {"experiment": "E1", "n": 5, "remove": 3}, "remove"),
    ("spce", {"axes": {"A": 0, "B": 45}, "epsilon": {"A": 0.1, "B": 0.2, "B_prim": 1.5}, "n": 10},
     "B_prim"),
    ("bertrand", {"machines": ["M1"], "n": 10, "sead": 3}, "sead"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "subensembles": 2}, "subensembles"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "cout": 2}]}},
     "cout"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "procedures": [{"kind": "thin", "parm": 0.5}]}, "parm"),
    ("qkd", {"n": 10, "test": {"axes": STANDARD_AXES, "n": 10, "adversery": True}}, "adversery"),
    ("coins", {"experiment": "E1", "n": 5, "urn": [3, 3]}, "urn"),
    ("coins", {"experiment": "E2", "n": 5, "remove": 0}, "remove"),
    ("coins", {"experiment": "E3", "n": 5, "with_replacement": True}, "with_replacement"),
    ("coins", {"experiment": "E4", "n": 5, "urn": [3, 3], "initial_face": "R"}, "initial_face"),
    ("coins", {"experiment": "E5", "n": 5, "urn": [3, 3], "with_replacement": True},
     "with_replacement"),
    ("coins", {"experiment": "E6", "n": 5, "urn": [3, 3], "initial_face": "B"}, "initial_face"),
    ("coins", {"experiment": "E5E6", "n": 5, "urn": [3, 3], "with_replacement": False},
     "with_replacement"),
    ("spce", {"axes": {"A": 0, "B": 45}, "epsilon": {"A": 0.1, "B": 0.2, "A_prime": 1.5}, "n": 10},
     "A_prime"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "subensemble_count": 2, "subensemble_fraction": 0}, "subensemble_fraction"),
    ("spce", {"axes": {"A": ["1", 0, 0], "B": 45}, "n": 10}, "axis 'A'"),
    ("spce", {"axes": {"A": 0, "B": [True, False, False]}, "n": 10}, "axis 'B'"),
    ("qkd", {"axis": [1, True, 0], "n": 10}, "axis 'axis'"),
    ("qkd", {"n": 10, "test": {"axes": {**STANDARD_AXES, "B_prime": [0, "1", 0]}, "n": 10}},
     "test.axes.B_prime"),
    ("spce", {"axes": {"A": [0, 0, 0], "B": 45}, "n": 10}, "axis 'A' is not a usable 3-vector"),
    ("spce", {"axes": {"A": 0, "B": 45}, "epsilon": {"A": 0.1}, "n": 10},
     "epsilon missing for axis 'B'"),
    ("purity", {}, "exactly one of 'inputs' or 'generate'"),
    ("purity", {"inputs": ["series.jsonl"], "generate": {"experiments": []}},
     "exactly one of 'inputs' or 'generate'"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "procedures": [{"kind": "halve"}]}, "unknown reduction kind 'halve'"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "procedures": [{"kind": "prefix", "param": 1.5}]}, "prefix fraction must be in (0, 1]"),
    ("coins", {"experiment": [], "n": 5}, "'experiment' must be one of"),
    ("coins", {"experiment": {}, "n": 5}, "'experiment' must be one of"),
    ("purity", {**PURITY_GENERATE, "alpha": None}, "'alpha' must be a number"),
    ("purity", {**PURITY_GENERATE, "subensemble_fraction": None}, "'subensemble_fraction' must be a number"),
    ("spce", {"axes": {"A": 0, "A_prime": None, "B": 45}, "n": 10}, "axis 'A_prime'"),
    ("spce", {"axes": {"A": 0, "B": 45}, "epsilon": {"A": 0.1, "B": None}, "n": 10}, "'epsilon.B'"),
    ("purity", {**PURITY_GENERATE, "inputs": None}, "'inputs'"),
    ("purity", {"generate": None}, "'generate'"),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": None}]}},
     "'count'"),
    ("purity", {**PURITY_GENERATE, "procedures": None}, "'procedures'"),
    ("coins", {"experiment": "E1", "n": 5, "initial_face": None}, "'initial_face'"),
    ("coins", {"experiment": "E5", "n": 5, "urn": None}, "'urn'"),
    ("bertrand", {"machines": None, "n": 10}, "'machines'"),
    ("bertrand", {"machines": ["M1"], "n": 10, "seed": None}, "seed"),
    ("bertrand", {"machines": ["M1"], "n": 10, "seed": -1}, "seed"),
    ("bertrand", {"machines": ["M1"], "n": 10, "seed": 2**64}, "seed"),
    ("bertrand", {"machines": ["M1"], "n": 10, "seed": True}, "seed"),
    ("bertrand", {"machines": ["M1"], "n": 10, "seed": 1.0}, "seed"),
])
def test_mistyped_field_is_a_config_error(tmp_path, capsys, command, cfg, field):
    cfg_path = write_config(tmp_path, cfg)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg_seed,option,field", [
    (1, "-1", "'--seed'"),
    (1, str(2**64), "'--seed'"),
    ("abc", "5", "'seed'"),
], ids=["option-negative", "option-2^64", "config-seed-under-option"])
def test_seed_out_of_range_is_a_config_error(tmp_path, capsys, cfg_seed, option, field):
    # a --seed replaces the config's seed, which must still be a valid one
    cfg_path = write_config(tmp_path, {"machines": ["M1"], "n": 10, "seed": cfg_seed})
    out = tmp_path / "out"
    assert main(["bertrand", "--config", str(cfg_path), "--seed", option, "--out", str(out)]) == 3
    assert field in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command,cfg", [
    ("spce", {"axes": {"A": 0, "B": 45}, "n": 10, "record_limit": None}),
    ("qkd", {"n": 10, "test": None}),
], ids=["record_limit", "test"])
def test_null_is_accepted_where_it_means_none(tmp_path, command, cfg):
    # only these two fields take null: no record limit, no test block
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]) == 0
    assert (out / "manifest.json").is_file()


@pytest.mark.parametrize("command,text", [
    ("spce", '{"axes": {"A": 1e999, "B": 45}, "n": 10}'),
    ("spce", '{"axes": {"A": [1e999, 0, 0], "B": 45}, "n": 10}'),
    ("qkd", '{"axis": [1e999, 1, 0], "n": 10}'),
    ("purity", '{"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},'
               ' "procedures": [{"kind": "every_kth", "param": 1e999}]}'),
    ("spce", '{"axes": {"A": 1' + "0" * 400 + ', "B": 45}, "n": 10}'),
    ("purity", '{"alpha": -1' + "0" * 400 + ', "generate": {"experiments": [{"box": "E6", "urn": [5, 5],'
               ' "n": 100, "count": 2}]}}'),
], ids=["spce-angle", "spce-vector", "qkd-axis", "purity-param", "spce-int-angle", "purity-int-alpha"])
def test_out_of_range_number_is_a_config_error(tmp_path, capsys, command, text):
    # JSON allows 1e999 and 400-digit integers; neither fits in a float
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 3
    assert "beyond the float range" in capsys.readouterr().err
    assert not out.exists()


def test_out_of_range_number_in_a_manifest_is_a_config_error(tmp_path, capsys):
    cfg = write_config(tmp_path, {"axis": 10, "n": 10, "seed": 1})
    out = tmp_path / "out"
    assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.json"
    manifest.write_text(manifest.read_text().replace('"axis": 10', '"axis": 1e999'))
    assert main(["replay", str(manifest), "--out", str(tmp_path / "replayed")]) == 3
    assert "beyond the float range" in capsys.readouterr().err


@pytest.mark.parametrize("damage,message", [
    (lambda text: b"\xff\xfe" + text.encode(), "is not UTF-8 text"),
    (lambda text: text.replace('"axis": 10', '"axis": ' + DEEP_JSON).encode(),
     "maximum recursion depth exceeded"),
], ids=["not-utf8", "too-deep"])
def test_unusable_manifest_is_a_config_error(tmp_path, capsys, damage, message):
    cfg = write_config(tmp_path, {"axis": 10, "n": 10, "seed": 1})
    out = tmp_path / "out"
    assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.json"
    manifest.write_bytes(damage(manifest.read_text()))
    replayed = tmp_path / "replayed"
    assert main(["replay", str(manifest), "--out", str(replayed)]) == 3
    err = capsys.readouterr().err
    assert message in err and "manifest.json" in err
    assert not replayed.exists()


@pytest.mark.parametrize("command", [[], {}], ids=["list", "object"])
def test_manifest_command_must_be_a_command_name(tmp_path, capsys, command):
    cfg = write_config(tmp_path, {"axis": 10, "n": 10, "seed": 1})
    out = tmp_path / "out"
    assert main(["qkd", "--config", str(cfg), "--out", str(out)]) == 0
    manifest = out / "manifest.json"
    manifest.write_text(json.dumps({**load_json(manifest), "command": command}))
    replayed = tmp_path / "replayed"
    assert main(["replay", str(manifest), "--out", str(replayed)]) == 3
    assert "unknown command" in capsys.readouterr().err
    assert not replayed.exists()


#: A list nested 980 deep, as JSON text: it parses in a fresh process, and its repr is about
#: 2 KB of brackets.  It replaces each ``"DEEP"`` of the configs below.
DEEP_LIST = "[" * 980 + "]" * 980


@pytest.mark.parametrize("command,cfg,field", [
    ("purity", {**PURITY_GENERATE, "procedures": [{"kind": "thin", "param": "DEEP"}]}, "'param'"),
    ("purity", {**PURITY_GENERATE, "procedures": [{"kind": "DEEP"}]}, "reduction kind"),
    ("spce", {"axes": {"A": "DEEP", "B": 45}, "n": 10}, "axis 'A'"),
    ("coins", {"experiment": "E1", "n": 5, "initial_face": "DEEP"}, "'initial_face'"),
    ("bertrand", {"machines": ["M1", "DEEP"], "n": 10}, "'machines'"),
    ("coins", {"experiment": "DEEP", "n": 5}, "'experiment'"),
    ("coins", {"experiment": "E5", "n": 5, "urn": "DEEP"}, "'urn'"),
    ("coins", {"experiment": "E4", "n": 5, "urn": [3, 3], "with_replacement": "DEEP"},
     "'with_replacement'"),
    ("purity", {"generate": {"experiments": [{"box": "DEEP", "urn": [5, 5], "n": 100}]}}, "'box'"),
], ids=["param", "kind", "axis", "initial_face", "machines", "experiment", "urn", "with_replacement",
        "box"])
def test_diagnostic_shortens_a_rejected_value(tmp_path, command, cfg, field):
    # in a process of its own: the test runner's stack leaves too little depth to parse 980 levels
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg).replace('"DEEP"', DEEP_LIST))
    out = tmp_path / "out"
    src = Path(spcelab.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-m", "spcelab", command, "--config", str(cfg_path),
                             "--out", str(out)],
                            capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 3, result.stderr
    assert field in result.stderr.decode()
    assert len(result.stderr) < 300, result.stderr
    assert not out.exists()


@pytest.mark.parametrize("record", ['{"index": 0, "outcome": DEEP}', '{"index": DEEP, "outcome": 1}'],
                         ids=["outcome", "index"])
def test_input_diagnostic_shortens_a_record_value(tmp_path, record):
    (tmp_path / "deep.jsonl").write_text('{"kind": "header", "n": 1}\n' + record.replace("DEEP", DEEP_LIST))
    cfg_path = write_config(tmp_path, {"inputs": ["deep.jsonl"], "seed": 0})
    out = tmp_path / "out"
    src = Path(spcelab.__file__).resolve().parents[1]
    result = subprocess.run([sys.executable, "-m", "spcelab", "purity", "--config", str(cfg_path),
                             "--out", str(out)],
                            capture_output=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert result.returncode == 4, result.stderr
    assert b"deep.jsonl: line 2" in result.stderr
    assert len(result.stderr) < 300, result.stderr
    assert not out.exists()


def test_unknown_field_name_is_shortened(tmp_path, capsys):
    cfg_path = write_config(tmp_path, {"machines": ["M1"], "n": 10, "x" * 3000: 1})
    out = tmp_path / "out"
    assert main(["bertrand", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "unknown field(s) 'xxxxxxxxxxxxxxxxxxxx..." in err
    assert len(err.encode()) < 300, err
    assert not out.exists()


@pytest.mark.parametrize("name,text,message", [
    ("nan.json", '{"axes": {"A": NaN, "B": 45}, "n": 10}', "NaN is not valid JSON"),
    ("broken.json", '{"axes": {"A": 0, "B": 45}, "n": 10', "is not valid JSON"),
    ("list.json", '[{"axes": {"A": 0, "B": 45}, "n": 10}]', "must be a JSON object"),
    ("missing.json", None, "cannot read config"),
    ("utf16.json", b'\xff\xfe{"axes": {"A": 0, "B": 45}, "n": 10}', "is not UTF-8 text"),
    ("deep.json", '{"axes": ' + DEEP_JSON + ', "n": 10}', "maximum recursion depth exceeded"),
], ids=["nan", "invalid-json", "not-an-object", "unreadable", "not-utf8", "too-deep"])
def test_unusable_config_file_is_a_config_error(tmp_path, capsys, name, text, message):
    cfg_path = tmp_path / name
    if isinstance(text, bytes):
        cfg_path.write_bytes(text)
    elif text is not None:
        cfg_path.write_text(text)
    out = tmp_path / "out"
    assert main(["spce", "--config", str(cfg_path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and name in err
    assert not out.exists()


#: A valid config of each command, and the path to each of its integer fields but the seed.
INTEGER_FIELDS = [
    ("spce", {"axes": {"A": 0, "B": 45}, "n": 10}, ("n",)),
    ("spce", {"axes": {"A": 0, "B": 45}, "n": 10}, ("record_limit",)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("runs",)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("n",)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("series_limit",)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("urn", 0)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("urn", 1)),
    ("coins", {"experiment": "E4", "n": 5, "urn": [5, 5]}, ("remove",)),
    ("purity", PURITY_GENERATE, ("subensemble_count",)),
    ("purity", PURITY_GENERATE, ("power_floor",)),
    ("purity", PURITY_GENERATE, ("generate", "experiments", 0, "n")),
    ("purity", PURITY_GENERATE, ("generate", "experiments", 0, "count")),
    ("purity", PURITY_GENERATE, ("generate", "experiments", 0, "urn", 0)),
    ("bertrand", {"machines": ["M1"], "n": 10}, ("n",)),
    ("qkd", {"n": 10, "test": {"axes": STANDARD_AXES, "n": 10}}, ("n",)),
    ("qkd", {"n": 10, "test": {"axes": STANDARD_AXES, "n": 10}}, ("test", "n")),
]


@pytest.mark.parametrize("value", [2**63, 10**20], ids=["2^63", "10^20"])
@pytest.mark.parametrize("command,cfg,path", INTEGER_FIELDS,
                         ids=[f"{c}-{'.'.join(map(str, p))}" for c, _, p in INTEGER_FIELDS])
def test_integer_beyond_int64_is_a_config_error(tmp_path, capsys, command, cfg, path, value):
    # numpy holds counts as int64; a larger count would crash it or never end
    doc = copy.deepcopy(cfg)
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    out = tmp_path / "out"
    assert main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(out)]) == 3
    field = next(key for key in reversed(path) if isinstance(key, str))
    err = capsys.readouterr().err
    assert f"'{field}'" in err and "2^63" in err
    assert not out.exists()


#: One valid config per config table (``coins`` once per table its experiments add), each
#: small enough to run in milliseconds.
WALK_CONFIGS = [
    ("spce", {"axes": {"A": 0, "A_prime": [1, 0, 0], "B": 45, "B_prime": 135},
              "epsilon": {"A": 0.1, "A_prime": 0, "B": 0.2, "B_prime": 2}, "n": 10, "record_limit": 2,
              "seed": 1}),
    ("coins", {"experiment": "E1", "initial_face": "R", "n": 10, "runs": 2, "series_limit": 1,
               "seed": 1}),
    ("coins", {"experiment": "E4", "urn": [5, 5], "remove": 1, "with_replacement": True, "n": 10,
               "runs": 2, "series_limit": 1, "seed": 1}),
    ("coins", {"experiment": "E5E6", "urn": [5, 5], "remove": 1, "n": 10, "runs": 2,
               "series_limit": 1, "seed": 1}),
    ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2}]},
                "procedures": [{"kind": "thin", "param": 0.5}], "subensemble_count": 1,
                "subensemble_fraction": 0.5, "alpha": 0.05, "power_floor": 0, "seed": 1}),
    ("bertrand", {"machines": ["M1", "M3"], "n": 10, "seed": 1}),
    ("qkd", {"axis": [0, 0, 1], "epsilon": [0.1, 0.2], "n": 10, "seed": 1,
             "test": {"axes": STANDARD_AXES, "n": 10, "adversary": False}}),
]

#: What the walk puts in place of each field: one value of every JSON kind.
WALK_VALUES = [None, True, 1.5, -1, "x", [], {}]


def _field_paths(doc, prefix=()):
    """The path of every object field and list entry in ``doc``, at every depth."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _field_paths(value, prefix + (key,))


def schema_walk():
    """``(command, config)`` for each walk config with one field replaced by each walk value."""
    for command, cfg in WALK_CONFIGS:
        for path in _field_paths(cfg):
            for value in WALK_VALUES:
                doc = copy.deepcopy(cfg)
                node = doc
                for key in path[:-1]:
                    node = node[key]
                node[path[-1]] = value
                yield command, doc


def test_schema_walk_runs_or_exits_three(tmp_path, capsys):
    # a wrong value anywhere is a short config error, never a traceback
    for k, (command, doc) in enumerate(schema_walk()):
        code = main([command, "--config", str(write_config(tmp_path, doc)), "--out", str(tmp_path / str(k))])
        err = capsys.readouterr().err
        assert code in (0, 3) and len(err.encode()) < 300, (command, doc, code, err)


class TestExitCodes:
    def test_usage_error_exits_three(self, tmp_path):
        cfg = write_config(tmp_path, {"generate": {"experiments": []}})
        with pytest.raises(SystemExit) as exc:
            main(["purity", "--config", str(cfg), "--alpha", "abc"])
        assert exc.value.code == 3

    def test_internal_error_exits_six_with_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("sampler fault")

        monkeypatch.setattr("spcelab.bertrand.estimate_probability", broken)
        cfg = write_config(tmp_path, {"machines": ["M1"], "n": 10, "seed": 1})
        out = tmp_path / "out"
        assert main(["bertrand", "--config", str(cfg), "--out", str(out)]) == 6
        err = capsys.readouterr().err
        assert "Traceback" in err and "sampler fault" in err
        assert not out.exists()

    @pytest.mark.parametrize("command,cfg,blocked", [
        ("spce", {"axes": {"A": 0, "B": 45}, "n": 10, "seed": 1}, "chsh.json"),
        ("coins", {"experiment": "E5E6", "n": 10, "urn": [5, 5], "seed": 1}, "summary.csv"),
    ])
    def test_failed_commit_leaves_out_untouched(self, tmp_path, command, cfg, blocked):
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 5
        assert [p.name for p in out.iterdir()] == [blocked]
        assert list((out / blocked).iterdir()) == []


    @pytest.mark.parametrize("command,cfg", [
        ("coins", {"experiment": "E1", "n": 10, "runs": 2**58, "seed": 1}),
        ("qkd", {"axis": 0, "n": 2**62, "seed": 1}),
        ("coins", {"experiment": "E1", "n": 10, "runs": 2**60, "seed": 1}),
        ("coins", {"experiment": "E5E6", "n": 10, "urn": [5, 5], "runs": 2**63 - 1, "seed": 1}),
        ("purity", {"generate": {"experiments": [{"box": "E6", "urn": [5, 5], "n": 100, "count": 2**60}]},
                    "seed": 1}),
    ])
    def test_allocation_failure_exits_five(self, tmp_path, capsys, command, cfg):
        # 2^58 stream ids and 2^62 key bits each ask for EiBs at the first allocation
        cfg_path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        out.mkdir()
        (out / "kept.txt").write_text("kept\n")
        assert main([command, "--config", str(cfg_path), "--out", str(out)]) == 5
        err = capsys.readouterr().err
        assert err.startswith("out of memory:") and err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["kept.txt"]


class TestReplay:
    @pytest.mark.parametrize("command,cfg", [
        ("spce", {"axes": STANDARD_AXES, "n": 300, "seed": 51}),
        ("coins", {"experiment": "E4", "n": 50, "urn": [26, 26], "runs": 4, "seed": 52}),
        ("bertrand", {"machines": ["M1", "M3"], "n": 500, "seed": 53}),
        ("qkd", {"axis": 10, "epsilon": 0.2, "n": 400, "seed": 54}),
        ("bertrand", {"machines": ["M2"], "n": 50, "seed": 2**64 - 1}),  # seeds keep 64 bits
    ])
    def test_replay_reproduces_outputs(self, tmp_path, command, cfg):
        cfg_path = write_config(tmp_path, cfg)
        original = tmp_path / "original"
        assert main([command, "--config", str(cfg_path), "--out", str(original)]) == 0
        replayed = tmp_path / "replayed"
        assert main(["replay", str(original / "manifest.json"), "--out", str(replayed)]) == 0
        assert read_outputs(original) == read_outputs(replayed)

    def test_purity_replay_preserves_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "generate": {"experiments": [
                {"box": "E5", "urn": [50, 50], "n": 2000, "count": 2},
                {"box": "E5", "urn": [4, 6], "n": 2000, "count": 2},
            ]},
            "seed": 55,
        })
        original = tmp_path / "original"
        assert main(["purity", "--config", str(cfg_path), "--out", str(original)]) == 1
        replayed = tmp_path / "replayed"
        assert main(["replay", str(original / "manifest.json"), "--out", str(replayed)]) == 1
        assert read_outputs(original) == read_outputs(replayed)

    def test_replay_honors_alpha_override(self, tmp_path):
        cfg_path = write_config(tmp_path, {
            "generate": {"experiments": [{"box": "E6", "urn": [50, 50], "n": 6000, "count": 2}]},
            "alpha": 0.5,
            "seed": 57,
        })
        original = tmp_path / "original"
        main(["purity", "--config", str(cfg_path), "--out", str(original), "--alpha", "0.01"])
        manifest = load_json(original / "manifest.json")
        assert manifest["config"]["alpha"] == 0.01
        replayed = tmp_path / "replayed"
        main(["replay", str(original / "manifest.json"), "--out", str(replayed)])
        assert (original / "verdict.json").read_bytes() == (replayed / "verdict.json").read_bytes()

    def test_purity_inputs_replay_from_elsewhere(self, tmp_path, monkeypatch):
        coins_cfg = write_config(tmp_path, {"experiment": "E6", "n": 3000, "urn": [50, 50],
                                            "runs": 4, "seed": 24}, "gen.json")
        assert main(["coins", "--config", str(coins_cfg), "--out", str(tmp_path / "coins")]) == 0
        (tmp_path / "purity").mkdir()
        cfg_path = write_config(tmp_path / "purity", {"inputs": ["../coins/series.jsonl"], "seed": 25})
        original = tmp_path / "original"
        code = main(["purity", "--config", str(cfg_path), "--out", str(original)])
        manifest = load_json(original / "manifest.json")
        assert manifest["config"]["inputs"] == [str(cfg_path.parent.resolve() / "../coins/series.jsonl")]
        monkeypatch.chdir(tmp_path / "coins")
        replayed = tmp_path / "replayed"
        assert main(["replay", str(original / "manifest.json"), "--out", str(replayed)]) == code
        assert read_outputs(original) == read_outputs(replayed)

    def test_replay_in_place_is_stable(self, tmp_path):
        cfg_path = write_config(tmp_path, {"machines": ["M1"], "n": 100, "seed": 56})
        out = tmp_path / "out"
        assert main(["bertrand", "--config", str(cfg_path), "--out", str(out)]) == 0
        before = read_outputs(out)
        assert main(["replay", str(out / "manifest.json")]) == 0
        assert read_outputs(out) == before


class TestProcessEntry:
    def test_module_invocation(self, tmp_path):
        cfg = write_config(tmp_path, {"machines": ["M1"], "n": 100, "seed": 1})
        result = subprocess.run(
            [sys.executable, "-m", "spcelab.cli", "bertrand",
             "--config", str(cfg), "--out", str(tmp_path / "out")],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert (tmp_path / "out" / "bertrand.csv").exists()

    def test_env_var_default_out(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPCELAB_OUT", str(tmp_path / "env-out"))
        cfg = write_config(tmp_path, {"machines": ["M1"], "n": 10, "seed": 1})
        assert main(["bertrand", "--config", str(cfg)]) == 0
        assert (tmp_path / "env-out" / "bertrand.csv").exists()

    def test_purity_runs_without_scipy(self, tmp_path):
        # importing scipy.stats costs most of a command's start-up; no command may load it
        cfg = write_config(tmp_path, {
            "generate": {"experiments": [{"box": "E6", "urn": [50, 50], "n": 200, "count": 3}]},
            "procedures": [{"kind": "thin", "param": 0.5}],
            "seed": 1,
        })
        script = (
            "import json, sys\n"
            "from spcelab.cli import main\n"
            f"code = main(['purity', '--config', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}])\n"
            "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')]))\n"
        )
        src = Path(spcelab.__file__).resolve().parents[1]
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env={**os.environ, "PYTHONPATH": str(src)})
        assert result.returncode == 0, result.stderr
        code, scipy_modules = json.loads(result.stdout.splitlines()[-1])
        assert code == 2  # inconclusive: 600 outcomes are below the power floor
        assert (tmp_path / "out" / "verdict.json").exists()
        assert scipy_modules == []
