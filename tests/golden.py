"""Golden output hashes: the configs, the environment the bits depend on, and the table.

``tests/golden.json`` holds the sha256 of every output but the manifest, for
every README example and a few edge configs, each run in both formats.
``tests/test_golden.py`` reruns them and compares.  A change that alters the
bits bumps ``artifact_version`` and regenerates the table:

    PYTHONPATH=src python tests/golden.py
"""

import hashlib
import json
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

import spcelab
from spcelab.cli import main
from test_docs import EXAMPLES

TABLE = Path(__file__).resolve().parent / "golden.json"
FORMATS = ("csv", "json")
QKD_EXAMPLE = next(cfg for command, cfg, _ in EXAMPLES if command == "qkd")

#: (name, command, config), run in this order; purity ``inputs`` reads the E4 case's series.
CASES = [
    *((f"readme-{command}", command, cfg) for command, cfg, _ in EXAMPLES),
    # a zero sum of products: the correlator is written as -0.0
    ("spce-negative-zero", "spce", {"axes": {"A": 0, "B": 90}, "n": 2, "seed": 0}),
    # per-axis smear, the largest seed and records across a 2^16-row block edge
    ("spce-edges", "spce", {"axes": {"A": 0, "B": [0.3, -0.2, 0.9]},
                            "epsilon": {"A": 0.1, "B": 1.5}, "n": 70_000,
                            "seed": 2**64 - 1, "record_limit": 70_000}),
    ("qkd-adversary", "qkd", {**QKD_EXAMPLE, "test": {**QKD_EXAMPLE["test"], "adversary": True}}),
    ("coins-E4-remove", "coins", {"experiment": "E4", "n": 80, "urn": [51, 51], "remove": 7,
                                  "runs": 1000, "series_limit": 10, "seed": 5}),
    ("purity-inputs", "purity", {"inputs": ["coins-E4-remove/series.jsonl"],
                                 "procedures": [{"kind": "every_kth", "param": 2}],
                                 "subensemble_count": 2, "seed": 9}),
]


def environment():
    """What the output bits depend on besides the source."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "libc": list(platform.libc_ver()), "machine": platform.machine()}


def output_hashes(work: Path):
    """Run every case in both formats under ``work``; return ``{case/format/file: sha256}`` and exit codes."""
    hashes, codes = {}, {}
    for fmt in FORMATS:
        base = work / fmt
        base.mkdir(parents=True)
        for name, command, cfg in CASES:
            cfg_path = base / f"{name}.json"
            cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
            out = base / name
            code = main([command, "--config", str(cfg_path), "--out", str(out), "--format", fmt])
            if code > 2:  # 0-2 are a run's own outcomes, anything above is a failure
                raise RuntimeError(f"{name} ({fmt}) exited {code}")
            codes[f"{name}/{fmt}"] = code
            for path in sorted(out.iterdir()):
                if path.name != "manifest.json":
                    hashes[f"{name}/{fmt}/{path.name}"] = hashlib.sha256(path.read_bytes()).hexdigest()
    return hashes, codes


def regenerate():
    with tempfile.TemporaryDirectory() as work:
        hashes, codes = output_hashes(Path(work))
    table = {"artifact_version": spcelab.__version__, "environment": environment(),
             "exit_codes": codes, "hashes": hashes}
    TABLE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(hashes)} hashes to {TABLE}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
