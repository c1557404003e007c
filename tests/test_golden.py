"""Every output byte of the golden configs matches ``tests/golden.json`` (see ``tests/golden.py``),
and each manifest records its config as given."""

import json

import pytest

import spcelab
from golden import CASES, TABLE, environment, output_hashes
from spcelab.cli import main


def test_outputs_match_the_golden_hashes(tmp_path):
    table = json.loads(TABLE.read_text(encoding="utf-8"))
    if table["environment"] != environment():
        pytest.fail(f"the golden table was made on {table['environment']}, not on {environment()}: "
                    "regenerate it here with `PYTHONPATH=src python tests/golden.py`")
    hashes, codes = output_hashes(tmp_path)
    assert codes == table["exit_codes"]
    changed = sorted(key for key in table["hashes"].keys() | hashes.keys()
                     if table["hashes"].get(key) != hashes.get(key))
    if not changed:
        return
    if table["artifact_version"] == spcelab.__version__:
        pytest.fail(f"output bytes changed while artifact_version stayed {spcelab.__version__}: "
                    f"{', '.join(changed)}")
    pytest.fail(f"artifact_version is {spcelab.__version__}, the table's {table['artifact_version']}: "
                f"regenerate it with `PYTHONPATH=src python tests/golden.py` ({', '.join(changed)} changed)")


def test_manifest_records_the_config_as_given(tmp_path):
    # no value the plan read and no default goes into the manifest; purity records the alpha
    # in effect, and its inputs as absolute paths, so a replay runs the same config anywhere
    for name, command, cfg in CASES:
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        assert main([command, "--config", str(cfg_path), "--out", str(tmp_path / name)]) <= 2
        expected = dict(cfg)
        if command == "purity":
            expected.setdefault("alpha", 0.05)
            if "inputs" in cfg:
                expected["inputs"] = [str(tmp_path.resolve() / path) for path in cfg["inputs"]]
        manifest = json.loads((tmp_path / name / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["config"] == expected, name
