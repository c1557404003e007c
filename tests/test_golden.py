"""Every output byte of the golden configs matches ``tests/golden.json`` (see ``tests/golden.py``)."""

import json

import pytest

import spcelab
from golden import TABLE, environment, output_hashes


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
