"""The README's module table names only API that exists, and the package has one version."""

import importlib
import re
from pathlib import Path

import pytest

import spcelab

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"


def _module_rows():
    section = README.read_text(encoding="utf-8").split("## What is in the box", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"^\| `(spcelab\.\w+)` \|(.*)\|$", section, re.M)


def test_table_lists_every_layer_module():
    assert [module for module, _ in _module_rows()] == [
        "spcelab.randkit", "spcelab.coin_lab", "spcelab.spce", "spcelab.purity",
        "spcelab.bertrand", "spcelab.qkd", "spcelab.cli"]


@pytest.mark.parametrize("module,contents", [pytest.param(*row, id=row[0]) for row in _module_rows()])
def test_backticked_names_exist(module, contents):
    # a backticked identifier names an attribute of the row's module; other spans are prose
    names = [n for n in re.findall(r"`([^`]+)`", contents) if re.fullmatch(r"[A-Za-z_]\w*", n)]
    missing = [name for name in names if not hasattr(importlib.import_module(module), name)]
    assert not missing, f"{module} has no {', '.join(missing)}"


def test_artifact_version_is_the_package_version():
    # manifests record spcelab.__version__ as artifact_version; a bump must edit both places
    project = (ROOT / "pyproject.toml").read_text(encoding="utf-8").split("[project]", 1)[1].split("\n[", 1)[0]
    assert re.findall(r'^version = "([^"]*)"$', project, re.M) == [spcelab.__version__]
