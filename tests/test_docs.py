"""The README's module table names only API that exists, its examples run as documented,
its config field table matches the cli's, and the package has one version."""

import importlib
import json
import re
from pathlib import Path

import pytest

import spcelab
from spcelab import cli
from spcelab.cli import main

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


#: The outputs each command writes with the default csv format, and the exit codes it may end with.
COMMAND_OUTPUTS = {
    "spce": ({"runs.jsonl", "correlators.csv", "chsh.json"}, {0}),
    "coins": ({"series.jsonl", "summary.csv"}, {0}),
    "purity": ({"verdict.json"}, {0, 1, 2}),
    "bertrand": ({"bertrand.csv"}, {0}),
    "qkd": ({"keys.json", "report.json"}, {0}),
}

#: The config field that tells which command an example is for.
COMMAND_FIELDS = {"axes": "spce", "experiment": "coins", "generate": "purity", "machines": "bertrand",
                  "axis": "qkd"}


def _examples():
    """Each config of the README's "Examples": every fenced json block and the inline chord config.

    Yields ``(command, config, text)``, where ``text`` is the prose from the
    previous config to the next one, which names the example's outputs.
    """
    section = README.read_text(encoding="utf-8").split("### Examples", 1)[1].split("\n### ", 1)[0]
    pattern = re.compile(r"```json\n(.*?)```|`(\{\"machines\".*?\})`", re.S)
    found = list(pattern.finditer(section))
    for k, match in enumerate(found):
        start = found[k - 1].end() if k else 0
        stop = found[k + 1].start() if k + 1 < len(found) else len(section)
        cfg = json.loads(match.group(1) or match.group(2))
        (command,) = {COMMAND_FIELDS[key] for key in cfg if key in COMMAND_FIELDS}
        yield command, cfg, section[start:match.start()] + section[match.end():stop]


EXAMPLES = list(_examples())


def test_every_command_has_an_example():
    assert sorted(command for command, _, _ in EXAMPLES) == sorted(COMMAND_OUTPUTS)


@pytest.mark.parametrize("command,cfg,text", [pytest.param(*e, id=e[0]) for e in EXAMPLES])
def test_readme_example_runs_as_documented(tmp_path, capsys, command, cfg, text):
    outputs, exit_codes = COMMAND_OUTPUTS[command]
    missing = [name for name in outputs if f"`{name}`" not in text]
    assert not missing, f"the README does not name {missing} next to the {command} example"
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
    out = tmp_path / "out"
    code = main([command, "--config", str(cfg_path), "--out", str(out)])
    assert code in exit_codes, capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert set(manifest["outputs"]) == outputs
    assert sorted(p.name for p in out.iterdir()) == sorted(outputs | {"manifest.json"})
    if command == "purity":
        verdict = json.loads((out / "verdict.json").read_text(encoding="utf-8"))["verdict"]
        assert code == {"pure": 0, "mixed": 1, "inconclusive": 2}[verdict]


def _default_text(default):
    if default is cli._REQUIRED:
        return "required"
    if default is cli._ABSENT:
        return "optional"
    return f"`{json.dumps(default)}`"


#: Each config table of the cli and the dotted path of the object it checks.
CONFIG_TABLES = [
    ("spce", "", cli._SPCE), ("spce", "axes.", cli._AXES), ("spce", "epsilon.", cli._EPSILONS),
    ("coins", "", cli._COINS),
    ("purity", "", cli._PURITY), ("purity", "generate.", cli._GENERATE),
    ("purity", "generate.experiments[].", cli._GENERATE_ENTRY), ("purity", "procedures[].", cli._PROCEDURE),
    ("bertrand", "", cli._BERTRAND),
    ("qkd", "", cli._QKD), ("qkd", "test.", cli._TEST), ("qkd", "test.axes.", cli._TEST_AXES),
]


def _table_fields():
    """``{(command, path): (default text, coins experiments that take it or None)}`` from the cli."""
    fields = {(command, prefix + name): (_default_text(default), None)
              for command, prefix, table in CONFIG_TABLES for name, (_, default) in table.items()}
    for experiment, table in cli._COIN_EXPERIMENTS.items():
        for name, (_, default) in table.items():
            _, users = fields.setdefault(("coins", name), (_default_text(default), []))
            users.append(experiment)
    return fields


def _readme_fields():
    section = README.read_text(encoding="utf-8").split("### Config fields", 1)[1].split("\n### ", 1)[0]
    fields = {}
    for commands, path, default in re.findall(r"^\| (.+?) \| `([\w.\[\]]+)` \| (.+?) \|", section, re.M):
        experiments = re.findall(r"\bE\w+", commands) or None
        for command in re.findall(r"`(\w+)`", commands) if commands != "all" else COMMAND_OUTPUTS:
            assert (command, path) not in fields, f"{command} {path} has two rows"
            fields[command, path] = (default, experiments)
    return fields


def test_config_field_table_matches_the_cli_tables():
    assert _readme_fields() == _table_fields()
