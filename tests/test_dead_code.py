"""``src/spcelab`` holds only code that a command runs, and the purity battery's oracle
shares none of the battery's code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spcelab"

#: Module-level names that no command reaches, each kept for the stated reason.  The guard
#: compares for equality, so an entry that a command starts to use, or whose code is
#: deleted, fails it too: the list can only shrink.
EXEMPT = {
    "coin_lab.regenerate_series": "documented API; the benchmark's roundtrip check regenerates "
                                  "series with it",
    "spce.LambdaModel": "factorized detection model, kept until a command runs it",
    "spce._detection_values": "factorized detection model, kept until a command runs it",
    "spce.ch_factorized_probability": "factorized detection model, kept until a command runs it",
    "spce.factorized_correlator": "factorized detection model, kept until a command runs it",
    "spce.independent_bound_check": "factorized detection model, kept until a command runs it",
    "randkit.sample_cap": "the factorized detection model's uniform-sphere prior draws with it",
}


def _identifiers(node):
    """Every name and attribute name used anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _module_level(package):
    """``({"module.name": (name, identifiers its definition uses)}, identifiers the rest uses)``.

    Definitions are module-level functions, classes and assigned names; the
    rest is every other module-level statement but imports, such as
    ``sys.exit(main())``, which runs when the module does.
    """
    definitions, roots = {}, set()
    for path in sorted(package.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[f"{path.stem}.{node.name}"] = (node.name, _identifiers(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                used = _identifiers(node.value) if node.value is not None else set()
                for name in {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}:
                    definitions[f"{path.stem}.{name}"] = (name, used)
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _identifiers(node)
    return definitions, roots


def unreached_names(package=PACKAGE):
    """Definitions that nothing run from a module-level statement uses, directly or in a chain.

    Starting from the identifiers of the module-level statements, a definition
    is reached when a reached identifier is its name; its own identifiers are
    then reached too.  The walk repeats to a fixed point, so dead code that
    only dead code uses, a cycle included, stays unreached.  An import is not a
    use: a name only imported is unreached.
    """
    definitions, used = _module_level(package)
    reached = set()
    while True:
        new = {key for key, (name, _) in definitions.items() if name in used} - reached
        if not new:
            return set(definitions) - reached
        reached |= new
        for key in new:
            used |= definitions[key][1]


def test_every_module_level_name_runs_in_a_command():
    unreached = unreached_names()
    assert sorted(unreached - set(EXEMPT)) == [], "no command reaches these: delete them or use them"
    assert sorted(set(EXEMPT) - unreached) == [], "stale exemptions: drop them from EXEMPT"


def test_guard_sees_a_chain_of_dead_code(tmp_path):
    (tmp_path / "__main__.py").write_text("from .cli import main\n\nmain()\n")
    (tmp_path / "cli.py").write_text(
        "LIMIT = 3\n\n\ndef main():\n    return helper(LIMIT)\n\n\ndef helper(x):\n    return x\n\n\n"
        "def dead():\n    return chained() + LIMIT\n\n\ndef chained():\n    return dead()\n")
    assert unreached_names(tmp_path) == {"cli.dead", "cli.chained"}


def test_purity_oracle_imports_only_the_data_classes():
    # an oracle that calls the battery's counting or statistics code would pass with its bugs
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "spcelab.purity":
            imported |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module == "spcelab":
            assert "purity" not in {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            assert not any(alias.name.startswith("spcelab.purity") for alias in node.names)
    assert imported == {"Sample", "TestReport"}
