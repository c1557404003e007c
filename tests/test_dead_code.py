"""``src/spcelab`` holds only code that a command runs, ``tests/oracles.py`` only what a test
uses, and the purity battery's oracle shares none of the battery's code."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spcelab"
TESTS = ROOT / "tests"

#: Module-level names that no command reaches, each kept for the stated reason.  The guard
#: compares for equality, so an entry that a command starts to use, or whose code is
#: deleted, fails it too: the list can only shrink.
EXEMPT = {
    "coin_lab.regenerate_series": "documented API; the benchmark's roundtrip check regenerates "
                                  "series with it",
}


def _identifiers(node):
    """Every name and attribute name used anywhere under ``node``."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _module_level(paths):
    """``({"module.name": (name, identifiers its definition uses)}, identifiers the rest uses)``.

    Definitions are module-level functions, classes and assigned names; the
    rest is every other module-level statement but imports, such as
    ``sys.exit(main())``, which runs when the module does.
    """
    definitions, roots = {}, set()
    for path in paths:
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


def _unreached(definitions, used):
    """Definitions that no identifier in ``used`` reaches, directly or in a chain.

    A definition is reached when a reached identifier is its name; its own
    identifiers are then reached too.  The walk repeats to a fixed point, so
    dead code that only dead code uses, a cycle included, stays unreached.
    """
    reached = set()
    while True:
        new = {key for key, (name, _) in definitions.items() if name in used} - reached
        if not new:
            return set(definitions) - reached
        reached |= new
        for key in new:
            used |= definitions[key][1]


def unreached_names(package=PACKAGE):
    """Definitions of ``package`` that nothing run from a module-level statement uses.

    The walk starts from the identifiers of the module-level statements.  An
    import is not a use: a name only imported is unreached.
    """
    return _unreached(*_module_level(sorted(package.glob("*.py"))))


def unused_oracles(tests=TESTS):
    """Definitions of ``tests/oracles.py`` that no ``test_*.py`` module uses, directly or in a chain."""
    definitions, used = _module_level([tests / "oracles.py"])
    for path in sorted(tests.glob("test_*.py")):
        used |= _identifiers(ast.parse(path.read_text(encoding="utf-8")))
    return _unreached(definitions, used)


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


def test_every_oracle_is_used_by_a_test():
    assert sorted(unused_oracles()) == [], "no test uses these oracles: delete them or use them"


def test_oracle_guard_follows_oracles_that_tests_use(tmp_path):
    (tmp_path / "oracles.py").write_text(
        "def grid():\n    return 1\n\n\ndef law():\n    return grid()\n\n\n"
        "def spare():\n    return grid()\n")
    (tmp_path / "test_law.py").write_text(
        "import oracles\n\n\ndef test_law():\n    assert oracles.law() == 1\n")
    assert unused_oracles(tmp_path) == {"oracles.spare"}


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
