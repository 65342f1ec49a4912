import argparse
import ast
import re
from collections import Counter
from pathlib import Path

import gausscalc
from gausscalc.cli import build_parser

README = Path(__file__).resolve().parent.parent / "README.md"


def test_every_public_name_resolves():
    assert len(set(gausscalc.__all__)) == len(gausscalc.__all__)
    for name in gausscalc.__all__:
        assert getattr(gausscalc, name) is not None, name


def test_star_import_binds_exactly_the_public_names():
    namespace = {}
    exec("from gausscalc import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(gausscalc.__all__)


def test_no_module_imports_a_name_it_never_uses():
    # No linter runs on this package; this catches imports left behind by
    # a deletion.  __init__ imports only to re-export.
    unused = []
    for path in sorted(Path(gausscalc.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in ("annotations", "*"):
                        imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert unused == []


def test_the_exact_core_imports_no_float_layer():
    # poly and semigroups are the rational core: numpy and the modules that
    # build on the core (gaussian, matrixrep, cli) stay out of them, and
    # only the float layers, gaussian and matrixrep, import numpy.
    found = []
    for path in sorted(Path(gausscalc.__file__).parent.glob("*.py")):
        banned = set() if path.name in ("gaussian.py", "matrixrep.py") else {"numpy"}
        if path.name in ("poly.py", "semigroups.py"):
            banned |= {"gaussian", "matrixrep", "cli"}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] + [alias.name for alias in node.names
                                                 if not node.module]
            else:
                continue
            found += [f"{path.name}:{node.lineno} {module}" for module in modules
                      if banned & set(module.split("."))]
    assert found == []


def test_every_private_module_name_is_used_in_the_package():
    # A module-level _helper that nothing in src/ refers to, beyond its own
    # definition (recursion included), is dead code.
    trees = {
        path.name: ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(Path(gausscalc.__file__).parent.glob("*.py"))
    }

    def references(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute):
                yield sub.attr
            elif isinstance(sub, ast.ImportFrom):
                yield from (alias.name for alias in sub.names)

    everywhere = Counter(name for tree in trees.values() for name in references(tree))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names, own = [node.name], Counter(references(node))
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for t in targets if isinstance(t, ast.Name)]
                own = Counter(references(node))
            else:
                continue
            unused += [f"{module}:{node.lineno} {name}" for name in names
                       if name.startswith("_") and not name.startswith("__")
                       and everywhere[name] <= own[name]]
    assert unused == []


def test_readme_names_exactly_the_cli_options():
    # A deleted option must leave the README, and a new one must enter it.
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    defined = {option for command in sub.choices.values() for action in command._actions
               for option in action.option_strings if option.startswith("--")} - {"--help"}
    text = README.read_text(encoding="utf-8")
    cli_section = text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]

    def options(part):
        return set(re.findall(r"(?<![\w-])--[a-z][a-z0-9-]*", part))

    assert sorted(defined - options(text)) == []
    assert sorted(options(cli_section) - defined) == []
