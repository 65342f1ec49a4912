import ast
from pathlib import Path

import gausscalc


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
