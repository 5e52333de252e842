import ast
from pathlib import Path

import qtoroidal


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so a library check written as one
    # would vanish there; every check must raise explicitly
    package = Path(qtoroidal.__file__).parent
    modules = sorted(package.glob("*.py"))
    assert len(modules) >= 14
    found = [(path.name, node.lineno)
             for path in modules
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_library_modules_use_every_name_they_import():
    # an import left behind when its last use goes is dead code that
    # still runs at import time and misleads a reader about dependencies
    package = Path(qtoroidal.__file__).parent
    unused = []
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        unused.extend((path.name, line, name)
                      for name, line in imported.items() if name not in used)
    assert unused == []
