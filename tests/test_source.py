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
