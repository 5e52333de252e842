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


def _names_read(tree):
    """The names a tree reads: as a name, an attribute or an import."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def test_library_names_have_a_caller_or_a_paper_statement():
    # a library name that neither the library nor the benchmark reads is
    # kept only for a statement of the paper, which its docstring names
    # on a line beginning "Paper:"; code only the tests need lives in
    # tests/, and code nothing needs is deleted
    package = Path(qtoroidal.__file__).parent
    bench = sorted((Path(__file__).resolve().parents[1] / "perfbench")
                   .glob("*.py"))
    assert len(bench) >= 4
    read = set()
    for path in bench:
        read |= _names_read(ast.parse(path.read_text(), str(path)))
    statements = [(node, _names_read(node))
                  for path in sorted(package.glob("*.py"))
                  for node in ast.parse(path.read_text(), str(path)).body]
    orphans = []
    for node, _ in statements:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        doc = ast.get_docstring(node) or ""
        if any(line.startswith("Paper:") for line in doc.splitlines()):
            continue
        if node.name in read or any(node.name in names
                                    for other, names in statements
                                    if other is not node):
            continue
        orphans.append(node.name)
    assert orphans == []
