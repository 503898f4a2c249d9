"""Every public top-level function and class of the package is reached from a root,
and every module-level name the package assigns is read somewhere in it.

The roots are the names tests/test_acceptance.py imports from the package, the
names the package root imports, the names module-level code uses, and the
reference implementations in REFERENCES while a test compares with them. A
definition reached from a root reaches every name its body uses, as a bare name
or as an attribute; a name used only from unreached definitions is unreached.
The sources are read with ast; nothing is imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cavity_beats"
# Kept though no run reaches them: the slow, plain form that the tests hold a faster
# path to, and the test module that does.
REFERENCES = {"lindblad_rhs": "test_composite.py"}
# Assigned at module level though the package never reads it: the version, for its users.
UNREAD = {"__version__"}


def _used(nodes) -> set[str]:
    """The names the nodes use, bare or as an attribute."""
    names = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
    return names


def _imported(tree: ast.Module) -> set[str]:
    return {alias.name for node in tree.body if isinstance(node, ast.ImportFrom)
            for alias in node.names}


def public_definitions() -> tuple[list[str], list[str]]:
    """(every public top-level function and class, the unreached ones), as module.name."""
    definitions, roots = {}, _imported(ast.parse((TESTS / "test_acceptance.py").read_text()))
    roots |= set(REFERENCES)
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        if path.stem == "__init__":
            roots |= _imported(tree)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions.setdefault(node.name, []).append((path.stem, node))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _used([node])
    reached, todo = set(), list(roots)
    while todo:
        name = todo.pop()
        if name not in reached:
            reached.add(name)
            todo.extend(_used(node for _, node in definitions.get(name, ())))
    public = sorted(f"{module}.{name}" for name, found in definitions.items()
                    for module, _ in found if not name.startswith("_"))
    return public, [q for q in public if q.rsplit(".", 1)[1] not in reached]


def unread_assignments() -> list[str]:
    """Every module-level name assigned in the package and read nowhere in it, as module.name.

    A name is read where its module loads it bare, where a module that imports it from
    there loads it, or where any module loads an attribute of that name. Its own
    assignment is a store, so a table whose last reader was removed is listed.
    """
    assigned, read, attributes = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        loaded = {sub.id for sub in ast.walk(tree)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
        attributes |= {sub.attr for sub in ast.walk(tree)
                       if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load)}
        read |= {(path.stem, name) for name in loaded}
        read |= {(node.module, alias.name) for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 for alias in node.names if (alias.asname or alias.name) in loaded}
        for node in tree.body:
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                assigned += [(path.stem, sub.id) for target in targets
                             for sub in ast.walk(target) if isinstance(sub, ast.Name)]
    return sorted(f"{module}.{name}" for module, name in assigned
                  if (module, name) not in read and name not in attributes | UNREAD)


def test_every_public_definition_is_reached():
    public, unreached = public_definitions()
    assert "reduced.evolve" in public and "cli.main" in public
    assert unreached == []


def test_every_reference_is_compared_with():
    for name, module in REFERENCES.items():
        assert name in _used([ast.parse((TESTS / module).read_text())])


def test_every_module_level_name_is_read():
    assert unread_assignments() == []
