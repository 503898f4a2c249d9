"""Every public top-level function and class of the package is reached from a root,
and every module-level name the package assigns is read somewhere in it.

The roots are the names tests/test_acceptance.py imports from the package, the
names the package root imports, the names module-level code uses, and the
reference implementations in REFERENCES while a test compares with them. A
definition is keyed by its module and name. One reached from a root reaches what
its body names: a bare name as its own module binds it (a definition there, or
what the module imports under that name, followed to where it is defined), and
an attribute of a package module imported whole as that module binds it. A
definition whose name only some other module binds is unreached. The sources
are read with ast; nothing is imported.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "cavity_beats"
# Kept though no run reaches them: the slow, plain form that the tests hold a faster
# path to, and the test module that does.
REFERENCES = {"composite.lindblad_rhs": "test_composite.py"}
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


def _bindings(tree: ast.Module, module: str) -> dict[str, tuple[str, str]]:
    """Each name a module binds by a top-level definition or a relative import, as the
    (module, name) it stands for; a package module imported whole stands for (module, "")."""
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound[node.name] = (module, node.name)
        elif isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                target = (alias.name, "") if node.module is None else (node.module, alias.name)
                bound[alias.asname or alias.name] = target
    return bound


def _named(nodes, bound: dict[str, tuple[str, str]]) -> set[tuple[str, str]]:
    """What the nodes name in a module that binds bound: its bare names, and the
    attributes of the package modules it imports whole."""
    named = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and sub.id in bound:
                named.add(bound[sub.id])
            elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
                module, name = bound.get(sub.value.id, (None, None))
                if module and not name:  # a package module imported whole
                    named.add((module, sub.attr))
    return named


def public_definitions() -> tuple[list[str], list[str]]:
    """(every public top-level function and class, the unreached ones), as module.name."""
    definitions, bindings, roots = {}, {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        bound = bindings[path.stem] = _bindings(tree, path.stem)
        if path.stem == "__init__":
            roots |= set(bound.values())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definitions[path.stem, node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                roots |= _named([node], bound)
    for node in ast.parse((TESTS / "test_acceptance.py").read_text()).body:
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("cavity_beats"):
            module = node.module.partition(".")[2] or "__init__"
            roots |= {(module, alias.name) for alias in node.names}
    roots |= {tuple(name.split(".")) for name in REFERENCES}
    reached, todo = set(), list(roots)
    while todo:
        key = todo.pop()
        if key not in reached:
            reached.add(key)
            module, name = key
            if key in definitions:
                todo.extend(_named([definitions[key]], bindings[module]))
            elif name in bindings.get(module, {}):
                todo.append(bindings[module][name])  # an import: where it is defined
    public = sorted(f"{module}.{name}" for module, name in definitions if not name.startswith("_"))
    return public, [q for q in public if tuple(q.split(".")) not in reached]


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
        assert name.rsplit(".", 1)[1] in _used([ast.parse((TESTS / module).read_text())])


def test_every_module_level_name_is_read():
    assert unread_assignments() == []
