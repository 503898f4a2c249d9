"""A class of the package is a dataclass only when it checks its own fields.

Every other record is a typing.NamedTuple. A class decorated with dataclass (bare,
called or as dataclasses.dataclass) must define __post_init__. The sources are
read with ast; nothing is imported.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cavity_beats"


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", None)
    return name == "dataclass"


def dataclasses_by_check() -> tuple[list[str], list[str]]:
    """(every dataclass of the package, those without __post_init__), as module.name."""
    found, unchecked = [], []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ClassDef) and any(map(_is_dataclass, node.decorator_list)):
                name = f"{path.stem}.{node.name}"
                found.append(name)
                methods = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
                if "__post_init__" not in methods:
                    unchecked.append(name)
    return found, unchecked


def test_every_dataclass_checks_its_fields():
    found, unchecked = dataclasses_by_check()
    assert "model.LevelScheme" in found
    assert unchecked == []
