"""List every statement of the package that the benchmark's op set never executes.

Usage, from the root of a checkout:

    python3 tools/reach.py [SEED ...]        (default: output_digest's seeds)

It runs the op set of tools/output_digest.py by calling its main (every benchmark op
and probe at each seed, then `validate` and the presets) under a sys.settrace line
collector, with the digests discarded. Then it prints one `file:line: statement` line
per statement under ./src that no op executed, in file and line order, with the
statement's first source line. The package is imported under the collector, so the
definitions made at import count as executed.

A statement counts as executed when any of its lines that hold code ran. For a compound
statement (def, class, if, for, while, with, try) only its header counts: the lines
from its first decorator or keyword to its first body statement. Statements that hold
no code, such as a function's docstring or `global`, are never listed. What is listed
is reached by no command of the op set: only from the Python API or the tests, or by
nothing.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import importlib.util
import io
import os
import sys
from pathlib import Path
from typing import Callable, Iterable


def _code_lines(code) -> set[int]:
    """The lines that hold an instruction of code or of any code object nested in it."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def statements(path: Path) -> list[tuple[int, set[int], str]]:
    """(line, lines, text) of each statement of the file at path that holds code, by line.

    line is the statement's first line (a def's or class's own, not a decorator's),
    lines the lines of its code that count for it, and text its first line, stripped.
    """
    source = path.read_text()
    tree = ast.parse(source, str(path))
    code_lines = _code_lines(compile(tree, str(path), "exec"))
    text = source.splitlines()
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        end = max(node.lineno, body[0].lineno - 1) if body else node.end_lineno
        lines = set(range(start, end + 1)) & code_lines
        if lines:
            found.append((node.lineno, lines, text[node.lineno - 1].strip()))
    return sorted(found, key=lambda s: s[0])


def collect(run: Callable[[], object], prefix: str) -> set[tuple[str, int]]:
    """Call run() and return the (file, line) of every line it executed in a file under prefix."""
    executed = set()

    def local(frame, event, arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def call(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return executed


def unreached(paths: Iterable[Path], executed: set[tuple[str, int]]) -> list[tuple[Path, int, str]]:
    """(path, line, text) of each statement of the files at paths with no line in executed."""
    out = []
    for path in paths:
        ran = {line for name, line in executed if name == str(path)}
        out += [(path, line, text) for line, lines, text in statements(path) if not lines & ran]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="list the package statements the op set never executes")
    p.add_argument("seeds", nargs="*", help="seeds handed to tools/output_digest.py")
    args = p.parse_args(argv)
    spec = importlib.util.spec_from_file_location(
        "output_digest", Path(__file__).resolve().parent / "output_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    src = Path(os.getcwd()) / "src"

    def run_ops():
        with contextlib.redirect_stdout(io.StringIO()):
            digest.main(args.seeds)

    executed = collect(run_ops, str(src) + os.sep)
    for path, line, text in unreached(sorted(src.rglob("*.py")), executed):
        print(f"{os.path.relpath(path)}:{line}: {text}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
