"""The statement lister of tools/reach.py, on a small module written for the test."""

import importlib.util
import textwrap
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SMALL = textwrap.dedent('''\
    """A module docstring is code: it is stored as __doc__."""
    import functools


    def signed_root(x):
        """A function's docstring is not code."""
        if x >= 0:
            return (x
                    ** 0.5)
        else:
            return -(-x) ** 0.5


    @functools.cache
    def never_called(y):
        global COUNT
        return [
            y]


    class Box:
        size: int = 2

        def items(self):
            return [k for k in range(self.size)]
''')


def test_unreached_lists_the_statements_no_line_of_which_ran(tmp_path):
    path = tmp_path / "small.py"
    path.write_text(SMALL)
    spec = importlib.util.spec_from_file_location("small", path)
    module = importlib.util.module_from_spec(spec)

    def run():
        spec.loader.exec_module(module)
        module.signed_root(4.0)  # the multi-line return runs; the else branch does not
        module.Box().items()

    executed = reach.collect(run, str(tmp_path))
    assert {name for name, _ in executed} == {str(path)}
    # the decorated def ran at import, its body never; docstrings and global hold no code
    assert reach.unreached([path], executed) == [
        (path, 11, "return -(-x) ** 0.5"),
        (path, 17, "return ["),
    ]
    lines = [line for line, _, _ in reach.statements(path)]
    assert lines == [1, 2, 5, 7, 8, 11, 15, 17, 21, 22, 24, 25]  # a def by its own line
