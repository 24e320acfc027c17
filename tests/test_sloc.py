"""tools/sloc.py counts code lines without docstrings, comments or blank lines."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _sloc():
    spec = importlib.util.spec_from_file_location("sloc", os.path.join(ROOT, "tools", "sloc.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    x = """a multi-line string
    that is no docstring"""

    def f(self, a,
          b):
        """Function docstring."""
        return (a +
                b)
'''


def test_code_lines_skip_docstrings_comments_and_blanks():
    # import, class, two lines of x, two of def, two of return
    assert _sloc().code_lines(SOURCE) == 8


def test_code_lines_of_an_empty_or_docstring_only_module():
    sloc = _sloc()
    assert sloc.code_lines("") == 0
    assert sloc.code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_counts_the_package():
    sloc = _sloc()
    files = list(sloc.python_files([os.path.join(ROOT, "src")]))
    assert files and all(f.endswith(".py") and "__pycache__" not in f for f in files)
    total = 0
    for path in files:
        with open(path, encoding="utf-8") as fh:
            total += sloc.code_lines(fh.read())
    assert total > 0
