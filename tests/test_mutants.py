"""tools/mutants.py names one-edit mutants whose source text occurs once; no mutant runs here."""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _mutants():
    spec = importlib.util.spec_from_file_location("mutants",
                                                  os.path.join(ROOT, "tools", "mutants.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_each_mutant_text_occurs_once_in_the_source():
    tool = _mutants()
    assert tool.check_patterns() == []
    names = [name for name, *_ in tool.MUTANTS]
    assert len(names) == len(set(names)) == 16
    for name, path, text, replacement in tool.MUTANTS:
        assert path.startswith("src/cmvscat/") and text != replacement, name
    assert set(tool.EQUIVALENT) <= set(names)


def test_first_failure_reads_the_short_summary():
    tool = _mutants()
    out = "..F\n=== short test summary info ===\nFAILED tests/test_a.py::test_b - assert 0\n"
    assert tool._first_failure(out) == "tests/test_a.py::test_b"
    assert tool._first_failure("ERROR tests/test_c.py - ImportError\n") == "tests/test_c.py"
    assert tool._first_failure("3 passed\n") == ""
