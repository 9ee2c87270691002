"""scripts/line_counts.py: the rules by which a source line counts as code,
doc or blank."""
import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "line_counts.py"
spec = importlib.util.spec_from_file_location("line_counts", SCRIPT)
line_counts = importlib.util.module_from_spec(spec)
spec.loader.exec_module(line_counts)

SNIPPET = '''"""Module docstring.

Its second paragraph.
"""
import os  # a trailing comment leaves a code line code

# a comment-only line


def f(x):
    """One-line docstring."""
    text = """a string
that is code"""
    return (x +  # code
            # a comment inside an expression
            1)
'''


def test_the_four_rules_on_a_crafted_snippet():
    # doc: the docstrings' lines but the blank one inside, and both
    # comment-only lines; code: import, def, the assigned string's two
    # lines, and the return's lines but its comment-only one
    assert line_counts.counts(SNIPPET) == (16, 6, 6, 4)


def test_a_file_of_blank_lines_and_one_comment():
    assert line_counts.counts("\n\n# note\n") == (3, 0, 1, 2)
