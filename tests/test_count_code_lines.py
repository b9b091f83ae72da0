"""The code-line counter that scores line counts of src/."""

import textwrap

from count_code_lines import code_lines

SNIPPET = textwrap.dedent('''\
    """Module docstring,
    on two lines."""

    import math  # a trailing comment keeps the line

    # a comment line


    class Box:
        """Class docstring."""

        def area(self, x):
            """Function
            docstring."""
            note = """a multi-line string
            that is no docstring"""
            return math.pi * x  # code
    ''')


def test_counts_code_lines_only():
    # import, class, def, the two lines of `note`, return
    assert code_lines(SNIPPET) == 6


def test_a_docstring_beside_code_keeps_its_line():
    # a one-line def whose body is its docstring
    assert code_lines('def f(): "doc"\n') == 1
