#!/usr/bin/env python3
"""Print ``total code doc blank`` line counts per Python file, then their sum.

A line is blank if it holds only whitespace, even inside a docstring; code
if it holds any token of a statement other than a lone string (a trailing
comment does not change that); and doc otherwise: a comment-only line, or a
line of a statement that is only a string literal, such as a docstring.
"""
import io
import sys
import tokenize

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
        tokenize.ENDMARKER}


def counts(source: str) -> tuple[int, int, int, int]:
    """(total, code, doc, blank) lines of Python source."""
    lines = source.splitlines()
    code, statement = set(), []
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            statement.append(tok)
        elif tok.type in (tokenize.NEWLINE, tokenize.ENDMARKER):
            if any(t.type != tokenize.STRING for t in statement):
                code.update(row for t in statement for row in range(t.start[0], t.end[0] + 1))
            statement = []
    blank = sum(not line.strip() for line in lines)
    n_code = sum(bool(line.strip()) and row in code for row, line in enumerate(lines, 1))
    return len(lines), n_code, len(lines) - n_code - blank, blank


if __name__ == "__main__":
    total = [0, 0, 0, 0]
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as fh:
            row = counts(fh.read())
        total = [a + b for a, b in zip(total, row)]
        print(*row, path)
    print(*total)
