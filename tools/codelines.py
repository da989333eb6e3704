"""Count code lines per file under a source tree, and their total.

A code line is a line that holds at least one code token, outside every
bare-string statement: comments, blank lines, docstrings and other
expression statements made of a string literal alone do not count.  This
is the measure the change log reports for "less code".

Usage::

    python tools/codelines.py [ROOT]      # ROOT defaults to src

It prints one ``count  path`` line per ``.py`` file, sorted by path, and
the total last.  Informational only: nothing gates on it.
"""

from __future__ import annotations

import io
import os
import sys
import tokenize

#: tokens that never make a line a code line on their own
_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    statement = []  # the code tokens of the current logical line
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type == tokenize.NEWLINE:
            if not all(tok.type == tokenize.STRING for tok in statement):
                for tok in statement:
                    lines.update(range(tok.start[0], tok.end[0] + 1))
            statement = []
        elif token.type not in _LAYOUT:
            statement.append(token)
    return len(lines)


def main(argv) -> int:
    root = argv[1] if len(argv) > 1 else "src"
    counts = []
    for folder, _dirs, files in os.walk(root):
        for name in files:
            if name.endswith(".py"):
                path = os.path.join(folder, name)
                with open(path, encoding="utf8") as handle:
                    counts.append((path, code_lines(handle.read())))
    for path, count in sorted(counts):
        print(f"{count:6d}  {path}")
    print(f"{sum(count for _path, count in counts):6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
