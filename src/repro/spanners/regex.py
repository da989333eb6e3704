"""A small regex language with capture variables, for document spanners.

The paper's motivation for words is information extraction with document
spanners [22, 23]: queries are regular expressions whose sub-expressions can
be *captured* by variables, and an answer assigns word positions to the
variables.  This module parses the following syntax into an AST:

==============  =====================================================
syntax          meaning
==============  =====================================================
``a``           a single letter (any character except the meta characters)
``.``           any letter
``[abc]``       a character class; ``[^abc]`` for its complement
``e1 e2``       concatenation
``e1|e2``       alternation
``e*`` ``e+`` ``e?``  repetition
``(e)``         grouping
``x{e}``        capture: the *positions matched by* ``e`` are bound to the
                (second-order) variable ``x``; with the first-order
                convention of Corollary 8.3 a capture of a single letter
                binds ``x`` to that position
==============  =====================================================

The compiler (:mod:`repro.spanners.compile`) turns the AST into a word
variable automaton by a Thompson-style construction where transitions inside
a capture carry the capturing variables.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, List, Optional, Tuple

from repro.errors import RegexSyntaxError

__all__ = ["RegexNode", "parse_regex"]

_META = set("|*+?(){}[]")


@dataclass(frozen=True)
class RegexNode:
    """A node of the regex AST.

    ``kind`` is one of ``letter``, ``any``, ``class``, ``concat``, ``alt``,
    ``star``, ``plus``, ``optional``, ``capture``, ``epsilon``.
    """

    kind: str
    letters: FrozenSet[str] = frozenset()
    negated: bool = False
    children: Tuple["RegexNode", ...] = ()
    variable: Optional[str] = None

    def variables(self) -> FrozenSet[str]:
        """All capture variables occurring in the expression."""
        result = set()
        if self.variable is not None:
            result.add(self.variable)
        for child in self.children:
            result |= child.variables()
        return frozenset(result)

    def __repr__(self) -> str:  # pragma: no cover
        if self.kind == "letter":
            return f"Letter({''.join(sorted(self.letters))})"
        if self.kind == "capture":
            return f"Capture({self.variable}, {self.children[0]!r})"
        return f"{self.kind}({', '.join(repr(c) for c in self.children)})"


class _Parser:
    """Recursive-descent parser for the spanner regex syntax."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> Optional[str]:
        return self.text[self.pos] if self.pos < len(self.text) else None

    def take(self) -> str:
        ch = self.peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of expression")
        self.pos += 1
        return ch

    def expect(self, ch: str) -> None:
        if self.peek() != ch:
            raise RegexSyntaxError(f"expected {ch!r} at position {self.pos} in {self.text!r}")
        self.pos += 1

    # grammar: alt := concat ('|' concat)* ; concat := repeat+ ; repeat := atom [*+?]
    def parse(self) -> RegexNode:
        node = self.parse_alt()
        if self.pos != len(self.text):
            raise RegexSyntaxError(f"trailing characters at position {self.pos} in {self.text!r}")
        return node

    def parse_alt(self) -> RegexNode:
        branches = [self.parse_concat()]
        while self.peek() == "|":
            self.take()
            branches.append(self.parse_concat())
        if len(branches) == 1:
            return branches[0]
        return RegexNode("alt", children=tuple(branches))

    def parse_concat(self) -> RegexNode:
        items: List[RegexNode] = []
        while True:
            ch = self.peek()
            if ch is None or ch in "|)}":
                break
            items.append(self.parse_repeat())
        if not items:
            return RegexNode("epsilon")
        if len(items) == 1:
            return items[0]
        return RegexNode("concat", children=tuple(items))

    def parse_repeat(self) -> RegexNode:
        node = self.parse_atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.take()
                node = RegexNode("star", children=(node,))
            elif ch == "+":
                self.take()
                node = RegexNode("plus", children=(node,))
            elif ch == "?":
                self.take()
                node = RegexNode("optional", children=(node,))
            else:
                return node

    def parse_atom(self) -> RegexNode:
        ch = self.peek()
        if ch is None:
            raise RegexSyntaxError("unexpected end of expression")
        if ch == "(":
            self.take()
            node = self.parse_alt()
            self.expect(")")
            return node
        if ch == "[":
            return self.parse_class()
        if ch == ".":
            self.take()
            return RegexNode("any")
        if ch in _META:
            raise RegexSyntaxError(f"unexpected {ch!r} at position {self.pos}")
        # either a plain letter or the start of a capture `x{...}`
        self.take()
        if self.peek() == "{":
            self.take()
            inner = self.parse_alt()
            self.expect("}")
            return RegexNode("capture", children=(inner,), variable=ch)
        return RegexNode("letter", letters=frozenset({ch}))

    def parse_class(self) -> RegexNode:
        self.expect("[")
        negated = False
        if self.peek() == "^":
            self.take()
            negated = True
        letters = set()
        while self.peek() not in (None, "]"):
            letters.add(self.take())
        self.expect("]")
        if not letters:
            raise RegexSyntaxError("empty character class")
        return RegexNode("class", letters=frozenset(letters), negated=negated)


def parse_regex(text: str) -> RegexNode:
    """Parse a spanner regular expression into its AST.

    >>> parse_regex("a x{b+} c").kind
    'concat'
    """
    # whitespace is not significant; strip it for readability of examples
    cleaned = text.replace(" ", "")
    if not cleaned:
        raise RegexSyntaxError("empty regular expression")
    return _Parser(cleaned).parse()
