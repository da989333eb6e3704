"""Tests for WVAs, the spanner regex compiler, the word enumerator
(Theorem 8.5) and word updates."""

from __future__ import annotations

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Engine
from repro.automata.wva import WVA
from repro.core.enumerator import WordRuntime
from repro.errors import InvalidAutomatonError, InvalidEditError, RegexSyntaxError
from repro.spanners.compile import regex_to_wva
from repro.spanners.regex import parse_regex
from repro.spanners.spanner import Spanner

ALPHABET = ("a", "b", "c")


def simple_wva():
    """x marks one position carrying letter 'a'."""
    transitions = []
    for letter in ALPHABET:
        transitions.append(("scan", letter, frozenset(), "scan"))
        transitions.append(("after", letter, frozenset(), "after"))
    transitions.append(("scan", "a", frozenset({"x"}), "after"))
    return WVA(["scan", "after"], ["x"], transitions, ["scan"], ["after"], name="mark_a")


# --------------------------------------------------------------------------- WVA basics
class TestWVA:
    def test_accepts_and_size(self):
        automaton = simple_wva()
        assert automaton.size() == 2 + len(automaton.transitions)
        assert automaton.letters() == set(ALPHABET)
        assert automaton.accepts(list("bab"), {1: {"x"}})
        assert not automaton.accepts(list("bab"), {0: {"x"}})
        assert not automaton.accepts(list("bab"), {})

    def test_satisfying_assignments_oracle(self):
        automaton = simple_wva()
        word = list("abca")
        expected = {frozenset({("x", 0)}), frozenset({("x", 3)})}
        assert automaton.satisfying_assignments(word) == expected

    def test_validation(self):
        with pytest.raises(InvalidAutomatonError):
            WVA([], [], [], [], [])
        with pytest.raises(InvalidAutomatonError):
            WVA(["q"], [], [("q", "a", {"x"}, "q")], ["q"], ["q"])


# --------------------------------------------------------------------------- regex parsing
class TestRegexParsing:
    def test_basic_shapes(self):
        assert parse_regex("abc").kind == "concat"
        assert parse_regex("a|b").kind == "alt"
        assert parse_regex("a*").kind == "star"
        assert parse_regex("a+").kind == "plus"
        assert parse_regex("a?").kind == "optional"
        assert parse_regex("[abc]").kind == "class"
        assert parse_regex(".").kind == "any"
        assert parse_regex("x{a}").kind == "capture"

    def test_capture_variables(self):
        node = parse_regex("x{a+} b y{c}")
        assert node.variables() == {"x", "y"}

    def test_errors(self):
        for bad in ["", "(", ")", "a)", "x{", "[]", "*a", "a|*"]:
            with pytest.raises(RegexSyntaxError):
                parse_regex(bad)


# --------------------------------------------------------------------------- regex -> WVA
def reference_boolean_match(pattern: str, word: str) -> bool:
    """Use Python's re as an oracle for capture-free patterns (full match)."""
    translated = pattern.replace(" ", "")
    return re.fullmatch(translated, word) is not None


class TestRegexCompilation:
    @pytest.mark.parametrize(
        "pattern",
        ["a", "ab", "a|b", "a*", "(ab)*", "a(b|c)*a", "[ab]+c?", ".*", "a.c"],
    )
    def test_boolean_semantics_match_python_re(self, pattern):
        wva = regex_to_wva(pattern, ALPHABET)
        rng = random.Random(0)
        for _ in range(60):
            length = rng.randint(0, 6)
            word = "".join(rng.choice(ALPHABET) for _ in range(length))
            expected = reference_boolean_match(pattern, word)
            got = wva.accepts(list(word), {}) if word else bool(set(wva.initial) & set(wva.final))
            assert got == expected, (pattern, word)

    def test_capture_semantics_single_position(self):
        wva = regex_to_wva(".* x{a} .*", ALPHABET)
        word = list("babca")
        expected = {frozenset({("x", 1)}), frozenset({("x", 4)})}
        assert wva.satisfying_assignments(word) == expected

    def test_capture_semantics_block(self):
        wva = regex_to_wva("b x{a+} b", ("a", "b"))
        word = list("baab")
        assert wva.satisfying_assignments(word) == {frozenset({("x", 1), ("x", 2)})}

    def test_two_variables(self):
        wva = regex_to_wva("x{a} .* y{b}", ("a", "b"))
        word = list("ab")
        assert wva.satisfying_assignments(word) == {frozenset({("x", 0), ("y", 1)})}

    def test_negated_class(self):
        wva = regex_to_wva("[^a]+", ALPHABET)
        assert wva.accepts(list("bcb"), {})
        assert not wva.accepts(list("bca"), {})


# --------------------------------------------------------------------------- Spanner API
class TestSpanner:
    def test_matches_and_spans(self):
        spanner = Spanner(".* x{ab} .*", ("a", "b", "c"))
        matches = spanner.matches(list("cabab"))
        spans = sorted(Spanner.spans(m)["x"] for m in matches)
        assert spans == [(1, 3), (3, 5)]
        assert spanner.variables() == {"x"}

    def test_spans_take_indices_after_an_edit(self):
        # After an insert, stable position ids are no longer indices: map the
        # raw answer through position_ids() (or use assignments_by_index()).
        with Engine() as engine:
            doc = engine.add_word("ab", "x{a+}b", alphabet="ab")
            doc.apply_edits([("insert_after", 0, "a")])
            assert "".join(doc.runtime.word()) == "aab"
            (raw,) = doc.answers()
            assert doc.query.spans(raw) == {"x": (0, 3)}  # ids 0 and 2
            index_of = {pos_id: i for i, pos_id in enumerate(doc.runtime.position_ids())}
            by_index = frozenset((var, index_of[pos_id]) for var, pos_id in raw)
            assert doc.query.spans(by_index) == {"x": (0, 2)}
            assert [Spanner.spans(a) for a in doc.runtime.assignments_by_index()] == [{"x": (0, 2)}]

    def test_enumerator_agrees_with_oracle(self):
        spanner = Spanner(".* x{a+} .*", ("a", "b"))
        document = list("abaab")
        enumerator = spanner.enumerator(document)
        expected = spanner.matches(document)
        produced = set(enumerator.assignments_by_index())
        assert produced == expected


# --------------------------------------------------------------------------- WordRuntime
class TestWordRuntime:
    def test_matches_oracle_static(self):
        automaton = simple_wva()
        word = list("abcab")
        enumerator = WordRuntime(word, automaton)
        produced = set(enumerator.assignments_by_index())
        assert produced == automaton.satisfying_assignments(word)
        assert len(list(enumerator.assignments())) == len(produced)

    def test_empty_word_rejected(self):
        with pytest.raises(InvalidEditError):
            WordRuntime([], simple_wva())

    def test_stats(self):
        enumerator = WordRuntime(list("abcabc"), simple_wva())
        stats = enumerator.stats()
        assert stats.tree_size == 6
        assert stats.circuit_width >= 1

    def test_replace_insert_delete(self):
        automaton = simple_wva()
        enumerator = WordRuntime(list("bbb"), automaton)
        assert enumerator.count() == 0
        # replace the middle letter by 'a'
        middle = enumerator.position_ids()[1]
        enumerator.replace(middle, "a")
        assert enumerator.count() == 1
        # insert an 'a' at the front and after the middle
        enumerator.insert_after(None, "a")
        stats = enumerator.insert_after(middle, "a")
        assert stats.new_position_id is not None
        assert enumerator.count() == 3
        assert "".join(enumerator.word()) == "abaab"
        # delete the middle 'a'
        enumerator.delete(middle)
        assert "".join(enumerator.word()) == "abab"
        assert enumerator.count() == 2

    def test_random_update_sequences_match_oracle(self):
        automaton = simple_wva()
        rng = random.Random(3)
        word = [rng.choice(ALPHABET) for _ in range(8)]
        enumerator = WordRuntime(word, automaton)
        for _ in range(60):
            ids = enumerator.position_ids()
            action = rng.choice(["replace", "insert", "delete"])
            if action == "replace":
                enumerator.replace(rng.choice(ids), rng.choice(ALPHABET))
            elif action == "insert":
                anchor = rng.choice([None] + ids)
                enumerator.insert_after(anchor, rng.choice(ALPHABET))
            elif action == "delete" and len(ids) > 1:
                enumerator.delete(rng.choice(ids))
            current = enumerator.word()
            expected = automaton.satisfying_assignments(current)
            assert set(enumerator.assignments_by_index()) == expected

    def test_delete_last_letter_rejected(self):
        enumerator = WordRuntime(["a"], simple_wva())
        with pytest.raises(InvalidEditError):
            enumerator.delete(enumerator.position_ids()[0])

    def test_word_term_height_stays_logarithmic(self):
        automaton = simple_wva()
        enumerator = WordRuntime(list("ab"), automaton)
        last = enumerator.position_ids()[-1]
        for _ in range(300):
            stats = enumerator.insert_after(last, "b")
            last = stats.new_position_id
        assert enumerator.term.height() <= enumerator.term.height_budget(enumerator.term.size())

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=1000))
    def test_property_static_words(self, length, seed):
        rng = random.Random(seed)
        word = [rng.choice(ALPHABET) for _ in range(length)]
        automaton = simple_wva()
        enumerator = WordRuntime(word, automaton)
        assert set(enumerator.assignments_by_index()) == automaton.satisfying_assignments(word)
