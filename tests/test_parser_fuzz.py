"""Fuzzing of the three text parsers: each returns a value or raises
DomainError, never another exception.  The outcomes of the class and
polynomial parsers on a seeded corpus are pinned by digest."""

import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError
from swfloer.extalg import ExtClass, parse_class, render_class
from swfloer.glueadj import SWTable, parse_sw_table
from swfloer.symprod import BiPoly, parse_bipoly, render_bipoly

LONG = "9" * 5000  # longer than int() converts by default


def grammar_text(alphabet, max_size=30):
    """Text near the grammar, plus arbitrary text."""
    return st.one_of(st.text(alphabet=alphabet, max_size=max_size),
                     st.text(max_size=max_size))


def value_or_domain_error(parse, *args):
    try:
        return parse(*args)
    except DomainError:
        return None


@given(st.integers(min_value=2, max_value=5),
       grammar_text("xtg0123456789^*/+- ."))
@settings(max_examples=400, deadline=None)
@example(3, "x^" + LONG)
@example(3, "g" + LONG)
@example(3, "1/0*x")
def test_parse_class_value_or_domain_error(g, text):
    out = value_or_domain_error(parse_class, g, text)
    assert out is None or isinstance(out, ExtClass)


@given(grammar_text("et0123456789^*/+- ."))
@settings(max_examples=400, deadline=None)
@example("e^" + LONG)
@example("1/0*e")
def test_parse_bipoly_value_or_domain_error(text):
    out = value_or_domain_error(parse_bipoly, text)
    assert out is None or isinstance(out, BiPoly)


table_lines = st.lists(grammar_text("xtg0123456789^*/-# .", max_size=20),
                       max_size=5)


@given(st.one_of(st.just(""), st.sampled_from(["genus 3 r 1", "genus 4 r -2"]),
                 grammar_text("genusr0123456789- ", max_size=16)),
       table_lines)
@settings(max_examples=400, deadline=None)
@example("genus 3 r 1", ["x^" + LONG + " 1"])
@example("genus 3 r 1", ["x 1/0"])
@example("genus 0_3 r +1", ["1 1"])
def test_parse_sw_table_value_or_domain_error(header, lines):
    text = "\n".join([header] + lines)
    out = value_or_domain_error(parse_sw_table, text)
    assert out is None or isinstance(out, SWTable)
    if out is not None:  # the header numbers follow the integer grammar
        first = next(t for t in (raw.split("#", 1)[0].split()
                                 for raw in text.splitlines()) if t)
        assert all(re.fullmatch(r"[+-]?\d+", n) for n in first[1::2])


# -- pinned outcomes -------------------------------------------------------

CLASS_ALPHABET = "xtg0123456789^*/+- ."
BIPOLY_ALPHABET = "et0123456789^*/+- ."


def pinned_corpus(alphabet, words, seed, n=6000):
    """n seeded strings of up to 12 pieces, each a character of a fuzz
    alphabet, one of '--', '+-' and a tab, or a word of the grammar."""
    rng = random.Random(seed)
    pieces = list(alphabet) + ["--", "+-", "\t"] + words
    return ["".join(rng.choice(pieces) for _ in range(rng.randint(0, 12)))
            for _ in range(n)]


def outcome_digest(cases, parse, render):
    """sha256 over each (arguments, rendered value or DomainError message),
    and the number of values."""
    h = hashlib.sha256()
    values = 0
    for args in cases:
        try:
            out = render(parse(*args))
            values += 1
        except DomainError as e:
            out = f"DomainError: {e}"
        h.update(repr((args, out)).encode())
    return h.hexdigest(), values


def test_parse_class_outcomes_are_pinned():
    # recorded with the state-machine tokenizer that the sign-run split
    # replaced: every value and every message must stay the same
    words = ["x", "g1", "g2", "g5", "t^2", "x^2", "3/2", "*", " + ", " - ", "1"]
    cases = [(2 + i % 4, s) for i, s in
             enumerate(pinned_corpus(CLASS_ALPHABET, words, 30))]
    assert outcome_digest(cases, parse_class, render_class) == (
        "7b8d06c975cc7a48de7d289c5e628e3adbecb06cc0ae315b1572305355d5a51c", 646)


def test_parse_bipoly_outcomes_are_pinned():
    words = ["e", "t", "e^2", "t^3", "3/2", "*", " + ", " - ", "1"]
    cases = [(s,) for s in pinned_corpus(BIPOLY_ALPHABET, words, 31)]
    assert outcome_digest(cases, parse_bipoly, render_bipoly) == (
        "e7ac562b5708ef0d2f069b4f4c94be6f3bb60a08ac6f76578d5f003de40f4340", 581)


@pytest.mark.parametrize("text, want", [
    ("--x", "x"), ("+x", "x"), ("x+-g1", "-g1 + x"), ("x - - g1", "g1 + x")])
def test_parse_class_sign_runs(text, want):
    # a run of signs is worth -1 per '-'
    assert render_class(parse_class(3, text)) == want


def test_parse_class_reports_a_bad_term_before_a_dangling_operator():
    with pytest.raises(DomainError, match="bad factor '5g48'"):
        parse_class(3, "5g48--g1+-g41+")
    with pytest.raises(DomainError, match="dangling operator"):
        parse_class(3, "x--g1+-g4+")
