"""Fuzzing of the three text parsers: each returns a value or raises
DomainError, never another exception.  The outcomes of the class and
polynomial parsers on a seeded corpus are pinned by digest, and the two
read seeded signed sums alike."""

import hashlib
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError
from swfloer.extalg import ExtClass, embed_bipoly, parse_class, render_class
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
    # re-recorded when parse_class stripped its coefficient factor: the
    # unstripped factor gave 7b8d06c9... with 646 values.  On 120,000
    # seeded strings against it, no value changed and no accepted string
    # was rejected; 671 rejected strings became values and 1,800
    # rejections changed message (here 9 and 24 of the 6,000).  Re-recorded
    # again when parse_class took rationals anywhere in a product, 1
    # included: 474c7076... with 655 values before.  On 126,000 seeded
    # strings against it, no value changed and no accepted string was
    # rejected; 7,821 rejected strings became values and 7,464 rejections
    # changed message (here 102 and 290 of the 6,000).
    words = ["x", "g1", "g2", "g5", "t^2", "x^2", "3/2", "*", " + ", " - ", "1"]
    cases = [(2 + i % 4, s) for i, s in
             enumerate(pinned_corpus(CLASS_ALPHABET, words, 30))]
    assert outcome_digest(cases, parse_class, render_class) == (
        "668a018101da6a59f874b8d24dec4aacc3224461ef1ec1b867637538428cfa52", 757)


def test_parse_bipoly_outcomes_are_pinned():
    # re-recorded when parse_bipoly took its sign runs from signed_terms:
    # the polynomial parser's own tokenizer gave e7ac562b... with 581
    # values.  On 120,000 seeded strings against that tokenizer, no value
    # changed and no accepted string was rejected; 43,801 rejected strings
    # became values and 32,705 rejections changed message.
    words = ["e", "t", "e^2", "t^3", "3/2", "*", " + ", " - ", "1"]
    cases = [(s,) for s in pinned_corpus(BIPOLY_ALPHABET, words, 31)]
    assert outcome_digest(cases, parse_bipoly, render_bipoly) == (
        "39d4831c19d269b3b3557c822671e2d5981043acea139dd04a6faeca3605d93e", 845)


@pytest.mark.parametrize("text, want", [
    ("--x", "x"), ("+x", "x"), ("x+-g1", "-g1 + x"), ("x - - g1", "g1 + x")])
def test_parse_class_sign_runs(text, want):
    # a run of signs is worth -1 per '-'
    assert render_class(parse_class(3, text)) == want


@pytest.mark.parametrize("text, want", [
    ("1*x", "x"), ("x*2", "2*x"), ("2*3*x", "6*x"), ("x*1*g1", "x*g1"),
    ("1", "1"), ("2*1/2", "1"), ("x*0", "0"), ("g1*3/2*x", "3/2*x*g1")])
def test_parse_class_reads_rationals_anywhere_in_a_product(text, want):
    # as parse_bipoly reads 1*e, e*2 and 2*3*e
    assert render_class(parse_class(3, text)) == want


def test_parse_class_reports_a_bad_term_before_a_dangling_operator():
    with pytest.raises(DomainError, match="bad factor '5g48'"):
        parse_class(3, "5g48--g1+-g41+")
    with pytest.raises(DomainError, match="dangling operator"):
        parse_class(3, "x--g1+-g4+")


@pytest.mark.parametrize("text, want", [
    ("--e", "e"), ("+e", "e"), ("e+-t", "e - t"), ("e - - t", "e + t")])
def test_parse_bipoly_sign_runs(text, want):
    # the same sign runs as parse_class: -1 per '-'
    assert render_bipoly(parse_bipoly(text)) == want


def test_parse_bipoly_reports_a_bad_term_before_a_dangling_operator():
    with pytest.raises(DomainError, match="bad factor '5e'"):
        parse_bipoly("5e--t+-e+")
    with pytest.raises(DomainError, match="dangling operator"):
        parse_bipoly("e--t+")


def signed_sums(seed, n=3000):
    """n seeded sums of products of powers of e and t, each product with up
    to two rationals (1 among them) in any position, or of rationals alone,
    and after a random run of signs (the first may have none), with random
    spaces, tabs and newlines; some end in a sign run."""
    rng = random.Random(seed)

    def space():
        return rng.choice(["", "", " ", "  ", "\t", "\n"])

    def signs(least):
        return space().join(rng.choice("+-")
                            for _ in range(rng.randint(least, 3)))

    out = []
    for _ in range(n):
        text = ""
        for i in range(rng.randint(0, 4)):
            factors = [rng.choice(["e", "t", "e^2", "t^2", "e^0"])
                       for _ in range(rng.randint(0, 3))]
            for _ in range(rng.randint(0 if factors else 1, 2)):
                factors.insert(rng.randint(0, len(factors)),
                               rng.choice(["1", "2", "3/2", "0", "5/3"]))
            product = (space() + "*" + space()).join(factors)
            text += space() + signs(0 if i == 0 else 1) + space() + product
        if rng.random() < 0.1:
            text += signs(1) + space()
        out.append(text)
    return out


def test_class_and_polynomial_parsers_agree_on_signed_sums():
    # one sign rule for both models: a polynomial read as a class (e as x)
    # is its embedding, and a sum one parser rejects the other rejects
    for i, text in enumerate(signed_sums(34)):
        g = 2 + i % 4
        cls = value_or_domain_error(parse_class, g, text.replace("e", "x"))
        poly = value_or_domain_error(parse_bipoly, text)
        if poly is None:
            assert cls is None, text
        else:
            assert cls == embed_bipoly(g, poly), text
