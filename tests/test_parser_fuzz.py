"""Fuzzing of the three text parsers: each returns a value or raises
DomainError, never another exception."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from swfloer.errors import DomainError
from swfloer.extalg import ExtClass, parse_class
from swfloer.glueadj import SWTable, parse_sw_table
from swfloer.symprod import BiPoly, parse_bipoly

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
def test_parse_sw_table_value_or_domain_error(header, lines):
    out = value_or_domain_error(parse_sw_table, "\n".join([header] + lines))
    assert out is None or isinstance(out, SWTable)
