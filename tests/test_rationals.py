import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st

from freedf.errors import BadRational
from freedf.rationals import format_rational, parse_rational


def test_format_always_has_denominator():
    assert format_rational(Fraction(1, 2)) == "1/2"
    assert format_rational(Fraction(-1, 2)) == "-1/2"
    assert format_rational(Fraction(3)) == "3/1"
    assert format_rational(Fraction(0)) == "0/1"
    assert format_rational(Fraction(2, -4)) == "-1/2"


def test_parse_forms():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3/6") == Fraction(-1, 2)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational(5) == Fraction(5)
    assert parse_rational(0.5) == Fraction(1, 2)
    assert parse_rational(0.1) == Fraction(1, 10)
    assert parse_rational(Fraction(2, 3)) == Fraction(2, 3)


def test_parse_errors():
    with pytest.raises(BadRational):
        parse_rational("1/0")
    with pytest.raises(BadRational):
        parse_rational("a/b")
    with pytest.raises(BadRational):
        parse_rational("")
    with pytest.raises(BadRational):
        parse_rational("1/2/3")
    with pytest.raises(BadRational):
        parse_rational(None)


@settings(deadline=None, max_examples=300)
@given(st.integers(min_value=-10 ** 12, max_value=10 ** 12), st.integers(min_value=1, max_value=10 ** 9))
def test_round_trip(a, b):
    q = Fraction(a, b)
    assert parse_rational(format_rational(q)) == q


def test_rational_reader_parses_each_string_once(monkeypatch):
    import freedf.rationals as rationals

    seen = []
    monkeypatch.setattr(rationals, "parse_rational", lambda v: seen.append(v) or parse_rational(v))
    read = rationals.rational_reader()
    a, b = read("2/4"), read("2/4")
    assert a == Fraction(1, 2) and a is b
    assert read(" 2/4") == a and read(1) == 1 and read(1) == 1 and read(0.5) == a
    assert seen == ["2/4", " 2/4", 1, 1, 0.5]
    # True is the same dict key as 1, but never reaches the memo
    assert read("1") == 1
    for bad in (True, "1/0", "1/0"):
        with pytest.raises(BadRational):
            read(bad)
    assert seen[-3:] == [True, "1/0", "1/0"]


def test_read_rationals_raises_at_the_first_bad_string():
    # the first in document order, whatever order a set of the strings takes
    import freedf.rationals as rationals

    values = ["1/2"] + ["%d/x" % k for k in range(50)]
    with pytest.raises(BadRational, match=r"^bad denominator in '0/x'$"):
        list(rationals.read_rationals(values, {}))


def test_rational_writer_formats_each_value_once(monkeypatch):
    import freedf.rationals as rationals

    seen = []
    monkeypatch.setattr(rationals, "format_rational", lambda v: seen.append(v) or format_rational(v))
    write = rationals.rational_writer()
    assert [write(v) for v in (Fraction(1, 2), Fraction(2, 4), 3, Fraction(3), Fraction(-1, 2))] == [
        "1/2", "1/2", "3/1", "3/1", "-1/2",
    ]
    assert seen == [Fraction(1, 2), 3, Fraction(-1, 2)]
    # with a denominator, integer numerators are written over it, reduced
    over = rationals.rational_writer(24)
    assert [over(x) for x in (1, -5, 12, 1, 0)] == ["1/24", "-5/24", "1/2", "1/24", "0/1"]
    assert len(seen) == 7


def test_non_finite_numbers_are_bad_rationals():
    # json.load reads NaN, Infinity and -Infinity; they raised a bare ValueError
    for x in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(BadRational, match="non-finite"):
            parse_rational(x)
