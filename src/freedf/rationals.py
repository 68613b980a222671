"""Exact rational scalars and their canonical text form.

All arithmetic uses fractions.Fraction. The interchange rendering is
"p/q" with q > 0 and gcd(p, q) = 1, the minus sign on the numerator;
integers render as "p/1". Parsing also accepts a bare integer string.
"""

from fractions import Fraction
from math import isfinite

from .errors import BadRational


def format_rational(x):
    f = Fraction(x)
    return "%d/%d" % (f.numerator, f.denominator)


def parse_rational(text):
    if isinstance(text, bool):
        raise BadRational("a boolean is not a rational: %r" % text)
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, float):
        if not isfinite(text):
            raise BadRational("a non-finite number is not a rational: %r" % text)
        # float input only appears in float scalar mode; go through the
        # decimal rendering so 0.1 means the literal decimal
        return Fraction(repr(text))
    s = str(text).strip()
    if not s:
        raise BadRational("empty rational")
    num, _, den = s.partition("/")
    try:
        p = int(num)
    except ValueError:
        raise BadRational("bad numerator in %r" % s) from None
    if not _:
        return Fraction(p)
    try:
        q = int(den)
    except ValueError:
        raise BadRational("bad denominator in %r" % s) from None
    if q == 0:
        raise BadRational("zero denominator in %r" % s)
    return Fraction(p, q)


def rational_reader(memo=None):
    """parse_rational that parses each distinct string once, equal strings
    sharing one Fraction of memo, {text: Fraction}. Other values are parsed
    on every call, so True (the same dict key as 1) stays a BadRational."""
    memo = {} if memo is None else memo

    def read(value):
        if not isinstance(value, str):
            return parse_rational(value)
        got = memo.get(value)
        if got is None:
            got = memo[value] = parse_rational(value)
        return got

    return read


def read_rationals(values, memo):
    """map(rational_reader(memo), values), the strings new to memo parsed up front if all parse."""
    try:
        fresh = set(values).difference(memo)
        if all(type(v) is str for v in fresh):
            memo.update(zip(fresh, map(parse_rational, fresh)))
            return map(memo.__getitem__, values)
    except (TypeError, BadRational):  # a list is no set member; a bad string
        pass
    return map(rational_reader(memo), values)


def rational_writer(den=1):
    """format_rational of value / den, each distinct value formatted once."""
    memo = {}

    def write(value):
        key = value.numerator, value.denominator  # hashing a Fraction costs more than formatting it
        got = memo.get(key)
        if got is None:
            got = memo[key] = format_rational(Fraction(value, den))
        return got

    return write
