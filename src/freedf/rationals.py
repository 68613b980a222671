"""Exact rational scalars, their canonical text form, and document layers.

All arithmetic uses fractions.Fraction. The interchange rendering is
"p/q" with q > 0 and gcd(p, q) = 1, the minus sign on the numerator;
integers render as "p/1". Parsing also accepts a bare integer string.
Sums over many values run on integers over one common denominator
(to_integers). read_order and parse_layers read the orders of a table
document or a coefficient family without importing either layer.
"""

import itertools
from fractions import Fraction
from math import isfinite, lcm
from operator import attrgetter, eq, is_, mul

from .errors import BadRational, IncompleteTable, SchemaError
from .partitions import parse_partition, render_index_tuple

DENSE_GUARD = 10 ** 7  # the most entries or steps a dense table, matrix or transform may take


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


def to_integers(values):
    """(D, ints): the values, in order, as integers over their least common
    denominator D. Each distinct value object is scaled once: a layer read
    from JSON, or spread from kernel classes, shares one Fraction among
    many keys, and the ids map the objects back only when one is shared.
    """
    ids = list(map(id, values))
    distinct = dict(zip(ids, values))
    objs = distinct.values()
    dens = list(map(attrgetter("denominator"), objs))
    D = lcm(*set(dens))
    scaled = list(map(mul, map(attrgetter("numerator"), objs), map(D.__floordiv__, dens)))
    if len(distinct) < len(ids):
        scaled = list(map(dict(zip(distinct, scaled)).__getitem__, ids))
    return D, scaled


def scale_into(nums, layer):
    """Store a mapping's values in nums, by key, as to_integers; return D."""
    D, scaled = to_integers(layer.values())
    nums.update(zip(layer, scaled))
    return D


def parse_count(doc, field, least):
    """doc[field] as an integer >= least (0 or 1); booleans are refused."""
    v = doc[field]
    if isinstance(v, bool) or not isinstance(v, int) or v < least:
        kind = "positive" if least else "non-negative"
        raise SchemaError("field %r must be a %s integer, got %r" % (field, kind, v))
    return v


def parse_rgs_key(text, m):
    """A partition key of order m, written as its canonical RGS."""
    key = parse_partition(text)
    if key.size != m:
        raise SchemaError("partition %r under order %d has size %d" % (text, m, key.size))
    if str(key) != text.replace(" ", ""):
        raise SchemaError("partition key %r is not canonical" % text)
    return key


def parse_layers(raw, max_order, parse_key, expected, texts=None, places=None):
    """{m: [Fraction, ...]} for exactly the orders m = 1..max_order of
    {"m": {text: value}}, each read by read_order as one piece."""
    if not isinstance(raw, dict):
        raise SchemaError("field 'values' must be an object keyed by order")
    out = {}
    for m in range(1, max_order + 1):
        layer_doc = raw.get(str(m))
        if layer_doc is None:
            raise IncompleteTable("values for order %d are missing" % m, missing=[str(m)])
        if not isinstance(layer_doc, dict):
            raise SchemaError("values for order %d must be an object keyed by entry" % m)
        out[m] = read_order([layer_doc], m, parse_key, expected, texts, places)
    stray = [text for text in raw if text not in map(str, range(1, max_order + 1))]
    if stray:
        raise SchemaError("values carries an unexpected order %r" % (stray[0],))
    return out


def read_order(pieces, m, parse_key, expected, texts=None, places=None):
    """The values of order m, in the order expected(m) lists its keys, from
    its entries given as consecutive {text: value} pieces, each key once.

    Pieces of the next texts(m) (by default str of each key) are read as
    they stand. From the first other piece on, each key is parsed by
    parse_key(text, m) and its value put at place(key): (place, size) =
    places(m), else each key's index in expected(m) and their number; None
    is a stray key. Errors come in document order (a parse, a repeat, a
    bad value), then the missing keys, then the smallest stray key.
    """
    texts = texts or (lambda m: map(str, expected(m)))
    want, memo, vals, pieces = iter(texts(m)), {}, [], iter(pieces)
    for piece in pieces:
        if sum(map(eq, piece, itertools.islice(want, len(piece)))) != len(piece):
            break
        vals += read_rationals(piece.values(), memo)
    else:
        if next(want, None) is None:
            return vals
        piece = {}
    if places:
        place, size = places(m)
    else:
        index = {key: at for at, key in enumerate(expected(m))}
        place, size = index.get, len(index)
    vals += [None] * (size - len(vals))
    read, stray = rational_reader(memo), {}
    for text, val in itertools.chain.from_iterable(map(dict.items, itertools.chain([piece], pieces))):
        key = parse_key(text, m)
        at = place(key)
        if key in stray if at is None else vals[at] is not None:
            raise SchemaError("order %d repeats the key %s as %r" % (m, render_index_tuple(key), text))
        if at is None:
            stray[key] = read(val)
        else:
            vals[at] = read(val)
    gaps = list(map(is_, vals, itertools.repeat(None)))
    if any(gaps):
        shown = list(itertools.islice(itertools.compress(texts(m), gaps), 8))
        raise IncompleteTable(
            "order %d is missing %d entries, e.g. %s" % (m, sum(gaps), ", ".join(shown)), missing=shown
        )
    if stray:
        raise SchemaError("order %d carries an unexpected key %r" % (m, render_index_tuple(min(stray))))
    return vals
