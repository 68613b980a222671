"""Moment and cumulant tables: their types and their JSON form.

A table stores, per order m <= max_order, the values of a multilinear
family on tuples over [n]. Two representations exist:

  dense   every tuple in [n]^m has an entry;
  kernel  entries are keyed by kernel partitions (all tau in P(m) with
          #tau <= n), valid exactly when values depend on a tuple only
          through ker(tuple).

Every dense layer of a Table is a DenseLayer: the list of its values in
itertools.product order, the order to_json writes, behind a mapping
keyed by words, a word's position its dot product with the place
weights. A dense layer depends on words only through their kernels iff
it is S_n-invariant, which Table.kernel_layer tests by position.
read_order (rationals.py) hands Table every layer as the list of its
values in the order to_json writes the keys, from pieces of the layer:
a whole order object, or the bounded slices table_from_text decodes
one at a time. Pieces of the expected texts are read as they stand,
any other key by its position: no layer is held as a dict of entries.

The free transforms between tables live in transforms.py, which only a
job that transforms compiles: kappa_pi, phi_pi, moments_from_cumulants
and cumulants_from_moments are still names of this module, lent from
there on first use by the package's one PEP 562 hook (freedf._lazy).
"""

import itertools
import json
import re
from collections.abc import ItemsView, MutableMapping, ValuesView
from fractions import Fraction
from functools import cache, partial
from operator import add, mul

from . import _lazy
from .errors import IncompleteTable, NotKernelRepresentable, OrderExceeded, SchemaError, TableTooLarge
from .partitions import (
    DEFAULT_CAP,
    check_indices,
    kernel,
    kernel_classes,
    num_blocks,
    parse_index_tuple,
    render_index_tuple,
)
from .rationals import DENSE_GUARD, parse_count, parse_layers, parse_rgs_key, rational_writer, read_order

DENSE = "dense"
KERNEL = "kernel"
__getattr__, __dir__ = _lazy(
    globals(), {"transforms": ("cumulants_from_moments", "kappa_pi", "moments_from_cumulants", "phi_pi")}
)


def _check_dense_size(n, max_order):
    if max_order >= 1 and n ** min(max_order, 24) > DENSE_GUARD:  # 2^24 > DENSE_GUARD
        raise TableTooLarge(
            "dense table would need n^M = %d^%d entries; use the kernel representation" % (n, max_order)
        )


@cache
def place_weights(n, m):
    """(n^(m-1), ..., n, 1): a word's product-order rank is its dot product
    with them, its labels read 0-based."""
    return tuple(n ** (m - 1 - j) for j in range(m))


@cache
def tuple_kernels(m, n):
    """[ker(i) for i in [n]^m] in product order, built once per (m, n), of
    kernel_classes(m, n) objects."""
    got = [None] * n ** m
    for tau in kernel_classes(m, n):
        for rank in _ranks_in_class(tau, n):
            got[rank] = tau
    return got


def _ranks_in_class(tau, n):
    """The ranks of the words of class tau: a word labels the blocks
    injectively, and its rank is the labels' dot product with the block weights."""
    weights = [0] * num_blocks(tau)
    for block, weight in zip(tau, place_weights(n, len(tau))):
        weights[block] += weight
    labellings = itertools.permutations(range(n), len(weights))
    return map(sum, map(map, itertools.repeat(mul), labellings, itertools.repeat(weights)))


def product_texts(n, m):
    """The text "1,3,2" of every word of [n]^m, in itertools.product order,
    each built as its prefix's text plus one label."""
    texts = [str(k) for k in range(1, n + 1)]
    tails = ["," + t for t in texts]
    for _ in range(m - 1):
        texts = itertools.starmap(add, itertools.product(texts, tails))
    return texts


class DenseLayer(MutableMapping):
    """Order m of a dense table: vals lists the value of each word of [n]^m
    in itertools.product order. Its keys are exactly those words: any
    other key is a KeyError, and no word can be deleted."""

    __slots__ = ("n", "m", "vals", "weights")

    def __init__(self, n, m, vals):
        self.n, self.m, self.vals, self.weights = n, m, vals, place_weights(n, m)

    def rank(self, word):
        """A word's position in product order: its dot product with the
        place weights, less that of the word 1, ..., 1."""
        if isinstance(word, tuple) and len(word) == self.m and all(map(isinstance, word, itertools.repeat(int))):
            if 0 < min(word) and max(word) <= self.n:
                return sum(map(mul, word, self.weights)) - sum(self.weights)
        raise KeyError(word)

    def __getitem__(self, word):
        return self.vals[self.rank(word)]

    def __setitem__(self, word, value):
        self.vals[self.rank(word)] = value

    def __delitem__(self, word):
        raise TypeError("a dense layer keeps every word of [n]^m; %r cannot be deleted" % (word,))

    def __iter__(self):
        return itertools.product(range(1, self.n + 1), repeat=self.m)

    def __len__(self):
        return len(self.vals)

    def values(self):
        return _Values(self)

    def items(self):
        return _Items(self)

    def __eq__(self, other):
        if isinstance(other, DenseLayer):
            return (self.n, self.m, self.vals) == (other.n, other.m, other.vals)
        return super().__eq__(other)

    def __repr__(self):
        return "DenseLayer(%r)" % dict(self.items())


class _Values(ValuesView):
    def __iter__(self):
        return iter(self._mapping.vals)


class _Items(ItemsView):
    def __iter__(self):
        return zip(self._mapping, self._mapping.vals)


class Table:
    """Per order, a DenseLayer (repr dense) or a dict keyed by kernel
    classes, each held in the order to_json writes it (kernel_classes
    order for a kernel layer). An order is given as the list of its
    values in that order, which the table keeps, or as a mapping."""

    kind = None

    def __init__(self, n, max_order, values, repr=DENSE):
        if repr not in (DENSE, KERNEL):
            raise SchemaError("repr must be 'dense' or 'kernel', got %r" % repr)
        self.n = parse_count({"n": n}, "n", 1)
        self.max_order = parse_count({"max_order": max_order}, "max_order", 0)
        if repr == DENSE:
            _check_dense_size(n, max_order)
        self.repr = repr
        self.values = {}
        for m in range(1, max_order + 1):
            layer = values.get(m, {})
            classes = kernel_classes(m, n) if repr == KERNEL else None
            want = n ** m if repr == DENSE else len(classes)
            if len(layer) != want:
                raise IncompleteTable("order %d has %d entries, expected %d" % (m, len(layer), want))
            if isinstance(layer, list):
                layer = DenseLayer(n, m, layer) if repr == DENSE else dict(zip(classes, layer))
            else:  # as many distinct keys as expected, none stray, are all of them
                given, layer = layer, DenseLayer(n, m, [None] * want) if repr == DENSE else dict.fromkeys(classes)
                stray = [key for key in given if key not in layer]
                if stray:
                    raise SchemaError("order %d carries an unexpected key %r" % (m, stray[0]))
                layer.update(given)
            self.values[m] = layer
        stray = [m for m in values if m not in self.values]
        if stray:
            raise SchemaError("values carries an unexpected order %r" % (stray[0],))

    def value(self, i):
        """The entry at an index tuple (1-based values in [n])."""
        i = tuple(i)
        m = len(i)
        if m == 0:
            return Fraction(1)
        if m > self.max_order:
            raise OrderExceeded("order %d beyond table max_order %d" % (m, self.max_order))
        check_indices(i, self.n)
        return self.values[m][i if self.repr == DENSE else kernel(i)]

    def kernel_layer(self, m):
        """{tau: value} of order m, or None for a dense order not invariant
        under the generators (1 2) and (1 2 ... n) of S_n, or above the
        kernel classes' cap. A class's value is read at its first word in
        product order, its representative."""
        if self.repr == KERNEL:
            return self.values[m]
        n, layer = self.n, self.values[m]
        if m > DEFAULT_CAP:
            return None
        for label in ([1, 0, *range(2, n)], [*range(1, n), 0]) if n > 1 else ():
            if list(map(layer.vals.__getitem__, _ranks(range(m), n, m, label))) != layer.vals:
                return None
        return {tau: layer.vals[sum(map(mul, tau, layer.weights))] for tau in kernel_classes(m, n)}

    def kernel_view(self, m):
        """Kernel-class view {tau: value} of order m.

        For dense tables this requires kernel representability and
        raises NotKernelRepresentable with a witness pair otherwise.
        """
        if not 1 <= m <= self.max_order:
            raise OrderExceeded("order %d outside the table's orders 1..%d" % (m, self.max_order))
        view = self.kernel_layer(m)
        if view is None:
            first = {}
            for (i, v), tau in zip(self.values[m].items(), tuple_kernels(m, self.n)):
                j, w = first.setdefault(tau, (i, v))
                if w is not v and w != v:
                    raise NotKernelRepresentable(
                        "tuples %s and %s share kernel %s but differ: %s vs %s" % (j, i, tau, w, v)
                    )
        return dict(view)

    def to_kernel(self):
        if self.repr == KERNEL:
            return self
        vals = {m: list(self.kernel_view(m).values()) for m in range(1, self.max_order + 1)}
        return type(self)(self.n, self.max_order, vals, repr=KERNEL)

    def to_dense(self):
        if self.repr == DENSE:
            return self
        _check_dense_size(self.n, self.max_order)
        n = self.n
        vals = {m: list(map(layer.__getitem__, tuple_kernels(m, n))) for m, layer in self.values.items()}
        return type(self)(self.n, self.max_order, vals, repr=DENSE)

    def to_json(self):
        vals = {}
        write = rational_writer()
        for m in range(1, self.max_order + 1):
            layer = self.values[m]
            texts = product_texts(self.n, m) if self.repr == DENSE else map(render_index_tuple, layer)
            vals[str(m)] = dict(zip(texts, map(write, layer.values())))
        return {
            "n": self.n,
            "max_order": self.max_order,
            "kind": self.kind,
            "repr": self.repr,
            "values": vals,
        }


class MomentTable(Table):
    kind = "moments"


class CumulantTable(Table):
    kind = "cumulants"


def representative_tuple(tau):
    """The smallest-lex tuple over [#tau] with kernel tau (1-based)."""
    return tuple(lab + 1 for lab in tau)


def _table_header(doc):
    """(class, n, max_order, repr) of a table document, every field but the
    values checked."""
    if not isinstance(doc, dict):
        raise SchemaError("table document must be a JSON object")
    for field in ("n", "max_order", "kind", "repr", "values"):
        if field not in doc:
            raise SchemaError("missing field %r" % field)
    n, max_order = parse_count(doc, "n", 1), parse_count(doc, "max_order", 0)
    kind = doc["kind"]
    if kind not in ("moments", "cumulants"):
        raise SchemaError("field 'kind' must be 'moments' or 'cumulants', got %r" % (kind,))
    rep = doc["repr"]
    if rep not in (DENSE, KERNEL):
        raise SchemaError("field 'repr' must be 'dense' or 'kernel', got %r" % (rep,))
    if rep == DENSE:
        _check_dense_size(n, max_order)
    return (MomentTable if kind == "moments" else CumulantTable), n, max_order, rep


def table_from_json(doc):
    """Parse and fully validate the table JSON interchange form."""
    cls, n, max_order, rep = _table_header(doc)
    return cls(n, max_order, parse_layers(doc["values"], max_order, *_table_keys(n, rep)), repr=rep)


def _table_keys(n, rep):
    """(parse_key, expected, texts, places) of the orders of a table, for read_order."""
    if rep == KERNEL:
        return parse_rgs_key, lambda m: kernel_classes(m, n), None, None

    def tuple_key(text, m):
        key = parse_index_tuple(text, n)
        if len(key) != m:
            raise SchemaError("tuple %r under order %d has length %d" % (text, m, len(key)))
        return key

    def ranks(m):  # of the words tuple_key returns: labels in 1..n, so no check
        weights = place_weights(n, m)
        ones = sum(weights)
        return lambda word: sum(map(mul, word, weights)) - ones, n ** m

    return tuple_key, None, partial(product_texts, n), ranks


READ_SLICE = 1 << 16  # characters of an order object that table_from_text decodes at once

_WS = "[ \t\n\r]*"  # JSON whitespace
_OPEN_VALUES = re.compile(_WS + ":" + _WS + r"\{")
_OPEN_ORDER = re.compile(_WS + '"([0-9]+)"' + _WS + ":" + _WS + r"\{")
_CLOSE_ORDER = re.compile(_WS + "([,}])")


def table_from_text(text):
    """table_from_json(json.loads(text)), with each order decoded in slices.

    The reader cuts the "values" object out of the text and decodes the
    rest, the header, whole, with table_from_json's checks. It decodes
    each order in slices of about READ_SLICE characters, each cut at a
    comma between entries, as the pieces read_order reads, so no order is
    ever held whole. Any doubt, or any exception (a key repeated across a
    cut, say, which JSON reads as its last value), hands the text to
    table_from_json(json.loads(text)), which reads the table or raises
    its error.
    """
    try:
        table = _read_sliced(text)
    except Exception:  # the whole-document path raises the error, or reads the table
        table = None
    return table_from_json(json.loads(text)) if table is None else table


def _read_sliced(text):
    """The table in text, or None where the sliced read is in doubt. With
    no backslash in the text, every quote opens or closes a string."""
    at = text.find('"values"')
    if "\\" in text or at < 0 or text.find('"values"', at + 1) >= 0:
        return None
    opened = _OPEN_VALUES.match(text, at + len('"values"'))
    if opened is None:
        return None
    orders, pos = [], opened.end()
    while True:
        key = _OPEN_ORDER.match(text, pos)
        if key is None or key.group(1) != str(len(orders) + 1):
            return None
        spans, pos = _order_slices(text, key.end())
        if not text[slice(*spans[-1])].strip():  # an empty order, or a comma before its closing brace
            return None
        orders.append(spans)
        closed = _CLOSE_ORDER.match(text, pos)
        if closed is None:
            return None
        pos = closed.end()
        if closed.group(1) == "}":
            break
    # the one "values" token is the top-level key that _table_header requires
    cls, n, max_order, rep = _table_header(json.loads(text[: opened.end() - 1] + "{}" + text[pos:]))
    if len(orders) != max_order:
        return None
    keys, values = _table_keys(n, rep), {}
    for m, spans in enumerate(orders, 1):
        values[m] = read_order((json.loads("{%s}" % text[a:b]) for a, b in spans), m, *keys)
    return cls(n, max_order, values, repr=rep)


def _order_slices(text, a):
    """The (start, stop) spans of the entries of the object opened just
    before a, each about READ_SLICE characters long and cut after a value
    that a comma follows, and the position after its closing brace.

    A brace or a cut inside a string leaves an odd number of quotes in a
    span, which then fails to decode, as the text holds no backslash.
    """
    end, spans = text.index("}", a), []
    while end - a > READ_SLICE:
        cut = text.find('",', a + READ_SLICE, end) + 1
        if not cut:
            break
        spans.append((a, cut))
        a = cut + 1
    spans.append((a, end))
    return spans, end + 1


def _ranks(positions, n, m, label=None):
    """For each word of [n]^m in product order, the product-order rank of
    the word cut out at the positions (each digit d read as label[d]),
    built one position at a time."""
    ranks, label = [0], label or range(n)
    for j in range(m):
        longer = [0] * (n * len(ranks))
        if j in positions:
            ranks = [r * n for r in ranks]
        for d in range(n):  # the longer words with digit d at place j
            longer[d::n] = map(add, ranks, itertools.repeat(label[d])) if j in positions else ranks
        ranks = longer
    return ranks
