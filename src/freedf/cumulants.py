"""Moment and cumulant tables and the free transforms between them.

A table stores, per order m <= max_order, the values of a multilinear
family on tuples over [n]. Two representations exist:

  dense   every tuple in [n]^m has an entry;
  kernel  entries are keyed by kernel partitions (all tau in P(m) with
          #tau <= n), valid exactly when values depend on a tuple only
          through ker(tuple).

The free moment-cumulant formula phi(i) = sum over pi in NC(m) of
kappa_pi(i) is summed by the block V of pi containing position 1
(Nica-Speicher, Lecture 11): phi(i) = sum over V of kappa(i|V) times
phi on each gap of V, 2^(m-1) terms instead of |NC(m)|. Only the term
V = [m] is of order m, so one recursion, run upward, serves both
directions.

Every dense layer of a Table is a dict in itertools.product order, the
order to_json writes: Table() checks this in one streaming comparison
and rebuilds a layer given in another order once, and the dense
transform reads values by position, finding a cut word by its rank.
Tables are read by matching keys, not parsing them: a key whose text is
the one to_json writes at its position is taken as is, and any other
key is parsed and validated.
"""

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import add, eq, itemgetter, mul

from .errors import (
    IncompleteTable,
    NotKernelRepresentable,
    OrderExceeded,
    SchemaError,
    SizeMismatch,
    TableTooLarge,
)
from .partitions import (
    Partition,
    check_indices,
    enumerate_partitions,
    kernel,
    num_blocks,
    parse_index_tuple,
    parse_partition,
    relabel,
    render_index_tuple,
)
from .rationals import rational_reader, rational_writer

DENSE_GUARD = 10 ** 7

DENSE = "dense"
KERNEL = "kernel"


def _check_dense_size(n, max_order):
    if max_order >= 1 and n ** max_order > DENSE_GUARD:
        raise TableTooLarge(
            "dense table would need n^M = %d^%d entries; use the kernel representation" % (n, max_order)
        )


def kernel_classes(m, n):
    """All kernel partitions of order m reachable over [n]."""
    return [t for t in enumerate_partitions(m) if num_blocks(t) <= n]


_TUPLE_KERNELS = {}


def tuple_kernels(m, n):
    """{i: ker(i)} over every tuple of [n]^m, built once per (m, n).

    Keys come in itertools.product order and the values are the
    kernel_classes(m, n) objects. Each class tau fills its tuples by
    cutting the labels of tau out of the injective label tuples over
    [n], so no tuple is relabelled and no Partition is built.
    """
    got = _TUPLE_KERNELS.get((m, n))
    if got is None:
        got = dict.fromkeys(itertools.product(range(1, n + 1), repeat=m))
        for tau in kernel_classes(m, n):
            pick = _cut(tau)
            for labels in itertools.permutations(range(1, n + 1), num_blocks(tau)):
                got[pick(labels)] = tau
        _TUPLE_KERNELS[(m, n)] = got
    return got


def product_keys(n, m):
    """Every tuple of [n]^m in itertools.product order with its text "1,3,2",
    built as its prefix's text plus one label; no n^m texts are kept."""
    texts = [str(k) for k in range(1, n + 1)]
    tails = ["," + t for t in texts]
    for _ in range(m - 1):
        texts = (t + tail for t in texts for tail in tails)
    return zip(itertools.product(range(1, n + 1), repeat=m), texts)


def _stray_key(layer, m, n, repr):
    """A key of a full-size layer that is not an expected key, or None.

    A dense layer of n^m distinct keys is exactly [n]^m when every key is
    an m-tuple over [n], so [n]^m is not built next to the table.
    """
    if repr == KERNEL:
        classes = set(kernel_classes(m, n))
        return next((key for key in layer if key not in classes), None)
    labels = set(range(1, n + 1))
    return next((key for key in layer if not (isinstance(key, tuple) and len(key) == m and set(key) <= labels)), None)


class Table:
    kind = None

    def __init__(self, n, max_order, values, repr=DENSE):
        if repr not in (DENSE, KERNEL):
            raise SchemaError("repr must be 'dense' or 'kernel', got %r" % repr)
        if repr == DENSE:
            _check_dense_size(n, max_order)
        self.n = n
        self.max_order = max_order
        self.repr = repr
        self.values = {m: dict(values.get(m, {})) for m in range(1, max_order + 1)}
        for m in range(1, max_order + 1):
            layer = self.values[m]
            want = n ** m if repr == DENSE else len(kernel_classes(m, n))
            if len(layer) != want:
                raise IncompleteTable("order %d has %d entries, expected %d" % (m, len(layer), want))
            if repr == DENSE and all(map(eq, layer, itertools.product(range(1, n + 1), repeat=m))):
                continue  # n^m keys equal to the words of [n]^m, in product order
            stray = _stray_key(layer, m, n, repr)
            if stray is not None:
                raise SchemaError("order %d carries an unexpected key %r" % (m, stray))
            if repr == DENSE:
                self.values[m] = {i: layer[i] for i in itertools.product(range(1, n + 1), repeat=m)}

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

    def kernel_value(self, m, tau):
        """The value on the kernel class tau of order m."""
        return self.value(representative_tuple(tau))

    def kernel_view(self, m):
        """Kernel-class view {tau: value} of order m.

        For dense tables this requires kernel representability and
        raises NotKernelRepresentable with a witness pair otherwise.
        """
        if self.repr == KERNEL:
            return dict(self.values[m])
        out, rep = {}, {}
        for (i, v), tau in zip(self.values[m].items(), tuple_kernels(m, self.n).values()):
            if tau in out:
                # entries read from one text are one object
                if out[tau] is not v and out[tau] != v:
                    raise NotKernelRepresentable(
                        "tuples %s and %s share kernel %s but differ: %s vs %s"
                        % (rep[tau], i, tau, out[tau], v)
                    )
            else:
                out[tau] = v
                rep[tau] = i
        return out

    def to_kernel(self):
        if self.repr == KERNEL:
            return self
        vals = {m: self.kernel_view(m) for m in range(1, self.max_order + 1)}
        return type(self)(self.n, self.max_order, vals, repr=KERNEL)

    def to_dense(self):
        if self.repr == DENSE:
            return self
        _check_dense_size(self.n, self.max_order)
        vals = {m: {i: self.values[m][tau] for i, tau in tuple_kernels(m, self.n).items()} for m in self.values}
        return type(self)(self.n, self.max_order, vals, repr=DENSE)

    def to_json(self):
        vals = {}
        write = rational_writer()
        for m in range(1, self.max_order + 1):
            layer = self.values[m]
            if self.repr == DENSE:
                keys = product_keys(self.n, m)  # product order is sorted order
            else:
                keys = ((key, render_index_tuple(key)) for key in sorted(layer))
            vals[str(m)] = {text: write(layer[key]) for key, text in keys}
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


_PAST_END = itertools.repeat((None, object()))  # a text no key equals


def parse_layers(raw, max_order, parse_key, expected):
    """{m: {key: Fraction}} for m = 1..max_order from {"m": {text: value}}.

    expected(m) yields the keys of order m as (key, text) pairs in the
    order to_json writes them; order m must carry exactly these keys, each
    given once. A text equal to the expected one at its position takes its
    key unparsed; any other is read by parse_key(text, m).
    """
    if not isinstance(raw, dict):
        raise SchemaError("field 'values' must be an object keyed by order")
    out = {}
    for m in range(1, max_order + 1):
        layer_doc = raw.get(str(m))
        if layer_doc is None:
            raise IncompleteTable("values for order %d are missing" % m, missing=[str(m)])
        if not isinstance(layer_doc, dict):
            raise SchemaError("values for order %d must be an object keyed by entry" % m)
        layer, read, matched = {}, rational_reader(), 0
        want = iter(expected(m))
        for (text, val), (key, canon) in zip(layer_doc.items(), itertools.chain(want, _PAST_END)):
            if text == canon:
                matched += 1
            else:
                key = parse_key(text, m)
            if key in layer:
                raise SchemaError("order %d repeats the key %s as %r" % (m, render_index_tuple(key), text))
            layer[key] = read(val)
        out[m] = layer
        if matched == len(layer) and next(want, None) is None:
            continue  # every expected key, in order
        missing = [key for key, _ in expected(m) if key not in layer]
        if missing:
            shown = [render_index_tuple(k) for k in missing[:8]]
            raise IncompleteTable(
                "order %d is missing %d entries, e.g. %s" % (m, len(missing), ", ".join(shown)), missing=shown
            )
        stray = set(layer).difference(key for key, _ in expected(m))
        if stray:
            raise SchemaError("order %d carries an unexpected key %r" % (m, render_index_tuple(min(stray))))
    return out


def table_from_json(doc):
    """Parse and fully validate the table JSON interchange form."""
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
    if rep == KERNEL:
        values = parse_layers(
            doc["values"], max_order, parse_rgs_key, lambda m: [(tau, str(tau)) for tau in kernel_classes(m, n)]
        )
    else:
        _check_dense_size(n, max_order)

        def tuple_key(text, m):
            key = parse_index_tuple(text, n)
            if len(key) != m:
                raise SchemaError("tuple %r under order %d has length %d" % (text, m, len(key)))
            return key

        values = parse_layers(doc["values"], max_order, tuple_key, lambda m: product_keys(n, m))
    cls = MomentTable if kind == "moments" else CumulantTable
    return cls(n, max_order, values, repr=rep)


def kappa_pi(table, p, i):
    """Product over the blocks V of p of the table's value on i restricted to V.

    On cumulants this is kappa_p(i); on moments it is phi_p(i), so
    phi_pi is the same function.
    """
    p = Partition(p)
    i = tuple(i)
    if p.size != len(i):
        raise SizeMismatch("partition size %d vs tuple length %d" % (p.size, len(i)))
    if p.size > table.max_order:
        raise OrderExceeded("order %d beyond table max_order %d" % (p.size, table.max_order))
    out = Fraction(1)
    for block in p.blocks():
        out *= table.value(tuple(i[pos] for pos in block))
    return out


phi_pi = kappa_pi


_SHAPES = {}


def _cut(positions):
    """An itemgetter that returns a key's labels at the positions, as a tuple."""
    a, b = positions[0], positions[-1] + 1
    return itemgetter(slice(a, b)) if b - a == len(positions) else itemgetter(*positions)


def first_block_shapes(m):
    """Every first block V of [m] (0 in V, V != [m]) with its gaps.

    The gaps are the maximal runs of positions outside V. A shape is
    (V, gaps, cut_V, cut_gaps): position tuples and the itemgetters that
    cut the restricted words out of a key. Built once per m.
    """
    got = _SHAPES.get(m)
    if got is None:
        got = []
        for mask in range(2 ** (m - 1) - 1):
            V = (0,) + tuple(k for k in range(1, m) if mask >> (k - 1) & 1)
            runs = itertools.groupby(range(m), V.__contains__)
            gaps = tuple(tuple(run) for inside, run in runs if not inside)
            got.append((V, gaps, _cut(V), tuple(map(_cut, gaps))))
        got = _SHAPES[m] = tuple(got)
    return got


class _Words(dict):
    """Values keyed by kernel classes, also found from any word over them
    (relabelled once, then cached), so restrictions build no Partition."""

    def __missing__(self, word):
        key = relabel(word)
        if key == word:
            raise KeyError(word)
        got = self[word] = self[key]
        return got


def moments_from_cumulants(ct):
    """phi(i) = sum over pi in NC(m) of kappa_pi(i), every order <= M."""
    return MomentTable(ct.n, ct.max_order, _transform(ct, to_moments=True), repr=ct.repr)


def cumulants_from_moments(mt):
    """Inversion of the moment-cumulant formula, order by order."""
    return CumulantTable(mt.n, mt.max_order, _transform(mt, to_moments=False), repr=mt.repr)


def scale_into(nums, layer):
    """Store a layer in nums as integers over its least common denominator."""
    D = lcm(*(v.denominator for v in layer.values()))
    for key, v in layer.items():
        nums[key] = v.numerator * (D // v.denominator)
    return D


def _ranks(positions, n, m):
    """For each word of [n]^m in product order, the product-order rank of
    the word cut out at the positions, built one position at a time."""
    ranks = [0]
    for j in range(m):
        longer = [0] * (n * len(ranks))
        if j in positions:
            ranks = [r * n for r in ranks]
        for d in range(n):  # the longer words with digit d at place j
            longer[d::n] = map(add, ranks, itertools.repeat(d)) if j in positions else ranks
        ranks = longer
    return ranks


def _transform(table, to_moments):
    """The first-block relation, order by order upward.

    With s = sum over first_block_shapes(m) of kappa(i|V) * prod phi(i|gap),
    which reads lower orders only, phi = kappa + s or kappa = phi - s.
    Both families are integer numerators over per-order denominators, so
    each key sums integers and divides once. A dense order is a dict in
    product order, read through the rank of a cut word (_ranks).
    """
    dense, n = table.repr == DENSE, table.n
    src, dst = ({}, {}) if dense else (_Words(), _Words())
    den_src, den_dst = {}, {}
    if to_moments:
        kappa, phi, den_kappa, den_phi, sign = src, dst, den_src, den_dst, 1
    else:
        kappa, phi, den_kappa, den_phi, sign = dst, src, den_dst, den_src, -1
    out = {}
    for m in range(1, table.max_order + 1):
        layer = table.values[m]
        den_src[m] = scale_into(src.setdefault(m, {}) if dense else src, layer)
        shapes = first_block_shapes(m)
        dens = [den_kappa[len(V)] * prod(den_phi[len(g)] for g in gaps) for V, gaps, _, _ in shapes]
        dstar = lcm(den_src[m], *dens)
        mults = [sign * (dstar // d) for d in dens]
        lead = dstar // den_src[m]
        if dense:
            acc = [v * lead for v in src[m].values()]
            runs = {g: _ranks(g, n, m) for g in {g for _, gaps, _, _ in shapes for g in gaps}}
            for (V, gaps, _, _), mult in zip(shapes, mults):
                if any(kappa[len(V)].values()):
                    term = map([mult * k for k in kappa[len(V)].values()].__getitem__, _ranks(V, n, m))
                    for g in gaps:
                        term = map(mul, term, map(list(phi[len(g)].values()).__getitem__, runs[g]))
                    acc = list(map(add, acc, term))
            fractions = {a: Fraction(a, dstar) for a in set(acc)}
            res = dict(zip(layer, map(fractions.__getitem__, acc)))
        else:
            terms = [(cut_v, cut_gaps, mult) for (_, _, cut_v, cut_gaps), mult in zip(shapes, mults)]
            res = {}
            for key in layer:
                acc = src[key] * lead
                for cut_v, cut_gaps, mult in terms:
                    k = kappa[cut_v(key)]
                    if k:
                        term = mult * k
                        for cut in cut_gaps:
                            term *= phi[cut(key)]
                        acc += term
                res[key] = Fraction(acc, dstar)
        den_dst[m] = scale_into(dst.setdefault(m, {}) if dense else dst, res)
        out[m] = res
    return out
