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
"""

import itertools
from fractions import Fraction
from math import lcm, prod
from operator import itemgetter

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
    enumerate_partitions,
    kernel,
    num_blocks,
    parse_index_tuple,
    parse_partition,
    relabel,
    render_index_tuple,
)
from .rationals import format_rational, parse_rational

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
    kernel_classes(m, n) objects, found by the plain relabelled tuple,
    so no Partition is built here and none on later passes.
    """
    got = _TUPLE_KERNELS.get((m, n))
    if got is None:
        classes = {t: t for t in kernel_classes(m, n)}
        got = {i: classes[relabel(i)] for i in itertools.product(range(1, n + 1), repeat=m)}
        _TUPLE_KERNELS[(m, n)] = got
    return got


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
            want = n ** m if repr == DENSE else len(kernel_classes(m, n))
            if len(self.values[m]) != want:
                raise IncompleteTable(
                    "order %d has %d entries, expected %d" % (m, len(self.values[m]), want)
                )

    def value(self, i):
        """The entry at an index tuple (1-based values in [n])."""
        i = tuple(i)
        m = len(i)
        if m == 0:
            return Fraction(1)
        if m > self.max_order:
            raise OrderExceeded("order %d beyond table max_order %d" % (m, self.max_order))
        if self.repr == DENSE:
            return self.values[m][i]
        return self.values[m][kernel(i)]

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
        out = {}
        rep = {}
        kern = tuple_kernels(m, self.n)
        for i, v in self.values[m].items():
            tau = kern[i]
            if tau in out:
                if out[tau] != v:
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
        vals = {}
        for m in range(1, self.max_order + 1):
            layer = self.values[m]
            vals[m] = {i: layer[tau] for i, tau in tuple_kernels(m, self.n).items()}
        return type(self)(self.n, self.max_order, vals, repr=DENSE)

    def to_json(self):
        vals = {}
        for m in range(1, self.max_order + 1):
            layer = {}
            for key in sorted(self.values[m]):
                layer[render_index_tuple(key)] = format_rational(self.values[m][key])
            vals[str(m)] = layer
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


def parse_layers(raw, max_order, parse_key, expected):
    """{m: {key: Fraction}} for m = 1..max_order from {"m": {text: value}}.

    parse_key(text, m) reads one key; order m must then carry exactly the
    keys of expected(m), each given once.
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
        layer = {}
        for text, val in layer_doc.items():
            key = parse_key(text, m)
            if key in layer:
                raise SchemaError("order %d repeats the key %s as %r" % (m, render_index_tuple(key), text))
            layer[key] = parse_rational(val)
        want = expected(m)
        missing = [k for k in want if k not in layer]
        if missing:
            shown = [render_index_tuple(k) for k in missing[:8]]
            raise IncompleteTable(
                "order %d is missing %d entries, e.g. %s" % (m, len(missing), ", ".join(shown)), missing=shown
            )
        if len(layer) != len(want):
            unexpected = sorted(set(layer) - set(want))[0]
            raise SchemaError("order %d carries an unexpected key %r" % (m, render_index_tuple(unexpected)))
        out[m] = layer
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
        values = parse_layers(doc["values"], max_order, parse_rgs_key, lambda m: kernel_classes(m, n))
    else:
        _check_dense_size(n, max_order)

        def tuple_key(text, m):
            key = parse_index_tuple(text, n)
            if len(key) != m:
                raise SchemaError("tuple %r under order %d has length %d" % (text, m, len(key)))
            return key

        def tuples(m):
            return list(itertools.product(range(1, n + 1), repeat=m))

        values = parse_layers(doc["values"], max_order, tuple_key, tuples)
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


def _scale_into(nums, layer):
    """Store a layer in nums as integers over its least common denominator."""
    D = lcm(*(v.denominator for v in layer.values()))
    for key, v in layer.items():
        nums[key] = v.numerator * (D // v.denominator)
    return D


def _transform(table, to_moments):
    """The first-block relation, order by order upward.

    With s = sum over first_block_shapes(m) of kappa(i|V) * prod phi(i|gap),
    which reads lower orders only, phi = kappa + s or kappa = phi - s.
    Both families are integer numerators over per-order denominators, so
    each key sums integers and divides once.
    """
    src, dst = ({}, {}) if table.repr == DENSE else (_Words(), _Words())
    den_src, den_dst = {}, {}
    if to_moments:
        kappa, phi, den_kappa, den_phi, sign = src, dst, den_src, den_dst, 1
    else:
        kappa, phi, den_kappa, den_phi, sign = dst, src, den_dst, den_src, -1
    out = {}
    for m in range(1, table.max_order + 1):
        layer = table.values[m]
        den_src[m] = _scale_into(src, layer)
        terms = [
            (cut_v, cut_gaps, den_kappa[len(V)] * prod(den_phi[len(g)] for g in gaps))
            for V, gaps, cut_v, cut_gaps in first_block_shapes(m)
        ]
        dstar = lcm(den_src[m], *(d for _, _, d in terms))
        terms = [(cut_v, cut_gaps, sign * (dstar // d)) for cut_v, cut_gaps, d in terms]
        lead = dstar // den_src[m]
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
        den_dst[m] = _scale_into(dst, res)
        out[m] = res
    return out
