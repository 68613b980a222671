"""The free moment-cumulant transforms between the tables of cumulants.py.

The free moment-cumulant formula phi(i) = sum over pi in NC(m) of
kappa_pi(i) is summed by the block V of pi containing position 1
(Nica-Speicher, Lecture 11): phi(i) = sum over V of kappa(i|V) times
phi on each gap of V, 2^(m-1) terms instead of |NC(m)|. Only the term
V = [m] is of order m, so one recursion, run upward, serves both
directions and, by position, both representations (_transform).

A dense table whose every layer is S_n-invariant, none above the kernel
classes' cap of order 10, is transformed on its kernel classes, any
other by the rank of each cut word, at most 2^(M-1)*n^M <= DENSE_GUARD
steps. Only the jobs that transform compile this module: cumulants.py
hands out its public names (PEP 562) and loads it on first use.
"""

import itertools
from fractions import Fraction
from functools import cache, partial
from math import lcm, prod
from operator import add, itemgetter, mul

from .cumulants import DENSE, KERNEL, CumulantTable, MomentTable, Table, _ranks
from .errors import OrderExceeded, SizeMismatch, TableTooLarge
from .partitions import Partition, kernel_classes, relabel
from .rationals import DENSE_GUARD, to_integers


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


def _cut(positions):
    """An itemgetter that returns a key's labels at the positions, as a tuple."""
    a, b = positions[0], positions[-1] + 1
    return itemgetter(slice(a, b)) if b - a == len(positions) else itemgetter(*positions)


@cache
def first_block_shapes(m):
    """Every first block V of [m] (0 in V, V != [m]) with its gaps, the
    maximal runs of positions outside V, as (V, gaps) position tuples.
    Built once per m."""
    got = []
    for mask in range(2 ** (m - 1) - 1):
        V = (0,) + tuple(k for k in range(1, m) if mask >> (k - 1) & 1)
        runs = itertools.groupby(range(m), V.__contains__)
        got.append((V, tuple(tuple(run) for inside, run in runs if not inside)))
    return tuple(got)


class _Words(dict):
    """Positions of the kernel classes of an order, also found from any
    word over them (relabelled once, then cached), so restrictions build
    no Partition."""

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


def _transform(table, to_moments):
    """The first-block relation, order by order upward: {m: values of order
    m in the order to_json writes them}.

    With s = sum over first_block_shapes(m) of kappa(i|V) * prod phi(i|gap),
    which reads lower orders only, phi = kappa + s or kappa = phi - s.
    Both families are lists of integer numerators over per-order
    denominators, so each entry sums integers and divides once. The
    restriction of each entry to V or to a gap is its index in the lower
    order's list: for a dense table the rank of the cut word (_ranks), for
    a kernel table the position of the cut class (_Words). A dense table
    runs on its kernel classes if it has them.
    """
    dense, n, M = table.repr == DENSE, table.n, table.max_order
    if dense:
        views = list(itertools.takewhile(lambda view: view is not None, map(table.kernel_layer, range(1, M + 1))))
        if len(views) == M:
            layers = {m: list(view.values()) for m, view in enumerate(views, 1)}
            kernel = Table(n, M, _transform(Table(n, M, layers, repr=KERNEL), to_moments), repr=KERNEL)
            return {m: layer.vals for m, layer in kernel.to_dense().values.items()}
        if 2 ** min(M - 1, 24) * n ** min(M, 24) > DENSE_GUARD:  # 2^24 > DENSE_GUARD
            raise TableTooLarge("a dense transform by position takes 2^(M-1)*n^M = 2^%d*%d^%d steps" % (M - 1, n, M))
    src, dst, den_src, den_dst, words, out = {}, {}, {}, {}, {}, {}
    if to_moments:
        kappa, phi, den_kappa, den_phi, sign = src, dst, den_src, den_dst, 1
    else:
        kappa, phi, den_kappa, den_phi, sign = dst, src, den_dst, den_src, -1
    for m in range(1, M + 1):
        den_src[m], src[m] = to_integers(table.values[m].values())
        if dense:
            index = partial(_ranks, n=n, m=m)
        else:
            classes = kernel_classes(m, n)
            words[m] = _Words(zip(classes, itertools.count()))
            index = lambda P: list(map(words[len(P)].__getitem__, map(_cut(P), classes)))
        shapes = first_block_shapes(m)
        dens = [den_kappa[len(V)] * prod(den_phi[len(g)] for g in gaps) for V, gaps in shapes]
        dstar = lcm(den_src[m], *dens)
        mults = [sign * (dstar // d) for d in dens]
        acc = list(map(mul, src[m], itertools.repeat(dstar // den_src[m])))
        runs = {g: index(g) for g in {g for _, gaps in shapes for g in gaps}}
        for (V, gaps), mult in zip(shapes, mults):
            if any(kappa[len(V)]):
                term = map([mult * k for k in kappa[len(V)]].__getitem__, index(V))
                for g in gaps:
                    term = map(mul, term, map(phi[len(g)].__getitem__, runs[g]))
                acc = list(map(add, acc, term))
        fractions = {a: Fraction(a, dstar) for a in set(acc)}
        out[m] = list(map(fractions.__getitem__, acc))
        den_dst[m], dst[m] = to_integers(out[m])
    return out
