"""Moebius functions on finite posets of partitions.

The generic recursion mu(s,s) = 1, mu(s,p) = -sum_{s<=t<p} mu(s,t) works
on any finite poset; the tests hold definetti's triangular solves to it.
Two accelerated paths exist: the closed form on the full partition
lattice P(m), and a cached column mu(., 1_m) on the non-crossing NC(m).
"""

from functools import cache
from math import factorial

from .errors import NotComparable, NotInPoset
from .partitions import leq, num_blocks, one_block


class FinitePoset:
    """A finite poset of partitions under refinement order.

    The up-set of s and the down-set of p are found once each, by leq
    against every element, so the interval [s, p] of the recursion is
    their intersection rather than a scan of the whole poset.
    """

    def __init__(self, elements):
        self.elements = tuple(elements)
        self.index = {p: k for k, p in enumerate(self.elements)}
        self._memo = {}
        self._up = {}
        self._down = {}

    def __len__(self):
        return len(self.elements)

    def _up_set(self, si):
        got = self._up.get(si)
        if got is None:
            s = self.elements[si]
            got = frozenset(ti for ti, t in enumerate(self.elements) if leq(s, t))
            self._up[si] = got
        return got

    def _down_set(self, pi):
        got = self._down.get(pi)
        if got is None:
            p = self.elements[pi]
            got = frozenset(ti for ti, t in enumerate(self.elements) if leq(t, p))
            self._down[pi] = got
        return got

    def mobius(self, s, p):
        si = self.index.get(s)
        pi = self.index.get(p)
        if si is None or pi is None:
            raise NotInPoset("partition not among the poset elements")
        if not leq(s, p):
            raise NotComparable("mobius requires s <= p")
        return self._mu(si, pi)

    def _mu(self, si, pi):
        if si == pi:
            return 1
        got = self._memo.get((si, pi))
        if got is None:
            interval = self._up_set(si) & self._down_set(pi)
            got = -sum(self._mu(si, ti) for ti in interval if ti != pi)
            self._memo[(si, pi)] = got
        return got


mobius = FinitePoset.mobius


def mobius_to_top_full_lattice(p):
    """mu_{P(m)}(p, 1_m) = (-1)^(#p-1) (#p-1)! on the full lattice."""
    k = num_blocks(p)
    if k == 0:
        return 1
    return (1 if (k - 1) % 2 == 0 else -1) * factorial(k - 1)


@cache
def category_poset(cat, m):
    """The induced poset on C(m), built once per (cat, m)."""
    from .categories import enumerate_category

    return FinitePoset(enumerate_category(cat, m))


@cache
def mobius_to_top_nc(m):
    """The column mu_{NC(m)}(., 1_m) as a dict over NC(m).

    Computed by the dual recursion mu(s,1) = -sum_{s<t} mu(t,1),
    walking block counts upward from the one-block partition. This is
    the Moebius function of the NC(m) lattice itself; it differs from
    mobius_to_top_full_lattice from m = 4 on.
    """
    from .categories import S_PLUS, enumerate_category

    by_blocks = {}
    for p in enumerate_category(S_PLUS, m):
        by_blocks.setdefault(num_blocks(p), []).append(p)
    col = {one_block(m): 1}
    for nb in sorted(by_blocks):
        if nb == 1:
            continue
        coarser = [q for k in range(1, nb) for q in by_blocks.get(k, ())]
        for p in by_blocks[nb]:
            col[p] = -sum(col[q] for q in coarser if leq(p, q))
    return col
