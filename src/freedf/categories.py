"""Categories of non-crossing partitions.

Four categories are implemented, identified by their quantum-group
labels: o+ (non-crossing pairings), s+ (all non-crossing partitions),
h+ (non-crossing, every block of even size), b+ (non-crossing, every
block of size at most 2). C(m) denotes the order-m part of a category.

Every sigma <= tau sum between C(m) and the kernel classes reads one
incidence index per (cat, m, n), and c_leq_kernel builds C(m) below one
partition block by block; leq scans are their oracle in the tests.
"""

import enum
import itertools
from functools import cache

from .errors import OrderTooLarge, UnknownCategory
from .partitions import Partition, canonicalize, enumerate_partitions, is_noncrossing, kernel, num_blocks


class CategoryId(enum.Enum):
    O_PLUS = "o+"
    S_PLUS = "s+"
    H_PLUS = "h+"
    B_PLUS = "b+"

    def __str__(self):
        return self.value


O_PLUS = CategoryId.O_PLUS
S_PLUS = CategoryId.S_PLUS
H_PLUS = CategoryId.H_PLUS
B_PLUS = CategoryId.B_PLUS

# Tags that belong to the classification of free easy quantum groups but
# whose partition categories are not implemented here.
_DEFERRED_TAGS = ("s'+", "b'+", "b#+", "b#")

# Enumeration caps: pairings stay Catalan-small, so o+ may go deeper.
PAIRING_CAP = 12
GENERAL_CAP = 10


def parse_category(text):
    t = str(text).strip().lower()
    for cat in CategoryId:
        if t == cat.value:
            return cat
    if t in _DEFERRED_TAGS:
        raise UnknownCategory(
            "category %r is part of the classification of free easy quantum "
            "groups (Banica-Speicher) but its partition category is not "
            "implemented here; supported: o+, s+, h+, b+" % t
        )
    raise UnknownCategory("unknown category %r; supported: o+, s+, h+, b+" % t)


def category_contains(cat, p):
    """Membership of a canonical partition in C(m)."""
    if not is_noncrossing(p):
        return False
    if cat is S_PLUS:
        return True
    sizes = Partition(p).block_sizes()
    if cat is O_PLUS:
        return all(s == 2 for s in sizes)
    if cat is H_PLUS:
        return all(s % 2 == 0 for s in sizes)
    if cat is B_PLUS:
        return all(s <= 2 for s in sizes)
    raise UnknownCategory("unknown category %r" % (cat,))


def _check_order(cat, m):
    cap = PAIRING_CAP if cat is O_PLUS else GENERAL_CAP
    if m < 0 or m > cap:
        raise OrderTooLarge("m=%d outside 0..%d for %s" % (m, cap, cat))


def enumerate_category(cat, m):
    """C(m) in RGS-lex order; m=0 gives the single empty partition."""
    _check_order(cat, m)
    if m == 0:
        return [Partition()]
    return list(_category(cat, m))


@cache
def _category(cat, m):
    if cat is O_PLUS:
        # direct pairing enumeration keeps Catalan cost at m = 11, 12
        # where filtering all of P(m) would touch Bell(m) partitions
        return tuple(sorted(_nc_pairings(m)))
    return tuple(p for p in enumerate_partitions(m, cap=GENERAL_CAP) if category_contains(cat, p))


def _nc_pairings(m):
    """All non-crossing pairings of [m] as canonical Partitions."""
    if m % 2 == 1:
        return []

    def rec(seg):
        # position seg[0] pairs with seg[idx]; the strict inside and the
        # strict outside must then pair within themselves
        if not seg:
            return [[]]
        out = []
        a = seg[0]
        for idx in range(1, len(seg), 2):
            b = seg[idx]
            for inner in rec(seg[1:idx]):
                for outer in rec(seg[idx + 1:]):
                    out.append([(a, b)] + inner + outer)
        return out

    result = []
    for pairs in rec(tuple(range(m))):
        labels = [0] * m
        for a, b in pairs:
            labels[a] = labels[b] = a
        result.append(canonicalize(labels))
    return result


@cache
def incidence(cat, m, n):
    """{tau: [a, ...]} with C(m)[a] <= tau, over the classes with #tau <= n.

    Each RGS rho of sigma's blocks with at most n blocks gives the already
    canonical tau = (rho[l] for l in sigma); tau without sigma is absent.
    At m = 0 the empty partition lies below itself.
    """
    got = {}
    rhos = {}
    for a, sigma in enumerate(enumerate_category(cat, m)):
        k = num_blocks(sigma)
        if k not in rhos:
            rhos[k] = [rho for rho in enumerate_partitions(k) if num_blocks(rho) <= n] if k else [()]
        for rho in rhos[k]:
            got.setdefault(tuple(map(rho.__getitem__, sigma)), []).append(a)
    return got


def c_leq(cat, i):
    """C_<=(i) = {pi in C(m): pi <= ker(i)}, in RGS-lex order."""
    return c_leq_kernel(cat, kernel(i))


def c_leq_kernel(cat, tau):
    """C(m) below the partition tau, in RGS-lex order.

    Each is a member of C(|B|) on every block B of tau (the categories are
    closed under restriction to a block), in a combination that does not
    cross; below a non-crossing tau no combination crosses.
    """
    _check_order(cat, len(tau))
    blocks = Partition(tau).blocks()
    crossing = not is_noncrossing(tau)
    got = []
    for pick in itertools.product(*(enumerate_category(cat, len(block)) for block in blocks)):
        labels, top = [0] * len(tau), 0
        for block, p in zip(blocks, pick):
            for pos, b in zip(block, p):
                labels[pos] = top + b
            top += num_blocks(p)
        sigma = canonicalize(labels)
        if not crossing or is_noncrossing(sigma):
            got.append(sigma)
    return sorted(got)
