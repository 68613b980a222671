"""Categories of non-crossing partitions.

Four categories are implemented, identified by their quantum-group
labels: o+ (non-crossing pairings), s+ (all non-crossing partitions),
h+ (non-crossing, every block of even size), b+ (non-crossing, every
block of size at most 2). C(m) denotes the order-m part of a category.
They differ only in the block sizes they allow, and each is closed under
restriction to a block, so one recursion on the block of position 0
builds C(m) for all four; filtering P(m) is its oracle in the tests.

Every sigma <= tau sum between C(m) and the kernel classes reads one
incidence index per (cat, m, n), built from the kernel classes over
sigma's blocks, which builds no P(m): _incident_sums pushes values on
C(m) up to the classes, and _forward_substitute inverts that sum on any
down-set. c_leq_kernel builds C(m) below one partition block by block.
leq scans are their oracle in the tests.
"""

import enum
import itertools
from collections import Counter
from functools import cache
from operator import itemgetter

from .errors import OrderTooLarge, UnknownCategory
from .partitions import Partition, canonicalize, is_noncrossing, kernel, kernel_classes, num_blocks


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

# Order caps. C(m) is small at either one (16,796 partitions of s+ at
# m = 10); they bound the k blocks of each sigma, for which incidence reads
# kernel_classes(k, n), which refuses k > 10 (Bell(10) = 115,975 classes
# when n >= 10). A pairing of order m has m/2 blocks, so o+ may go deeper.
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
    """Membership in C(m) of the partition that any label sequence p describes."""
    allowed = _block_size(cat)
    return is_noncrossing(p) and all(map(allowed, Counter(p).values()))


def _block_size(cat):
    """The block sizes that cat allows, as a predicate."""
    if cat is O_PLUS:
        return lambda s: s == 2
    if cat is S_PLUS:
        return lambda s: True
    if cat is H_PLUS:
        return lambda s: s % 2 == 0
    if cat is B_PLUS:
        return lambda s: s <= 2
    raise UnknownCategory("unknown category %r" % (cat,))


def _check_order(cat, m):
    cap = PAIRING_CAP if cat is O_PLUS else GENERAL_CAP
    if m < 0 or m > cap:
        raise OrderTooLarge("m=%d outside 0..%d for %s" % (m, cap, cat))


def enumerate_category(cat, m):
    """C(m) in RGS-lex order, as a fresh list; m=0 gives the empty partition."""
    _check_order(cat, m)
    return list(_category(cat, m))


@cache
def _category(cat, m):
    """C(m) by the block V of position 0 (the first-block decomposition).

    V has a size that cat allows, and each gap of V (a maximal run of
    positions outside V) carries any member of C(len(gap)): the gaps lie
    between consecutive positions of V, so nothing crosses, and every
    other block of a member of C(m) lies inside one gap. Labels go to V
    first, then to the gaps from left to right, which is already an RGS.
    C(0) holds the empty partition alone.
    """
    got = [] if m else [Partition()]
    for k in filter(_block_size(cat), range(1, m + 1)):
        for rest in itertools.combinations(range(1, m), k - 1):
            V = (0,) + rest
            gaps = [tuple(run) for inside, run in itertools.groupby(range(m), V.__contains__) if not inside]
            for pick in itertools.product(*(_category(cat, len(gap)) for gap in gaps)):
                got.append(Partition(_glue(m, zip([V] + gaps, [(0,) * k, *pick]))))
    return tuple(sorted(got))


def _glue(m, parts):
    """Labels on [m] from (positions, p) pairs, each p's blocks numbered after the earlier ones."""
    labels, top = [0] * m, 0
    for positions, p in parts:
        for pos, b in zip(positions, p):
            labels[pos] = top + b
        top += num_blocks(p)
    return labels


@cache
def incidence(cat, m, n):
    """{tau: [a, ...]} with C(m)[a] <= tau, over the classes with #tau <= n.

    Each RGS rho of sigma's blocks with at most n blocks gives the already
    canonical tau = (rho[l] for l in sigma), read by one itemgetter per
    sigma; tau without sigma is absent. Below m = 2, where an itemgetter
    gives a label, not a tuple: () <= () and, when n >= 1, (0,) <= (0,).
    """
    got = {}
    get = got.get
    for a, sigma in enumerate(enumerate_category(cat, m)):
        if m > 1:
            taus = map(itemgetter(*sigma), kernel_classes(num_blocks(sigma), n))
        else:
            taus = [()] if not m else [(0,)] * (n > 0)
        for tau in taus:
            row = get(tau)
            if row is None:
                got[tau] = [a]
            else:
                row.append(a)
    return got


def _incident_sums(nums, cat, m, n):
    """{tau: sum of nums[a] over C(m)[a] <= tau} over the kernel classes."""
    below = incidence(cat, m, n)
    return {tau: sum(map(nums.__getitem__, below.get(tau, ()))) for tau in kernel_classes(m, n)}


def _forward_substitute(nums, below, order):
    """Integers c with nums[a] = sum of c[b] over b in below[a], a among them.

    The positions are taken in order, finest first, so below[a] holds a
    and positions already solved: Moebius inversion without computing mu.
    """
    c = [0] * len(nums)
    for a in order:
        c[a] = nums[a] - sum(map(c.__getitem__, below[a]))
    return c


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
        sigma = canonicalize(_glue(len(tau), zip(blocks, pick)))
        if not crossing or is_noncrossing(sigma):
            got.append(sigma)
    return sorted(got)
