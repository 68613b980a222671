"""Set partitions of [m] in restricted-growth form.

A partition is stored as its restricted-growth string (RGS): position k
carries the id of its block, blocks numbered 0, 1, ... by first
occurrence. This makes partitions hashable, totally ordered (tuple
order is exactly RGS-lex, the basis order used for every matrix in the
package) and directly usable as dict keys.

Positions are 0-based in code. All external text is 1-based for
elements of [m] ("{{1,2},{3}}") and for index-tuple entries ("1,3,1,2");
RGS strings ("0,0,1") are the canonical interchange form.

One cached generator builds the partitions of [m] with at most n blocks,
the kernel classes of the words over [n], without ever opening block
n + 1; P(m) is its n = m case.
"""

from functools import cache

from .errors import BadSubset, EmptyInput, OrderTooLarge, SchemaError, SizeMismatch

DEFAULT_CAP = 10


def render_index_tuple(i):
    """Comma-separated labels or entries, e.g. "0,0,1" or "1,3,1,2"."""
    return ",".join(str(v) for v in i)


render_partition = render_index_tuple


def num_blocks(p):
    return max(p) + 1 if p else 0


class Partition(tuple):
    """A canonical restricted-growth string over positions 0..m-1."""

    def __new__(cls, labels=()):
        t = tuple.__new__(cls, labels)
        nxt = 0
        for lab in t:
            if lab > nxt or lab < 0:
                raise ValueError("not a canonical restricted-growth string: %r" % (tuple(t),))
            if lab == nxt:
                nxt += 1
        return t

    @property
    def size(self):
        return len(self)

    num_blocks = property(num_blocks)

    def blocks(self):
        """Blocks as tuples of 0-based positions, ordered by block id."""
        out = [[] for _ in range(self.num_blocks)]
        for pos, lab in enumerate(self):
            out[lab].append(pos)
        return [tuple(b) for b in out]

    __str__ = render_index_tuple

    def __repr__(self):
        return "Partition(%s)" % (str(self) or "empty")


def relabel(labels):
    """Labels renumbered 0, 1, ... by first occurrence, as a plain tuple."""
    seen = {}
    return tuple([seen.setdefault(lab, len(seen)) for lab in labels])


def canonicalize(labels):
    """Relabel an arbitrary label sequence by first occurrence."""
    return Partition(relabel(labels))


def parse_partition(text):
    """Parse a comma-separated label string, canonicalizing labels."""
    if text is None or not str(text).strip():
        raise EmptyInput("empty partition string")
    toks = [t.strip() for t in str(text).split(",")]
    labels = []
    for t in toks:
        if not t or not t.lstrip("-").isdigit():
            raise SchemaError("partition label is not an integer: %r" % t)
        v = int(t)
        if v < 0:
            raise SchemaError("partition label is negative: %r" % t)
        labels.append(v)
    return canonicalize(labels)


def format_blocks(p):
    """Human notation with 1-based elements, e.g. {{1,2},{3}}."""
    parts = ["{%s}" % ",".join(str(pos + 1) for pos in b) for b in Partition(p).blocks()]
    return "{%s}" % ",".join(parts)


def parse_index_tuple(text, n=None):
    """Parse "1,3,1,2" into a tuple of 1-based indices, checking bounds."""
    if text is None or not str(text).strip():
        raise EmptyInput("empty index tuple")
    entries = []
    for t in str(text).split(","):
        t = t.strip()
        if not t.lstrip("-").isdigit():
            raise SchemaError("index entry is not an integer: %r" % t)
        entries += check_indices((int(t),), n)
    return tuple(entries)


def check_indices(entries, n=None):
    """entries, or SchemaError at the first one that is not an int in [1, n]."""
    for v in entries:
        if isinstance(v, bool) or not isinstance(v, int):
            raise SchemaError("index entry is not an integer: %r" % (v,))
        if v < 1 or (n is not None and v > n):
            raise SchemaError("index entry out of range [1,%s]: %d" % ("inf" if n is None else n, v))
    return entries


def singletons(m):
    return Partition(range(m))


def one_block(m):
    return Partition([0] * m)


def is_noncrossing(p):
    """True iff no positions i<j<k<l have labels a,b,a,b with a != b.

    Scans once with a stack of open blocks; a block may continue only
    while it sits on top, and is closed at its last occurrence.
    """
    last = {}
    for pos, lab in enumerate(p):
        last[lab] = pos
    stack = []
    seen = set()
    for pos, lab in enumerate(p):
        if lab in seen:
            if not stack or stack[-1] != lab:
                return False
        else:
            seen.add(lab)
            stack.append(lab)
        if last[lab] == pos:
            stack.pop()
    return True


def leq(p, q):
    """Refinement order: every block of p lies inside a block of q."""
    if len(p) != len(q):
        raise SizeMismatch("leq on partitions of different sizes: %d vs %d" % (len(p), len(q)))
    image = {}
    for lp, lq in zip(p, q):
        prev = image.get(lp)
        if prev is None:
            image[lp] = lq
        elif prev != lq:
            return False
    return True


def _merge(p, q):
    """Union-find over positions, merging the blocks of p and of q.

    Returns find and the number of blocks of the join.
    """
    parent = list(range(len(p)))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    count = len(p)
    for labels in (p, q):
        first = {}
        for pos, lab in enumerate(labels):
            if lab in first:
                ra, rb = find(first[lab]), find(pos)
                if ra != rb:
                    parent[rb] = ra
                    count -= 1
            else:
                first[lab] = pos
    return find, count


def join(p, q):
    """Smallest common coarsening."""
    m = len(p)
    if m != len(q):
        raise SizeMismatch("join on partitions of different sizes: %d vs %d" % (m, len(q)))
    find = _merge(p, q)[0]
    return canonicalize(find(pos) for pos in range(m))


def join_num_blocks(p, q):
    """num_blocks(join(p, q)) without building the partition."""
    return _merge(p, q)[1]


# ker(i): positions grouped by equal entries of the tuple
kernel = canonicalize


def restrict(p, positions):
    """p restricted to an increasing tuple of 0-based positions."""
    positions = tuple(positions)
    m = len(p)
    prev = -1
    for v in positions:
        if v <= prev or v < 0 or v >= m:
            raise BadSubset("positions must be strictly increasing within 0..%d: %r" % (m - 1, positions))
        prev = v
    if prev == -1:
        raise BadSubset("empty position set")
    return canonicalize(p[v] for v in positions)


def enumerate_partitions(m):
    """All of P(m) in RGS-lex order (this order is used everywhere)."""
    return kernel_classes(m, m)


def kernel_classes(m, n):
    """The partitions of [m] with at most n blocks, the kernels of the words
    over [n], in RGS-lex order, as a fresh list."""
    if m < 1 or m > DEFAULT_CAP:
        raise OrderTooLarge("m=%d outside 1..%d" % (m, DEFAULT_CAP))
    return list(_partitions(m, min(m, n))) if n > 0 else []


@cache
def _partitions(m, n):
    """P(m) capped at 1 <= n <= m blocks: each class of order m - 1 followed
    by every label that opens no block past n. The classes of order m - 1
    come in RGS-lex order, so their extensions do too."""
    if m == 1:
        return (Partition((0,)),)
    below = _partitions(m - 1, min(m - 1, n))
    return tuple(Partition(p + (lab,)) for p in below for lab in range(min(num_blocks(p) + 1, n)))
