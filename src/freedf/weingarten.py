"""Gram and Weingarten matrices, Haar moments, scaled Weingarten values.

Every matrix over the C(m) basis is held in one form: integers num over
their least common denominator D (D = 1 for the Gram matrix, entries
n^#(pi v sigma)); entries is a read-only Fraction view. The exact inverse
(the Weingarten matrix) is computed output-sensitively: Gauss-Jordan
elimination modulo word-size primes, CRT and rational reconstruction
give a candidate (D, num), accepted only after the exact integer check
Gram * num = D * I. The reduced denominators are far smaller than the
Gram determinant, so one or two primes usually suffice. The disk cache
keeps the "p/q" text of matrix_json and is scaled to (D, num) on load.

Counting tuples by kernel gives n^#pi = sum over tau >= pi of (n)_#tau,
so G = Z Delta Z^T, with Z the 0/1 incidence index from C(m) to the
classes tau with #tau <= n (categories.incidence) and Delta =
diag((n)_#tau). The Gram rows and the check G * num = Z (Delta (Z^T num))
are both 2 nnz(Z) packed-row sums; the check builds no Gram matrix.

Both kernels hold each matrix row as one Python integer, the entries in
fixed-width slots (slot j is bits j*w .. j*w+w-1), so that a row
operation is one big-integer multiply-add done in C. In the elimination
mod p the slots are nonnegative: a row starts reduced (< p), and each
update ri + (p - f) * upd adds less than p^2 to a slot, where upd is the
normalized pivot row (< p) with 1 added in slot k so that column k gets
-f * inv without being cleared. A row is reduced only when it becomes the
pivot and once at the end, so it takes at most N updates in between and
its slots stay below p + N * p^2 < 2^w when w >= 2 bits(p) + bits(N) + 1;
no slot ever carries into the next. The exact check packs the rows of num
with signed slots of width w >= bits((N max|A| + 1) max|num| + |D|) + 2
(max|A| = n^(max #sigma) for a Gram matrix), which holds every entry of
num and of A * num - D * I, so a row of that difference is sum_j d_j 2^(jw)
with every |d_j| < 2^(w-2). Integer sums are exact in any order, so the
factored sums give exactly that packed row; no partial sum need fit.
Such a sum is zero only when every d_j is: the lowest nonzero d_j would
have to be divisible by 2^w. Comparing the product row with D << a*w as
integers is therefore the exact entrywise test, not a probabilistic one.

Elimination runs without pivoting. Gram matrices are positive
semidefinite, so a zero leading principal minor occurs precisely when the
matrix is singular; SingularGram is raised only once the primes at which
elimination stops prove such a minor zero (their product exceeds its
Hadamard bound).

A cold Weingarten matrix at m >= 2 is inverted on rotation blocks
(rotation.py, imported only when a matrix is built): G and W commute with
rotating the m points, so modulo p the DFT over Z_m splits G into m
blocks, one per character, of about N / m rows each, and the rows of W at
the rotation orbit representatives follow from the block inverses. For
that the primes are p = 1 (mod 27720), 27720 = lcm(1..12), so every m up
to the caps has its m-th roots of unity mod p; D and num do not depend on
the primes. CRT and reconstruction run on the representative rows, and
the candidate is filled by rotation. The block route only proposes, and
the exact check accepts on the k representative columns alone. First each
representative row c must be fixed by r^(L_c), which generates its
stabiliser; then the filled num is rotation-invariant (rotation.py). G is
too, so E = G * num - D * I has E[r x][r y] = E[x][y], and every column
of E is a rotation of a representative column: E = 0 there gives E = 0.
Cache loads and verify_inverse, which get num from elsewhere, keep the
check on every column. A prime at which a block elimination stops gets the
full elimination instead, and only full eliminations that stop feed the
Hadamard proof, so SingularGram is raised exactly as without blocks.
Proposals are bounded too: past the modulus at which true residues must
reconstruct to the inverse, a candidate that fails raises
UncertifiedInverse (see _ff_inverse).
"""

import json
import os
import tempfile
from fractions import Fraction
from functools import cache, cached_property, partial
from itertools import chain, count
from math import gcd, isqrt, perm, prod

from .errors import FreedfError, NotInPoset, SchemaError, SingularGram, SizeMismatch, TableTooLarge, UncertifiedInverse
from .categories import enumerate_category, incidence
from .partitions import Partition, check_indices, num_blocks, parse_partition, relabel
from .rationals import DENSE_GUARD, rational_reader, rational_writer, scale_into

CACHE_ENV = "FREEDF_CACHE_DIR"


class GramTable:
    """A matrix over the C(m) basis: integers num over their least common
    denominator D. entries is the read-only view num / D, formed on first
    use: ints when D is 1, else one Fraction per distinct numerator."""

    def __init__(self, cat, m, n, basis, D, num):
        self.cat, self.m, self.n, self.basis, self.D, self.num = cat, m, n, tuple(basis), D, num

    @cached_property
    def entries(self):
        rows, D = self.num, self.D
        if D != 1:
            view = {x: Fraction(x, D) for x in set(chain.from_iterable(rows))}
            rows = [map(view.__getitem__, row) for row in rows]
        return tuple(map(tuple, rows))

    def index(self, p):
        try:
            return self.basis.index(Partition(p))
        except ValueError:
            raise NotInPoset("partition %s is not in C(%d) for %s" % (p, self.m, self.cat)) from None


WeingartenTable = GramTable


def _check_size(cat, m, n):
    """C(m); SchemaError for n < 0, TableTooLarge when an N x N matrix
    over C(m) exceeds DENSE_GUARD entries."""
    if n < 0:
        raise SchemaError("n must be a nonnegative integer, got %d" % n)
    basis = enumerate_category(cat, m)
    if len(basis) ** 2 > DENSE_GUARD:
        raise TableTooLarge("a matrix over C(%d) for %s needs %d x %d entries" % (m, cat, len(basis), len(basis)))
    return basis


def _times_gram(cat, m, n, rows):
    """G * rows for packed rows over C(m), as Z (Delta (Z^T rows)): the sum
    of the rows below each class tau, times (n)_#tau, added to each row
    below tau."""
    falling = [perm(n, k) for k in range(m + 1)]
    acc = [0] * len(rows)
    for tau, below in incidence(cat, m, n).items():
        t = falling[num_blocks(tau)] * sum(map(rows.__getitem__, below))
        for a in below:
            acc[a] += t
    return acc


def _top(cat, m, n):
    """The largest Gram entry, n^(max #sigma)."""
    return n ** max(map(num_blocks, enumerate_category(cat, m)), default=0)


def gram(cat, m, n):
    """G(pi, sigma) = n^#(pi v sigma): G times the packed unit rows, with
    slots wider than the largest entry. Only the rows at the rotation orbit
    representatives are unpacked; the others follow by rotation, and equal
    entries share one int."""
    from .rotation import rotation

    basis = _check_size(cat, m, n)
    size = len(basis)
    B = _top(cat, m, n).bit_length() // 8 + 1
    acc = _times_gram(cat, m, n, [1 << 8 * B * b for b in range(size)])
    powers = {n ** k: n ** k for k in range(m + 1)}
    rot = rotation(cat, m)
    rows = [list(map(powers.__getitem__, _unpack(acc[c], size, B))) for c in rot.reps]
    return GramTable(cat, m, n, basis, 1, rot.fill(rows))


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def _is_prime(q):
    """Miller-Rabin with the first twelve prime bases: exact for q < 2^64."""
    for b in _MR_BASES:
        if q % b == 0:
            return q == b
    d, s = q - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for b in _MR_BASES:
        x = pow(b, d, q)
        if x == 1 or x == q - 1:
            continue
        for _ in range(s - 1):
            x = x * x % q
            if x == q - 1:
                break
        else:
            return False
    return True


# lcm(1..12): every order m up to the caps divides p - 1, so Z_m has its
# m characters modulo every prime of the sequence
_PRIME_STEP = 27720


def _primes():
    """The primes p = 1 (mod 27720) below 2^62 in decreasing order, a fixed
    sequence."""
    return map(_prime, count())


@cache
def _prime(k):
    q = _prime(k - 1) - _PRIME_STEP if k else (1 << 62) - 1 - ((1 << 62) - 2) % _PRIME_STEP
    while not _is_prime(q):
        q -= _PRIME_STEP
    return q


def _pack(row, B):
    """The nonnegative entries of row, each below 2^(8B), as one integer."""
    return int.from_bytes(b"".join([x.to_bytes(B, "little") for x in row]), "little")


def _unpack(r, size, B):
    bs = r.to_bytes(size * B, "little")
    return [int.from_bytes(bs[j:j + B], "little") for j in range(0, size * B, B)]


def _inverse_mod(A, p):
    """In-place Gauss-Jordan inverse of A modulo p, without pivoting.

    Returns (size, inverse) or, when the pivot at step k vanishes mod p,
    (k, None): then p divides the leading minor of order k+1 and none of
    the smaller ones. Each row is one packed integer (see the module
    docstring); a row is reduced mod p only as the pivot and at the end.
    Slot k of the update row upd holds inv + 1, so ri + (p - f) * upd
    leaves -f * inv in column k without clearing it first.
    """
    size = len(A)
    B = (2 * p.bit_length() + size.bit_length() + 8) // 8
    w, mask = 8 * B, (1 << 8 * B) - 1
    a = [_pack([x % p for x in row], B) for row in A]
    for k in range(size):
        rk = _unpack(a[k], size, B)
        piv = rk[k] % p
        if not piv:
            return k, None
        inv = pow(piv, -1, p)
        rk[k] = 1
        a[k] = _pack([x * inv % p for x in rk], B)
        upd, kw = a[k] + (1 << k * w), k * w
        for i, ri in enumerate(a):
            f = (ri >> kw & mask) % p
            if f and i != k:
                a[i] = ri + (p - f) * upd
    return size, [[x % p for x in _unpack(r, size, B)] for r in a]


def _hadamard_sq(A, k):
    """Square of the Hadamard bound on the leading k x k minor of A."""
    return prod(sum(x * x for x in row[:k]) for row in A[:k])


def _rat_rec(u, P, bound):
    """(a, b) with a = u*b mod P, |a| <= bound, 0 < b <= bound, or None."""
    r0, r1, t0, t1 = P, u, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not t1 or abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return (-r1, -t1) if t1 < 0 else (r1, t1)


def _reconstruct(X, P):
    """Common denominator D and numerators N with N = D*X mod P, or None.

    Entries are scaled by the denominator found so far; a scaled entry
    that is already a small integer needs no reconstruction, so only the
    entries that enlarge D run the half-extended Euclid.
    """
    bound = isqrt(P // 2)
    D = 1
    num = []
    for row in X:
        out = []
        for x in row:
            y = x * D % P
            if y > bound:
                if P - y <= bound:
                    y -= P
                else:
                    got = _rat_rec(y, P, bound)
                    if got is None:
                        return None
                    y, b = got
                    D *= b
                    num = [[v * b for v in r] for r in num]
                    out = [v * b for v in out]
            out.append(y)
        num.append(out)
    return D, num


def _is_gram_inverse(cat, m, n, num, D, cols=None):
    """Exact test of G * num == D * I over the integers, on the columns
    cols of num (all of them by default).

    Each row of num, cut to those columns, is packed into one integer,
    signed slots of a width that holds every entry of the product (see the
    module docstring), so row a of G * num is row a of _times_gram,
    compared with D in the slot of column a as one integer.
    """
    if cols is None:
        cols, sel = range(len(num)), num
    else:
        sel = [list(map(row.__getitem__, cols)) for row in num]
    num_max = max(map(abs, chain.from_iterable(sel)), default=0)
    B = (((len(num) * _top(cat, m, n) + 1) * num_max + abs(D)).bit_length() + 9) // 8
    w, bias = 8 * B, 1 << 8 * B - 1
    offset = _pack([bias] * len(cols), B)
    rows = [_pack([x + bias for x in row], B) - offset for row in sel]
    want = {a: D << i * w for i, a in enumerate(cols)}
    return all(r == want.get(a, 0) for a, r in enumerate(_times_gram(cat, m, n, rows)))


def _ff_inverse(A, is_inverse, rot=None):
    """Exact inverse of an integer matrix with nonzero leading minors.

    Returns (D, num) with inverse = num / D and D the least common
    denominator, or None when a leading minor is zero. The inverse is
    taken modulo a fixed sequence of 62-bit primes, combined by CRT and
    recovered by rational reconstruction; a candidate is returned only
    once the exact test is_inverse(num, D) of A * num == D * I holds, and
    one more prime is added whenever it does not.

    With rot, the rotation of a rotation-invariant symmetric A (see
    rotation.py), each prime first inverts the blocks of A, and CRT and
    reconstruction run on the rows at the orbit representatives only. A
    candidate whose rows there are fixed by their stabilisers is filled by
    rotation, which makes it rotation-invariant, and is_inverse(num, D,
    rot.reps) tests it on the representative columns alone. A prime at
    which a block elimination stops runs the full elimination instead, and
    once a full elimination has stopped (as on every prime when A is
    singular) the later primes run it alone.

    A prime whose full elimination stops at step k divides the leading
    minor of order k+1. None is returned only when the primes stopping at
    the latest such step multiply past the Hadamard bound of that minor,
    which proves it zero; a prime that completes proves every leading
    minor nonzero.

    D divides det A and num = (D / det A) adj A, so H^2 =
    _hadamard_sq(A, N) bounds D^2 and every num^2. Once P > 2 H^2, true
    residues reconstruct to the true (D, num), which passes the test; a
    candidate that fails there proves the residues wrong, and
    UncertifiedInverse is raised instead of trying more primes.
    """
    X = None
    P = 1
    stops = {}
    hsq = None
    for p in _primes():
        inv = rot.inverse_rows(A, p) if rot and not stops else None
        if inv is None:
            step, inv = _inverse_mod(A, p)
            if inv is None:
                if X is None:
                    stops[step] = stops.get(step, 1) * p
                    k = max(stops)
                    if stops[k] ** 2 > _hadamard_sq(A, k + 1):
                        return None
                continue
            if rot:
                inv = list(map(inv.__getitem__, rot.reps))
        if X is None:
            X = inv
        else:
            c = pow(P, -1, p)
            X = [[x + P * ((r - x) * c % p) for x, r in zip(xrow, rrow)] for xrow, rrow in zip(X, inv)]
        P *= p
        got = _reconstruct(X, P)
        if got is not None:
            D, num = got
            if not rot:
                if is_inverse(num, D):
                    return D, num
            elif rot.invariant(num):
                num = rot.fill(num)
                if is_inverse(num, D, rot.reps):
                    return D, num
        hsq = _hadamard_sq(A, len(A)) if hsq is None else hsq
        if P > 2 * hsq:
            raise UncertifiedInverse("no inverse passed the exact check at a %d-bit modulus" % P.bit_length())


@cache
def weingarten(cat, m, n):
    """W(cat, m, n), read from the disk cache or computed, once per argument
    in a process; weingarten.cache_clear() drops the memoised tables."""
    _check_size(cat, m, n)
    got = _load_cached(cat, m, n)
    if got is None:
        from .rotation import rotation

        g = gram(cat, m, n)
        rot = rotation(cat, m) if m > 1 and g.basis else None
        res = _ff_inverse(g.num, partial(_is_gram_inverse, cat, m, n), rot)
        if res is None:
            raise SingularGram(cat, m, n)
        got = WeingartenTable(cat, m, n, g.basis, *res)
        _store_cached(got)
    return got


def _cache_path(cat, m, n):
    root = os.environ.get(CACHE_ENV)
    return os.path.join(root, "%s_%d_%d.json" % (cat.value, m, n)) if root else None


def _load_cached(cat, m, n):
    """The cached W(cat, m, n), or None when the entry is absent or invalid.

    An entry is used only when its header matches the request, its basis
    is C(m) in basis order, its entries form a square matrix over that
    basis and Gram * W = I holds exactly (by _is_gram_inverse, which builds
    no Gram matrix); otherwise it is recomputed and overwritten. Each
    distinct entry text is parsed and scaled once.
    """
    path = _cache_path(cat, m, n)
    if not path or not os.path.exists(path):
        return None
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        if (doc["category"], doc["m"], doc["n"]) != (cat.value, m, n):
            return None
        basis = tuple(parse_partition(s) if s else Partition() for s in doc["basis"])
        read = rational_reader()
        ints = {}
        D = scale_into(ints, {v: read(v) for row in doc["entries"] for v in row})
        num = [[ints[v] for v in row] for row in doc["entries"]]
    except (OSError, ValueError, KeyError, TypeError, FreedfError):
        return None  # unreadable cache entries are rebuilt
    square = {len(num), *map(len, num)} == {len(basis)}
    if basis != tuple(enumerate_category(cat, m)) or not square or not _is_gram_inverse(cat, m, n, num, D):
        return None
    return WeingartenTable(cat, m, n, basis, D, num)


def _store_cached(wg):
    """Write wg to the disk cache; a directory that cannot take it is skipped."""
    path = _cache_path(wg.cat, wg.m, wg.n)
    if not path:
        return
    folder = os.path.dirname(path) or "."
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(matrix_json(wg), fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass  # the result is already computed; only the cache write is lost


def matrix_json(table):
    """The CLI/disk JSON form of a Gram or Weingarten table."""
    write = rational_writer(table.D)
    return {
        "category": table.cat.value,
        "m": table.m,
        "n": table.n,
        "basis": [str(p) for p in table.basis],
        "entries": [[write(x) for x in row] for row in table.num],
    }


def haar_moment(cat, n, i, j):
    """h(u_{i1 j1} ... u_{im jm}) via the Weingarten expansion: the numerators
    of Wg(sigma, pi) over sigma <= ker i, pi <= ker j (down-sets read from the
    incidence index) are summed as integers and divided by D once."""
    if len(i) != len(j):
        raise SizeMismatch("index tuples differ in length: %d vs %d" % (len(i), len(j)))
    check_indices(chain(i, j), n)
    wg = weingarten(cat, len(i), n)
    below = incidence(cat, len(i), n)
    cols = below.get(relabel(j), ())
    total = sum(wg.num[a][b] for a in below.get(relabel(i), ()) for b in cols)
    return Fraction(total, wg.D)


def wg_scaled(cat, k, n, p, q):
    """Wg_{2k,n}(p, q) * n^k, exactly."""
    wg = weingarten(cat, 2 * k, n)
    return Fraction(wg.num[wg.index(p)][wg.index(q)] * n ** k, wg.D)


def verify_inverse(cat, m, n):
    """Exact check that Gram * Weingarten is the identity, on the integer
    numerators over the common denominator, through the factor
    G = Z Delta Z^T without a Gram matrix (see _is_gram_inverse)."""
    wg = weingarten(cat, m, n)
    return _is_gram_inverse(cat, m, n, wg.num, wg.D)
