"""Gram and Weingarten matrices, Haar moments, scaled Weingarten values.

The Gram matrix over C(m) has entries n^#(pi v sigma). Its exact inverse
(the Weingarten matrix) is computed output-sensitively: Gauss-Jordan
elimination modulo word-size primes, CRT and rational reconstruction
give a candidate integer numerator matrix over a common denominator, and
the candidate is accepted only after the exact integer check
Gram * num = D * I. The reduced denominators are far smaller than the
Gram determinant, so one or two primes usually suffice.

Elimination runs without pivoting. Gram matrices are positive
semidefinite, so a zero leading principal minor occurs precisely when the
matrix is singular; SingularGram is raised only once the primes at which
elimination stops prove such a minor zero (their product exceeds its
Hadamard bound).
"""

import json
import os
import tempfile
from fractions import Fraction
from math import gcd, isqrt, lcm, prod

from .errors import FreedfError, NotInPoset, SingularGram, SizeMismatch
from .categories import c_leq, enumerate_category
from .partitions import Partition, join_num_blocks, parse_partition
from .rationals import format_rational, parse_rational

CACHE_ENV = "FREEDF_CACHE_DIR"


class GramTable:
    def __init__(self, cat, m, n, basis, entries):
        self.cat = cat
        self.m = m
        self.n = n
        self.basis = tuple(basis)
        self.entries = tuple(tuple(row) for row in entries)

    def index(self, p):
        try:
            return self.basis.index(Partition(p))
        except ValueError:
            raise NotInPoset("partition %s is not in C(%d) for %s" % (p, self.m, self.cat)) from None


WeingartenTable = GramTable


_EXP_CACHE = {}


def _join_exponents(cat, m):
    """Matrix of #(pi v sigma) over the C(m) basis, shared across n."""
    got = _EXP_CACHE.get((cat, m))
    if got is None:
        basis = enumerate_category(cat, m)
        size = len(basis)
        E = [[0] * size for _ in range(size)]
        for a in range(size):
            pa = basis[a]
            E[a][a] = pa.num_blocks
            for b in range(a + 1, size):
                E[a][b] = E[b][a] = join_num_blocks(pa, basis[b])
        got = (tuple(basis), tuple(tuple(r) for r in E))
        _EXP_CACHE[(cat, m)] = got
    return got


def gram(cat, m, n):
    basis, E = _join_exponents(cat, m)
    powers = [n ** k for k in range(m + 1)]
    entries = [[powers[e] for e in row] for row in E]
    return GramTable(cat, m, n, basis, entries)


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIMES = []


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


def _primes():
    """The primes below 2^62 in decreasing order, a fixed sequence."""
    k = 0
    while True:
        if k == len(_PRIMES):
            q = _PRIMES[-1] - 2 if _PRIMES else (1 << 62) - 1
            while not _is_prime(q):
                q -= 2
            _PRIMES.append(q)
        yield _PRIMES[k]
        k += 1


def _inverse_mod(A, p):
    """In-place Gauss-Jordan inverse of A modulo p, without pivoting.

    Returns (size, inverse) or, when the pivot at step k vanishes mod p,
    (k, None): then p divides the leading minor of order k+1 and none of
    the smaller ones.
    """
    a = [[x % p for x in row] for row in A]
    for k in range(len(a)):
        rk = a[k]
        piv = rk[k]
        if not piv:
            return k, None
        inv = pow(piv, -1, p)
        rk[k] = 1
        rk = a[k] = [x * inv % p for x in rk]
        for i, ri in enumerate(a):
            f = ri[k]
            if f and i != k:
                ri[k] = 0
                a[i] = [(x - f * y) % p for x, y in zip(ri, rk)]
    return len(a), a


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


def _times_is_scalar(A, num, D):
    """Exact test of A * num == D * I over the integers.

    Each row of A is grouped by value, so a Gram row (values n^e) costs
    m+1 column sums of num and m+1 scalings instead of a full dot
    product per entry.
    """
    for a, row in enumerate(A):
        groups = {}
        for c, v in enumerate(row):
            if v:
                groups.setdefault(v, []).append(num[c])
        acc = [0] * len(row)
        for v, rows in groups.items():
            acc = [s + v * t for s, t in zip(acc, map(sum, zip(*rows)))]
        if acc[a] != D or any(acc[:a]) or any(acc[a + 1:]):
            return False
    return True


def _ff_inverse(A):
    """Exact inverse of an integer matrix with nonzero leading minors.

    Returns (D, num) with inverse = num / D and D the least common
    denominator, or None when a leading minor is zero. The inverse is
    taken modulo a fixed sequence of 62-bit primes, combined by CRT and
    recovered by rational reconstruction; a candidate is returned only
    once the exact integer product A * num equals D * I, and one more
    prime is added whenever it does not.

    A prime whose elimination stops at step k divides the leading minor
    of order k+1. None is returned only when the primes stopping at the
    latest such step multiply past the Hadamard bound of that minor,
    which proves it zero; a prime that completes proves every leading
    minor nonzero.
    """
    X = None
    P = 1
    stops = {}
    for p in _primes():
        step, inv = _inverse_mod(A, p)
        if inv is None:
            if X is None:
                stops[step] = stops.get(step, 1) * p
                k = max(stops)
                if stops[k] ** 2 > _hadamard_sq(A, k + 1):
                    return None
            continue
        if X is None:
            X = inv
        else:
            c = pow(P, -1, p)
            X = [
                [x + P * ((r - x) * c % p) for x, r in zip(xrow, rrow)]
                for xrow, rrow in zip(X, inv)
            ]
        P *= p
        got = _reconstruct(X, P)
        if got is not None and _times_is_scalar(A, got[1], got[0]):
            return got


_WG_CACHE = {}


def weingarten(cat, m, n):
    got = _WG_CACHE.get((cat, m, n))
    if got is not None:
        return got
    got = _load_cached(cat, m, n)
    if got is None:
        g = gram(cat, m, n)
        size = len(g.basis)
        if size == 0:
            got = WeingartenTable(cat, m, n, (), ())
        else:
            res = _ff_inverse(g.entries)
            if res is None:
                raise SingularGram(cat, m, n)
            den, num = res
            got = WeingartenTable(
                cat, m, n, g.basis,
                [[Fraction(num[a][b], den) for b in range(size)] for a in range(size)],
            )
        _store_cached(got)
    _WG_CACHE[(cat, m, n)] = got
    return got


def _cache_path(cat, m, n):
    root = os.environ.get(CACHE_ENV)
    if not root:
        return None
    return os.path.join(root, "%s_%d_%d.json" % (cat.value, m, n))


def _load_cached(cat, m, n):
    """The cached W(cat, m, n), or None when the entry is absent or invalid.

    An entry is used only when its header matches the request, its basis
    is C(m) in basis order and Gram * W = I holds exactly; otherwise it
    is recomputed and overwritten.
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
        entries = [[parse_rational(v) for v in row] for row in doc["entries"]]
    except (OSError, ValueError, KeyError, TypeError, FreedfError):
        return None  # unreadable cache entries are rebuilt
    if basis != tuple(enumerate_category(cat, m)) or not _is_inverse(gram(cat, m, n).entries, entries):
        return None
    return WeingartenTable(cat, m, n, basis, entries)


def _store_cached(wg):
    """Write wg to the disk cache; a directory that cannot take it is skipped."""
    path = _cache_path(wg.cat, wg.m, wg.n)
    if not path:
        return
    folder = os.path.dirname(path) or "."
    doc = matrix_json(wg)
    try:
        os.makedirs(folder, exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=folder, suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            os.replace(tmp, path)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except OSError:
        pass  # the result is already computed; only the cache write is lost


def matrix_json(table):
    """The CLI/disk JSON form of a Gram or Weingarten table."""
    return {
        "category": table.cat.value,
        "m": table.m,
        "n": table.n,
        "basis": [str(p) for p in table.basis],
        "entries": [[format_rational(v) for v in row] for row in table.entries],
    }


def haar_moment(cat, n, i, j):
    """h(u_{i1 j1} ... u_{im jm}) via the Weingarten expansion."""
    if len(i) != len(j):
        raise SizeMismatch("index tuples differ in length: %d vs %d" % (len(i), len(j)))
    m = len(i)
    wg = weingarten(cat, m, n)
    if not wg.basis:
        return Fraction(0)
    rows = [wg.index(p) for p in c_leq(cat, i)]
    cols = [wg.index(p) for p in c_leq(cat, j)]
    total = Fraction(0)
    for a in rows:
        row = wg.entries[a]
        for b in cols:
            total += row[b]
    return total


def wg_scaled(cat, k, n, p, q):
    """Wg_{2k,n}(p, q) * n^k, exactly."""
    wg = weingarten(cat, 2 * k, n)
    return wg.entries[wg.index(p)][wg.index(q)] * n ** k


def verify_inverse(cat, m, n):
    """Exact check that Gram * Weingarten is the identity.

    Works on the integer numerators over the common denominator, with
    the Gram rows grouped by exponent (see _times_is_scalar).
    """
    wg = weingarten(cat, m, n)
    return _is_inverse(gram(cat, m, n).entries, wg.entries)


def _is_inverse(A, W):
    """Exact test of A * W == I for rational W of the same size as A."""
    if len(W) != len(A) or any(len(row) != len(A) for row in W):
        return False
    if not W:
        return True
    den = lcm(*(v.denominator for row in W for v in row))
    num = [[v.numerator * (den // v.denominator) for v in row] for row in W]
    return _times_is_scalar(A, num, den)
