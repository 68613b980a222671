import importlib
import json
import random
from functools import partial
from itertools import chain, islice

import pytest
from fractions import Fraction
from hypothesis import given, settings, strategies as st
from math import comb, gcd, lcm, prod

from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS, enumerate_category
from freedf.errors import (
    FreedfError,
    NotInPoset,
    SchemaError,
    SingularGram,
    SizeMismatch,
    TableTooLarge,
    UncertifiedInverse,
)
from freedf.partitions import join_num_blocks, one_block, parse_partition, relabel, singletons
from freedf.rationals import format_rational
from freedf.weingarten import (
    _ff_inverse,
    _inverse_mod,
    _is_gram_inverse,
    _pack,
    _primes,
    gram,
    haar_moment,
    matrix_json,
    verify_inverse,
    weingarten,
    wg_scaled,
)

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)
# the package re-exports the function weingarten under the module's name
wg_module = importlib.import_module("freedf.weingarten")
rationals = importlib.import_module("freedf.rationals")
categories = importlib.import_module("freedf.categories")


# The union-find Gram matrix and the packed dense product check that the
# factor G = Z Delta Z^T replaced, kept as references: _join_exponents for
# gram, _times_is_scalar as the exact check of a generic matrix.

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


def _times_is_scalar(A, num, D):
    """Exact test of A * num == D * I over the integers.

    Each row of num is packed into one integer, signed slots of a width
    that holds every entry of the product (see the weingarten module
    docstring), so a product row is a sum of packed rows and is compared
    with D in slot a as one integer. Each row of A is grouped by value.
    """
    a_max, num_max = (max(map(abs, chain.from_iterable(M)), default=0) for M in (A, num))
    B = (((len(A) * a_max + 1) * num_max + abs(D)).bit_length() + 9) // 8
    w, bias = 8 * B, 1 << 8 * B - 1
    offset = _pack([bias] * len(A), B)
    rows = [_pack([x + bias for x in row], B) - offset for row in num]
    for a, row in enumerate(A):
        groups = {}
        for c, v in enumerate(row):
            if v:
                groups[v] = groups.get(v, 0) + rows[c]
        if sum(v * r for v, r in groups.items()) != D << a * w:
            return False
    return True


def generic_inverse(A):
    """_ff_inverse of a generic integer matrix, accepted by the dense check."""
    return _ff_inverse(A, partial(_times_is_scalar, A))


def gram_inverse(cat, m, n):
    """_ff_inverse of a Gram matrix, accepted by the factored check."""
    return _ff_inverse(gram(cat, m, n).num, partial(_is_gram_inverse, cat, m, n))


def naive_product_is_identity(g, wg):
    size = len(g.basis)
    for a in range(size):
        for b in range(size):
            total = sum(g.entries[a][c] * wg.entries[c][b] for c in range(size))
            if total != (1 if a == b else 0):
                return False
    return True


def test_gram_examples():
    g = gram(O_PLUS, 4, 5)
    assert [str(p) for p in g.basis] == ["0,0,1,1", "0,1,1,0"]
    assert g.entries == ((25, 5), (5, 25))
    g2 = gram(S_PLUS, 2, 4)
    assert [str(p) for p in g2.basis] == ["0,0", "0,1"]
    assert g2.entries == ((4, 4), (4, 16))
    g3 = gram(O_PLUS, 3, 5)
    assert g3.basis == () and g3.entries == ()


def gram_oracle_cases():
    """All four categories at m <= 7 (m = 0 and the empty odd-m bases of
    o+ and h+ included), n in {0, 1, 2, 3, m - 1, m, m + 2}."""
    for cat in ALL_CATS:
        for m in range(8):
            for n in sorted({0, 1, 2, 3, m - 1, m, m + 2} - {-1}):
                yield cat, m, n


def test_gram_matches_join_exponents():
    for cat, m, n in gram_oracle_cases():
        basis, E = _join_exponents(cat, m)
        g = gram(cat, m, n)
        assert g.basis == basis and g.D == 1, (cat, m, n)
        assert g.num == [[n ** e for e in row] for row in E], (cat, m, n)
        # equal entries share one int, as n ** e over a table of powers does
        assert len({id(x) for row in g.num for x in row}) <= m + 1


def test_gram_is_symmetric_join_power():
    from freedf.partitions import join, num_blocks

    for cat in ALL_CATS:
        g = gram(cat, 4, 3)
        for a, p in enumerate(g.basis):
            for b, q in enumerate(g.basis):
                assert g.entries[a][b] == 3 ** num_blocks(join(p, q))


def test_weingarten_examples():
    wg = weingarten(O_PLUS, 4, 5)
    assert wg.entries == (
        (Fraction(1, 24), Fraction(-1, 120)),
        (Fraction(-1, 120), Fraction(1, 24)),
    )
    for n in (1, 2, 3, 7):
        w = weingarten(O_PLUS, 2, n)
        assert w.entries == ((Fraction(1, n),),)
    w2 = weingarten(S_PLUS, 2, 4)
    assert w2.entries == (
        (Fraction(1, 3), Fraction(-1, 12)),
        (Fraction(-1, 12), Fraction(1, 12)),
    )


def test_weingarten_inverts_gram_naively():
    for cat in ALL_CATS:
        for m in range(1, 6):
            for n in (4, 5):
                g = gram(cat, m, n)
                if not g.basis:
                    continue
                wg = weingarten(cat, m, n)
                assert naive_product_is_identity(g, wg), (cat, m, n)
    for n in (2, 3):
        for m in (2, 4, 6):
            assert naive_product_is_identity(gram(O_PLUS, m, n), weingarten(O_PLUS, m, n))


def bareiss_inverse(A):
    """Reference inverse: fraction-free Gauss-Jordan (Bareiss 1968).

    Returns (det, num) with inverse = num / det, or None on a zero pivot,
    i.e. when some leading principal minor vanishes. After step k every
    entry is an integer minor, and the right half only carries columns
    0..k.
    """
    size = len(A)
    left = [list(row) for row in A]
    right = [[0] * size for _ in range(size)]
    prev = 1
    for k in range(size):
        rk = left[k]
        pkk = rk[k]
        if not pkk:
            return None
        right[k][k] = prev
        rrk = right[k]
        for i in range(size):
            if i == k:
                continue
            ri = left[i]
            mik = ri[k]
            rri = right[i]
            for j in range(k + 1, size):
                ri[j] = (pkk * ri[j] - mik * rk[j]) // prev
            for j in range(k + 1):
                rri[j] = (pkk * rri[j] - mik * rrk[j]) // prev
            ri[k] = 0
        prev = pkk
    return prev, right


def same_inverse(want, got):
    """Entrywise equality of num/det pairs, by cross-multiplication."""
    det, num = want
    D, num2 = got
    return all(
        x * D == y * det for row, row2 in zip(num, num2) for x, y in zip(row, row2)
    )


# (category, m, n) with m <= 6, n <= 4 whose Gram matrix is singular
SINGULAR_SMALL = {
    ("o+", 4, 1), ("o+", 6, 1),
    ("s+", 2, 1), ("s+", 3, 1), ("s+", 4, 1), ("s+", 5, 1), ("s+", 6, 1),
    ("s+", 3, 2), ("s+", 4, 2), ("s+", 5, 2), ("s+", 6, 2), ("s+", 5, 3), ("s+", 6, 3),
    ("h+", 4, 1), ("h+", 6, 1), ("h+", 6, 2),
    ("b+", 2, 1), ("b+", 3, 1), ("b+", 4, 1), ("b+", 5, 1), ("b+", 6, 1),
    ("b+", 4, 2), ("b+", 5, 2), ("b+", 6, 2),
}


def test_inverse_matches_bareiss_sweep():
    singular = set()
    for cat in ALL_CATS:
        for m in range(1, 7):
            for n in range(1, 5):
                g = gram(cat, m, n)
                if not g.basis:
                    continue
                A = [list(row) for row in g.entries]
                want = bareiss_inverse(A)
                got = gram_inverse(cat, m, n)
                assert got == generic_inverse(A), (cat, m, n)
                if want is None:
                    assert got is None, (cat, m, n)
                    singular.add((cat.value, m, n))
                    with pytest.raises(SingularGram):
                        weingarten(cat, m, n)
                else:
                    assert got is not None and same_inverse(want, got), (cat, m, n)
    assert singular == SINGULAR_SMALL


def test_inverse_denominator_is_least():
    for cat in ALL_CATS:
        for n in (4, 7):
            D, num = gram_inverse(cat, 5, n)
            assert D == lcm(*(Fraction(x, D).denominator for row in num for x in row)), (cat, n)


def test_inverse_generic_integer_matrices():
    # large entries force several primes; a zero leading minor gives None
    rng = random.Random(7)
    for size in (1, 2, 3, 5, 8):
        for bits in (4, 40, 90):
            A = [[rng.randint(-(2 ** bits), 2 ** bits) for _ in range(size)] for _ in range(size)]
            want = bareiss_inverse(A)
            got = generic_inverse(A)
            if want is None:
                assert got is None
            else:
                assert same_inverse(want, got), (size, bits)
    big = 2 ** 100
    assert generic_inverse([[big + 1, big], [big, big - 1]]) == (1, [[1 - big, big], [big, -1 - big]])
    assert generic_inverse([[0, 1], [1, 0]]) is None
    assert generic_inverse([[1, 2], [2, 4]]) is None


def test_verify_inverse_agrees():
    for cat in ALL_CATS:
        for m in (2, 4, 5):
            assert verify_inverse(cat, m, 4)


def test_singular_gram():
    # at n=1 the two partitions of [2] have identical columns
    with pytest.raises(SingularGram) as exc:
        weingarten(S_PLUS, 2, 1)
    payload = exc.value.payload()
    assert payload["m"] == 2 and payload["n"] == 1


def test_empty_category_weingarten():
    wg = weingarten(O_PLUS, 5, 4)
    assert wg.basis == () and wg.entries == ()


def test_table_index():
    wg = weingarten(O_PLUS, 4, 5)
    assert wg.index(parse_partition("0,1,1,0")) == 1
    with pytest.raises(NotInPoset):
        wg.index(singletons(4))


def test_haar_examples():
    assert haar_moment(O_PLUS, 5, (1, 1), (1, 1)) == Fraction(1, 5)
    assert haar_moment(O_PLUS, 5, (1, 1), (1, 2)) == 0
    assert haar_moment(O_PLUS, 5, (1, 1, 1), (1, 1, 1)) == 0
    # the empty product has Haar value 1
    for cat in ALL_CATS:
        assert haar_moment(cat, 3, (), ()) == 1
    with pytest.raises(SizeMismatch):
        haar_moment(O_PLUS, 5, (1, 1), (1, 1, 1))


def test_haar_brute_force_m4():
    # h(u_i1j1 ... u_imjm) = sum of Wg(p, q) over p <= ker i, q <= ker j, by leq scans
    from freedf.partitions import kernel, leq

    rng = random.Random(4)
    for cat in ALL_CATS:
        for m in range(1, 7):
            for n in (4, 5, 7):
                wg = weingarten(cat, m, n)
                # random tuples, and labels that do not start at 1
                tuples = [tuple(rng.randint(1, n) for _ in range(m)) for _ in range(4)]
                tuples += [(n,) * m, ((n, 3, n - 1, 3, 2) * 2)[:m]]
                for i in tuples:
                    rows = [a for a, p in enumerate(wg.basis) if leq(p, kernel(i))]
                    for j in tuples[2:]:
                        cols = [b for b, q in enumerate(wg.basis) if leq(q, kernel(j))]
                        want = sum((wg.entries[a][b] for a in rows for b in cols), Fraction(0))
                        assert haar_moment(cat, n, i, j) == want, (cat, m, n, i, j)


def test_haar_refuses_out_of_range_indices():
    for i, j in (((7, 7), (9, 9)), ((1, 1), (1, 4)), ((0, 1), (1, 1)), ((1, -2), (1, 1))):
        with pytest.raises(SchemaError) as exc:
            haar_moment(O_PLUS, 3, i, j)
        assert str(exc.value).startswith("index entry out of range [1,3]")
    # n = 0 admits no index at all; the range is not unbounded
    with pytest.raises(SchemaError, match=r"^index entry out of range \[1,0\]: 1$"):
        haar_moment(O_PLUS, 0, (1, 1), (1, 1))
    assert haar_moment(O_PLUS, 3, (3, 3), (2, 2)) == Fraction(1, 3)


def test_haar_row_sums_are_orthogonality():
    # sum_j h(u_1j u_1j) = 1 since the row of u is a unit vector
    n = 5
    total = sum(haar_moment(O_PLUS, n, (1, 1), (j, j)) for j in range(1, n + 1))
    assert total == 1


def test_wg_scaled_examples():
    pair1 = parse_partition("0,0,1,1")
    pair2 = parse_partition("0,1,1,0")
    assert wg_scaled(O_PLUS, 2, 5, pair1, pair1) == Fraction(25, 24)
    assert wg_scaled(O_PLUS, 2, 5, pair1, pair2) == Fraction(-5, 24)
    for n in (2, 3, 10):
        assert wg_scaled(O_PLUS, 1, n, one_block(2), one_block(2)) == 1


def test_matrix_json_shape():
    doc = matrix_json(weingarten(O_PLUS, 4, 5))
    assert doc == {
        "category": "o+",
        "m": 4,
        "n": 5,
        "basis": ["0,0,1,1", "0,1,1,0"],
        "entries": [["1/24", "-1/120"], ["-1/120", "1/24"]],
    }
    empty = matrix_json(weingarten(O_PLUS, 3, 5))
    assert empty["basis"] == [] and empty["entries"] == []


def test_disk_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    weingarten.cache_clear()
    first = weingarten(S_PLUS, 3, 4)
    path = tmp_path / "s+_3_4.json"
    assert path.exists()
    weingarten.cache_clear()
    parsed = []
    real_parse = rationals.parse_rational
    monkeypatch.setattr(rationals, "parse_rational", lambda v: parsed.append(v) or real_parse(v))
    second = weingarten(S_PLUS, 3, 4)
    monkeypatch.setattr(rationals, "parse_rational", real_parse)
    assert second.entries == first.entries and second.basis == first.basis
    # each distinct entry string of the file is parsed once, and equal ones share a Fraction
    texts = [format_rational(v) for row in first.entries for v in row]
    assert sorted(parsed) == sorted(set(texts)) and len(parsed) < len(texts)
    flat = [v for row in second.entries for v in row]
    assert all(flat[texts.index(t)] is v for t, v in zip(texts, flat))
    weingarten.cache_clear()
    # a corrupt cache entry is ignored and rebuilt
    path.write_text("not json")
    third = weingarten(S_PLUS, 3, 4)
    assert third.entries == first.entries
    weingarten.cache_clear()


def test_a_cache_entry_that_cannot_be_replaced_leaves_no_temporary_file(tmp_path, monkeypatch):
    # a directory where the entry belongs: it is neither read nor replaced,
    # and the temporary file written beside it is removed
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    weingarten.cache_clear()
    want = weingarten(S_PLUS, 3, 4)
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    (tmp_path / "s+_3_4.json").mkdir()
    weingarten.cache_clear()
    got = weingarten(S_PLUS, 3, 4)
    assert got is not want and (got.D, got.num) == (want.D, want.num)
    assert [p.name for p in tmp_path.iterdir()] == ["s+_3_4.json"] and (tmp_path / "s+_3_4.json").is_dir()
    weingarten.cache_clear()


def test_loaded_table_holds_the_computed_integer_form(tmp_path, monkeypatch):
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    for cat, m, n in ((S_PLUS, 4, 5), (O_PLUS, 6, 3), (B_PLUS, 5, 4), (O_PLUS, 3, 4)):
        weingarten.cache_clear()
        computed = weingarten(cat, m, n)
        weingarten.cache_clear()
        loaded = weingarten(cat, m, n)
        assert loaded is not computed
        assert (loaded.D, loaded.num) == (computed.D, computed.num), (cat, m, n)
        assert gcd(loaded.D, *(x for row in loaded.num for x in row)) == 1
        assert loaded.entries == computed.entries
    weingarten.cache_clear()


def test_cache_file_of_the_wrong_shape_is_rebuilt(tmp_path, monkeypatch):
    # the exact product check alone would accept a trailing row or column
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    weingarten.cache_clear()
    want = weingarten(S_PLUS, 3, 4)
    path = tmp_path / "s+_3_4.json"
    good = json.loads(path.read_text())
    size = len(good["basis"])
    for entries in (
        good["entries"] + [["0/1"] * size],
        [row + ["0/1"] for row in good["entries"]],
        good["entries"][:-1],
    ):
        path.write_text(json.dumps(dict(good, entries=entries)))
        weingarten.cache_clear()
        got = weingarten(S_PLUS, 3, 4)
        assert (got.D, got.num) == (want.D, want.num)
        assert json.loads(path.read_text()) == good
    weingarten.cache_clear()


def test_tables_are_integers_over_one_denominator(monkeypatch):
    g = gram(S_PLUS, 4, 3)
    assert g.D == 1 and all(type(x) is int for row in g.entries for x in row)
    wg = weingarten(S_PLUS, 4, 3)
    assert wg.entries is wg.entries
    flat = [x for row in wg.num for x in row]
    shared = {}
    for x, v in zip(flat, (v for row in wg.entries for v in row)):
        assert v == Fraction(x, wg.D) and shared.setdefault(x, v) is v
    # matrix_json formats each distinct value once
    calls = []
    monkeypatch.setattr(rationals, "format_rational", lambda v: calls.append(v) or format_rational(v))
    doc = matrix_json(wg)
    assert len(calls) == len(set(flat))
    assert doc["entries"] == [[format_rational(v) for v in row] for row in wg.entries]


def test_weingarten_process_cache():
    a = weingarten(S_PLUS, 4, 5)
    assert weingarten(S_PLUS, 4, 5) is a


def test_size_guard_raises_before_allocating(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    categories.incidence.cache_clear()
    weingarten.cache_clear()
    # |C(6)| = 132 for s+
    monkeypatch.setattr(wg_module, "DENSE_GUARD", 132 * 132 - 1)
    for build in (gram, weingarten):
        with pytest.raises(TableTooLarge):
            build(S_PLUS, 6, 4)
    with pytest.raises(TableTooLarge):
        haar_moment(S_PLUS, 4, (1,) * 6, (1,) * 6)
    # the (s+, 6, 4) incidence index was never built
    assert categories.incidence.cache_info().currsize == 0 and weingarten.cache_info().currsize == 0
    monkeypatch.setattr(wg_module, "DENSE_GUARD", 132 * 132)
    assert len(gram(S_PLUS, 6, 4).basis) == 132


def test_size_guard_comes_before_the_disk_cache(tmp_path, monkeypatch):
    # a valid cache entry is still refused once the guard is lowered
    monkeypatch.setenv("FREEDF_CACHE_DIR", str(tmp_path))
    weingarten.cache_clear()
    weingarten(S_PLUS, 4, 3)
    assert (tmp_path / "s+_4_3.json").exists()
    weingarten.cache_clear()
    # |C(4)| = 14 for s+
    monkeypatch.setattr(wg_module, "DENSE_GUARD", 14 * 14 - 1)
    with pytest.raises(TableTooLarge):
        weingarten(S_PLUS, 4, 3)
    assert weingarten.cache_info().currsize == 0


def test_negative_n_is_refused():
    # every entry point passes through the one guard of weingarten.py
    pair = one_block(2)
    for n, call in (
        (-1, lambda: gram(O_PLUS, 2, -1)),
        (-1, lambda: weingarten(O_PLUS, 2, -1)),
        (-1, lambda: verify_inverse(O_PLUS, 2, -1)),
        (-1, lambda: wg_scaled(O_PLUS, 1, -1, pair, pair)),
        (-1, lambda: haar_moment(O_PLUS, -1, (), ())),
        (-3, lambda: gram(S_PLUS, 0, -3)),
    ):
        with pytest.raises(SchemaError) as exc:
            call()
        assert str(exc.value) == "n must be a nonnegative integer, got %d" % n


def test_n_zero_keeps_its_results():
    for cat in ALL_CATS:
        assert gram(cat, 0, 0).num == [[1]] and weingarten(cat, 0, 0).num == [[1]]
        for m in (2, 4):
            g = gram(cat, m, 0)
            assert g.num == [[0] * len(g.basis) for _ in g.basis] and g.basis
            with pytest.raises(SingularGram):
                weingarten(cat, m, 0)


# The list-based kernels that the packed-row _inverse_mod and
# _times_is_scalar replaced, kept as references for them.


def reference_inverse_mod(A, p):
    """Gauss-Jordan modulo p without pivoting, one Python op per entry."""
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


def reference_times_is_scalar(A, num, D):
    """A * num == D * I, one column-sum vector per distinct value of a row of A."""
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


BIG_PRIMES = list(islice(_primes(), 2))
TEST_PRIMES = BIG_PRIMES + [2, 3, 5, 65537]


@st.composite
def integer_matrices(draw):
    """Square, in general non-symmetric integer matrices with entries up
    to 2^90 in size and some exact multiples of the prime."""
    p = draw(st.sampled_from(TEST_PRIMES))
    size = draw(st.integers(min_value=0, max_value=12))
    entry = st.one_of(
        st.integers(min_value=-(2 ** 90), max_value=2 ** 90),
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-(2 ** 30), max_value=2 ** 30).map(lambda t: t * p),
    )
    rows = st.lists(entry, min_size=size, max_size=size)
    return p, draw(st.lists(rows, min_size=size, max_size=size))


@settings(deadline=None, max_examples=300)
@given(integer_matrices())
def test_packed_inverse_mod_matches_reference(case):
    p, A = case
    assert _inverse_mod(A, p) == reference_inverse_mod(A, p)


@settings(deadline=None, max_examples=200)
@given(integer_matrices(), st.data())
def test_packed_inverse_mod_stops_at_the_same_step(case, data):
    # row k restricted to columns 0..k is a combination of the rows above
    # it, so the leading minor of order k+1 is zero and elimination stops
    # at step k at the latest
    p, A = case
    if not A:
        return
    k = data.draw(st.integers(min_value=0, max_value=len(A) - 1))
    coef = data.draw(st.lists(st.integers(min_value=-(2 ** 40), max_value=2 ** 40), min_size=k, max_size=k))
    for j in range(k + 1):
        A[k][j] = sum(c * A[i][j] for i, c in zip(range(k), coef))
    step, inv = _inverse_mod(A, p)
    assert inv is None and step <= k
    assert (step, inv) == reference_inverse_mod(A, p)


def test_packed_inverse_mod_on_gram_matrices():
    # N = 132 for both; the 62-bit primes complete, p = 2 stops early
    for cat, m, n in ((S_PLUS, 6, 4), (O_PLUS, 12, 3)):
        A = gram(cat, m, n).num
        assert len(A) == 132
        for p in TEST_PRIMES:
            got = _inverse_mod(A, p)
            assert got == reference_inverse_mod(A, p), (cat, p)
            assert got[1] is not None or p not in BIG_PRIMES, (cat, p)
        assert _inverse_mod(A, 2)[1] is None


GRAM_CASES = ((S_PLUS, 6, 4), (O_PLUS, 12, 3), (B_PLUS, 5, 3), (H_PLUS, 4, 2))


def _inverse_cases():
    """(A, (D, num), key): random integer matrices with key None, then Gram
    matrices keyed by (cat, m, n)."""
    rng = random.Random(9)
    for size, bits in ((1, 3), (2, 90), (3, 40), (5, 90), (8, 20), (12, 90)):
        A = [[rng.randint(-(2 ** bits), 2 ** bits) for _ in range(size)] for _ in range(size)]
        got = generic_inverse(A)
        if got is not None:
            yield A, got, None
    for key in GRAM_CASES:
        yield gram(*key).num, gram_inverse(*key), key


def corruptions(A, num, D, rng):
    """(D, num) pairs that differ from a true inverse (D, num) of A in one way
    each; A is nonsingular, so every one of them must be rejected."""
    size = len(num)
    r, c = rng.randrange(size), rng.randrange(size)

    def changed(*edits):
        out = [list(row) for row in num]
        for rr, cc, dv in edits:
            out[rr][cc] += dv
        return out

    for dv in (1, -1, 2 ** rng.randint(1, 200), -(2 ** rng.randint(1, 200))):
        yield D, changed((r, c, dv))
    for bad in (D + 1, D - 1, -D, 2 * D):
        yield bad, num
    # a carry between adjacent slots: +2^w in one entry, -1 in the next,
    # for every slot width w near the one the true inverse packs into
    top = max(map(abs, chain.from_iterable(A))) * max(map(abs, chain.from_iterable(num)))
    bits = (size * top + D).bit_length()
    for w in range(max(1, bits - 16), bits + 24):
        rr, cc = rng.randrange(size), rng.randrange(size)
        if cc + 1 < size:
            yield D, changed((rr, cc, 2 ** w), (rr, cc + 1, -1))
            yield D, changed((rr, cc, -(2 ** w)), (rr, cc + 1, 1))
        if rr + 1 < size:
            yield D, changed((rr, cc, 2 ** w), (rr + 1, cc, -1))


def test_packed_check_accepts_inverses_and_rejects_corruptions():
    rng = random.Random(11)
    for A, (D, num), key in _inverse_cases():
        assert _times_is_scalar(A, num, D) and reference_times_is_scalar(A, num, D)
        assert key is None or _is_gram_inverse(*key, num, D)
        for bad_D, bad in corruptions(A, num, D, rng):
            # the list-based reference is too slow to rerun on every Gram case
            assert len(A) > 12 or not reference_times_is_scalar(A, bad, bad_D)
            assert not _times_is_scalar(A, bad, bad_D), (len(A), bad_D)
            assert key is None or not _is_gram_inverse(*key, bad, bad_D), (key, bad_D)


def test_factored_check_matches_the_dense_check():
    # random perturbations of a true inverse, some of them still true
    rng = random.Random(13)
    for key in GRAM_CASES + ((S_PLUS, 0, 2), (B_PLUS, 3, 0), (O_PLUS, 6, 2)):
        A = gram(*key).num
        D, num = gram_inverse(*key) or (1, [[0] * len(A) for _ in A])
        for changes in (0, 1, 1, 2, 2, 3):
            bad = [list(row) for row in num]
            for _ in range(changes):
                bad[rng.randrange(len(A))][rng.randrange(len(A))] += rng.choice((1, -1, D))
            assert _is_gram_inverse(*key, bad, D) == _times_is_scalar(A, bad, D), (key, changes)


def test_packed_kernels_on_the_empty_basis():
    # C(m) is empty for o+ and h+ at odd m
    for p in TEST_PRIMES:
        assert _inverse_mod([], p) == (0, [])
    assert _times_is_scalar([], [], 1) and generic_inverse([]) == (1, [])
    for cat in (O_PLUS, H_PLUS):
        assert gram(cat, 3, 4).num == [] and verify_inverse(cat, 3, 4)
        assert _is_gram_inverse(cat, 3, 4, [], 1) and gram_inverse(cat, 3, 4) == (1, [])


def chebyshev_u(j, n):
    """U_j(n) with U_0 = 1, U_1 = n, U_{j+1} = n U_j - U_{j-1}."""
    a, b = 1, n
    for _ in range(j):
        a, b = b, n * b - a
    return a


def meander_determinant(k, n):
    """det G(o+, 2k, n) by Di Francesco's formula: the product over
    j = 1..k of U_j(n)^a(k, j), with a(k, j) = C(2k, k-j) - 2 C(2k, k-j-1)
    + C(2k, k-j-2)."""

    def c(r):
        return comb(2 * k, r) if r >= 0 else 0

    return prod(chebyshev_u(j, n) ** (c(k - j) - 2 * c(k - j - 1) + c(k - j - 2)) for j in range(1, k + 1))


def bareiss_determinant(A):
    """Fraction-free elimination with row swaps; exact for singular A too."""
    a = [list(row) for row in A]
    sign, prev = 1, 1
    for k in range(len(a)):
        pivot = next((i for i in range(k, len(a)) if a[i][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            sign = -sign
        for i in range(k + 1, len(a)):
            for j in range(k + 1, len(a)):
                a[i][j] = (a[k][k] * a[i][j] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * prev


def test_meander_determinant_of_the_o_plus_gram_matrix():
    assert [meander_determinant(2, n) for n in (1, 2, 3)] == [n * n * (n * n - 1) for n in (1, 2, 3)]
    singular = set()
    for k in range(1, 6):
        for n in range(1, 6):
            det = bareiss_determinant(gram(O_PLUS, 2 * k, n).num)
            assert det == meander_determinant(k, n), (k, n)
            if det == 0:
                singular.add(("o+", 2 * k, n))
    # U_2(1) = 0, so at n = 1 every k >= 2 is singular, as SINGULAR_SMALL
    # records for m <= 6; no other (k, n) here is
    assert {s for s in singular if s[1] <= 6} == {s for s in SINGULAR_SMALL if s[0] == "o+"}
    assert singular == {("o+", 2 * k, 1) for k in range(2, 6)}


# The rotation-block route of weingarten() against the full elimination,
# which stays in _ff_inverse as its fallback and serves as its oracle.

rotation_module = importlib.import_module("freedf.rotation")


def block_oracle_cases():
    """All four categories at m <= 8 (s+ at m <= 7: its m = 8 full route
    takes tens of seconds), with m = 0, the empty odd-m bases of o+ and h+
    and every SINGULAR_SMALL case among them."""
    for cat in ALL_CATS:
        for m in range(8 if cat is S_PLUS else 9):
            for n in (1, 2, 3, 4, 7) if m <= 6 else (1, 4):
                yield cat, m, n


def test_block_route_matches_the_full_route(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    p = next(_primes())
    singular = set()
    for cat, m, n in block_oracle_cases():
        g = gram(cat, m, n)
        if m > 1 and g.basis:
            # one prime first: a wrong block route fails here instead of
            # sending weingarten() through prime after prime
            rot = rotation_module.rotation(cat, m)
            full = _inverse_mod(g.num, p)[1]
            got = rot.inverse_rows(g.num, p)
            assert got == (full and [full[c] for c in rot.reps]), (cat, m, n)
        want = gram_inverse(cat, m, n)
        weingarten.cache_clear()
        if want is None:
            singular.add((cat.value, m, n))
            with pytest.raises(SingularGram):
                weingarten(cat, m, n)
        else:
            wg = weingarten(cat, m, n)
            assert (wg.D, wg.num) == want, (cat, m, n)
    assert SINGULAR_SMALL <= singular


def test_weingarten_is_invariant_under_reflection():
    # the blocks use rotations only; i -> m-1-i is an independent symmetry
    for cat, m, n in ((S_PLUS, 6, 4), (S_PLUS, 7, 5), (B_PLUS, 7, 3), (H_PLUS, 8, 3), (O_PLUS, 10, 2)):
        wg = weingarten(cat, m, n)
        where = {q: x for x, q in enumerate(wg.basis)}
        mirror = [where[relabel(q[::-1])] for q in wg.basis]
        assert sorted(mirror) == list(range(len(mirror))) and mirror != list(range(len(mirror)))
        assert all(wg.num[mirror[x]][mirror[y]] == v for x, row in enumerate(wg.num) for y, v in enumerate(row))


def test_primes_are_one_mod_every_order_up_to_the_caps():
    primes = list(islice(_primes(), 40))
    rng = random.Random(3)
    for k, p in enumerate(primes):
        assert p < 2 ** 62 and p % 27720 == 1 and (k == 0 or p < primes[k - 1])
        # Fermat on random bases, independently of _is_prime's fixed ones
        assert all(pow(rng.randrange(2, p - 1), p - 1, p) == 1 for _ in range(8))
    # _is_prime itself, against a sieve
    sieve = [True] * 30000
    sieve[0] = sieve[1] = False
    for q in range(2, 174):
        if sieve[q]:
            sieve[q * q::q] = [False] * len(range(q * q, 30000, q))
    assert [q for q in range(2, 30000) if wg_module._is_prime(q)] == [q for q in range(30000) if sieve[q]]


def test_a_block_stop_falls_back_to_the_full_elimination(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    calls = {"block": 0, "full": 0}
    block_inverse, full_inverse = rotation_module._inverse_mod, wg_module._inverse_mod

    def block(A, p):
        calls["block"] += 1
        # the second block elimination of the call stops at its first step
        return (0, None) if calls["block"] == 2 else block_inverse(A, p)

    def full(A, p):
        calls["full"] += 1
        return full_inverse(A, p)

    monkeypatch.setattr(rotation_module, "_inverse_mod", block)
    monkeypatch.setattr(wg_module, "_inverse_mod", full)
    for cat, m, n in ((S_PLUS, 6, 4), (O_PLUS, 12, 3), (B_PLUS, 7, 3)):
        want = gram_inverse(cat, m, n)
        calls.update(block=0, full=0)
        weingarten.cache_clear()
        wg = weingarten(cat, m, n)
        assert (wg.D, wg.num) == want and calls["full"] == 1, (cat, m, n)
    # a singular matrix: after the first full elimination stops, no prime
    # tries the blocks again
    monkeypatch.setattr(rotation_module, "_inverse_mod", block_inverse)
    tries = []
    inverse_rows = rotation_module.Rotation.inverse_rows
    monkeypatch.setattr(rotation_module.Rotation, "inverse_rows", lambda *a: tries.append(1) or inverse_rows(*a))
    weingarten.cache_clear()
    with pytest.raises(SingularGram):
        weingarten(S_PLUS, 7, 3)
    assert len(tries) == 1


# The certificate of a block-route candidate: each representative row is
# fixed by its stabiliser, so the filled candidate num is rotation-invariant,
# and so is G num - D I; zero on the representative columns, it is zero.


def rep_verdict(cat, m, n, rows, D):
    """The acceptance test of _ff_inverse for a candidate given by its rows
    at the rotation orbit representatives."""
    rot = rotation_module.rotation(cat, m)
    return rot.invariant(rows) and _is_gram_inverse(cat, m, n, rot.fill(rows), D, rot.reps)


def rotation_orbits(basis):
    """orbit[x]: the indices of r^u x for u < L_x, found by relabelling each
    rotated partition, independently of rotation.py."""
    index = {p: x for x, p in enumerate(basis)}
    step = [index[relabel(p[-1:] + p[:-1])] for p in basis]
    orbits = []
    for x in range(len(basis)):
        orbit = [x]
        while step[orbit[-1]] != x:
            orbit.append(step[orbit[-1]])
        orbits.append(orbit)
    return orbits


def off_stabiliser_pair(cat, m, reps):
    """(c, y, z) with c a representative of orbit length L_c < m and
    z = r^(L_c) y != y, such that no r^u y with u < 2 L_c is a representative.
    Moving W[c][y] up and W[c][z] down by the same amount then leaves the
    representative columns of the filled matrix unchanged."""
    orbits = rotation_orbits(enumerate_category(cat, m))
    for c in reps:
        L = len(orbits[c])
        for y, orbit in enumerate(orbits):
            path = [orbit[u % len(orbit)] for u in range(2 * L)]
            if L < m and path[L] != y and not set(path) & set(reps):
                return c, y, path[L]
    return None


def certificate_cases():
    """All four categories at 2 <= m <= 8 (s+ at m <= 7), n in {1, 2, 3, 4, 7},
    with a nonempty basis."""
    for cat in ALL_CATS:
        for m in range(2, 8 if cat is S_PLUS else 9):
            if enumerate_category(cat, m):
                for n in (1, 2, 3, 4, 7):
                    yield cat, m, n


def test_representative_columns_decide_as_the_full_check(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    rng = random.Random(23)
    checked = 0
    for cat, m, n in certificate_cases():
        try:
            wg = weingarten(cat, m, n)
        except SingularGram:
            continue
        rot = rotation_module.rotation(cat, m)
        rows = [wg.num[c] for c in rot.reps]
        k, size, D = len(rows), len(wg.num), wg.D

        def changed(*edits):
            out = [list(row) for row in rows]
            for a, y, dv in edits:
                out[a][y] += dv
            return out

        candidates = [(D, rows, True), (2 * D, [[2 * x for x in row] for row in rows], True)]
        candidates += [(bad, rows, False) for bad in (D + 1, D - 1, -D)]
        for dv in (1, -1, D, 2 ** rng.randint(1, 100)):
            candidates.append((D, changed((rng.randrange(k), rng.randrange(size), dv)), False))
        pair = off_stabiliser_pair(cat, m, rot.reps)
        if pair:
            c, y, z = pair
            a = rot.reps.index(c)
            candidates.append((D, changed((a, y, 1), (a, z, -1)), False))
        for bad_D, cand, want in candidates:
            full = _is_gram_inverse(cat, m, n, rot.fill(cand), bad_D)
            assert full == want and rep_verdict(cat, m, n, cand, bad_D) == want, (cat, m, n, bad_D)
        checked += 1
    assert checked >= 40


def corrupted_inverse_rows(rows, D, calls):
    """A stand-in for Rotation.inverse_rows: the residues of rows / D at every
    prime, counted in calls."""

    def inverse_rows(self, A, p):
        calls.append(p)
        inv = pow(D, -1, p)
        return [[x * inv % p for x in row] for row in rows]

    return inverse_rows


def primes_past(bound):
    """The number of primes of the fixed sequence whose product first exceeds bound."""
    P = 1
    for k, p in enumerate(_primes(), 1):
        P *= p
        if P > bound:
            return k


def test_a_row_off_its_stabiliser_passes_the_columns_alone(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    for cat, m, n in ((S_PLUS, 6, 4), (O_PLUS, 12, 3), (H_PLUS, 8, 3)):
        wg = weingarten(cat, m, n)
        rot = rotation_module.rotation(cat, m)
        c, y, z = off_stabiliser_pair(cat, m, rot.reps)
        assert rot.stab[rot.reps.index(c)] > 1 and y not in rot.reps and z not in rot.reps
        # W with only row c moved: the representative columns still hold
        bad = [list(row) for row in wg.num]
        bad[c][y] += 1
        bad[c][z] -= 1
        assert _is_gram_inverse(cat, m, n, bad, wg.D, rot.reps)
        assert not _is_gram_inverse(cat, m, n, bad, wg.D)
        assert not rot.invariant([bad[x] for x in rot.reps])
        # filled by rotation, the moved row keeps the representative columns
        # too, so only the stabiliser test can reject it: residues of this
        # candidate at every prime end in UncertifiedInverse
        rows = [bad[x] for x in rot.reps]
        assert _is_gram_inverse(cat, m, n, rot.fill(rows), wg.D, rot.reps)
        assert not _is_gram_inverse(cat, m, n, rot.fill(rows), wg.D)
        calls = []
        A = gram(cat, m, n).num
        with monkeypatch.context() as mp:
            mp.setattr(rotation_module.Rotation, "inverse_rows", corrupted_inverse_rows(rows, wg.D, calls))
            with pytest.raises(UncertifiedInverse):
                _ff_inverse(A, partial(_is_gram_inverse, cat, m, n), rot)
        assert len(calls) == primes_past(2 * wg_module._hadamard_sq(A, len(A))), (cat, m, n)


def test_wrong_residues_stop_past_the_hadamard_bound(monkeypatch):
    monkeypatch.delenv("FREEDF_CACHE_DIR", raising=False)
    for cat, m, n in ((O_PLUS, 4, 2), (S_PLUS, 5, 4), (B_PLUS, 6, 3)):
        wg = weingarten(cat, m, n)
        rot = rotation_module.rotation(cat, m)
        rows = [list(wg.num[c]) for c in rot.reps]
        rows[0][-1] += 1  # one wrong entry
        A = gram(cat, m, n).num
        limit = primes_past(2 * wg_module._hadamard_sq(A, len(A)))
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(rotation_module.Rotation, "inverse_rows", corrupted_inverse_rows(rows, wg.D, calls))
            with pytest.raises(UncertifiedInverse):
                _ff_inverse(A, partial(_is_gram_inverse, cat, m, n), rot)
            assert len(calls) == limit, (cat, m, n)
            # the same through weingarten(), as a typed error
            weingarten.cache_clear()
            with pytest.raises(UncertifiedInverse) as err:
                weingarten(cat, m, n)
        assert isinstance(err.value, FreedfError) and err.value.payload()["error"] == "uncertified-inverse"
        weingarten.cache_clear()
        assert (weingarten(cat, m, n).D, weingarten(cat, m, n).num) == (wg.D, wg.num)
