import collections
import itertools

import pytest

from freedf import categories, partitions
from freedf.categories import (
    B_PLUS,
    GENERAL_CAP,
    H_PLUS,
    O_PLUS,
    PAIRING_CAP,
    S_PLUS,
    CategoryId,
    c_leq,
    c_leq_kernel,
    category_contains,
    enumerate_category,
    parse_category,
)
from freedf.errors import OrderTooLarge, UnknownCategory
from freedf.partitions import Partition, canonicalize, enumerate_partitions, is_noncrossing, kernel, leq, parse_partition

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def brute_member(cat, p):
    if not is_noncrossing(p):
        return False
    sizes = collections.Counter(p).values()
    if cat is O_PLUS:
        return all(s == 2 for s in sizes)
    if cat is H_PLUS:
        return all(s % 2 == 0 for s in sizes)
    if cat is B_PLUS:
        return all(s <= 2 for s in sizes)
    return True


def brute_pairings(m):
    # every perfect matching of range(m), crossing or not
    if m % 2:
        return []
    out = []

    def rec(free, pairs):
        if not free:
            out.append(pairs[:])
            return
        a = free[0]
        for idx in range(1, len(free)):
            b = free[idx]
            rest = free[1:idx] + free[idx + 1:]
            pairs.append((a, b))
            rec(rest, pairs)
            pairs.pop()

    rec(list(range(m)), [])
    result = []
    for pairs in out:
        labels = [0] * m
        for lab, (a, b) in enumerate(pairs):
            labels[a] = labels[b] = lab
        result.append(kernel(labels))
    return result


def test_parse_category():
    assert parse_category("o+") is O_PLUS
    assert parse_category("s+") is S_PLUS
    assert parse_category("h+") is H_PLUS
    assert parse_category("b+") is B_PLUS
    assert parse_category(O_PLUS) is O_PLUS
    assert isinstance(O_PLUS, CategoryId)


def test_parse_category_unknown():
    with pytest.raises(UnknownCategory):
        parse_category("x+")
    for tag in ("s'+", "b'+", "b#"):
        with pytest.raises(UnknownCategory) as exc:
            parse_category(tag)
        assert "classification" in str(exc.value)
    for m in (0, 3):  # a tag is not a category, at m = 0 too
        with pytest.raises(UnknownCategory):
            enumerate_category("s+", m)


def test_contains_examples():
    assert category_contains(O_PLUS, parse_partition("0,1,1,0"))
    assert not category_contains(O_PLUS, parse_partition("0,1,0,1"))
    assert category_contains(H_PLUS, parse_partition("0,0,0,0"))
    assert not category_contains(H_PLUS, parse_partition("0,0,0"))
    assert category_contains(B_PLUS, parse_partition("0,1,1"))
    assert category_contains(S_PLUS, parse_partition("0,0,1"))
    assert not category_contains(S_PLUS, parse_partition("0,1,0,1"))


def test_contains_matches_brute_force():
    for cat in ALL_CATS:
        for m in range(1, 8):
            for p in enumerate_partitions(m):
                assert category_contains(cat, p) == brute_member(cat, p)


def test_contains_any_labels():
    # the partition the labels describe, in every category alike
    for cat in ALL_CATS:
        for labels in ((1, 1), (0, 2, 2, 0), (5,), (3, 7, 3, 7), (4, 4, 9, 9, 9, 4)):
            assert category_contains(cat, labels) == category_contains(cat, canonicalize(labels)), (cat, labels)
    assert category_contains(O_PLUS, (0, 2, 2, 0)) and not category_contains(O_PLUS, (5,))


def test_enumerate_is_filter_of_p_m_up_to_the_caps():
    # the filter of P(m) is the oracle of the first-block recursion, order included
    for cat in ALL_CATS:
        for m in range(1, GENERAL_CAP + 1):
            assert enumerate_category(cat, m) == [p for p in enumerate_partitions(m) if category_contains(cat, p)], (cat, m)


def test_enumerate_builds_no_p_m(monkeypatch):
    def refuse(m, *args, **kwargs):
        raise AssertionError("P(%d) built" % m)

    monkeypatch.setattr(partitions, "_partitions", refuse)
    categories._category.cache_clear()
    try:
        assert len(enumerate_category(O_PLUS, PAIRING_CAP)) == 132
        counts = {S_PLUS: 16796, H_PLUS: 273, B_PLUS: 2188}
        for cat, count in counts.items():
            assert len(enumerate_category(cat, GENERAL_CAP)) == count
    finally:
        categories._category.cache_clear()


def test_enumerate_examples():
    assert enumerate_category(S_PLUS, 4) == [
        p for p in enumerate_partitions(4) if is_noncrossing(p)
    ]
    assert len(enumerate_category(S_PLUS, 4)) == 14
    assert enumerate_category(O_PLUS, 4) == [
        parse_partition("0,0,1,1"),
        parse_partition("0,1,1,0"),
    ]
    assert enumerate_category(O_PLUS, 3) == []
    assert enumerate_category(B_PLUS, 2) == [parse_partition("0,0"), parse_partition("0,1")]
    assert enumerate_category(O_PLUS, 0) == [Partition()]
    assert enumerate_category(S_PLUS, 0) == [Partition()]


def test_enumerate_counts():
    # Catalan for s+ and for o+ at order 2k, Motzkin for b+
    catalan = [1, 1, 2, 5, 14, 42, 132, 429]
    for m in range(1, 8):
        assert len(enumerate_category(S_PLUS, m)) == catalan[m]
    for k in range(1, 7):
        assert len(enumerate_category(O_PLUS, 2 * k)) == catalan[k]
        assert len(enumerate_category(O_PLUS, 2 * k - 1)) == 0
    motzkin = [1, 1, 2, 4, 9, 21, 51, 127]
    for m in range(1, 8):
        assert len(enumerate_category(B_PLUS, m)) == motzkin[m]
    assert [len(enumerate_category(H_PLUS, m)) for m in range(1, 7)] == [0, 1, 0, 3, 0, 12]


def test_enumerate_pairings_against_brute_force():
    for m in range(2, PAIRING_CAP + 1):
        want = sorted(p for p in set(brute_pairings(m)) if is_noncrossing(p))
        assert enumerate_category(O_PLUS, m) == want


def test_enumerate_order_and_caching():
    for cat in ALL_CATS:
        for m in range(1, 7):
            ps = enumerate_category(cat, m)
            assert ps == sorted(ps)
        assert enumerate_category(cat, 4) == enumerate_category(cat, 4)


def test_enumerate_caps():
    assert len(enumerate_category(O_PLUS, PAIRING_CAP)) == 132
    with pytest.raises(OrderTooLarge):
        enumerate_category(O_PLUS, PAIRING_CAP + 2)
    with pytest.raises(OrderTooLarge):
        enumerate_category(S_PLUS, GENERAL_CAP + 1)
    with pytest.raises(OrderTooLarge):  # however small the blocks of ker i
        c_leq(S_PLUS, range(1, GENERAL_CAP + 2))


def test_c_leq_examples():
    assert c_leq(O_PLUS, (1, 2, 1, 2)) == []
    assert c_leq(O_PLUS, (1, 1, 2, 2)) == [parse_partition("0,0,1,1")]
    assert c_leq(S_PLUS, (1, 1)) == [parse_partition("0,0"), parse_partition("0,1")]
    tau = kernel((1, 1, 2, 2))
    assert c_leq_kernel(O_PLUS, tau) == c_leq(O_PLUS, (1, 1, 2, 2))


def test_c_leq_is_brute_filter():
    for cat in ALL_CATS:
        for i in itertools.product((1, 2, 3), repeat=4):
            want = [p for p in enumerate_category(cat, 4) if leq(p, kernel(i))]
            assert c_leq(cat, i) == want
        for m in range(8):  # every partition, crossing or not, up to m = 7
            for tau in enumerate_partitions(m) if m else [Partition()]:
                want = [p for p in enumerate_category(cat, m) if leq(p, tau)]
                got = c_leq_kernel(cat, tau)
                assert got == want and all(type(p) is Partition for p in got), (cat, tau)
