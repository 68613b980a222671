import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from freedf import partitions
from freedf.errors import BadSubset, EmptyInput, OrderTooLarge, SchemaError, SizeMismatch
from freedf.partitions import (
    Partition,
    canonicalize,
    enumerate_partitions,
    format_blocks,
    is_noncrossing,
    join,
    join_num_blocks,
    kernel,
    kernel_classes,
    leq,
    num_blocks,
    one_block,
    parse_index_tuple,
    parse_partition,
    render_index_tuple,
    render_partition,
    restrict,
    singletons,
)


def brute_noncrossing(p):
    # the quadruple definition, O(m^4)
    m = len(p)
    for i, j, k, l in itertools.combinations(range(m), 4):
        if p[i] == p[k] and p[j] == p[l] and p[i] != p[j]:
            return False
    return True


def test_parse_and_blocks():
    p = parse_partition("0,0,1,0")
    assert p == (0, 0, 1, 0)
    assert format_blocks(p) == "{{1,2,4},{3}}"
    assert format_blocks(()) == format_blocks(Partition(())) == "{}"
    assert repr(p) == "Partition(0,0,1,0)" and repr(Partition(())) == "Partition(empty)"
    assert parse_partition("5,5,2,5") == (0, 0, 1, 0)
    q = parse_partition("0,1,2")
    assert q.num_blocks == 3
    assert q == singletons(3)


def test_parse_partition_errors():
    with pytest.raises(EmptyInput):
        parse_partition("")
    with pytest.raises(EmptyInput):
        parse_partition(None)
    with pytest.raises(SchemaError):
        parse_partition("0,x")
    with pytest.raises(SchemaError):
        parse_partition("0,-1")


def test_partition_rejects_non_canonical():
    with pytest.raises(ValueError):
        Partition((1, 0))
    with pytest.raises(ValueError):
        Partition((0, 2))


def test_render_round_trip():
    for p in enumerate_partitions(4):
        assert parse_partition(render_partition(p)) == p
        assert str(p) == render_partition(p)


def test_noncrossing_minimal_cases():
    assert not is_noncrossing(Partition((0, 1, 0, 1)))
    assert is_noncrossing(Partition((0, 1, 1, 0)))
    assert is_noncrossing(Partition(()))
    assert is_noncrossing(one_block(5))


def test_noncrossing_count_m4():
    ps = enumerate_partitions(4)
    assert len(ps) == 15
    assert sum(1 for p in ps if is_noncrossing(p)) == 14


def test_noncrossing_matches_brute_force():
    for m in range(1, 7):
        for p in enumerate_partitions(m):
            assert is_noncrossing(p) == brute_noncrossing(p), p


def test_leq_examples():
    assert leq(parse_partition("0,0,1"), parse_partition("0,0,0"))
    assert not leq(parse_partition("0,1,0"), parse_partition("0,0,1"))
    top = one_block(4)
    for q in enumerate_partitions(4):
        assert leq(singletons(4), q)
        assert leq(top, q) == (q == top)
    with pytest.raises(SizeMismatch):
        leq(singletons(2), singletons(3))


def test_join_examples():
    p = parse_partition("0,0,1,1")
    q = parse_partition("0,1,1,2")
    assert join(p, q) == one_block(4)
    for r in enumerate_partitions(4):
        assert join(r, r) == r
        assert join(r, singletons(4)) == r
    with pytest.raises(SizeMismatch):
        join(singletons(2), singletons(3))


def test_join_is_least_upper_bound():
    for m in range(1, 6):
        ps = enumerate_partitions(m)
        for p in ps:
            for q in ps:
                j = join(p, q)
                assert leq(p, j) and leq(q, j)
                uppers = [r for r in ps if leq(p, r) and leq(q, r)]
                assert all(leq(j, r) for r in uppers)
                assert join_num_blocks(p, q) == num_blocks(j)


def test_kernel_examples():
    assert kernel((1, 3, 1, 2)) == parse_partition("0,1,0,2")
    assert kernel((5, 5, 5)) == one_block(3)
    assert kernel((1, 2, 3)) == singletons(3)


def test_restrict_examples():
    p = parse_partition("0,1,1,0")
    assert restrict(p, (1, 2)) == one_block(2)
    for q in enumerate_partitions(4):
        assert restrict(q, range(4)) == q
    with pytest.raises(BadSubset):
        restrict(p, (2, 1))
    with pytest.raises(BadSubset):
        restrict(p, (0, 4))
    with pytest.raises(BadSubset):
        restrict(p, ())


def test_restrict_commutes_with_kernel():
    rng = random.Random(20260815)
    for _ in range(1000):
        m = rng.randint(1, 9)
        i = tuple(rng.randint(1, 4) for _ in range(m))
        size = rng.randint(1, m)
        V = tuple(sorted(rng.sample(range(m), size)))
        assert kernel(tuple(i[v] for v in V)) == restrict(kernel(i), V)


def test_enumerate_counts_and_order():
    assert [str(p) for p in enumerate_partitions(3)] == ["0,0,0", "0,0,1", "0,1,0", "0,1,1", "0,1,2"]
    assert len(enumerate_partitions(1)) == 1
    assert len(enumerate_partitions(4)) == 15
    assert len(enumerate_partitions(5)) == 52
    for m in range(1, 7):
        ps = enumerate_partitions(m)
        assert ps == sorted(ps)
        assert len(set(ps)) == len(ps)


def test_enumerate_cap():
    with pytest.raises(OrderTooLarge):
        enumerate_partitions(11)
    with pytest.raises(OrderTooLarge):
        enumerate_partitions(0)


def test_kernel_classes_are_p_m_filtered_by_block_count():
    orders = [(m, n) for m in range(1, 9) for n in range(0, m + 2)]
    orders += [(m, n) for m in (9, 10) for n in range(0, 4)]
    for m, n in orders:
        assert kernel_classes(m, n) == [t for t in enumerate_partitions(m) if num_blocks(t) <= n], (m, n)
    for m in range(1, 9):
        for n in (m, m + 1):
            assert all(a is b for a, b in zip(kernel_classes(m, n), enumerate_partitions(m), strict=True))
    assert kernel_classes(3, -1) == []


def test_kernel_classes_build_no_p_m(monkeypatch):
    # a filter of P(10) would build 115,975 partitions to keep 9,842
    built = []
    new = Partition.__new__

    def counted(cls, labels=()):
        built.append(None)
        return new(cls, labels)

    partitions._partitions.cache_clear()
    monkeypatch.setattr(Partition, "__new__", staticmethod(counted))
    try:
        assert len(kernel_classes(10, 3)) == 9842
        assert len(built) <= sum(len(kernel_classes(k, 3)) for k in range(1, 11))
    finally:
        partitions._partitions.cache_clear()


def test_index_tuple_parsing():
    assert parse_index_tuple("1,3,1,2") == (1, 3, 1, 2)
    assert render_index_tuple((1, 3, 1, 2)) == "1,3,1,2"
    with pytest.raises(SchemaError):
        parse_index_tuple("0,1")
    with pytest.raises(SchemaError):
        parse_index_tuple("1,5", n=4)
    with pytest.raises(EmptyInput):
        parse_index_tuple(" ")


@st.composite
def label_lists(draw):
    m = draw(st.integers(min_value=1, max_value=9))
    return [draw(st.integers(min_value=0, max_value=9)) for _ in range(m)]


@settings(deadline=None, max_examples=200)
@given(label_lists())
def test_canonicalize_idempotent(labels):
    p = canonicalize(labels)
    assert canonicalize(p) == p
    assert kernel(labels) == p


@settings(deadline=None, max_examples=200)
@given(label_lists())
def test_noncrossing_random_against_brute(labels):
    p = canonicalize(labels)
    assert is_noncrossing(p) == brute_noncrossing(p)


@settings(deadline=None, max_examples=200)
@given(label_lists(), label_lists())
def test_join_commutes(a, b):
    m = min(len(a), len(b))
    p, q = canonicalize(a[:m]), canonicalize(b[:m])
    assert join(p, q) == join(q, p)
    assert leq(p, join(p, q))
