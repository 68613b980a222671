import math

import pytest
from fractions import Fraction

from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS
from freedf.errors import NotComparable, NotInPoset
from freedf.partitions import Partition, enumerate_partitions, leq, num_blocks, one_block, parse_partition, singletons
from freedf.posets import (
    FinitePoset,
    category_poset,
    mobius,
    mobius_to_top_full_lattice,
    mobius_to_top_nc,
)

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def test_mobius_diagonal_is_one():
    for cat in ALL_CATS:
        poset = category_poset(cat, 4)
        for p in poset.elements:
            assert poset.mobius(p, p) == 1


def test_mobius_two_chain():
    poset = category_poset(S_PLUS, 2)
    assert poset.mobius(singletons(2), one_block(2)) == -1


def test_mobius_defining_recursion():
    for cat in ALL_CATS:
        poset = category_poset(cat, 4)
        for s in poset.elements:
            for p in poset.elements:
                if not leq(s, p):
                    continue
                total = sum(poset.mobius(t, p) for t in poset.elements if leq(s, t) and leq(t, p))
                assert total == (1 if s == p else 0), (s, p)


def test_mobius_errors():
    poset = category_poset(S_PLUS, 3)
    with pytest.raises(NotComparable):
        poset.mobius(parse_partition("0,1,0"), parse_partition("0,0,1"))
    with pytest.raises(NotInPoset):
        poset.mobius(singletons(2), one_block(2))
    with pytest.raises(NotInPoset):
        mobius(category_poset(O_PLUS, 4), singletons(4), one_block(4))


def test_mobius_to_top_full_lattice_examples():
    for m in range(1, 6):
        assert mobius_to_top_full_lattice(one_block(m)) == 1
    assert mobius_to_top_full_lattice(parse_partition("0,0,1")) == -1
    assert mobius_to_top_full_lattice(parse_partition("0,1,0,1")) == -1
    assert mobius_to_top_full_lattice(singletons(4)) == -6
    # P(0) holds the empty partition alone, so mu is 1 there
    assert mobius_to_top_full_lattice(Partition(())) == 1


def test_mobius_to_top_full_lattice_is_generic_recursion():
    # the closed form (-1)^(k-1) (k-1)! against the poset recursion, small m
    for m in range(1, 6):
        poset = FinitePoset(enumerate_partitions(m))
        assert len(poset) == len(enumerate_partitions(m))
        top = one_block(m)
        for p in poset.elements:
            assert mobius_to_top_full_lattice(p) == poset.mobius(p, top), p


def test_mobius_to_top_full_lattice_closed_form():
    for m in range(1, 8):
        for p in enumerate_partitions(m):
            k = num_blocks(p)
            want = (-1) ** (k - 1) * math.factorial(k - 1)
            assert mobius_to_top_full_lattice(p) == want


def test_mobius_to_top_nc_matches_nc_poset():
    from freedf.categories import enumerate_category

    for m in range(1, 7):
        col = mobius_to_top_nc(m)
        poset = FinitePoset(enumerate_category(S_PLUS, m))
        top = one_block(m)
        assert set(col) == set(poset.elements)
        for p in poset.elements:
            assert col[p] == poset.mobius(p, top), (m, p)


def test_mobius_to_top_nc_differs_from_full_lattice():
    # on NC(4) the interval [0_4, 1_4] has Moebius -5, not -6
    col = mobius_to_top_nc(4)
    assert col[singletons(4)] == -5
    assert mobius_to_top_full_lattice(singletons(4)) == -6


def test_mobius_values_are_integers():
    for m in range(1, 6):
        for v in mobius_to_top_nc(m).values():
            assert isinstance(v, int) or (isinstance(v, Fraction) and v.denominator == 1)


def test_category_poset_is_cached():
    assert category_poset(S_PLUS, 4) is category_poset(S_PLUS, 4)


def kreweras_block_sizes(p):
    """Cycle lengths of K(p) = P^-1 gamma, P the blocks of p as increasing cycles."""
    m = len(p)
    nxt = {}
    for block in p.blocks():
        for a, b in zip(block, block[1:] + block[:1]):
            nxt[b] = a
    k = [nxt[(a + 1) % m] for a in range(m)]
    sizes, seen = [], set()
    for start in range(m):
        size = 0
        while start not in seen:
            seen.add(start)
            start = k[start]
            size += 1
        if size:
            sizes.append(size)
    return sizes


def test_kreweras_closed_form_for_mu_to_top():
    # mu_NC(p, 1_m) = prod over V in K(p) of (-1)^(|V|-1) Cat_(|V|-1)
    from freedf.categories import enumerate_category

    def cat(k):
        return math.comb(2 * k, k) // (k + 1)

    for m in range(1, 9):
        col = mobius_to_top_nc(m)
        poset = FinitePoset(enumerate_category(S_PLUS, m))
        top = one_block(m)
        for p in poset.elements:
            sizes = kreweras_block_sizes(p)
            assert len(sizes) == m + 1 - num_blocks(p)
            want = math.prod((-1) ** (s - 1) * cat(s - 1) for s in sizes)
            assert col[p] == want, (m, p)
            assert poset.mobius(p, top) == want, (m, p)
