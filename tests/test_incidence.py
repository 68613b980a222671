"""The incidence index and the triangular solve against their oracles.

categories.incidence is checked against the brute-force leq filter, and
solve / reconstruct_infinite against the generic FinitePoset Moebius
route they replace, kept here as the reference.
"""

import random
from fractions import Fraction

import pytest

from freedf import certify, definetti
from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS, enumerate_category, incidence
from freedf.cumulants import KERNEL, MomentTable, kernel_classes
from freedf.definetti import reconstruct_infinite, solve_moment_coefficients
from freedf.errors import NotInvariant, TableTooLarge
from freedf.partitions import enumerate_partitions, leq, num_blocks, one_block
from freedf.posets import FinitePoset

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def brute_index(cat, m):
    """{tau: positions below tau} over all of P(m), by leq."""
    basis = enumerate_category(cat, m)
    out = {}
    for tau in enumerate_partitions(m):
        below = [a for a, s in enumerate(basis) if leq(s, tau)]
        if below:
            out[tau] = below
    return out


def reference_solve(view, cat, m, n):
    """The Moebius route: c_p = sum_{s <= p} mu(s, p) phi~(s), then verify."""
    basis = enumerate_category(cat, m)
    poset = FinitePoset(basis)
    values = {
        p: sum((view[s] * poset.mobius(s, p) for s in basis if leq(s, p)), Fraction(0)) for p in basis
    }
    for tau in kernel_classes(m, n):
        if sum((values[s] for s in basis if leq(s, tau)), Fraction(0)) != view[tau]:
            return None
    return values


def reference_reconstruct(view, cat, tau):
    """sum_{p <= tau} sum_{s <= p} mu(s, p) phi~(s) over C(m)."""
    basis = enumerate_category(cat, len(tau))
    poset = FinitePoset(basis)
    total = Fraction(0)
    for p in basis:
        if leq(p, tau):
            for s in basis:
                if leq(s, p):
                    total += view[s] * poset.mobius(s, p)
    return total


def random_fraction(rng):
    return Fraction(rng.randint(-9, 9), rng.randint(1, 4))


def table_at(n, m, view):
    """A kernel moment table with the given view at order m, zeros below."""
    layers = {k: {tau: Fraction(0) for tau in kernel_classes(k, n)} for k in range(1, m)}
    layers[m] = view
    return MomentTable(n, m, layers, repr=KERNEL)


@pytest.mark.parametrize("cat", ALL_CATS, ids=str)
def test_index_equals_leq_filter(cat):
    top = 10 if cat is O_PLUS else 7
    for m in range(1, top + 1):
        want = brute_index(cat, m)
        for n in range(1, m + 2):
            got = incidence(cat, m, n)
            assert got == {tau: b for tau, b in want.items() if num_blocks(tau) <= n}, (cat, m, n)


def tuple_index(cat, m, n):
    """The index built one tau at a time: rho read at each position of sigma."""
    got = {}
    for a, sigma in enumerate(enumerate_category(cat, m)):
        k = num_blocks(sigma)
        for rho in kernel_classes(k, n) if k else [()]:
            got.setdefault(tuple(map(rho.__getitem__, sigma)), []).append(a)
    return got


@pytest.mark.parametrize("cat", ALL_CATS, ids=str)
def test_index_equals_the_tuple_construction(cat):
    cases = [(m, n) for m in range(8) for n in range(9)] + [(12, 3)] * (cat is O_PLUS)
    for m, n in cases:
        got, want = incidence(cat, m, n), tuple_index(cat, m, n)
        assert got == want and list(got) == list(want), (cat, m, n)  # insertion order too
        assert all(type(tau) is tuple for tau in got), (cat, m, n)


def test_index_is_cached_and_counts_pairs():
    assert incidence(S_PLUS, 5, 3) is incidence(S_PLUS, 5, 3)
    # sum over sigma in NC(7) of Bell(#sigma)
    assert sum(len(b) for b in incidence(S_PLUS, 7, 7).values()) == 13793


def solve_cases():
    for cat in ALL_CATS:
        for m in range(1, 7):
            for n in (m, m + 1):
                yield cat, m, n
    yield S_PLUS, 7, 7


@pytest.mark.parametrize("cat,m,n", list(solve_cases()), ids=str)
def test_triangular_solve_equals_moebius_route(cat, m, n):
    rng = random.Random(1000 * m + n)
    basis = enumerate_category(cat, m)
    c = {s: random_fraction(rng) for s in basis}
    invariant = {tau: sum((c[s] for s in basis if leq(s, tau)), Fraction(0)) for tau in kernel_classes(m, n)}
    noisy = {tau: random_fraction(rng) for tau in kernel_classes(m, n)}
    for view in (invariant, noisy):
        want = reference_solve(view, cat, m, n)
        if want is None:
            with pytest.raises(NotInvariant):
                solve_moment_coefficients(table_at(n, m, view), cat, m)
            continue
        sl = solve_moment_coefficients(table_at(n, m, view), cat, m)
        assert sl.unique
        assert list(sl.values) == basis
        assert sl.values == want
    assert reference_solve(invariant, cat, m, n) == c


def reconstruct_cases():
    for cat in ALL_CATS:
        for m in range(1, 7):
            yield pytest.param(cat, m, enumerate_partitions(m), id="%s-%d-all" % (cat, m))
    kernels = [one_block(7), (0, 1, 1, 0, 2, 2, 3), (0, 1, 0, 1, 0, 1, 0), tuple(range(7))]
    yield pytest.param(S_PLUS, 7, kernels, id="s+-7-some")


@pytest.mark.parametrize("cat,m,kernels", list(reconstruct_cases()))
def test_reconstruct_equals_moebius_route(cat, m, kernels):
    rng = random.Random(m)
    basis = enumerate_category(cat, m)
    view = {s: random_fraction(rng) for s in basis}
    phi_tilde = {m: view}
    assert one_block(m) in kernels
    empty = 0
    for tau in kernels:
        i = tuple(lab + 3 for lab in tau)
        got = reconstruct_infinite(phi_tilde, cat, i)
        assert got == reference_reconstruct(view, cat, tau), (cat, tau)
        if not any(leq(p, tau) for p in basis):
            assert got == 0
            empty += 1
    # singletons(m) has no pairing or even-block partition below it
    if cat in (O_PLUS, H_PLUS):
        assert empty > 0


def test_solve_guard_fires_before_the_index(monkeypatch):
    mt = definetti.generate_invariant_model(O_PLUS, 4, 6, seed=3)
    incidence.cache_clear()
    # 187 classes x 5 pairings, eliminated in 187 x 5 x 5 = 4,675 steps
    monkeypatch.setattr(certify, "DENSE_GUARD", 4674)
    with pytest.raises(TableTooLarge):
        solve_moment_coefficients(mt, O_PLUS, 6)
    assert incidence.cache_info().currsize == 0
    monkeypatch.setattr(certify, "DENSE_GUARD", 4675)
    sl = solve_moment_coefficients(mt, O_PLUS, 6)
    assert set(sl.values) == set(enumerate_category(O_PLUS, 6))
