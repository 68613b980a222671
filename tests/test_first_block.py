"""The first-block transforms against the NC(m) sums they replaced.

The reference functions below are the earlier implementations, kept
verbatim in substance: each sums over every pi in NC(m) (above sigma,
for the coefficient conversions), with the NC(m)-lattice Moebius column
mu(pi, 1_m) as weights in the cumulant direction. The library computes
the same values by the first-block recursion; every comparison here is
exact equality.
"""

import itertools
import random
from fractions import Fraction
from math import lcm, prod

from hypothesis import given, settings, strategies as st

from freedf.categories import B_PLUS, H_PLUS, O_PLUS, S_PLUS, enumerate_category
from freedf.cumulants import (
    DENSE,
    KERNEL,
    CumulantTable,
    MomentTable,
    cumulants_from_moments,
    kernel_classes,
    moments_from_cumulants,
)
from freedf.definetti import C_from_c, c_from_C, generate_invariant_model, seed_coefficients
from freedf.errors import MissingLowerOrder
from freedf.partitions import Partition, leq, restrict
from freedf.posets import mobius_to_top_nc

ALL_CATS = (O_PLUS, S_PLUS, H_PLUS, B_PLUS)


def nc_blocks(m):
    return [(p, tuple(p.blocks())) for p in enumerate_category(S_PLUS, m)]


def reference_kernel(table, weights):
    out = {}
    for m in range(1, table.max_order + 1):
        w = weights(m) if weights else None
        layer = {}
        for tau in table.values[m]:
            total = Fraction(0)
            for p, blocks in nc_blocks(m):
                term = Fraction(1)
                for block in blocks:
                    sub = tuple(tau[pos] for pos in block)
                    seen = {}
                    canon = []
                    for lab in sub:
                        if lab not in seen:
                            seen[lab] = len(seen)
                        canon.append(seen[lab])
                    term *= table.values[len(block)][Partition(canon)]
                total += term if w is None else w[p] * term
            layer[tau] = total
        out[m] = layer
    return out


def reference_dense(table, weights):
    n = table.n
    flats = {}
    dens = {}
    for m in range(1, table.max_order + 1):
        layer = table.values[m]
        D = lcm(*(v.denominator for v in layer.values())) if layer else 1
        flat = [0] * (n ** m)
        for i, v in layer.items():
            rank = 0
            for e in i:
                rank = rank * n + (e - 1)
            flat[rank] = int(v * D)
        flats[m] = flat
        dens[m] = D
    out = {}
    for m in range(1, table.max_order + 1):
        pis = nc_blocks(m)
        w = weights(m) if weights else None
        den_pi = [prod(dens[len(b)] for b in blocks) for _, blocks in pis]
        dstar = lcm(*den_pi) if den_pi else 1
        mults = []
        for (p, blocks), dp in zip(pis, den_pi):
            mult = dstar // dp
            if w is not None:
                mult *= w[p]
            mults.append((blocks, mult))
        layer = {}
        for digits in itertools.product(range(n), repeat=m):
            acc = 0
            for blocks, mult in mults:
                term = mult
                for block in blocks:
                    rank = 0
                    for pos in block:
                        rank = rank * n + digits[pos]
                    term *= flats[len(block)][rank]
                acc += term
            layer[tuple(d + 1 for d in digits)] = Fraction(acc, dstar)
        out[m] = layer
    return out


def reference_moments(ct):
    f = reference_kernel if ct.repr == KERNEL else reference_dense
    return f(ct, None)


def reference_cumulants(mt):
    f = reference_kernel if mt.repr == KERNEL else reference_dense
    return f(mt, mobius_to_top_nc)


def _family_get(cf, order):
    if order not in cf:
        raise MissingLowerOrder("coefficient family lacks order %d" % order)
    return cf[order]


def _nc_above(sigma):
    return [(p, p.blocks()) for p in enumerate_category(S_PLUS, sigma.size) if leq(sigma, p)]


def reference_convert(cf, cat, m, to_moments):
    _family_get(cf, m)
    mu = None if to_moments else mobius_to_top_nc(m)
    out = {}
    for sigma in enumerate_category(cat, m):
        total = Fraction(0)
        for p, blocks in _nc_above(sigma):
            term = Fraction(1) if mu is None else Fraction(mu[p])
            for block in blocks:
                term *= _family_get(cf, len(block))[restrict(sigma, block)]
            total += term
        out[sigma] = total
    return out


def random_kernel(cls, n, M, rng, zeros=0.0):
    values = {
        m: {
            tau: Fraction(0) if rng.random() < zeros else Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for tau in kernel_classes(m, n)
        }
        for m in range(1, M + 1)
    }
    return cls(n, M, values, repr=KERNEL)


def random_dense(cls, n, M, rng):
    """Independent entries per tuple, so the table is not kernel-uniform."""
    values = {
        m: {
            i: Fraction(rng.randint(-9, 9), rng.randint(1, 6))
            for i in itertools.product(range(1, n + 1), repeat=m)
        }
        for m in range(1, M + 1)
    }
    return cls(n, M, values, repr=DENSE)


def assert_both_directions(mt, ct):
    assert moments_from_cumulants(ct).values == reference_moments(ct)
    assert cumulants_from_moments(mt).values == reference_cumulants(mt)


def test_kernel_sweep_against_nc_sum():
    rng = random.Random(11)
    for n in range(1, 5):
        for M in range(1, 7):
            assert_both_directions(
                random_kernel(MomentTable, n, M, rng), random_kernel(CumulantTable, n, M, rng, zeros=0.3)
            )


def test_kernel_invariant_models_against_nc_sum():
    for cat in ALL_CATS:
        for n in ((2, 3, 4) if cat is O_PLUS else (4,)):
            mt = generate_invariant_model(cat, n, 6, seed=n)
            ct = cumulants_from_moments(mt)
            assert ct.values == reference_cumulants(mt), (cat, n)
            assert moments_from_cumulants(ct).values == reference_moments(ct) == mt.values, (cat, n)


def test_dense_sweep_against_nc_sum():
    rng = random.Random(12)
    for n in range(1, 4):
        for M in range(1, 6):
            mt = random_dense(MomentTable, n, M, rng)
            ct = random_dense(CumulantTable, n, M, rng)
            assert_both_directions(mt, ct)


def test_s_plus_order_seven_against_nc_sum():
    mt = generate_invariant_model(S_PLUS, 7, 7, seed=3)
    ct = cumulants_from_moments(mt)
    assert ct.values == reference_cumulants(mt)
    assert reference_moments(ct) == mt.values


def test_convert_sweep_against_nc_sum():
    for cat in ALL_CATS:
        for seed in range(3):
            fam = seed_coefficients(cat, 7, 7, seed)
            for m in range(1, 8):
                assert c_from_C(fam, cat, m) == reference_convert(fam, cat, m, True), (cat, seed, m)
                assert C_from_c(fam, cat, m) == reference_convert(fam, cat, m, False), (cat, seed, m)


def _raises_missing(fn, *args):
    try:
        fn(*args)
    except MissingLowerOrder:
        return True
    return False


def test_convert_missing_orders_match_nc_sum():
    for cat in ALL_CATS:
        full = seed_coefficients(cat, 6, 6, seed=0)
        for m in range(1, 7):
            for drop in range(1, m + 1):
                fam = {k: v for k, v in full.items() if k != drop}
                for to_moments, fn in ((True, c_from_C), (False, C_from_c)):
                    want = _raises_missing(reference_convert, fam, cat, m, to_moments)
                    assert _raises_missing(fn, fam, cat, m) == want, (cat, m, drop, to_moments)


@settings(deadline=None, max_examples=40)
@given(
    st.integers(min_value=0, max_value=10 ** 6),
    st.integers(min_value=1, max_value=4),
    st.integers(min_value=1, max_value=5),
    st.booleans(),
)
def test_round_trip_matches_nc_sum_property(seed, n, M, dense):
    rng = random.Random(seed)
    if dense:
        n = min(n, 3)
        mt = random_dense(MomentTable, n, M, rng)
    else:
        mt = random_kernel(MomentTable, n, M, rng, zeros=0.2)
    ct = cumulants_from_moments(mt)
    assert ct.values == reference_cumulants(mt)
    assert moments_from_cumulants(ct).values == mt.values
