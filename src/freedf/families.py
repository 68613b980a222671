"""Coefficient families: conversion, seeded models, reconstruction.

Coefficient families come in two flavors: c_pi (moment-side) and C_pi
(cumulant-side), related like moments and cumulants by the first-block
relation of the transforms in cumulants.py, here run on sigma's own
blocks: a first block is a union of sigma-blocks whose gaps are unions
of sigma-blocks too. Reconstruction reads only the part of C(m) below
ker i (categories.c_leq_kernel). Both add integer numerators over one
common denominator and divide once per result, and neither imports the
table layer, which only generate_invariant_model calls.
"""

import random
from fractions import Fraction
from math import lcm

from .categories import O_PLUS, _forward_substitute, _incident_sums, c_leq_kernel, category_contains, enumerate_category
from .errors import BelowFloor, IncompleteRestriction, MissingLowerOrder
from .partitions import check_indices, num_blocks, relabel
from .rationals import to_integers


def _family_get(cf, order):
    if order not in cf:
        raise MissingLowerOrder("coefficient family lacks order %d" % order)
    return cf[order]


def c_from_C(cf, cat, m):
    """c_sigma = sum_{pi in NC(m), pi >= sigma} prod_V C_{sigma|V}."""
    return _convert(cf, cat, m, to_moments=True)


def C_from_c(cf, cat, m):
    """Inverse of c_from_C."""
    return _convert(cf, cat, m, to_moments=False)


def _convert(cf, cat, m, to_moments):
    """The first-block relation of the transforms, on sigma's own blocks.

    c_sigma = C_sigma + sum over first blocks V != [m] of C_{sigma|V} times
    c on each gap of V, where V is the block of position 0 together with
    any other sigma-blocks such that every gap of V is a union of
    sigma-blocks (_first_blocks). With L the lcm of the denominators of
    orders 1..m of cf, an order-k value is held as its numerator over L^k,
    so every term is an integer over L^(order) and each result divides
    once. One memo holds every order of the family being built.
    """
    _family_get(cf, m)
    L = lcm(*(v.denominator for k in range(1, m + 1) for v in cf.get(k, {}).values()))
    given, built = {}, {}

    def source(sigma):
        got = given.get(sigma)
        if got is None:
            v = _family_get(cf, len(sigma))[sigma]
            got = given[sigma] = v.numerator * (L ** len(sigma) // v.denominator)
        return got

    def target(sigma):
        got = built.get(sigma)
        if got is None:
            kappa, phi = (source, target) if to_moments else (target, source)
            total = 0
            for v, gaps in _first_blocks(sigma):
                term = kappa(v)
                for gap in gaps:
                    term *= phi(gap)
                total += term
            got = built[sigma] = source(sigma) + total if to_moments else source(sigma) - total
        return got

    return {sigma: Fraction(target(sigma), L ** m) for sigma in enumerate_category(cat, m)}


def _first_blocks(sigma):
    """[(sigma|V, [sigma|gap, ...])] over the first blocks V != [m] of sigma.

    V holds block 0 and a set of other blocks; a block left out of V must
    hold no element of V inside its span, i.e. (sigma being non-crossing)
    V holds the innermost block enclosing each block of V. Block ids grow
    with first positions, so a block's enclosing block is decided first.
    """
    k = num_blocks(sigma)
    first, last = {}, {}
    for pos, b in enumerate(sigma):
        first.setdefault(b, pos)
        last[b] = pos
    masks = [1]
    for b in range(1, k):
        outer = next((a for a in range(b - 1, -1, -1) if first[b] < last[a]), None)
        masks += [mask | 1 << b for mask in masks if outer is None or mask >> outer & 1]
    shapes = []
    for mask in masks[:-1]:  # the last mask holds every block
        inside, gaps, run = [], [], []
        for b in sigma:
            if mask >> b & 1:
                inside.append(b)
                if run:
                    gaps.append(relabel(run))
                    run = []
            else:
                run.append(b)
        if run:
            gaps.append(relabel(run))
        shapes.append((relabel(inside), gaps))
    return shapes


def seed_coefficients(cat, n, M, seed):
    """The deterministic C_pi draw used by generate_invariant_model."""
    rng = random.Random(seed)
    out = {}
    for m in range(1, M + 1):
        sl = {}
        for p in enumerate_category(cat, m):
            a = rng.randint(-9, 9)
            b = rng.randint(1, 4)
            sl[p] = Fraction(a, b)
        out[m] = sl
    return out


def generate_invariant_model(cat, n, M, seed):
    """A kernel moment table that is G_n-invariant by construction.

    Draws C_pi coefficients, assembles the kernel-level cumulants
    kappa~(tau) = sum_{pi in C(m), pi <= tau} C_pi, and pushes them
    through the moment-cumulant formula. No positivity is claimed: the
    table realizes the combinatorial invariance conditions, which are
    linear-algebraic and do not require phi to be a state.
    """
    from .cumulants import KERNEL, CumulantTable, moments_from_cumulants
    floor = 2 if cat is O_PLUS else 4
    if n < floor:
        raise BelowFloor("invariance machinery for %s needs n >= %d, got n=%d" % (cat, floor, n))
    layers = {}
    for m, sl in seed_coefficients(cat, n, M, seed).items():
        L, nums = to_integers(sl.values())
        layers[m] = [Fraction(v, L) for v in _incident_sums(nums, cat, m, n).values()]
    ct = CumulantTable(n, M, layers, repr=KERNEL)
    return moments_from_cumulants(ct)


def reconstruct_infinite(phi_tilde, cat, i):
    """Moments of the infinite invariant sequence from phi~ on C(m).

    phi_tilde maps each order m to {pi in C(m): value}; entries of i may
    range over all positive integers. Tuples with empty C_<=(i) get 0.
    The moment is the sum of c_pi over C_<=(i): phi~(ker i) when ker i is
    in C(m), else a forward substitution on that down-set alone.
    """
    i = check_indices(tuple(i))
    m = len(i)
    if m == 0:
        return Fraction(1)
    basis = enumerate_category(cat, m)
    view = phi_tilde.get(m)
    if view is None:
        raise IncompleteRestriction("phi~ lacks order %d" % m, missing=[str(m)])
    missing = [str(p) for p in basis if p not in view]
    if missing:
        raise IncompleteRestriction(
            "phi~ at order %d is missing %d values, e.g. %s" % (m, len(missing), missing[0]),
            missing=missing,
        )
    tau = relabel(i)
    if category_contains(cat, tau):  # then the sum is phi~(tau) itself
        return Fraction(view[tau])
    down = sorted(c_leq_kernel(cat, tau), key=num_blocks, reverse=True)
    L, nums = to_integers([view[sigma] for sigma in down])
    at = {sigma: a for a, sigma in enumerate(down)}
    below = [[at[p] for p in c_leq_kernel(cat, sigma)] for sigma in down]
    c = _forward_substitute(nums, below, range(len(down)))
    return Fraction(sum(c), L)
