"""Invariance certification, coefficient extraction, and reconstruction.

A joint distribution over n variables is G_n-invariant for one of the
four categories exactly when, at every order m, its kernel-class moments
phi~(tau) decompose as sum_{sigma in C(m), sigma <= tau} c_sigma. The
checker finds candidate coefficients and then verifies the decomposition
residually, so PASS certifies invariance and FAIL carries explicit
witnesses. For m <= n the candidates come from the triangular solve:
forward substitution on categories.incidence, finest partitions first
(the generic Moebius recursion of FinitePoset is the oracle in the
tests). An order it reproduces exactly passes without a Weingarten
matrix; for m > n, and for an order that fails, the candidates are the
Weingarten averages (phi applied to the averaged words b_pi). Every
sigma <= tau sum reads categories.incidence, except reconstruction,
which reads only the part of C(m) below ker i (categories.c_leq_kernel).

Coefficient families come in two flavors: c_pi (moment-side) and C_pi
(cumulant-side), related like moments and cumulants by the first-block
relation of the transforms in cumulants.py, here run on sigma's own
blocks: a first block is a union of sigma-blocks whose gaps are unions
of sigma-blocks too. Conversion, the m <= n solve, every re-sum check,
reconstruction and averaging add integer numerators over one common
denominator and divide once per result.
"""

import itertools
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, perm
from operator import ne

from .categories import O_PLUS, S_PLUS, c_leq_kernel, category_contains, enumerate_category, incidence
from .cumulants import (
    DENSE,
    DENSE_GUARD,
    KERNEL,
    CumulantTable,
    MomentTable,
    cumulants_from_moments,
    kernel_classes,
    moments_from_cumulants,
    representative_tuple,
    scale_into,
    to_integers,
    tuple_kernels,
)
from .errors import (
    FreedfError,
    IncompleteRestriction,
    MissingLowerOrder,
    NotInvariant,
    NotKernelRepresentable,
    OrderExceedsN,
    SchemaError,
    TableTooLarge,
)
from .partitions import Partition, check_indices, num_blocks, relabel, render_index_tuple
from .rationals import format_rational
from .weingarten import weingarten

MAX_WITNESSES = 100
_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass
class CoefficientSlice:
    """One order of a coefficient family, with uniqueness information."""

    cat: object
    m: int
    values: dict
    unique: bool = True


@dataclass
class InvarianceReport:
    verdict: str
    category: object
    n: int
    max_order: int
    coefficients: dict = field(default_factory=dict)
    residuals: dict = field(default_factory=dict)
    witnesses: list = field(default_factory=list)

    @property
    def passed(self):
        return self.verdict == "PASS"

    def to_json(self):
        return {
            "verdict": self.verdict,
            "category": self.category.value,
            "n": self.n,
            "max_order": self.max_order,
            "coefficients": {
                str(m): {str(p): format_rational(v) for p, v in sl.items()}
                for m, sl in self.coefficients.items()
            },
            "witnesses": [
                {
                    "m": m,
                    "tuple": render_index_tuple(i),
                    "expected": format_rational(exp),
                    "actual": format_rational(act),
                }
                for m, i, exp, act in self.witnesses
            ],
        }


def averaged_coefficients(mt, cat, m):
    """c^avg_sigma = sum_pi Wg(sigma,pi) S_pi with S_pi the delta-sum.

    S_pi sums phi over all tuples whose kernel refines above pi; for
    kernel tables that is sum over classes tau >= pi of (n)_{#tau}
    phi~(tau), the falling factorial perm(n, #tau) counting the tuples in
    the class.
    """
    return _averaged(mt, cat, m, mt.kernel_layer(m))[0]


def _averaged(mt, cat, m, view):
    """(coefficients, nums, c, D, L) for Weingarten averaging at order m.

    nums lists the entries of view = mt.kernel_layer(m), or else of the
    dense order, in order, as integers over their common denominator L,
    and (D, num) is the integer form of Wg, so each coefficient is one
    integer dot product c_sigma, and c^avg_sigma = c_sigma / (D * L).
    """
    L, nums = to_integers((mt.values[m] if view is None else view).values())
    basis = enumerate_category(cat, m)
    if not basis:
        return {}, nums, [], 1, L
    n = mt.n
    if view is not None:
        sums = {tau: perm(n, num_blocks(tau)) * v for tau, v in zip(view, nums)}
    else:
        sums = {}
        for v, tau in zip(nums, tuple_kernels(m, n)):
            sums[tau] = sums.get(tau, 0) + v
    below = incidence(cat, m, n)
    S = [0] * len(basis)
    for tau, v in sums.items():
        if v:
            for a in below.get(tau, ()):
                S[a] += v
    wg = weingarten(cat, m, n)
    D, num = wg.D, wg.num
    support = [(b, v) for b, v in enumerate(S) if v]
    c = [sum(row[b] * v for b, v in support) for row in num]
    return {sigma: Fraction(v, D * L) for sigma, v in zip(basis, c)}, nums, c, D, L


def check_invariance(mt, cat, up_to=None, tolerance=None):
    """Certify G_n-invariance order by order; exact PASS/FAIL report.

    The kernel test (Table.kernel_layer) runs once per order. An order
    m <= n with kernel classes that the triangular solve reproduces
    exactly passes with its coefficients and zero residuals, and needs no
    Weingarten matrix: there G = Z Delta Z^T with Z unitriangular on
    C(m), so the averaged coefficients are the same numbers. Every other
    order (m > n, or one the solve rejects) is certified by Weingarten
    averaging, which raises SingularGram when the Gram matrix is
    singular and TableTooLarge when |C(m)|^2 exceeds DENSE_GUARD, and
    each class (word, in a dense order without classes) is compared with
    the re-summed coefficients (_incident_sums) in one integer pass, in
    class order; only a failing class builds a Fraction. Only averaged
    orders use FREEDF_CACHE_DIR.

    With a tolerance, which must not be negative, a nonzero residual
    fails only when it exceeds tolerance * max(1, |expected|); every
    residual is tested before the witnesses are capped at MAX_WITNESSES.
    """
    return _certify(mt, cat, up_to, tolerance)[0]


def _check_tolerance(tolerance):
    if tolerance is not None and tolerance < 0:
        raise SchemaError("a tolerance must not be negative, got %s" % tolerance)


def _certify(mt, cat, up_to, tolerance):
    """(check_invariance's report, {m: mt.kernel_layer(m)} for each order it read)."""
    _check_tolerance(tolerance)
    M = mt.max_order if up_to is None else min(up_to, mt.max_order)
    n = mt.n
    coefficients = {}
    residuals = {}
    witnesses = []
    failed = False
    views = {}
    for m in range(1, M + 1):
        layer, view = mt.values[m], mt.kernel_layer(m)
        views[m] = view
        if m <= n and view is not None:
            try:
                coefficients[m] = _solve(view, cat, m, n).values
                residuals[m] = dict.fromkeys(kernel_classes(m, n), _ZERO)
                continue
            except NotInvariant:
                pass  # averaging finds the same coefficients and the witnesses
        coefficients[m], nums, c, D, L = _averaged(mt, cat, m, view)
        sums = _incident_sums(c, cat, m, n)
        # an entry a = A / L equals the prediction P / (D * L) iff A * D == P
        target = {tau: P // D if P % D == 0 else None for tau, P in sums.items()}
        if view is None:  # a dense order that is not kernel-representable
            keys, entries = tuple_kernels(m, n), layer.items()
        else:
            keys, entries = view, zip(map(representative_tuple, view), view.values())
        layer_resid, bad, predicted = dict.fromkeys(sums, _ZERO), [], {}
        for tau, (i, a) in itertools.compress(zip(keys, entries), map(ne, nums, map(target.__getitem__, keys))):
            if tau not in predicted:  # a class's first failing entry gives its residual
                predicted[tau] = Fraction(sums[tau], D * L)
                layer_resid[tau] = a - predicted[tau]
            p = predicted[tau]
            if tolerance is None or abs(a - p) > tolerance * max(1, abs(p)):
                if len(bad) < MAX_WITNESSES:  # the first 100 failing classes hold the first 100 words
                    bad.append((tau, i, a))
        if bad:
            failed = True
            if view is not None and mt.repr == DENSE:  # every word of a failing class, in product order
                classes = {tau for tau, _, _ in bad}
                bad = ((tau, i, a) for tau, (i, a) in zip(tuple_kernels(m, n), layer.items()) if tau in classes)
            for tau, i, a in itertools.islice(bad, MAX_WITNESSES - len(witnesses)):
                witnesses.append((m, i, predicted[tau], a))
        residuals[m] = layer_resid
    report = InvarianceReport(
        "FAIL" if failed else "PASS", cat, n, mt.max_order, coefficients, residuals, witnesses
    )
    return report, views


def solve_moment_coefficients(table, cat, m, fallback=True):
    """The c_pi family at order m, by triangular (Moebius) inversion on C(m).

    Applied to a cumulant table the same route gives the C_pi family, so
    solve_cumulant_coefficients is this function.
    """
    try:
        view = table.kernel_view(m)
    except NotKernelRepresentable as e:
        raise NotInvariant("table is not kernel-uniform at order %d: %s" % (m, e)) from None
    return _solve(view, cat, m, table.n, fallback)


solve_cumulant_coefficients = solve_moment_coefficients


def _solve(view, cat, m, n, fallback=True):
    """solve_moment_coefficients on the kernel-class view of order m.

    The view is read as integers over its common denominator L; for m <= n
    the coefficients are integers over L as well, and the re-sum check
    compares integers.
    """
    basis = enumerate_category(cat, m)
    classes = kernel_classes(m, n)
    if not basis:
        bad = [tau for tau in classes if view[tau] != 0]
        if bad:
            raise NotInvariant(
                "C(%d) is empty for %s but the table is nonzero at kernel %s" % (m, cat, bad[0])
            )
        return CoefficientSlice(cat, m, {}, True)
    nums = {}
    L = scale_into(nums, view)
    if m <= n:
        below = incidence(cat, m, n)
        finest_first = sorted(range(len(basis)), key=lambda a: -num_blocks(basis[a]))
        c = _forward_substitute([nums[s] for s in basis], [below[s] for s in basis], finest_first)
        values = [Fraction(v, L) for v in c]
        unique = True
    else:
        if not fallback:
            raise OrderExceedsN("order m=%d exceeds n=%d and fallback is disabled" % (m, n))
        values, unique = _zeta_solve(view, cat, m, n)
        den = lcm(L, *(v.denominator for v in values))
        c = [v.numerator * (den // v.denominator) for v in values]
        nums = {tau: v * (den // L) for tau, v in nums.items()}
    total = _incident_sums(c, cat, m, n)
    for tau in classes:
        if total[tau] != nums[tau]:
            raise NotInvariant(
                "no coefficient family reproduces the table at order %d, kernel %s" % (m, tau)
            )
    return CoefficientSlice(cat, m, dict(zip(basis, values)), unique)


def _incident_sums(nums, cat, m, n):
    """{tau: sum of nums[a] over C(m)[a] <= tau} over the kernel classes."""
    below = incidence(cat, m, n)
    return {tau: sum(map(nums.__getitem__, below.get(tau, ()))) for tau in kernel_classes(m, n)}


def _forward_substitute(nums, below, order):
    """Integers c with nums[a] = sum of c[b] over b in below[a], a among them.

    The positions are taken in order, finest first, so below[a] holds a
    and positions already solved: Moebius inversion without computing mu.
    """
    c = [0] * len(nums)
    for a in order:
        c[a] = nums[a] - sum(map(c.__getitem__, below[a]))
    return c


def _zeta_solve(view, cat, m, n):
    """Exact elimination of phi~(tau) = sum_{sigma<=tau} c_sigma.

    Used beyond the m <= n regime where the triangular route is not
    available. Free variables are pinned to 0 and uniqueness reported.
    Above DENSE_GUARD matrix entries it raises before building anything.
    """
    basis = enumerate_category(cat, m)
    classes = kernel_classes(m, n)
    if len(classes) * len(basis) > DENSE_GUARD:
        raise TableTooLarge("the m > n solve needs a %d x %d matrix" % (len(classes), len(basis)))
    below = incidence(cat, m, n)
    rows = []
    for tau in classes:
        row = [_ZERO] * len(basis) + [view[tau]]
        for a in below.get(tau, ()):
            row[a] = _ONE
        rows.append(row)
    ncols = len(basis)
    pivots = []
    r = 0
    for col in range(ncols):
        pr = next((k for k in range(r, len(rows)) if rows[k][col] != 0), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        pivot = rows[r][col]
        rows[r] = [x / pivot for x in rows[r]]
        for k in range(len(rows)):
            if k != r and rows[k][col] != 0:
                f = rows[k][col]
                rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    for k in range(r, len(rows)):
        if rows[k][ncols] != 0:
            raise NotInvariant("the kernel-class system is inconsistent")
    values = [_ZERO] * ncols
    for row, col in zip(rows, pivots):
        values[col] = row[ncols]
    return values, len(pivots) == ncols


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
    floor = 2 if cat is O_PLUS else 4
    if n < floor:
        raise ValueError("invariance machinery for %s needs n >= %d, got n=%d" % (cat, floor, n))
    layers = {}
    for m, sl in seed_coefficients(cat, n, M, seed).items():
        L, nums = to_integers(sl.values())
        layers[m] = [Fraction(v, L) for v in _incident_sums(nums, cat, m, n).values()]
    ct = CumulantTable(n, M, layers, repr=KERNEL)
    return moments_from_cumulants(ct)


def semicircular_model(n, M):
    """phi~(tau) = number of non-crossing pairings below tau."""
    layers = {}
    for m in range(1, M + 1):
        below = incidence(O_PLUS, m, n)
        layers[m] = [Fraction(len(below.get(tau, ()))) for tau in kernel_classes(m, n)]
    return MomentTable(n, M, layers, repr=KERNEL)


def normalized_block_sum(mt, p):
    """(1/n^k) sum over tuples with kernel above p of their moments."""
    p = Partition(p)
    if p.size % 2 == 1 or not category_contains(O_PLUS, p):
        raise ValueError("p must be a non-crossing pairing, got %s" % (p,))
    k = p.size // 2
    n = mt.n
    view = mt.kernel_view(p.size)
    a = enumerate_category(O_PLUS, p.size).index(p)
    above = (tau for tau, below in incidence(O_PLUS, p.size, n).items() if a in below)
    total = sum((perm(n, num_blocks(tau)) * view[tau] for tau in above), Fraction(0))
    return total / Fraction(n) ** k


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


@dataclass
class ProbeEntry:
    kind: str
    m: int
    tau: Partition
    target: Fraction
    values: list
    verdict: str


@dataclass
class ProbeReport:
    category: object
    m: int
    entries: list
    verdict: str

    def to_json(self):
        return {
            "category": self.category.value,
            "m": self.m,
            "verdict": self.verdict,
            "entries": [
                {
                    "kind": e.kind,
                    "m": e.m,
                    "class": str(e.tau),
                    "target": format_rational(e.target),
                    "values": [[n, format_rational(v)] for n, v in e.values],
                    "verdict": e.verdict,
                }
                for e in self.entries
            ],
        }


def _decay_verdict(pairs, target, tolerance):
    devs = [abs(v - target) for _, v in pairs]
    if all(d <= tolerance for d in devs):
        return "DECAY"
    if all(a >= b for a, b in zip(devs, devs[1:])) and devs[-1] < devs[0]:
        return "DECAY"
    return "NO-DECAY"


def asymptotic_freeness_probe(models, cat, m, tolerance=Fraction(1, 10 ** 9)):
    """Track the vanishing (or unit-limit) classes across a family in n.

    For s+ the probed quantities are the kernel cumulants kappa~(tau)
    over non-crossing tau with more than one block (mixed cumulants must
    vanish for asymptotic freeness). For o+ they are the pair-kernel
    cumulants at orders 2k >= 4 (target 0) and the pair-kernel moments
    (target 1). Each table is certified and transformed up to order m
    only, so its higher orders need not be invariant. An order without a
    probed class (o+ at odd m, s+ at m = 1) certifies nothing and raises
    FreedfError. A class reads DECAY when its deviations from the target
    are all within tolerance, or never increase in n and end below the
    first: a trend over the given tables, not a certificate of decay.
    """
    _check_tolerance(tolerance)
    if cat not in (S_PLUS, O_PLUS):
        raise FreedfError("asymptotics probe supports categories s+ and o+ only")
    if m < 1:
        raise FreedfError("asymptotics probe needs an order m >= 1, got %d" % m)
    models = sorted(models, key=lambda t: t.n)
    if not models:
        raise FreedfError("asymptotics probe needs at least one table")
    min_n = models[0].n
    probes = []  # (kind, tau, target)
    if cat is S_PLUS:
        probes = [("cumulant", tau, _ZERO) for tau in enumerate_category(S_PLUS, m) if 1 < num_blocks(tau) <= min_n]
    elif m % 2 == 0:
        for tau in enumerate_category(O_PLUS, m):
            if num_blocks(tau) <= min_n:
                if m >= 4:
                    probes.append(("cumulant", tau, _ZERO))
                probes.append(("moment", tau, _ONE))
    if not probes:
        raise FreedfError(
            "asymptotics probe has no class to probe for %s at order %d (smallest n = %d)" % (cat, m, min_n)
        )
    tables = {"moment": [], "cumulant": []}
    for mt in models:
        if mt.max_order < m:
            raise FreedfError("table at n=%d stops at order %d, below the probed order %d" % (mt.n, mt.max_order, m))
        report, views = _certify(mt, cat, m, None)
        if not report.passed:
            raise NotInvariant("table at n=%d is not %s-invariant" % (mt.n, cat))
        # an exact PASS leaves every word equal to its class's prediction, so every view exists
        moments = MomentTable(mt.n, m, {k: list(view.values()) for k, view in views.items()}, repr=KERNEL)
        tables["moment"].append(moments)
        tables["cumulant"].append(cumulants_from_moments(moments))
    entries = []
    for kind, tau, target in probes:
        pairs = [(t.n, t.values[m][tau]) for t in tables[kind]]
        entries.append(ProbeEntry(kind, m, tau, target, pairs, _decay_verdict(pairs, target, tolerance)))
    verdict = "DECAY" if all(e.verdict == "DECAY" for e in entries) else "NO-DECAY"
    return ProbeReport(cat, m, entries, verdict)
