"""Invariance certification, coefficient extraction, and reconstruction.

A joint distribution over n variables is G_n-invariant for one of the
four categories exactly when, at every order m, its kernel-class moments
phi~(tau) decompose as sum_{sigma in C(m), sigma <= tau} c_sigma. The
checker recovers candidate coefficients by Weingarten averaging (they
equal phi applied to the averaged words b_pi) and then verifies the
decomposition residually, so PASS certifies invariance and FAIL carries
explicit witnesses. Every sigma <= tau sum reads categories.incidence;
for m <= n the solve is unitriangular forward substitution on it, finest
partitions first (the generic Moebius recursion of FinitePoset is the
oracle in the tests).

Coefficient families come in two flavors: c_pi (moment-side) and C_pi
(cumulant-side), related like moments and cumulants; both conversions
run the first-block recursion of the transforms in cumulants.py.
"""

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm, perm

from .categories import O_PLUS, S_PLUS, category_contains, enumerate_category, incidence
from .cumulants import (
    DENSE_GUARD,
    KERNEL,
    CumulantTable,
    MomentTable,
    cumulants_from_moments,
    first_block_shapes,
    kernel_classes,
    moments_from_cumulants,
    representative_tuple,
    tuple_kernels,
)
from .errors import (
    FreedfError,
    IncompleteRestriction,
    MissingLowerOrder,
    NotInvariant,
    NotKernelRepresentable,
    OrderExceedsN,
    TableTooLarge,
)
from .partitions import Partition, num_blocks, relabel, render_index_tuple
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


def _exact_sum(values):
    """Sum of Fractions as one integer sum over their common denominator."""
    D = lcm(*(v.denominator for v in values))
    return Fraction(sum(v.numerator * (D // v.denominator) for v in values), D)


def averaged_coefficients(mt, cat, m):
    """c^avg_sigma = sum_pi Wg(sigma,pi) S_pi with S_pi the delta-sum.

    S_pi sums phi over all tuples whose kernel refines above pi; for
    kernel tables that is sum over classes tau >= pi of (n)_{#tau}
    phi~(tau), the falling factorial perm(n, #tau) counting the tuples in
    the class.
    """
    basis = enumerate_category(cat, m)
    if not basis:
        return {}
    n = mt.n
    if mt.repr == KERNEL:
        class_sums = {tau: perm(n, num_blocks(tau)) * v for tau, v in mt.values[m].items()}
    else:
        kern = tuple_kernels(m, n)
        groups = {}
        for i, v in mt.values[m].items():
            groups.setdefault(kern[i], []).append(v)
        class_sums = {tau: _exact_sum(vs) for tau, vs in groups.items()}
    below = incidence(cat, m, n)
    S = [_ZERO] * len(basis)
    for tau, v in class_sums.items():
        for a in below.get(tau, ()):
            S[a] += v
    wg = weingarten(cat, m, n)
    out = {}
    for a, sigma in enumerate(basis):
        row = wg.entries[a]
        out[sigma] = sum((row[b] * S[b] for b in range(len(basis)) if S[b]), Fraction(0))
    return out


def check_invariance(mt, cat, up_to=None, tolerance=None):
    """Certify G_n-invariance order by order; exact PASS/FAIL report.

    With a tolerance, a nonzero residual fails only when it exceeds
    tolerance * max(1, |expected|); every residual is tested before the
    witnesses are capped at MAX_WITNESSES.
    """
    M = mt.max_order if up_to is None else min(up_to, mt.max_order)
    coefficients = {}
    residuals = {}
    witnesses = []
    failed = False
    for m in range(1, M + 1):
        cavg = averaged_coefficients(mt, cat, m)
        coefficients[m] = cavg
        predicted = _incident_sums(list(cavg.values()), cat, m, mt.n)
        layer = mt.values[m]
        layer_resid = {}
        if mt.repr == KERNEL:
            rows = ((tau, representative_tuple(tau), layer[tau]) for tau in sorted(layer))
        else:
            kern = tuple_kernels(m, mt.n)
            rows = ((kern[i], i, layer[i]) for i in sorted(layer))
        for tau, i, a in rows:
            r = a - predicted[tau] if a != predicted[tau] else _ZERO
            if not layer_resid.get(tau):
                layer_resid[tau] = r
            if r and (tolerance is None or abs(r) > tolerance * max(1, abs(predicted[tau]))):
                failed = True
                if len(witnesses) < MAX_WITNESSES:
                    witnesses.append((m, i, predicted[tau], a))
        residuals[m] = layer_resid
    return InvarianceReport(
        "FAIL" if failed else "PASS", cat, mt.n, mt.max_order, coefficients, residuals, witnesses
    )


def solve_moment_coefficients(table, cat, m, fallback=True):
    """The c_pi family at order m, by triangular (Moebius) inversion on C(m).

    Applied to a cumulant table the same route gives the C_pi family, so
    solve_cumulant_coefficients is this function.
    """
    try:
        view = table.kernel_view(m)
    except NotKernelRepresentable as e:
        raise NotInvariant("table is not kernel-uniform at order %d: %s" % (m, e)) from None
    n = table.n
    basis = enumerate_category(cat, m)
    classes = kernel_classes(m, n)
    if not basis:
        bad = [tau for tau in classes if view[tau] != 0]
        if bad:
            raise NotInvariant(
                "C(%d) is empty for %s but the table is nonzero at kernel %s" % (m, cat, bad[0])
            )
        return CoefficientSlice(cat, m, {}, True)
    if m <= n:
        values = _forward_substitute(view, basis, incidence(cat, m, n), range(len(basis)))
        unique = True
    else:
        if not fallback:
            raise OrderExceedsN("order m=%d exceeds n=%d and fallback is disabled" % (m, n))
        values, unique = _zeta_solve(view, cat, m, n)
    total = _incident_sums(values, cat, m, n)
    for tau in classes:
        if total[tau] != view[tau]:
            raise NotInvariant(
                "no coefficient family reproduces the table at order %d, kernel %s" % (m, tau)
            )
    return CoefficientSlice(cat, m, dict(zip(basis, values)), unique)


solve_cumulant_coefficients = solve_moment_coefficients


def _incident_sums(values, cat, m, n):
    """{tau: sum of values[a] over C(m)[a] <= tau} over the kernel classes."""
    below = incidence(cat, m, n)
    return {tau: sum((values[a] for a in below.get(tau, ())), _ZERO) for tau in kernel_classes(m, n)}


def _forward_substitute(view, basis, below, positions):
    """c_p = phi~(p) - sum_{s < p} c_s on down-closed positions, finest first.

    This is Moebius inversion on C(m) without computing mu.
    """
    c = [None] * len(basis)
    for a in sorted(positions, key=lambda a: -num_blocks(basis[a])):
        c[a] = view[basis[a]] - sum((c[b] for b in below[basis[a]] if b != a), _ZERO)
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
    """The first-block relation of the transforms, on C(m).

    Only shapes whose V and gaps are unions of sigma-blocks count; lower
    orders of the family being built are memoised for this call.
    """
    _family_get(cf, m)
    memo = {}

    def source(sigma):
        return _family_get(cf, len(sigma))[sigma]

    def target(sigma):
        got = memo.get(sigma)
        if got is None:
            kappa, phi = (source, target) if to_moments else (target, source)
            total = _ZERO
            for _, _, cut_v, cut_gaps in first_block_shapes(len(sigma)):
                parts = [cut_v(sigma)] + [cut(sigma) for cut in cut_gaps]
                if sum(len(set(part)) for part in parts) == num_blocks(sigma):
                    term = kappa(relabel(parts[0]))
                    for part in parts[1:]:
                        term *= phi(relabel(part))
                    total += term
            got = memo[sigma] = source(sigma) + total if to_moments else source(sigma) - total
        return got

    return {sigma: target(sigma) for sigma in enumerate_category(cat, m)}


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
    C = seed_coefficients(cat, n, M, seed)
    layers = {m: _incident_sums(list(C[m].values()), cat, m, n) for m in range(1, M + 1)}
    ct = CumulantTable(n, M, layers, repr=KERNEL)
    return moments_from_cumulants(ct)


def semicircular_model(n, M):
    """phi~(tau) = number of non-crossing pairings below tau."""
    layers = {}
    for m in range(1, M + 1):
        below = incidence(O_PLUS, m, n)
        layers[m] = {tau: Fraction(len(below.get(tau, ()))) for tau in kernel_classes(m, n)}
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
    """
    i = tuple(i)
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
    below = incidence(cat, m, m)
    down = below.get(relabel(i), ())
    c = _forward_substitute(view, basis, below, down)
    return sum((c[a] for a in down), Fraction(0))


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
    (target 1).
    """
    if cat not in (S_PLUS, O_PLUS):
        raise FreedfError("asymptotics probe supports categories s+ and o+ only")
    models = sorted(models, key=lambda t: t.n)
    if not models:
        raise FreedfError("asymptotics probe needs at least one table")
    min_n = models[0].n
    kernels = []
    for mt in models:
        if mt.max_order < m:
            raise FreedfError("table at n=%d stops at order %d, below the probed order %d" % (mt.n, mt.max_order, m))
        report = check_invariance(mt, cat, up_to=m)
        if not report.passed:
            raise NotInvariant("table at n=%d is not %s-invariant" % (mt.n, cat))
        kernels.append(cumulants_from_moments(mt.to_kernel()))
    entries = []
    if cat is S_PLUS:
        probe = [t for t in enumerate_category(S_PLUS, m) if 1 < num_blocks(t) <= min_n]
        for tau in probe:
            pairs = [(ct.n, ct.values[m][tau]) for ct in kernels]
            entries.append(
                ProbeEntry("cumulant", m, tau, Fraction(0), pairs, _decay_verdict(pairs, Fraction(0), tolerance))
            )
    else:
        if m % 2 == 0:
            for tau in enumerate_category(O_PLUS, m):
                if num_blocks(tau) > min_n:
                    continue
                if m >= 4:
                    pairs = [(ct.n, ct.values[m][tau]) for ct in kernels]
                    entries.append(
                        ProbeEntry("cumulant", m, tau, Fraction(0), pairs, _decay_verdict(pairs, Fraction(0), tolerance))
                    )
                pairs = [(mt.n, mt.kernel_view(m)[tau]) for mt in models]
                entries.append(
                    ProbeEntry("moment", m, tau, Fraction(1), pairs, _decay_verdict(pairs, Fraction(1), tolerance))
                )
    verdict = "DECAY" if all(e.verdict == "DECAY" for e in entries) else "NO-DECAY"
    return ProbeReport(cat, m, entries, verdict)
