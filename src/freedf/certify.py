"""Invariance certification and coefficient extraction.

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
sigma <= tau sum reads categories.incidence. The m <= n solve, every
re-sum check and averaging add integer numerators over one common
denominator and divide once per result.
"""

import itertools
from fractions import Fraction
from math import lcm, perm
from operator import ne

from .categories import _forward_substitute, _incident_sums, enumerate_category, incidence
from .cumulants import DENSE, representative_tuple, tuple_kernels
from .errors import NotInvariant, NotKernelRepresentable, OrderExceedsN, SchemaError, TableTooLarge
from .partitions import kernel_classes, num_blocks, render_index_tuple
from .rationals import DENSE_GUARD, format_rational, scale_into, to_integers

MAX_WITNESSES = 100
_ZERO = Fraction(0)
_ONE = Fraction(1)


class CoefficientSlice:
    """One order of a coefficient family, with uniqueness information."""

    def __init__(self, cat, m, values, unique=True):
        self.cat, self.m, self.values, self.unique = cat, m, values, unique

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class InvarianceReport:
    def __init__(self, verdict, category, n, max_order, coefficients=None, residuals=None, witnesses=None):
        self.verdict, self.category, self.n, self.max_order = verdict, category, n, max_order
        self.coefficients = {} if coefficients is None else coefficients
        self.residuals = {} if residuals is None else residuals
        self.witnesses = [] if witnesses is None else witnesses

    __eq__ = CoefficientSlice.__eq__

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
    else:  # each class's sum of its words, in one pass over the words' classes
        sums = dict.fromkeys(kernel_classes(m, n), 0)
        for tau, v in zip(tuple_kernels(m, n), nums):
            sums[tau] += v
    below = incidence(cat, m, n)
    S = [0] * len(basis)
    for tau, v in sums.items():
        if v:
            for a in below.get(tau, ()):
                S[a] += v
    from .weingarten import weingarten
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


def _zeta_solve(view, cat, m, n):
    """Exact elimination of phi~(tau) = sum_{sigma<=tau} c_sigma.

    Used beyond the m <= n regime where the triangular route is not
    available. Free variables are pinned to 0 and uniqueness reported.
    Above DENSE_GUARD elimination steps (rows x cols x min(rows, cols))
    it raises before building anything.
    """
    basis = enumerate_category(cat, m)
    classes = kernel_classes(m, n)
    if len(classes) * len(basis) * min(len(classes), len(basis)) > DENSE_GUARD:
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
