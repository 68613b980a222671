"""Probes of moment tables: the semicircular model, normalized block
sums, and the asymptotic-freeness probe across a family in n, which
alone certifies and transforms its tables (certify.py and the
transforms, imported when it runs).
"""

from fractions import Fraction
from math import perm

from .categories import O_PLUS, S_PLUS, category_contains, enumerate_category, incidence
from .cumulants import KERNEL, MomentTable
from .errors import FreedfError, NotInvariant, NotNCPairing
from .partitions import Partition, kernel_classes, num_blocks
from .rationals import format_rational

_ZERO = Fraction(0)
_ONE = Fraction(1)


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
        raise NotNCPairing("p must be a non-crossing pairing, got %s" % (p,))
    k = p.size // 2
    n = mt.n
    view = mt.kernel_view(p.size)
    a = enumerate_category(O_PLUS, p.size).index(p)
    above = (tau for tau, below in incidence(O_PLUS, p.size, n).items() if a in below)
    total = sum((perm(n, num_blocks(tau)) * view[tau] for tau in above), Fraction(0))
    return total / Fraction(n) ** k


class ProbeEntry:
    def __init__(self, kind, m, tau, target, values, verdict):
        self.kind, self.m, self.tau, self.target, self.values, self.verdict = kind, m, tau, target, values, verdict

    def __eq__(self, other):
        return vars(self) == vars(other) if type(other) is type(self) else NotImplemented


class ProbeReport:
    def __init__(self, category, m, entries, verdict):
        self.category, self.m, self.entries, self.verdict = category, m, entries, verdict

    __eq__ = ProbeEntry.__eq__

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
    from .certify import _certify, _check_tolerance
    from .cumulants import cumulants_from_moments
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
