"""freedf: exact combinatorics of free easy quantum groups.

Non-crossing partition categories, Moebius inversion, Weingarten
calculus, free moment-cumulant transforms, and de Finetti invariance
tools, all in exact rational arithmetic.
"""

import sys

from .categories import (
    B_PLUS,
    H_PLUS,
    O_PLUS,
    S_PLUS,
    CategoryId,
    c_leq,
    category_contains,
    enumerate_category,
    parse_category,
)
from .errors import FreedfError
from .partitions import (
    Partition,
    enumerate_partitions,
    is_noncrossing,
    join,
    kernel,
    leq,
    parse_partition,
    restrict,
)

__version__ = "0.1.0"


def _lazy(space, homes):
    """The PEP 562 hooks (__getattr__, __dir__) of the module whose globals
    are space, which lends each name of homes[home] from its sibling module
    home, imported on the name's first use and the value kept in space.
    Any other name is an AttributeError that imports nothing (`from .x
    import y` also asks x for __path__), and dir() lists every lent name."""
    home_of = {name: home for home, names in homes.items() for name in names}

    def __getattr__(name):
        if name not in home_of:
            raise AttributeError("module %r has no attribute %r" % (space["__name__"], name))
        value = space[name] = getattr(__import__(home_of[name], space, None, [name], 1), name)
        return value

    def __dir__():
        return sorted({*space, *home_of})

    return __getattr__, __dir__


class _Package(type(sys)):
    """The import system binds each submodule it loads on the package;
    bind the weingarten one as its function, which freedf.weingarten is."""

    def __setattr__(self, name, value):
        if name == "weingarten" and type(value) is type(sys):
            value = value.weingarten
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__all__ = [
    "B_PLUS",
    "H_PLUS",
    "O_PLUS",
    "S_PLUS",
    "CategoryId",
    "CoefficientSlice",
    "CumulantTable",
    "FinitePoset",
    "FreedfError",
    "InvarianceReport",
    "MomentTable",
    "Partition",
    "asymptotic_freeness_probe",
    "averaged_coefficients",
    "c_from_C",
    "C_from_c",
    "c_leq",
    "category_contains",
    "check_invariance",
    "cumulants_from_moments",
    "enumerate_category",
    "enumerate_partitions",
    "generate_invariant_model",
    "gram",
    "haar_moment",
    "is_noncrossing",
    "join",
    "kappa_pi",
    "kernel",
    "leq",
    "mobius",
    "mobius_to_top_full_lattice",
    "mobius_to_top_nc",
    "moments_from_cumulants",
    "normalized_block_sum",
    "parse_category",
    "parse_partition",
    "phi_pi",
    "reconstruct_infinite",
    "restrict",
    "seed_coefficients",
    "semicircular_model",
    "solve_cumulant_coefficients",
    "solve_moment_coefficients",
    "table_from_json",
    "verify_inverse",
    "weingarten",
    "wg_scaled",
]

# The names of __all__ not imported above are the matrix, poset, table and
# de Finetti layers. They load on first use, so jobs that never reach them
# do not compile them: `import freedf` compiles only categories, partitions
# and errors.
_LENT = {
    "weingarten": ("gram", "haar_moment", "verify_inverse", "weingarten", "wg_scaled"),
    "posets": ("FinitePoset", "mobius", "mobius_to_top_full_lattice", "mobius_to_top_nc"),
    "cumulants": ("CumulantTable", "MomentTable", "cumulants_from_moments", "kappa_pi", "moments_from_cumulants",
                  "phi_pi", "table_from_json"),
}
_LENT["definetti"] = [name for name in __all__ if name not in globals() and name not in sum(_LENT.values(), ())]
__getattr__, __dir__ = _lazy(globals(), _LENT)
