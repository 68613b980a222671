"""The de Finetti layer, one module per job family.

Each name loads its own module on first use (PEP 562), so a job compiles
only the family it calls:

  certify   check_invariance, averaged_coefficients, solve_moment_coefficients,
            solve_cumulant_coefficients, CoefficientSlice, InvarianceReport
  families  c_from_C, C_from_c, seed_coefficients, generate_invariant_model,
            reconstruct_infinite
  probes    semicircular_model, normalized_block_sum, asymptotic_freeness_probe,
            ProbeEntry, ProbeReport
"""

_HOMES = {
    "certify": ("check_invariance", "averaged_coefficients", "solve_moment_coefficients",
                "solve_cumulant_coefficients", "CoefficientSlice", "InvarianceReport"),
    "families": ("c_from_C", "C_from_c", "seed_coefficients", "generate_invariant_model", "reconstruct_infinite"),
    "probes": ("semicircular_model", "normalized_block_sum", "asymptotic_freeness_probe", "ProbeEntry", "ProbeReport"),
}
_HOME = {name: home for home, names in _HOMES.items() for name in names}
__all__ = sorted(_HOME)


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = globals()[name] = getattr(__import__(_HOME[name], globals(), None, [name], 1), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__})
