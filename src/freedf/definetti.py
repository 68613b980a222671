"""The de Finetti layer, one module per job family.

Each name loads its own module on first use, through the package's one
PEP 562 hook (freedf._lazy), so a job compiles only the family it calls:

  certify   check_invariance, averaged_coefficients, solve_moment_coefficients,
            solve_cumulant_coefficients, CoefficientSlice, InvarianceReport
  families  c_from_C, C_from_c, seed_coefficients, generate_invariant_model,
            reconstruct_infinite
  probes    semicircular_model, normalized_block_sum, asymptotic_freeness_probe,
            ProbeEntry, ProbeReport
"""

from . import _lazy

_HOMES = {
    "certify": ("check_invariance", "averaged_coefficients", "solve_moment_coefficients",
                "solve_cumulant_coefficients", "CoefficientSlice", "InvarianceReport"),
    "families": ("c_from_C", "C_from_c", "seed_coefficients", "generate_invariant_model", "reconstruct_infinite"),
    "probes": ("semicircular_model", "normalized_block_sum", "asymptotic_freeness_probe", "ProbeEntry", "ProbeReport"),
}
__all__ = sorted(sum(_HOMES.values(), ()))
__getattr__, __dir__ = _lazy(globals(), _HOMES)
