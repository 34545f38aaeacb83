"""Exact-arithmetic toolkit for superelliptic Jacobians.

Curves y^m = F(x) with F separable: ramification-divisor torsion
presentations, character-sum zeta functions for y^q = x^p - x + a,
brute-force Picard group structure over small fields, and rank
certificates for families with many rational Weierstrass-type points.
"""

import importlib

__version__ = "0.1.0"

# exported name -> submodule; imported on first access (PEP 562), so
# importing the package or its CLI loads none of the math modules
_HOME = {name: mod for mod, names in (
    ("curves", ("CurveSpec", "Divisor", "FunctionRep", "base_change",
                "make_curve", "principal_divisor", "splitting_extension")),
    ("delta", ("decide_principal_delta", "delta_presentation",
               "delta_structure", "replay_proof")),
    ("picard", ("conjecture_check", "is_principal", "picard_group")),
    ("rank", ("certify_rank", "check_freeness_hypotheses",
              "find_witness_prime")),
    ("zeta", ("counts_by_charsum", "lpoly_from_counts", "power_law_check",
              "torsion_criterion", "zeta_numerator_charsum")),
) for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    mod = _HOME.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{mod}", __name__), name)
    globals()[name] = value
    return value
