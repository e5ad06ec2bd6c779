"""Information sets and permutation decoding for abelian codes.

The pipeline: describe a code by its defining set (orbit module), build
check positions combinatorially (gamma module), verify them against the
parity matrix (code module), optionally transport cyclic codes through a
coprime factorization (crt module), and decode with the translation and
Frobenius permutations (permdec module).

orbit, gamma and crt need no numpy and load with the package; code, gf
and permdec load numpy, so each is imported when one of its exported
names is first read (PEP 562).
"""

import importlib

from . import crt, gamma, orbit

# home module -> the names the package exports from it
_EXPORTS = {
    "code": ("AbelianCode", "DistanceResult", "MatrixGF", "VerifyResult",
             "check_tensor", "contains", "distance_at_least", "encode",
             "find_low_weight_codeword", "generator_matrix", "min_distance",
             "parity_matrix", "standard_form_parity", "verify_check_positions"),
    "crt": ("CrtMap",),
    "gamma": ("CheckSet", "FGTables", "build_gamma", "compute_fg"),
    "gf": ("FieldContext", "FieldError", "ScalarField", "build_context",
           "root_of_unity", "subfield_coords"),
    "orbit": ("Ambient", "DefiningSet", "NotOrbitClosed", "RestrictedReps",
              "coset", "frobenius_order", "from_orbit_reps",
              "normalize_ordering", "orbits", "permute", "qorbit",
              "restricted_reps", "unpermute", "validate_defining_set"),
    "permdec": ("PDResult", "PDSet", "SearchConstraints", "SearchHit",
                "design_report", "design_search", "enumerate_lambda",
                "is_pd_set", "lemma13_check", "lemma15_check",
                "permutation_decode", "translation_subgroup"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)
__version__ = "0.1.0"


def __getattr__(name):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value   # later reads skip this hook
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
