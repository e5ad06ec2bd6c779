"""Information sets and permutation decoding for abelian codes.

The pipeline: describe a code by its defining set (orbit module), build
check positions combinatorially (gamma module), verify them against the
parity matrix (code module), optionally transport cyclic codes through a
coprime factorization (crt module), and decode with the translation and
Frobenius permutations (permdec module).
"""

from .code import (AbelianCode, DistanceResult, MatrixGF, VerifyResult,
                   check_tensor, contains, distance_at_least, encode,
                   find_low_weight_codeword, generator_matrix, min_distance,
                   parity_matrix, standard_form_parity,
                   verify_check_positions)
from .crt import CrtMap
from .gamma import CheckSet, FGTables, build_gamma, compute_fg
from .gf import (FieldContext, FieldError, ScalarField, build_context,
                 root_of_unity, subfield_coords)
from .orbit import (Ambient, DefiningSet, NotOrbitClosed, RestrictedReps,
                    coset, frobenius_order, from_orbit_reps,
                    normalize_ordering, orbits, permute, qorbit,
                    restricted_reps, unpermute, validate_defining_set)
from .permdec import (PDResult, PDSet, SearchConstraints, SearchHit,
                      design_report, design_search, enumerate_lambda,
                      is_pd_set, lemma13_check, lemma15_check,
                      permutation_decode, translation_subgroup)

__version__ = "0.1.0"
