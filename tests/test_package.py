"""The package's exports: every name the package has exported, each the
object its home module defines, with the numpy-backed modules imported
only when one of their names is read."""

import importlib

import pytest

import abcode

# home module -> the names `abcode` exported when it imported them all eagerly
EXPORTS = {
    "code": ["AbelianCode", "DistanceResult", "MatrixGF", "VerifyResult",
             "check_tensor", "contains", "distance_at_least", "encode",
             "find_low_weight_codeword", "generator_matrix", "min_distance",
             "parity_matrix", "standard_form_parity", "verify_check_positions"],
    "crt": ["CrtMap"],
    "gamma": ["CheckSet", "FGTables", "build_gamma", "compute_fg"],
    "gf": ["FieldContext", "FieldError", "ScalarField", "build_context",
           "root_of_unity", "subfield_coords"],
    "orbit": ["Ambient", "DefiningSet", "NotOrbitClosed", "RestrictedReps",
              "coset", "frobenius_order", "from_orbit_reps",
              "normalize_ordering", "orbits", "permute", "qorbit",
              "restricted_reps", "unpermute", "validate_defining_set"],
    "permdec": ["PDResult", "PDSet", "SearchConstraints", "SearchHit",
                "design_report", "design_search", "enumerate_lambda",
                "is_pd_set", "lemma13_check", "lemma15_check",
                "permutation_decode", "translation_subgroup"],
}
NAMES = [name for names in EXPORTS.values() for name in names]


def test_all_is_the_export_list():
    assert sorted(abcode.__all__) == sorted(NAMES)
    assert len(abcode.__all__) == len(NAMES) == 51
    assert set(NAMES) <= set(dir(abcode))


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_each_name_is_its_home_module_object(module):
    home = importlib.import_module(f"abcode.{module}")
    for name in EXPORTS[module]:
        assert getattr(abcode, name) is getattr(home, name), name


def test_star_import_binds_every_name():
    namespace = {}
    exec("from abcode import *", namespace)
    for module, names in EXPORTS.items():
        home = importlib.import_module(f"abcode.{module}")
        for name in names:
            assert namespace[name] is getattr(home, name), name


def test_gf_still_exports_the_field_policy():
    import abcode.gf
    import abcode.limits
    assert abcode.gf.FieldError is abcode.limits.FieldError is abcode.FieldError
    assert abcode.gf.MAX_FIELD_BITS == abcode.limits.MAX_FIELD_BITS == 64


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        abcode.no_such_name
    assert not hasattr(abcode, "_bz_min")
    with pytest.raises(ImportError):
        exec("from abcode import no_such_name", {})
