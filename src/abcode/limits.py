"""Size policies and budgets, in a module that imports nothing.

`orbit` checks every ambient against the field-size policy and the length
limit, and the CLI takes its option defaults and choices from here, so the
subcommands that do no linear algebra (`orbits`, `infoset`) never load
numpy.
"""

MAX_FIELD_BITS = 64   # no field of more than 2^64 elements is built

# positions an ambient may have: orbits(Ambient(2, (1023, 1025))), with
# l = 1 048 575, takes 2.6 s and 243 MB of peak RSS on a 2-vCPU Xeon
MAX_LENGTH = 1 << 20

# s-subsets an is_pd_set walk could reach: C(l, s) is counted against it,
# although the walk may stop early (at a witness, or past the subsets that
# hold position 0 on a table closed under translations)
PD_SUBSET_BUDGET = 2_000_000
SEARCH_BUDGET = 1 << 20        # orbit unions design_search may enumerate
PD_MODE_NAMES = ("exhaustive", "lemma13", "lemma15")   # permdec.PD_MODES' keys


class FieldError(ValueError):
    """A field past the size policy, or an element outside its field."""
