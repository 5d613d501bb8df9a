"""Randomized invariants over freshly generated filtrations.

Every filtration drawn here is valid by construction: derivative
conditions are added in order-complete layers, first-order directional
conditions hold identically, and value gluings follow a tree pattern.
That lets each suite run hundreds of instances without filtering.  The
suites live in ``support``, because acceptance criteria 9 and 10 run
them too; importing them here collects them as tests.
"""

from support import (
    test_dimension_bounded_by_generator_count,
    test_each_gluing_merges_one_cluster,
    test_far_conditions_leave_local_dimension_alone,
    test_gluing_two_clusters_adds_their_dimensions,
    test_membership_matches_linear_algebra,
    test_missing_monomials_grow_one_per_level,
    test_product_rule_expansions_match_direct_derivatives,
    test_subduction_reaches_an_irreducible_remainder,
)
