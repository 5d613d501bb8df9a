"""Randomized invariants over freshly generated filtrations.

Every filtration drawn here is valid by construction: derivative
conditions are added in order-complete layers, first-order directional
conditions hold identically, and value gluings follow a tree pattern.
That lets each suite run hundreds of instances without filtering.  The
suites live in ``support``, because acceptance criteria 9 and 10 time
them too; ``support.run_suite_once`` runs each one once per session.
"""

import support


def test_subduction_reaches_an_irreducible_remainder():
    support.run_suite_once(support.subduction_reaches_an_irreducible_remainder)


def test_missing_monomials_grow_one_per_level():
    support.run_suite_once(support.missing_monomials_grow_one_per_level)


def test_far_conditions_leave_local_dimension_alone():
    support.run_suite_once(support.far_conditions_leave_local_dimension_alone)


def test_gluing_two_clusters_adds_their_dimensions():
    support.run_suite_once(support.gluing_two_clusters_adds_their_dimensions)


def test_dimension_bounded_by_generator_count():
    support.run_suite_once(support.dimension_bounded_by_generator_count)


def test_product_rule_expansions_match_direct_derivatives():
    support.run_suite_once(support.product_rule_expansions_match_direct_derivatives)


def test_each_gluing_merges_one_cluster():
    support.run_suite_once(support.each_gluing_merges_one_cluster)


def test_membership_matches_linear_algebra():
    support.run_suite_once(support.membership_matches_linear_algebra)
