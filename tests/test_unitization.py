"""Unit extensions: construction, recognition, states, congruence transfer."""

from __future__ import annotations

import itertools
import random

import pytest

import gpea.ideals
import gpea.unitization
from gpea import (
    MalformedTableError,
    Partition,
    UnitizationAlgebra,
    base_ideal_is_riesz_iff_upward,
    boolean,
    chain,
    classify_subset,
    congruence_suite,
    enumerate_ideals,
    enumerate_unitizing,
    extend_congruence,
    fig1,
    find_morphisms,
    gamma_unitize,
    is_isomorphism,
    is_unitizing,
    lift_congruence_biconditional,
    pea_view,
    quotient,
    quotient_unitization,
    recognize_unitization,
    restriction_verdict,
    sim_from_ideal,
    smallest_ideal_comparison,
    two_valued_states,
)
from gpea.catalog import enumerate_gpeas
from gpea.verify import standard_instances

IDENTITY6 = (0, 1, 2, 3, 4, 5)
SWAP6 = (0, 2, 1, 3, 5, 4)


# ------------------------------------------------------------ twist detection


def test_identity_is_unitizing_exactly_on_weakly_commutative_tables(
    small_pool,
):
    for label, g in small_pool:
        expected = g.flags.weakly_commutative
        assert is_unitizing(g, tuple(range(g.size))) == expected, label


def test_fig1_has_two_unitizing_automorphisms(fig1_algebra):
    assert enumerate_unitizing(fig1_algebra) == [IDENTITY6, SWAP6]


def test_automorphism_failing_definedness_transfer_is_not_unitizing():
    # In this table 1+1 is defined but 3+3 is its only mirror image under
    # the swap, and 3+1 is undefined, so the transfer condition breaks.
    g = enumerate_gpeas(4)[1]
    assert find_morphisms(g, g) == [(0, 1, 2, 3), (0, 3, 2, 1)]
    assert is_unitizing(g, (0, 3, 2, 1)) is False
    assert enumerate_unitizing(g) == [(0, 1, 2, 3)]


def test_non_automorphism_is_not_unitizing(fig1_algebra):
    assert is_unitizing(fig1_algebra, (0, 1, 2, 4, 3, 5)) is False


def _brute_transfer(g, perm):
    """``perm(a) + b`` is defined exactly when ``b + a`` is."""
    return all(
        g.defined(perm[a], b) == g.defined(b, a) for a in g.elements for b in g.elements
    )


def _brute_unitizing(g, perm):
    """The definition itself: relabelling by ``perm`` leaves the table
    unchanged, and the definedness transfer holds."""
    op = {(a, b): s for a, b, s in g.sums}
    relabelled = {(perm[a], perm[b]): perm[s] for (a, b), s in op.items()}
    return relabelled == op and _brute_transfer(g, perm)


def test_unitizing_and_twist_checks_match_brute_force(fig1_algebra, enumerated_by_size):
    algebras = [fig1_algebra, chain(2), boolean(2)]
    algebras += [g for tables in enumerated_by_size.values() for g in tables]
    for g in algebras:
        for rest in itertools.permutations(range(1, g.size)):
            perm = (0, *rest)
            # The flat-table transfer on every permutation, automorphism or not.
            transfer = gpea.unitization._definedness_transfer(g, perm)
            assert transfer == _brute_transfer(g, perm), (g, perm)
            assert is_unitizing(g, perm) == _brute_unitizing(g, perm), (g, perm)
            if is_isomorphism(g, g, perm):
                classify_subset(g, {0}, perm)
            else:
                with pytest.raises(MalformedTableError, match="not an automorphism"):
                    classify_subset(g, {0}, perm)


def test_antichain_admits_every_zero_fixing_permutation():
    assert len(enumerate_unitizing(enumerate_gpeas(4)[4])) == 6


def test_unitize_rejects_non_unitizing_twist():
    g = enumerate_gpeas(4)[1]
    with pytest.raises(MalformedTableError):
        gamma_unitize(g, (0, 3, 2, 1))


# -------------------------------------------------------------- construction


def test_extension_layout(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    u = ua.algebra
    assert u.size == 12
    assert ua.unit == 6
    assert ua.base_members == frozenset(range(6))
    assert ua.mirror_members == frozenset(range(6, 12))
    assert [ua.eta(a) for a in range(6)] == list(range(6, 12))
    assert u.name(6) == "η0" and u.name(7) == "ηa" and u.name(11) == "ηb+c"
    assert u.flags.has_unit and u.flags.upward_directed


def test_extensions_are_equal_exactly_when_base_and_twist_are(fig1_algebra):
    built = UnitizationAlgebra(fig1_algebra, SWAP6)
    again = gamma_unitize(fig1_algebra, SWAP6)
    assert built.algebra is not again.algebra
    assert built == again and hash(built) == hash(again)
    assert built != gamma_unitize(fig1_algebra, IDENTITY6)


def test_extension_operation_clauses(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    u = ua.algebra
    # Base sums are preserved.
    for a, b, s in fig1_algebra.sums:
        assert u.value(a, b) == s
    # a + ηb is defined exactly when a <= b, with value η(b minus a).
    assert u.value(1, ua.eta(4)) == ua.eta(3)
    assert u.value(1, ua.eta(5)) is None
    # Mirror elements never compose with each other.
    assert u.value(ua.eta(1), ua.eta(2)) is None
    # The unit is η0 and every element has it as an upper bound.
    assert all(u.le(x, ua.unit) for x in u.elements)


def test_supplement_formulas_encode_the_twist(fig1_algebra):
    for gamma in (IDENTITY6, SWAP6):
        ua = gamma_unitize(fig1_algebra, gamma)
        view = pea_view(ua.algebra)
        for a in range(6):
            assert view.right_supp[a] == ua.eta(a)
            assert view.left_supp[a] == ua.eta(gamma[a])
            assert view.ll(a) == gamma[a]
            assert view.left_supp[ua.eta(a)] == a


def test_base_is_a_normal_maximal_proper_ideal():
    """Every unit extension of the budget-5 instances, fig1 among them.
    Construction proves maximality rather than searching for it, so the
    ideals strictly between the base and the carrier are enumerated here."""
    instances = standard_instances(5)
    assert "fig1" in dict(instances)
    extensions = [
        gamma_unitize(g, gamma) for _, g in instances for gamma in enumerate_unitizing(g)
    ]
    assert len(extensions) == 56
    for ua in extensions:
        flags = classify_subset(ua.algebra, ua.base_members)
        assert flags.ideal and flags.normal, ua
        between = [
            members
            for members in enumerate_ideals(ua.algebra)
            if ua.base_members < members and len(members) < ua.algebra.size
        ]
        assert between == [], ua


def test_two_element_extension_is_the_square():
    ua = gamma_unitize(chain(1), (0, 1))
    assert ua.algebra.size == 4
    assert find_morphisms(ua.algebra, boolean(2))


# ----------------------------------------------------------------- recognition


def test_recognition_roundtrip(fig1_algebra):
    for gamma in (IDENTITY6, SWAP6):
        ua = gamma_unitize(fig1_algebra, gamma)
        rec = recognize_unitization(ua.algebra, ua.base_members)
        assert rec.recognized and bool(rec)
        assert rec.gamma == gamma
        assert rec.extension.algebra.same_table(ua.algebra)
        assert rec.diagnostics == "ok"


def test_recognition_accepts_relabelled_extensions():
    rec = recognize_unitization(boolean(2), {0, 1})
    assert rec.recognized
    assert rec.gamma == (0, 1)
    assert rec.iso is not None


def test_recognition_soft_rejections(fig1_algebra):
    assert not recognize_unitization(fig1_algebra, {0, 3}).recognized
    assert (
        recognize_unitization(fig1_algebra, {0, 3}).diagnostics
        == "carrier has no unit"
    )
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    # Subset of the wrong size, subset containing the unit, subset missing 0.
    assert not recognize_unitization(ua.algebra, {0, 1, 2}).recognized
    assert not recognize_unitization(ua.algebra, ua.mirror_members).recognized
    assert not recognize_unitization(ua.algebra, {1, 2, 3, 4, 5, 6}).recognized


def passes_soft_clauses(u, members: frozenset[int]) -> bool:
    """The clauses ``recognize_unitization`` rejects softly, on a unital
    ``u``."""
    outside = [x for x in u.elements if x not in members]
    return (
        0 in members
        and u.pea.unit not in members
        and all(s in members for a, b, s in u.sums if a in members and b in members)
        and not any(u.defined(x, y) for x in outside for y in outside)
    )


def test_recognition_shape_is_forced_by_the_soft_clauses():
    """Every subset of every unital algebra of size at most 7 that passes
    the soft clauses has as many members as non-members, and the double
    left supplement maps it into itself; recognition then succeeds."""
    algebras = passing = 0
    for n in range(1, 8):
        for u in enumerate_gpeas(n, has_unit=True):
            algebras += 1
            for bits in range(1 << n):
                members = frozenset(x for x in u.elements if bits >> x & 1)
                if not passes_soft_clauses(u, members):
                    continue
                assert 2 * len(members) == n
                assert all(u.pea.ll(x) in members for x in members)
                assert_recognized(u, members)
                passing += 1
    assert (algebras, passing) == (42, 10)


def assert_recognized(u, members) -> None:
    """Recognition succeeds, its twist is unitizing and its map is an
    isomorphism onto ``u``: what ``recognize_unitization`` proves
    without checking."""
    rec = recognize_unitization(u, members)
    assert rec.recognized, rec.diagnostics
    assert is_unitizing(rec.extension.base, rec.gamma)
    assert is_isomorphism(rec.extension.algebra, u, rec.iso)


def test_recognized_twist_and_map_hold_on_every_small_extension():
    """Every unit extension of a base of at most four elements, and a
    seeded relabelling of each that fixes 0, recognized from its base."""
    rng = random.Random(30)
    extensions = 0
    for n in range(1, 5):
        for g in enumerate_gpeas(n):
            for gamma in enumerate_unitizing(g):
                u = gamma_unitize(g, gamma).algebra
                assert_recognized(u, range(n))
                perm = [0, *rng.sample(range(1, 2 * n), 2 * n - 1)]
                assert_recognized(u.relabel(perm), {perm[x] for x in range(n)})
                extensions += 1
    assert extensions == 15


# ---------------------------------------------------------------------- states


def test_two_valued_state_kernels_on_fig1_extension(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    states = two_valued_states(ua.algebra)
    kernels = [sorted(s.kernel) for s in states]
    assert kernels == [
        [0, 1, 2, 3, 4, 5],
        [0, 1, 2, 9, 10, 11],
        [0, 1, 3, 4, 8, 11],
        [0, 2, 3, 5, 7, 10],
        [0, 3, 7, 8, 10, 11],
    ]
    for s in states:
        assert s.values[ua.unit] == 1 and s.values[0] == 0


def test_two_valued_state_kernel_on_chain_extension():
    ua = gamma_unitize(chain(2), (0, 1, 2))
    assert [sorted(s.kernel) for s in two_valued_states(ua.algebra)] == [
        [0, 1, 2]
    ]


def test_state_additivity(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    for s in two_valued_states(ua.algebra):
        for a, b, c in ua.algebra.sums:
            assert s.values[a] + s.values[b] == s.values[c]


# ------------------------------------------------------- congruence transfer


def test_extend_congruence_mirrors_base_blocks(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    assert extend_congruence(ua, Partition.identity(6)) == Partition.identity(
        12
    )
    extended = extend_congruence(ua, sim_from_ideal(fig1_algebra, {0, 3}))
    assert set(extended.blocks) == {
        frozenset(b)
        for b in ({0, 3}, {1, 4}, {2, 5}, {6, 9}, {7, 10}, {8, 11})
    }


def test_lift_biconditional_over_all_base_congruences(fig1_algebra):
    from gpea import congruences

    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    count = 0
    for rel in congruences(fig1_algebra):
        assert lift_congruence_biconditional(ua, rel)
        count += 1
    assert count == 8


def test_suite_on_padded_ideal_is_all_positive(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    report = congruence_suite(ua, {0, 3})
    assert report.passed
    assert report.equivalent
    assert report.gcr and report.gcr_right_variant and report.forms_agree
    assert report.lift_riesz and report.ideal_riesz_in_extension
    assert report.gcr_triangle
    assert report.upward_all is None  # base is not upward directed


def test_suite_computes_each_padded_sum_form_once(fig1_algebra, monkeypatch):
    forms = []
    gcr_condition = gpea.ideals.gcr_condition

    def counted(*args, **kwargs):
        forms.append(kwargs["form"])
        return gcr_condition(*args, **kwargs)

    monkeypatch.setattr(gpea.ideals, "gcr_condition", counted)
    monkeypatch.setattr(gpea.unitization, "gcr_condition", counted)
    assert congruence_suite(gamma_unitize(fig1_algebra, SWAP6), {0, 3}).passed
    assert forms == [1, 2]


def test_suite_on_unpadded_ideal_shows_the_negative_side(fig1_algebra):
    # {0,a,b} is normal Riesz and twist-closed in the base, yet its
    # relation admits no member padding for the pair (a+c, b+c); the
    # suite's biconditionals all hold, with the padded/Riesz-in-extension
    # verdicts both negative.
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    report = congruence_suite(ua, {0, 1, 2})
    assert report.passed
    assert report.equivalent
    assert dict(report.conditions) == {
        "lift_c3": True,
        "ideal_riesz_twist_closed": True,
        "relation_twist_c4_c5p": True,
        "lift_full_congruence": True,
    }
    assert report.gcr is False
    assert report.lift_riesz is False
    assert report.ideal_riesz_in_extension is False
    assert report.gcr_triangle  # the biconditional itself still holds


def test_suite_on_upward_base_checks_the_unconditional_clause():
    report = congruence_suite(gamma_unitize(chain(2), (0, 1, 2)), {0, 1, 2})
    assert report.passed and report.upward_all is True
    assert "upward_all=true" in report.lines()


def test_suite_rejects_subsets_outside_its_hypotheses(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    with pytest.raises(MalformedTableError):
        congruence_suite(ua, {0, 4})  # not an ideal of the base


# --------------------------------------------------- quotient-then-extend


def test_quotient_extension_square_on_the_boolean_table():
    b = boolean(2)
    rel = sim_from_ideal(b, {0, 2})
    q = quotient(b, rel)
    assert q.size == 2 and find_morphisms(q, chain(1))
    verdict = quotient_unitization(gamma_unitize(b, (0, 1, 2, 3)), rel)
    assert verdict.passed
    assert verdict.gamma_tilde == (0, 1)
    assert verdict.detail == "tables coincide"


def test_quotient_extension_square_on_fig1_blocks(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    verdict = quotient_unitization(ua, sim_from_ideal(fig1_algebra, {0, 3}))
    assert verdict.passed


def test_quotient_extension_rejects_non_congruences(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    with pytest.raises(MalformedTableError):
        quotient_unitization(ua, Partition.from_block_of([0, 0, 1, 2, 3, 4]))


# ------------------------------------------------------- ideal transfer facts


def test_base_riesz_iff_upward_on_named_instances(fig1_algebra):
    assert base_ideal_is_riesz_iff_upward(
        gamma_unitize(fig1_algebra, IDENTITY6)
    ) == (False, False)
    assert base_ideal_is_riesz_iff_upward(
        gamma_unitize(chain(2), (0, 1, 2))
    ) == (True, True)


def test_restriction_of_extension_ideals_to_the_base(fig1_algebra):
    assert restriction_verdict(gamma_unitize(fig1_algebra, IDENTITY6)) == (
        True,
        None,
    )
    assert restriction_verdict(gamma_unitize(chain(2), (0, 1, 2))) == (
        True,
        None,
    )


def test_smallest_ideal_comparison_diverges_on_chains():
    # The base of a chain has only its improper whole as a nontrivial
    # normal Riesz ideal, while the extension has two incomparable ones
    # ({0, η-top} and the base), hence no smallest: the two sides of the
    # existence statement genuinely disagree under the improper-included
    # reading and agree under the proper-only reading.
    cmp_default = smallest_ideal_comparison(gamma_unitize(chain(2), (0, 1, 2)))
    assert cmp_default.base_smallest == frozenset({0, 1, 2})
    assert cmp_default.extension_smallest is None
    assert cmp_default.agree is False
    cmp_proper = smallest_ideal_comparison(
        gamma_unitize(chain(2), (0, 1, 2)), include_improper=False
    )
    assert cmp_proper.base_smallest is None
    assert cmp_proper.extension_smallest is None
    assert cmp_proper.agree is True


def test_smallest_ideal_comparison_agrees_on_fig1(fig1_algebra):
    cmp = smallest_ideal_comparison(gamma_unitize(fig1_algebra, IDENTITY6))
    assert cmp.base_smallest is None
    assert cmp.extension_smallest is None
    assert cmp.agree is True
