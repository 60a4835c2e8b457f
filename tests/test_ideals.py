"""Ideal classification, quotient relations, and congruence machinery."""

from __future__ import annotations

import itertools

import pytest

from gpea import (
    AlgebraError,
    BudgetExceededError,
    MalformedTableError,
    Partition,
    all_partitions,
    boolean,
    chain,
    classify_relation,
    classify_subset,
    congruences,
    enumerate_ideals,
    fig1,
    find_morphisms,
    gamma_unitize,
    gcr_condition,
    ideal_closure,
    normal_ideal_lemmas,
    normal_riesz_ideals,
    quotient,
    riesz_congruence_roundtrip,
    sim_from_ideal,
    smallest_normal_riesz_ideal,
)
from gpea.catalog import enumerate_gpeas

IDENTITY6 = (0, 1, 2, 3, 4, 5)


# -------------------------------------------------------------- subset flags


def test_fig1_zero_and_c_ideal_is_riesz_and_twist_closed(fig1_algebra):
    flags = classify_subset(fig1_algebra, {0, 3}, IDENTITY6)
    assert dict(flags.items()) == {
        "order_ideal": True,
        "ideal": True,
        "normal": True,
        "sub_gpea": True,
        "r1": True,
        "riesz": True,
        "gamma_closed": True,
    }


def test_fig1_two_element_ideal_fails_riesz(fig1_algebra):
    flags = classify_subset(fig1_algebra, {0, 1})
    assert flags.ideal and flags.normal and flags.r1
    assert flags.riesz is False
    assert flags.gamma_closed is None  # no twist supplied


def test_base_of_extension_is_ideal_but_not_riesz(fig1_algebra):
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    flags = classify_subset(ua.algebra, ua.base_members)
    assert flags.ideal and flags.normal
    assert flags.riesz is False


def test_zero_ideal_has_every_flag(small_pool):
    for label, g in small_pool:
        flags = classify_subset(g, {0}, tuple(range(g.size)))
        assert all(value for _, value in flags.items()), label


def test_subset_without_zero_is_not_an_order_ideal(fig1_algebra):
    assert classify_subset(fig1_algebra, {1}).order_ideal is False


def test_flag_implications_over_all_fig1_subsets(fig1_algebra):
    from itertools import combinations

    for r in range(1, 7):
        for subset in combinations(range(6), r):
            if 0 not in subset:
                continue
            flags = classify_subset(fig1_algebra, subset)
            if flags.riesz:
                assert flags.r1
            if flags.ideal:
                assert flags.order_ideal and flags.sub_gpea


def test_non_automorphism_twist_is_rejected(fig1_algebra):
    with pytest.raises(AlgebraError):
        classify_subset(fig1_algebra, {0}, (1, 0, 2, 3, 4, 5))


# ------------------------------------------------------------- normal lemmas


def test_normal_ideal_lemmas_on_named_instances(fig1_algebra):
    assert normal_ideal_lemmas(fig1_algebra, {0, 3}).passed
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    assert normal_ideal_lemmas(ua.algebra, ua.base_members).passed
    assert normal_ideal_lemmas(chain(0), {0}).passed


def test_normal_ideal_lemmas_requires_a_normal_ideal(fig1_algebra):
    with pytest.raises(AlgebraError):
        normal_ideal_lemmas(fig1_algebra, {0, 4})  # not even an order ideal


# ------------------------------------------------------------------ partitions


def test_partition_basics():
    p = Partition.from_block_of([0, 1, 0, 2])
    assert p.related(0, 2) and not p.related(0, 1)
    assert p.block(2) == frozenset({0, 2})
    assert p == Partition.from_block_of([5, 7, 5, 9])  # labels normalized
    assert Partition.identity(3) == Partition.from_block_of([0, 1, 2])
    assert Partition.single_block(3) == Partition.from_block_of([0, 0, 0])


def test_blocks_and_labels_build_the_same_canonical_partition():
    # Every partition of four elements, its blocks given in every order.
    for rel in all_partitions(4):
        for blocks in itertools.permutations(rel.blocks):
            built = Partition(4, [sorted(b, reverse=True) for b in blocks])
            assert (built.blocks, built.block_of) == (rel.blocks, rel.block_of)
        labels = [7 - 2 * i for i in rel.block_of]  # not restricted-growth
        relabelled = Partition.from_block_of(labels)
        assert (relabelled.blocks, relabelled.block_of) == (rel.blocks, rel.block_of)
        assert min(rel.blocks[0]) == 0
        assert [min(b) for b in rel.blocks] == sorted(min(b) for b in rel.blocks)


@pytest.mark.parametrize(
    "blocks",
    [
        [[0, 1], []],  # empty block
        [[0, 1], [1, 2]],  # overlapping blocks
        [[0, 1], [2, 3]],  # member out of range
        [[0, -1], [1, 2]],  # negative member
        [[0, 2]],  # element 1 uncovered
    ],
)
def test_partition_rejects_anything_but_a_disjoint_cover(blocks):
    with pytest.raises(MalformedTableError):
        Partition(3, blocks)


def test_all_partitions_counts_are_bell_numbers():
    for n, bell in [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)]:
        assert sum(1 for _ in all_partitions(n)) == bell


# ------------------------------------------------------------ ideal relation


def test_sim_from_zero_ideal_is_identity(fig1_algebra):
    assert sim_from_ideal(fig1_algebra, {0}) == Partition.identity(6)
    assert sim_from_ideal(chain(2), {0}) == Partition.identity(3)


def test_sim_from_fig1_ideal_gives_three_blocks(fig1_algebra):
    rel = sim_from_ideal(fig1_algebra, {0, 3})
    assert set(rel.blocks) == {
        frozenset({0, 3}),
        frozenset({1, 4}),
        frozenset({2, 5}),
    }


def test_sim_is_an_equivalence_on_every_small_ideal(small_pool):
    # The relation could in principle fail transitivity on ideals without
    # the decomposition property; on this universe it never does.
    for label, g in small_pool:
        for members in enumerate_ideals(g):
            rel = sim_from_ideal(g, members)
            assert rel.block(0) == members, (label, sorted(members))


# ------------------------------------------------------------ relation flags


def test_identity_partition_flags(fig1_algebra):
    flags = classify_relation(
        fig1_algebra,
        Partition.identity(6),
        ideal_for_gcr={0},
        gamma=IDENTITY6,
    )
    as_dict = dict(flags.items())
    assert as_dict["C4prime"] is None  # supplement form needs a unit
    for key in ("C1", "C2", "C3", "C4", "C5", "C5prime", "CR", "GCR",
                "gamma_congruence"):
        assert as_dict[key] is True, key
    assert flags.congruence and flags.riesz_congruence


def test_fig1_block_relation_is_riesz_and_padded(fig1_algebra):
    rel = sim_from_ideal(fig1_algebra, {0, 3})
    flags = classify_relation(fig1_algebra, rel, ideal_for_gcr={0, 3})
    assert flags.congruence
    assert flags.c4 and flags.c5prime and flags.cr
    assert flags.riesz_congruence
    # Every related pair admits member padding: c+a = 0+(a+c), c+b = 0+(b+c).
    assert flags.gcr is True
    assert gcr_condition(fig1_algebra, rel, {0, 3}, form=1) is True
    assert gcr_condition(fig1_algebra, rel, {0, 3}, form=2) is True


def test_fig1_atom_ideal_relation_fails_padding(fig1_algebra):
    # I = {0, a, b}: the classes are {0,a,b} and {c, a+c, b+c}, but no
    # members pad the pair (a+c, b+c) -- only 0 composes with either one,
    # and a+c != b+c.  The classes are also not upward directed.
    rel = sim_from_ideal(fig1_algebra, {0, 1, 2})
    assert set(rel.blocks) == {frozenset({0, 1, 2}), frozenset({3, 4, 5})}
    flags = classify_relation(
        fig1_algebra, rel, ideal_for_gcr={0, 1, 2}, gamma=IDENTITY6
    )
    assert flags.congruence
    assert flags.c4 and flags.c5prime
    assert flags.cr is False
    assert flags.gcr is False
    assert flags.gamma_congruence is True
    assert gcr_condition(fig1_algebra, rel, {0, 1, 2}, form=1) is False
    assert gcr_condition(fig1_algebra, rel, {0, 1, 2}, form=2) is False


def test_padding_failure_decides_riesz_transfer_into_extension(fig1_algebra):
    # The ideal relation of {0,a,b} fails padding, so that ideal must stop
    # being a Riesz ideal inside the unit extension; {0,c} keeps padding
    # and stays Riesz.  This is the content of the transfer biconditional.
    ua = gamma_unitize(fig1_algebra, IDENTITY6)
    assert classify_subset(fig1_algebra, {0, 1, 2}, IDENTITY6).riesz is True
    assert classify_subset(ua.algebra, {0, 1, 2}).riesz is False
    assert classify_subset(fig1_algebra, {0, 3}, IDENTITY6).riesz is True
    assert classify_subset(ua.algebra, {0, 3}).riesz is True


def test_one_block_relation_on_three_chain_full_vector():
    flags = classify_relation(chain(2), Partition.single_block(3))
    assert dict(flags.items()) == {
        "C1": True,
        "C2": True,
        "C3": True,
        "C4": True,
        "C5": True,
        "C4prime": True,
        "C5prime": True,
        "CR": True,
        "GCR": None,
        "gamma_congruence": None,
    }


def test_gcr_forms_agree_on_identity(fig1_algebra):
    rel = Partition.identity(6)
    assert gcr_condition(fig1_algebra, rel, {0}, form=1)
    assert gcr_condition(fig1_algebra, rel, {0}, form=2)


# ------------------------------------------------------------------ quotients


def test_quotient_by_identity_is_isomorphic(fig1_algebra):
    q = quotient(fig1_algebra, Partition.identity(6))
    assert find_morphisms(fig1_algebra, q)


def test_quotient_of_fig1_by_block_relation_is_the_antichain(fig1_algebra):
    rel = sim_from_ideal(fig1_algebra, {0, 3})
    q = quotient(fig1_algebra, rel)
    assert q.size == 3
    antichain3 = enumerate_gpeas(3)[1]
    assert q.same_table(antichain3)
    assert q.name(0) == "{0,c}"


def test_quotient_by_one_block_collapses_to_a_point():
    q = quotient(chain(2), Partition.single_block(3))
    assert q.size == 1


def test_quotient_requires_a_congruence(fig1_algebra):
    # {0,1} in one block fails the sum-compatibility conditions.
    bad = Partition.from_block_of([0, 0, 1, 2, 3, 4])
    with pytest.raises(AlgebraError):
        quotient(fig1_algebra, bad)


# ------------------------------------------------------------------ roundtrip


def test_roundtrip_on_identity(fig1_algebra):
    verdict = riesz_congruence_roundtrip(fig1_algebra, Partition.identity(6))
    assert verdict.passed
    assert verdict.riesz_congruence and verdict.classes_directed
    assert verdict.zero_class == frozenset({0})


def test_roundtrip_on_fig1_blocks(fig1_algebra):
    rel = sim_from_ideal(fig1_algebra, {0, 3})
    verdict = riesz_congruence_roundtrip(fig1_algebra, rel)
    assert verdict.passed
    assert verdict.riesz_congruence and verdict.classes_directed
    assert verdict.zero_class == frozenset({0, 3})


def test_roundtrip_over_all_catalog_congruences(catalog_instances):
    for label, g in catalog_instances:
        for rel in congruences(g):
            flags = classify_relation(g, rel)
            if not (flags.c4 and flags.c5prime):
                continue
            verdict = riesz_congruence_roundtrip(g, rel)
            assert verdict.passed, (label, rel.blocks, verdict.detail)


# ----------------------------------------------------------- ideal inventory


def test_ideal_closure_masks(fig1_algebra):
    assert ideal_closure(fig1_algebra, 0b000001) == 0b000001
    assert ideal_closure(fig1_algebra, 0b000010) == 0b000011  # {1} -> {0,1}
    assert ideal_closure(fig1_algebra, 0b010000) == 0b011011  # {4} -> {0,1,3,4}


def test_fig1_ideal_inventory(fig1_algebra):
    assert [sorted(i) for i in enumerate_ideals(fig1_algebra)] == [
        [0],
        [0, 1],
        [0, 2],
        [0, 3],
        [0, 1, 2],
        [0, 1, 3, 4],
        [0, 2, 3, 5],
        [0, 1, 2, 3, 4, 5],
    ]


def test_fig1_normal_riesz_family_and_smallest(fig1_algebra):
    family = normal_riesz_ideals(fig1_algebra, IDENTITY6)
    assert [sorted(i) for i in family] == [
        [0, 3],
        [0, 1, 2],
        [0, 1, 2, 3, 4, 5],
    ]
    # {0,c} and {0,a,b} are incomparable, so no smallest exists.
    assert smallest_normal_riesz_ideal(fig1_algebra, IDENTITY6) is None
    assert smallest_normal_riesz_ideal(fig1_algebra) is None


def test_three_chain_smallest_under_both_readings():
    c2 = chain(2)
    assert smallest_normal_riesz_ideal(c2) == frozenset({0, 1, 2})
    assert smallest_normal_riesz_ideal(c2, include_improper=False) is None


@pytest.mark.parametrize(
    "call",
    [
        lambda: smallest_normal_riesz_ideal(chain(1), (0, 0), include_improper=False),
        lambda: smallest_normal_riesz_ideal(chain(0), (3,)),
        lambda: normal_riesz_ideals(chain(0), (3,)),
        lambda: normal_riesz_ideals(chain(0), (0, 0)),
    ],
    ids=["smallest-proper-chain1", "smallest-chain0", "family-chain0", "family-long"],
)
def test_twist_is_checked_even_when_no_ideal_is_classified(call):
    # No ideal of these is classified against the twist: chain(0) has only
    # {0}, and the proper reading over chain(1) leaves only {0} too.
    with pytest.raises(MalformedTableError, match="^twist map is not a permutation"):
        call()


def test_non_automorphism_twist_is_rejected_by_the_ideal_families(fig1_algebra):
    # A permutation that is no automorphism: 1 and 3 have different sums.
    twist = (0, 3, 2, 1, 4, 5)
    for call in (normal_riesz_ideals, smallest_normal_riesz_ideal):
        with pytest.raises(MalformedTableError, match="^twist map is not an automorphism$"):
            call(fig1_algebra, twist)


# ---------------------------------------------------------------- congruences


def test_congruence_counts():
    assert sum(1 for _ in congruences(fig1())) == 8
    assert sum(1 for _ in congruences(boolean(2))) == 5
    assert sum(1 for _ in congruences(chain(2))) == 2
    assert sum(1 for _ in congruences(chain(3))) == 2


def test_congruences_satisfy_the_relation_flags(fig1_algebra):
    for rel in congruences(fig1_algebra):
        assert classify_relation(fig1_algebra, rel).congruence


def test_congruence_search_respects_the_size_guard(fig1_algebra):
    big = gamma_unitize(fig1_algebra, IDENTITY6).algebra
    message = "^congruence search over all partitions is limited to 8 elements$"
    with pytest.raises(BudgetExceededError, match=message):
        list(congruences(big))
    small = gamma_unitize(chain(2), (0, 1, 2)).algebra
    assert sum(1 for _ in congruences(small)) >= 1
