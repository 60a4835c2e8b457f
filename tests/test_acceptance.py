"""Acceptance gate: the nine headline checks, one pass/fail line each.

Every criterion prints a single ``PASS criterion-N`` / ``FAIL criterion-N``
line (visible with ``pytest -s`` or on failure) and then asserts.  A failing
assertion here is a finding about the mathematics, never to be silenced by
weakening the check: criterion 8 is currently expected to fail — the
statement it tests is false under the default reading of "nontrivial", and
its assertion message carries the full counterexample list.
"""

from __future__ import annotations

import itertools
import time

import pytest

from gpea import (
    KiteSpec,
    boolean,
    chain,
    check_kc,
    classify_relation,
    classify_subset,
    count_gpeas_naive,
    enumerate_gpeas,
    enumerate_ideals,
    enumerate_unitizing,
    fig1,
    gamma_unitize,
    kite_iso,
    product,
    rdp_profile,
    rdp_transfer,
    sim_from_ideal,
    twisted_window,
    validate_axioms,
)
from gpea.unitization import base_ideal_is_riesz_iff_upward, congruence_suite
from gpea.verify import run_verify

CATALOG = [
    chain(0),
    chain(1),
    chain(2),
    chain(3),
    fig1(),
    boolean(2),
    product(chain(1), chain(2)),
]


def instance_pool():
    """Catalog algebras plus every enumerated table of size at most four."""
    return CATALOG + [g for n in (1, 2, 3, 4) for g in enumerate_gpeas(n)]


def report(criterion: int, passed: bool, detail: str) -> None:
    verdict = "PASS" if passed else "FAIL"
    print(f"{verdict} criterion-{criterion}: {detail}")


# ---------------------------------------------------------------------------


def test_criterion_1_six_element_example_profile():
    started = time.perf_counter()
    base = fig1()
    axioms = validate_axioms(base)
    base_profile = rdp_profile(base)
    extension = gamma_unitize(base, tuple(range(6))).algebra
    extension_profile = rdp_profile(extension)
    elapsed = time.perf_counter() - started
    ok = (
        axioms.passed
        and base_profile.rdp
        and not extension_profile.rdp
        and elapsed < 1.0
    )
    report(
        1,
        ok,
        "six-element example: axioms pass, refinement holds in the base and "
        f"fails in the unit extension ({elapsed:.2f}s)",
    )
    assert axioms.passed
    assert base_profile.rdp and not extension_profile.rdp
    assert elapsed < 1.0


def test_criterion_2_unit_extension_construction_sweep():
    started = time.perf_counter()
    pairs = 0
    for g in instance_pool():
        for gamma in enumerate_unitizing(g):
            ua = gamma_unitize(g, gamma)
            extension = ua.algebra
            assert validate_axioms(extension).passed
            base_members = set(range(g.size))
            flags = classify_subset(extension, base_members)
            assert flags.ideal and flags.normal
            # Maximal proper: nothing lies strictly between the base and
            # the whole carrier.
            for other in enumerate_ideals(extension):
                strictly_between = base_members < set(other) and set(other) != set(
                    extension.elements
                )
                assert not strictly_between
            view = extension.pea
            for a in g.elements:
                assert view.right_supp[a] == ua.eta(a)
                assert view.ll(a) == gamma[a]
            pairs += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 30.0
    report(
        2,
        ok,
        f"unit extension sweep over {pairs} (algebra, twist) pairs: axioms, "
        "normal maximal proper base, supplement and double-supplement "
        f"identities all hold ({elapsed:.2f}s)",
    )
    assert pairs == 23
    assert elapsed < 30.0


def test_criterion_3_base_riesz_iff_upward_directed():
    counterexamples = []
    pairs = 0
    for g in instance_pool():
        for gamma in enumerate_unitizing(g):
            ua = gamma_unitize(g, gamma)
            riesz, upward = base_ideal_is_riesz_iff_upward(ua)
            if riesz != upward:
                counterexamples.append((g, gamma))
            pairs += 1
    report(
        3,
        not counterexamples,
        f"base-is-Riesz equals base-is-upward-directed on all {pairs} "
        "(algebra, twist) pairs",
    )
    assert counterexamples == []


def test_criterion_4_congruence_suite(fig1_algebra):
    suite = run_verify("congruence", 4)
    failing = [r for r in suite.results if not r.passed]

    # The six-element example, relation induced by the ideal {0, c}:
    # all four lifting conditions hold, and the padded-witness condition
    # holds as well — computed truth; the interesting negative lives one
    # ideal over.
    directed = congruence_suite(gamma_unitize(fig1_algebra, tuple(range(6))), {0, 3})
    assert dict(directed.conditions) == {
        "lift_c3": True,
        "ideal_riesz_twist_closed": True,
        "relation_twist_c4_c5p": True,
        "lift_full_congruence": True,
    }
    flags_03 = classify_relation(
        fig1_algebra, sim_from_ideal(fig1_algebra, {0, 3}), ideal_for_gcr={0, 3}
    )
    assert flags_03.gcr is True

    # The designed negative witness: the atom ideal {0, a, b} keeps all four
    # lifting conditions true while the padded-witness condition fails.
    negative = congruence_suite(
        gamma_unitize(fig1_algebra, tuple(range(6))), {0, 1, 2}
    )
    assert dict(negative.conditions) == {
        "lift_c3": True,
        "ideal_riesz_twist_closed": True,
        "relation_twist_c4_c5p": True,
        "lift_full_congruence": True,
    }
    assert negative.gcr is False
    assert negative.lift_riesz is False

    ok = not failing
    report(
        4,
        ok,
        "congruence theorems verified with zero failures over every "
        "(algebra, twist, ideal) triple at size <= 4; the atom ideal of the "
        "six-element example exhibits all-four-conditions-true with the "
        "padded-witness condition false (note: for the two-element ideal "
        "{0,c} the padded-witness condition computes to TRUE — the designed "
        "negative witness is the atom ideal {0,a,b}, not {0,c})",
    )
    assert not failing, [r.line() for r in failing]


def test_criterion_5_refinement_transfer_on_total_instances():
    pairs = 0
    for g in instance_pool():
        if not g.flags.total:
            continue
        for gamma in enumerate_unitizing(g):
            transfer = rdp_transfer(g, gamma)
            assert transfer.agree
            pairs += 1
    report(
        5,
        True,
        f"refinement verdicts transfer exactly on all {pairs} total "
        "(algebra, twist) pairs (the only total instance at size <= 4 is "
        "the one-element algebra, present once in the catalog and once in "
        "the enumeration)",
    )
    assert pairs == 2


def naive_transfer(base, k, first, second) -> bool:
    for a in itertools.product(range(base.size), repeat=k):
        for b in itertools.product(range(base.size), repeat=k):
            for i in range(k):
                forward = base.value(a[first[i]], b[i]) is not None
                backward = base.value(b[i], a[second[i]]) is not None
                if forward != backward:
                    return False
    return True


def assert_kite_supplement_laws(kite) -> None:
    """The unit is the mirror ``m`` of the zero tuple; a tuple ``t`` has
    right supplement ``η(R(λ) t)`` and left supplement ``η(R(ρ) t)``, the
    mirror ``η(t)`` has right supplement ``R(ρ)⁻¹ t`` and left supplement
    ``R(λ)⁻¹ t``, and the double left supplement on the tuples is the
    twist, where ``R`` reindexes tuples."""
    m, view = kite.m, kite.algebra.pea
    lam, rho = map(kite.power.reindexing_permutation, (kite.spec.lam, kite.spec.rho))

    def inverse(perm):
        return tuple(sorted(range(m), key=perm.__getitem__))

    assert view.unit == m
    assert view.right_supp == tuple(t + m for t in lam) + inverse(rho)
    assert view.left_supp == tuple(t + m for t in rho) + inverse(lam)
    assert tuple(view.ll(t) for t in range(m)) == kite.gamma


def test_criterion_6_kite_suite():
    started = time.perf_counter()
    checked = built = 0
    for base in (chain(1), chain(2)):
        for k in (1, 2, 3):
            for lam in itertools.permutations(range(k)):
                for rho in itertools.permutations(range(k)):
                    spec = KiteSpec(base=base, index_size=k, lam=lam, rho=rho)
                    verdict = check_kc(spec)
                    assert verdict.kci == naive_transfer(base, k, rho, lam)
                    assert verdict.kcii == naive_transfer(base, k, lam, rho)
                    checked += 1
                    if verdict.kci:
                        # Construction validates the axioms; the isomorphism
                        # report verifies the canonical map and its
                        # uniqueness.  Both supplement reindexing laws and
                        # the double left supplement are checked here.
                        iso = kite_iso(spec)
                        assert iso.kite.algebra.is_validated
                        assert iso.phi is not None
                        assert_kite_supplement_laws(iso.kite)
                        built += 1
    elapsed = time.perf_counter() - started
    ok = elapsed < 60.0
    report(
        6,
        ok,
        f"kite suite over {checked} (lam, rho) pairs for both chain bases "
        f"and index sizes 1..3: transfer condition matches the direct "
        f"quantification everywhere; all {built} constructible kites pass "
        f"axioms, isomorphism, uniqueness, and supplement laws "
        f"({elapsed:.2f}s)",
    )
    assert checked == 82 and built == 18
    assert elapsed < 60.0


def test_criterion_7_enumerator_self_consistency():
    counts = {n: len(enumerate_gpeas(n)) for n in (1, 2, 3)}
    naive = {n: count_gpeas_naive(n) for n in (1, 2, 3)}
    report(
        7,
        counts == naive and counts[2] == 1,
        f"canonical-form enumeration and raw-plus-dedup counting agree at "
        f"sizes 1..3 ({counts}); the size-2 count is 1",
    )
    assert counts == naive
    assert counts[2] == 1


def test_criterion_8_smallest_ideal_biconditional():
    suite = run_verify("unitization", 4)
    by_name = {r.name: r for r in suite.results}
    default = by_name["smallest_ideal_default"]
    proper = by_name["smallest_ideal_proper"]
    report(
        8,
        default.failures == 0,
        f"smallest-ideal biconditional on upward-directed instances at "
        f"size <= 4: {default.failures} of {default.instances} "
        f"(algebra, twist) pairs fail under the default reading "
        f"(whole carrier admitted as nontrivial); witnesses: "
        f"{list(default.witnesses)}; the proper-only reading has "
        f"{proper.failures} failures on the same {proper.instances} pairs",
    )
    assert default.failures == 0, (
        "the biconditional 'the extension has a smallest nontrivial normal "
        "Riesz ideal iff the base has a smallest nontrivial normal Riesz "
        "twist-closed ideal' is FALSE when 'nontrivial' merely excludes the "
        "zero ideal: one side can hold with the other empty, because the "
        "whole base is admissible on the base side while mirror-maximum "
        "pairs appear only on the extension side. Counterexamples "
        f"({default.failures} of {default.instances} upward-directed "
        f"(algebra, twist) pairs at size <= 4): {list(default.witnesses)}. "
        "Excluding the whole carrier on both sides (the proper-only "
        f"reading) leaves {proper.failures} failures on the same "
        f"{proper.instances} pairs."
    )


@pytest.mark.parametrize("twisted", [True, False])
def test_criterion_9_window_spot_checks(twisted):
    worst = 0.0
    for bound in (1, 2, 3, 4):
        started = time.perf_counter()
        window = twisted_window(bound, twisted=twisted)
        worst = max(worst, time.perf_counter() - started)
        assert window.passed
        assert window.violations == ()
        assert window.state_violations == ()
    report(
        9,
        True,
        f"integer-triples window spot-checks at bounds 1..4 "
        f"({'twisted' if twisted else 'plain'}): zero violations of the "
        f"supplement and twist formulas (slowest bound {worst:.2f}s)",
    )
