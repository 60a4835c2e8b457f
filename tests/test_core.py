"""Tables, axiom validation, induced order, supplements, morphisms."""

from __future__ import annotations

import itertools
import tracemalloc

import pytest

from gpea import (
    AXIOMS,
    BudgetExceededError,
    FiniteGpea,
    InvalidAlgebraError,
    MalformedTableError,
    NotValidatedError,
    NoUnitError,
    boolean,
    chain,
    enumerate_gpeas,
    extended_cancellation_witness,
    element_budget,
    enumerate_unitizing,
    fig1,
    find_morphisms,
    gamma_unitize,
    induced_order,
    is_isomorphism,
    pea_view,
    product,
    subtract,
    validate_axioms,
)


def neutral_op(n: int) -> dict[tuple[int, int], int]:
    out = {(0, x): x for x in range(n)}
    out.update({(x, 0): x for x in range(n)})
    return out


# ---------------------------------------------------------------- construction


def test_malformed_value_out_of_range():
    with pytest.raises(MalformedTableError):
        FiniteGpea(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 5})


def test_malformed_empty_carrier():
    with pytest.raises(MalformedTableError):
        FiniteGpea(0, {})


def test_validation_gate():
    g = FiniteGpea(2, neutral_op(2))
    for view in ("flags", "order", "pea"):
        with pytest.raises(NotValidatedError):
            getattr(g, view)  # the access itself must raise
    assert g.validate() is g
    g.require_validated()
    # The refused accesses were not cached: the views now compute, once.
    assert g.flags.total is False
    assert g.order is g.order
    assert g.pea is g.pea


def test_invalid_table_raises_on_validate():
    g = FiniteGpea(2, {(0, 0): 0, (0, 1): 1})  # 1 + 0 missing
    with pytest.raises(InvalidAlgebraError):
        g.validate()


# ------------------------------------------------------------- axiom verdicts


def test_axiom_names_and_report_shape():
    assert AXIOMS == (
        "associativity",
        "conjugation",
        "cancellation",
        "neutrality",
        "positivity",
    )
    report = validate_axioms(FiniteGpea(1, {(0, 0): 0}))
    assert set(report.verdicts) == set(AXIOMS)
    assert report.passed
    assert all(w is None for w in report.witnesses.values())
    assert all(line.endswith("pass") for line in report.lines())


def test_catalog_instances_pass_all_axioms(catalog_instances):
    for label, g in catalog_instances:
        report = validate_axioms(g)
        assert report.passed, (label, report.witnesses)


def test_associativity_violation_witness():
    # (1+1)+1 = 2+1 = 3 exists but 1+(1+1) = 1+2 is undefined.
    g = FiniteGpea(4, neutral_op(4) | {(1, 1): 2, (2, 1): 3})
    report = validate_axioms(g)
    assert report.verdicts["associativity"] is False
    assert report.witnesses["associativity"] == (1, 1, 1)


def test_conjugation_violation_witness_and_isolation():
    # 1+2 = 3 cannot be rewritten as (anything)+1, so conjugation fails
    # while the other four axioms hold.
    g = FiniteGpea(4, neutral_op(4) | {(1, 2): 3})
    report = validate_axioms(g)
    assert report.verdicts["conjugation"] is False
    assert report.witnesses["conjugation"] == (1, 2, 3)
    for name in ("associativity", "cancellation", "neutrality", "positivity"):
        assert report.verdicts[name] is True, name


def test_cancellation_violation_witness():
    # Row 1 maps both 1 and 2 to 3: 1+1 = 1+2 with 1 != 2.
    g = FiniteGpea(4, neutral_op(4) | {(1, 1): 3, (1, 2): 3})
    report = validate_axioms(g)
    assert report.verdicts["cancellation"] is False
    assert report.witnesses["cancellation"] == (1, 2, 1)


def test_neutrality_violation_witness():
    # 0+1 is defined but 1+0 is not.
    g = FiniteGpea(2, {(0, 0): 0, (0, 1): 1})
    report = validate_axioms(g)
    assert report.verdicts["neutrality"] is False
    assert report.witnesses["neutrality"] == (1, 0, 1)


def test_positivity_violation_witness_and_isolation():
    # 1+1 = 0 with 1 != 0; every other axiom holds on this table.
    g = FiniteGpea(2, neutral_op(2) | {(1, 1): 0})
    report = validate_axioms(g)
    assert report.verdicts["positivity"] is False
    assert report.witnesses["positivity"] == (1, 1, 0)
    for name in ("associativity", "conjugation", "cancellation", "neutrality"):
        assert report.verdicts[name] is True, name


# ------------------------------------------------------------------ the order


def test_chain_order_is_the_numeric_order():
    g = chain(2)
    order = induced_order(g)
    for a in g.elements:
        for b in g.elements:
            assert order.le(a, b) == (a <= b)
    assert order.maximum == 2
    assert order.maximal_elements == [2]


def test_fig1_order_shape(fig1_algebra):
    order = induced_order(fig1_algebra)
    assert order.maximum is None
    assert order.maximal_elements == [4, 5]
    # 0 < a,b,c; a < a+c; b < b+c; c below both sums.
    assert order.le(1, 4) and order.le(2, 5) and order.le(3, 4) and order.le(3, 5)
    assert not order.le(1, 5) and not order.le(2, 4) and not order.le(1, 2)


def test_subtraction_pairs():
    g = chain(2)
    assert subtract(g, 1, 2) == (1, 1)
    assert subtract(g, 2, 1) is None
    f = fig1()
    # a <= a+c with difference c on both sides.
    assert subtract(f, 1, 4) == (3, 3)
    assert subtract(f, 1, 5) is None


def test_extended_cancellation_absent_on_catalog(catalog_instances):
    for label, g in catalog_instances:
        assert extended_cancellation_witness(g) is None, label


# -------------------------------------------------------------------- classify


def test_fig1_flags(fig1_algebra):
    flags = fig1_algebra.flags
    assert flags.total is False
    assert flags.weakly_commutative is True
    assert flags.commutative is True
    assert flags.has_unit is False
    assert flags.upward_directed is False
    assert flags.downward_directed is True


def test_chain_flags():
    assert chain(0).flags.total is True  # the one-element table is full
    flags = chain(2).flags
    assert flags.total is False
    assert flags.has_unit is True
    assert flags.upward_directed is True
    assert flags.downward_directed is True


def test_boolean_flags():
    flags = boolean(2).flags
    assert flags.has_unit and flags.upward_directed
    assert flags.commutative and not flags.total


# ------------------------------------------------------------------- PEA view


def test_chain_supplements():
    view = pea_view(chain(2))
    assert view.unit == 2
    assert view.right_supp == (2, 1, 0)
    assert view.left_supp == (2, 1, 0)
    assert [view.ll(a) for a in range(3)] == [0, 1, 2]


def test_boolean_supplements():
    view = pea_view(boolean(2))
    assert view.unit == 3
    assert view.right_supp == (3, 2, 1, 0)
    assert view.left_supp == (3, 2, 1, 0)


def test_no_unit_raises(fig1_algebra):
    with pytest.raises(NoUnitError):
        pea_view(fig1_algebra)


# ------------------------------------------------------------------ morphisms


def test_fig1_automorphisms(fig1_algebra):
    f = fig1_algebra
    autos = find_morphisms(f, f)
    assert autos == [(0, 1, 2, 3, 4, 5), (0, 2, 1, 3, 5, 4)]
    for perm in autos:
        assert is_isomorphism(f, f, perm)


def test_relabel_produces_isomorphic_table(fig1_algebra):
    f = fig1_algebra
    # Relabeling by an automorphism reproduces the same table.
    swap = (0, 2, 1, 3, 5, 4)
    r = f.relabel(swap)
    assert r.same_table(f)
    assert is_isomorphism(f, r, swap)
    assert r.names[swap[1]] == f.names[1]
    # Relabeling by a non-automorphism gives a different but valid table.
    move = (0, 1, 2, 4, 3, 5)
    r2 = f.relabel(move).validate()
    assert not r2.same_table(f)
    assert is_isomorphism(f, r2, move)


def brute_isomorphism(p, q, phi) -> bool:
    """The definition: a bijection with ``p(a + b) == phi(a) + phi(b)``,
    each side defined exactly when the other is."""
    if p.size != q.size or len(set(phi)) != p.size:
        return False
    for a in p.elements:
        for b in p.elements:
            s, t = p.value(a, b), q.value(phi[a], phi[b])
            if (s is None) != (t is None) or (s is not None and phi[s] != t):
                return False
    return True


def test_is_isomorphism_matches_the_definition_on_every_map():
    tables = [g for n in range(1, 5) for g in enumerate_gpeas(n)]
    for p in tables:
        for q in tables:
            if q.size != p.size:
                assert not is_isomorphism(p, q, tuple(range(p.size)))
                continue
            for phi in itertools.product(range(p.size), repeat=p.size):
                assert is_isomorphism(p, q, phi) == brute_isomorphism(p, q, phi), (
                    p.table_key(), q.table_key(), phi
                )


def test_is_isomorphism_rejects_a_collapsing_map():
    # Every nonzero sum undefined: a map folding 2 onto 1 preserves the table.
    g = FiniteGpea(3, {(0, 0): 0, (0, 1): 1, (0, 2): 2, (1, 0): 1, (2, 0): 2})
    g.validate()
    assert g.table_key() == (0, 1, 2, 1, 3, 3, 2, 3, 3)
    assert not is_isomorphism(g, g, (0, 1, 1))
    assert is_isomorphism(g, g, (0, 2, 1))


def test_isomorphisms_between_unital_algebras_fix_the_unit():
    # An isomorphism preserves the induced order, so it maps top to top.
    assert find_morphisms(boolean(2), boolean(2)) == [(0, 1, 2, 3), (0, 2, 1, 3)]
    assert find_morphisms(chain(3), boolean(2)) == []
    unital = [g for n in range(1, 6) for g in enumerate_gpeas(n)]
    unital += [
        gamma_unitize(g, gamma).algebra
        for g in list(unital)
        for gamma in enumerate_unitizing(g)
    ]
    checked = 0
    for p in unital:
        if not p.flags.has_unit:
            continue
        # Relabelled by rotating 1..n-1, so that a nonzero unit moves.
        q = p.relabel([0] + [x % (p.size - 1) + 1 for x in range(1, p.size)])
        assert p.size <= 2 or q.pea.unit != p.pea.unit
        for phi in find_morphisms(p, q):
            assert phi[p.pea.unit] == q.pea.unit
            checked += 1
    assert checked == 999  # the automorphisms of the 64 unital algebras


# --------------------------------------------------------------------- budget


def test_element_budget_default_and_override(monkeypatch):
    monkeypatch.delenv("GPEA_BUDGET", raising=False)
    assert element_budget() == 4096
    monkeypatch.setenv("GPEA_BUDGET", "12")
    assert element_budget() == 12


def test_chain_and_product_refuse_oversized_carriers_before_building(monkeypatch):
    monkeypatch.setenv("GPEA_BUDGET", "16")
    small = chain(15)
    message = (
        "carrier of {} elements exceeds the budget of 16 (set GPEA_BUDGET to raise it)"
    )
    # Sizes small enough that building first would cost well under a
    # second, yet far above the memory bound below.
    cases = [(lambda: chain(300), 301), (lambda: product(small, small), 256)]
    for build, size in cases:
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError) as info:
                build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert str(info.value) == message.format(size)
        assert peak < 64 * 1024
