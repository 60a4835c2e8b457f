"""Property-based tests over randomly drawn tables, names, and relabelings."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from gpea import (
    FiniteGpea,
    InvalidAlgebraError,
    MalformedTableError,
    boolean,
    chain,
    classify,
    enumerate_gpeas,
    fig1,
    is_isomorphism,
    parse,
    product,
    serialize,
    subtract,
    validate_axioms,
)

POOL = (
    [chain(n) for n in range(4)]
    + [fig1(), boolean(2), product(chain(1), chain(2))]
    + [g for n in (2, 3, 4) for g in enumerate_gpeas(n)]
)

algebras = st.sampled_from(POOL)

# Name tokens must survive the serialized format: nonempty, no whitespace,
# no comment marker.
name_token = st.text(
    alphabet=st.characters(
        blacklist_characters="#",
        blacklist_categories=("Zs", "Zl", "Zp", "Cc", "Cs"),
    ),
    min_size=1,
    max_size=8,
)


@st.composite
def renamed_algebras(draw):
    g = draw(algebras)
    names = draw(
        st.lists(name_token, min_size=g.size, max_size=g.size, unique=True)
    )
    op = {(a, b): s for a, b, s in g.sums}
    return FiniteGpea(g.size, op, tuple(names)).validate()


@st.composite
def sparse_tables(draw):
    """An arbitrary partial table, in range but otherwise unconstrained."""
    n = draw(st.integers(min_value=1, max_value=4))
    element = st.integers(min_value=0, max_value=n - 1)
    op = {(0, 0): 0}
    extra = draw(
        st.dictionaries(st.tuples(element, element), element, max_size=10)
    )
    op.update(extra)
    return FiniteGpea(n, op)


@settings(max_examples=60)
@given(renamed_algebras())
def test_serialize_parse_roundtrip_preserves_table_and_names(g):
    text = serialize(g)
    back = parse(text).validate()
    assert back.same_table(g)
    assert tuple(back.name(i) for i in back.elements) == tuple(
        g.name(i) for i in g.elements
    )
    # Serialization is idempotent through a parse cycle.
    assert serialize(back) == text


@settings(max_examples=100)
@given(sparse_tables())
def test_axiom_checker_is_total_and_consistent(g):
    report = validate_axioms(g)
    assert set(report.verdicts) == {
        "associativity",
        "conjugation",
        "cancellation",
        "neutrality",
        "positivity",
    }
    for axiom, verdict in report.verdicts.items():
        assert (report.witnesses[axiom] is None) == verdict
    assert report.passed == all(report.verdicts.values())
    if report.passed:
        g.validate()
        classify(g)
    else:
        try:
            g.validate()
        except InvalidAlgebraError:
            pass
        else:
            raise AssertionError("validation accepted a failing table")


@settings(max_examples=60)
@given(algebras, st.randoms(use_true_random=False))
def test_relabeling_preserves_structure(g, rng):
    # Relabelings must fix the neutral element, so only the tail shuffles.
    tail = list(range(1, g.size))
    rng.shuffle(tail)
    perm = tuple([0] + tail)
    relabeled = g.relabel(perm)
    assert is_isomorphism(g, relabeled, perm)
    assert dict(classify(g).items()) == dict(classify(relabeled).items())
    assert validate_axioms(relabeled).passed
    # Custom name tokens travel with their elements.
    assert relabeled.names == {perm[i]: t for i, t in g.names.items()}


@settings(max_examples=30)
@given(algebras, st.randoms(use_true_random=False))
def test_relabeling_rejects_maps_moving_zero(g, rng):
    if g.size < 2:
        return
    perm = list(range(g.size))
    perm[0], perm[1] = perm[1], perm[0]
    with pytest.raises(MalformedTableError, match="permutation fixing 0"):
        g.relabel(tuple(perm))


@settings(max_examples=60)
@given(algebras)
def test_subtraction_recombines_exactly_on_comparable_pairs(g):
    for a in g.elements:
        for b in g.elements:
            difference = subtract(g, a, b)
            if not g.le(a, b):
                assert difference is None
                continue
            left, right = difference
            assert g.value(left, a) == b
            assert g.value(a, right) == b


@settings(max_examples=60)
@given(algebras)
def test_order_is_a_partial_order(g):
    for a in g.elements:
        assert g.le(a, a)
        for b in g.elements:
            if g.le(a, b) and g.le(b, a):
                assert a == b
            for c in g.elements:
                if g.le(a, b) and g.le(b, c):
                    assert g.le(a, c)
