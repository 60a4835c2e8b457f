"""The theorem batteries: deleted ones hold on valid input, kept ones fire.

``induced_order``, ``pea_view``, ``subtract``, ``sim_from_ideal`` and
``power_gpea`` no longer re-check what the five axioms prove: the order
is a partial order that reads the same from either side, the supplements
are the unique solutions of ``a + x == u`` and ``x + a == u`` and obey
the unital identities and subtraction formulas, and a power is total or
weakly commutative exactly when its base is.  The proofs are in those
functions' docstrings.  The first test checks the theorems on every
enumerated algebra of size at most 6, every budget-5 unit extension and
every buildable kite of the ``verify`` grid, with the two deleted
``pea_view`` checks kept verbatim below as oracles; the next two tests
show that those oracles reach each of their clauses on corrupted views,
so a passing run of the first test is not vacuous.

The supplement laws of a mirror pasting and the base as a normal ideal
are proved in ``unitization._mirror_pasting``'s docstring, and
``UnitizationAlgebra`` and ``kites._iso_report`` no longer check them.
``_check_supplements`` below is the deleted check, verbatim.  With the
deleted normal-ideal check, it runs on every unit extension of every
algebra of size at most 6, the budget-5 extensions, the benchmark's
extension bases and every kite of up to 128 elements in
``test_kernels.SPECS``.  ``kites._iso_report`` still checks identities
that hold for every valid input.  The last tests feed that check and
the oracle corrupted input and pin the set of clause messages reached.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable, Sequence

import pytest

import gpea.kites
from gpea import (
    FiniteGpea,
    InvariantViolation,
    KiteSpec,
    PeaView,
    build_kite,
    builtin,
    chain,
    classify_subset,
    enumerate_unitizing,
    fig1,
    gamma_unitize,
    power_gpea,
)
from gpea.catalog import enumerate_gpeas
from gpea.unitization import _inverse
from test_kernels import BENCH_EXTENSIONS, BUDGET_FIVE_PAIRS, KITES, SPECS

IDENTITY6 = (0, 1, 2, 3, 4, 5)
SWAP6 = (0, 2, 1, 3, 5, 4)


@pytest.fixture(scope="module")
def unital() -> list[FiniteGpea]:
    """Every unital algebra of size at most 5, up to isomorphism."""
    return [g for n in range(1, 6) for g in enumerate_gpeas(n) if g.flags.has_unit]


def reached(check: Callable[..., None], cases: Iterable[tuple]) -> set[str]:
    """The messages of the ``InvariantViolation``s ``check`` raises on ``cases``."""
    messages = set()
    for args in cases:
        try:
            check(*args)
        except InvariantViolation as exc:
            messages.add(str(exc))
    return messages


def swapped(perm: tuple[int, ...], i: int, j: int) -> tuple[int, ...]:
    out = list(perm)
    out[i], out[j] = out[j], out[i]
    return tuple(out)


def corrupted_views(g: FiniteGpea) -> Iterable[tuple[FiniteGpea, PeaView]]:
    """``g`` with its own view, two supplement entries exchanged: in the
    right map, in the left map, or in both so that they stay inverse; and
    with one right supplement overwritten by another."""
    view = g.pea
    rs, ls = view.right_supp, view.left_supp
    for i, j in itertools.combinations(g.elements, 2):
        for right, left in (
            (swapped(rs, i, j), ls),
            (rs, swapped(ls, i, j)),
            (swapped(rs, i, j), swapped(ls, rs[i], rs[j])),
            (rs[:i] + (rs[j],) + rs[i + 1 :], ls),
        ):
            yield g, dataclasses.replace(view, right_supp=right, left_supp=left)


# ---------------------------------------------------------------------------
# The checks pea_view ran before its identities were proved, verbatim
# ---------------------------------------------------------------------------


def _check_pea_identities(g: FiniteGpea, view: PeaView) -> None:
    """Clauses (1)-(4) of the unital identities."""
    n = g.size
    t = g.table
    rs = view.right_supp
    ls = view.left_supp
    unit = view.unit

    def fail(clause: str) -> None:
        raise InvariantViolation(f"unital identity failed: {clause}")

    if not (rs[0] == ls[0] == unit and rs[unit] == ls[unit] == 0):
        fail("supplements of 0 and unit")
    if sorted(rs) != list(range(n)) or sorted(ls) != list(range(n)):
        fail("supplement maps are not bijections")
    if any(ls[rs[a]] != a or rs[ls[a]] != a for a in range(n)):
        fail("double supplement is not the identity")
    if any(t[ls[c] * n + a] != ls[b] for a, b, c in g.sums):
        fail("sum/left-supplement exchange (forward)")


def _check_subtraction_formulas(g: FiniteGpea, view: PeaView) -> None:
    """Subtraction through supplements, and the existence transfer."""
    table = g.table
    rs = view.right_supp
    ls = view.left_supp
    le = g.le
    n = g.size

    def fail(clause: str) -> None:
        raise InvariantViolation(f"subtraction formula failed: {clause}")

    for a, b in g.order.pairs:
        # b minus a from the right is ls(a + rs(b)); from the left rs(ls(b) + a)
        s = table[a * n + rs[b]]
        if s == n or g.right_subtraction(a, b) != ls[s]:
            fail("right subtraction via supplements")
        t = table[ls[b] * n + a]
        if t == n or g.left_subtraction(a, b) != rs[t]:
            fail("left subtraction via supplements")
    if any(le(b, rs[a]) and not le(a, ls[b]) for a in range(n) for b in range(n)):
        fail("existence transfer between supplement bounds")


def test_pea_identities_fire_on_corrupted_views(unital) -> None:
    cases = [case for g in unital for case in corrupted_views(g)]
    assert reached(_check_pea_identities, cases) == {
        "unital identity failed: supplements of 0 and unit",
        "unital identity failed: supplement maps are not bijections",
        "unital identity failed: double supplement is not the identity",
        "unital identity failed: sum/left-supplement exchange (forward)",
    }


def test_subtraction_formulas_fire_on_corrupted_views(unital) -> None:
    cases = [case for g in unital for case in corrupted_views(g)]
    assert reached(_check_subtraction_formulas, cases) == {
        "subtraction formula failed: right subtraction via supplements",
        "subtraction formula failed: left subtraction via supplements",
    }


def assert_order_and_unital_view(g: FiniteGpea) -> None:
    """The order from ``a + c == b`` and from ``d + a == b`` is
    ``g.order``, a partial order with 0 least; with a top ``u``, the
    supplements are the unique solutions of ``a + x == u`` and ``x + a ==
    u`` and pass both deleted checks."""
    n = g.size
    from_left = {(a, b) for a, _, b in g.sums}
    assert {(a, b) for _, a, b in g.sums} == from_left == g.order.pairs
    above = [{b for x, b in from_left if x == a} for a in range(n)]
    assert above[0] == set(range(n))
    for a in range(n):
        assert a in above[a]
        for b in above[a]:
            assert b == a or a not in above[b]
            assert above[b] <= above[a]
    tops = [u for u in range(n) if all(u in above[a] for a in range(n))]
    assert g.flags.has_unit == bool(tops)
    if tops:
        view = g.pea
        assert [view.unit] == tops
        u = view.unit
        assert all(
            [x for x in range(n) if g.value(a, x) == u] == [view.right_supp[a]]
            and [x for x in range(n) if g.value(x, a) == u] == [view.left_supp[a]]
            for a in range(n)
        )
        _check_pea_identities(g, view)
        _check_subtraction_formulas(g, view)


def test_order_unital_view_and_power_theorems_hold_on_valid_input() -> None:
    enumerated = [g for n in range(1, 7) for g in enumerate_gpeas(n)]
    assert len(enumerated) == 64
    for g in enumerated:
        assert_order_and_unital_view(g)
        if g.size <= 4:
            flags = power_gpea(g, 2).algebra.flags
            assert (flags.total, flags.weakly_commutative) == (
                g.flags.total,
                g.flags.weakly_commutative,
            )
    assert len(BUDGET_FIVE_PAIRS) == 56
    for pair in BUDGET_FIVE_PAIRS:
        assert pair.extension is not None, pair.error
        assert_order_and_unital_view(pair.extension.algebra)
    assert len(KITES) == 18
    for _, spec in KITES:
        assert_order_and_unital_view(build_kite(spec).algebra)


# ---------------------------------------------------------------------------
# The checks a mirror pasting ran before its laws were proved
# ---------------------------------------------------------------------------


def _check_supplements(
    u: FiniteGpea,
    left_twist: Sequence[int],
    right_twist: Sequence[int],
    twist: Sequence[int],
) -> None:
    """The supplement laws of a mirror pasting ``u`` of an ``n``-element base.

    The unit is ``η(0) = n``; a base element ``a`` has right supplement
    ``η(left_twist(a))`` and left supplement ``η(right_twist(a))``; the
    mirror ``η(a)`` has left supplement ``left_twist⁻¹(a)`` and right
    supplement ``right_twist⁻¹(a)``; the double left supplement on the
    base is ``twist``.  The left map is not compared: the one expected is
    the inverse of the right one, and ``left_supp`` is the inverse of
    ``right_supp`` on every unital algebra: ``a + rs(a)`` is the unit, so
    ``a`` is the left supplement of ``rs(a)`` (see :func:`pea_view`).
    """
    n = len(twist)
    view = u.pea
    if view.unit != n:
        raise InvariantViolation("unit of the pasting must be the mirror of 0")
    if view.right_supp != tuple(x + n for x in left_twist) + _inverse(right_twist):
        raise InvariantViolation("right supplements break the twist formulas")
    if tuple(view.ll(a) for a in range(n)) != tuple(twist):
        raise InvariantViolation("double left supplement differs from the twist")


def assert_pasting_laws(
    u: FiniteGpea,
    left_twist: Sequence[int],
    right_twist: Sequence[int],
    twist: Sequence[int],
) -> None:
    """Both deleted checks: the supplement laws, and the base as a normal
    ideal."""
    _check_supplements(u, left_twist, right_twist, twist)
    flags = classify_subset(u, range(len(twist)))
    assert flags.ideal and flags.normal


def test_pasting_laws_hold_on_every_extension_and_kite() -> None:
    extensions = [
        gamma_unitize(g, gamma)
        for n in range(1, 7)
        for g in enumerate_gpeas(n)
        for gamma in enumerate_unitizing(g)
    ]
    assert len(extensions) == 225
    extensions += [pair.extension for pair in BUDGET_FIVE_PAIRS]
    extensions += [
        gamma_unitize(builtin(expr).validate(), gamma) for expr, gamma in BENCH_EXTENSIONS
    ]
    for ua in extensions:
        identity = tuple(range(ua.base.size))
        assert_pasting_laws(ua.algebra, identity, ua.gamma, ua.gamma)
    sizes = set()
    for _, spec in SPECS:
        kite = build_kite(spec)
        lam, rho = map(kite.power.reindexing_permutation, (spec.lam, spec.rho))
        assert_pasting_laws(kite.algebra, lam, rho, kite.gamma)
        sizes.add(kite.algebra.size)
    assert SPECS[: len(KITES)] == KITES and max(sizes) == 128


# ---------------------------------------------------------------------------
# The oracle and the kept battery fire on corrupted input
# ---------------------------------------------------------------------------


def test_supplement_laws_fire_on_wrong_twists() -> None:
    """Wrong twists reach all three clauses.  The left supplements are the
    inverse of the right ones on every unital algebra (see ``pea_view``),
    so they follow the formulas whenever the right ones do and are not
    compared."""
    u = gamma_unitize(fig1(), SWAP6).algebra
    assert reached(_check_supplements, [(u, IDENTITY6, SWAP6, SWAP6)]) == set()
    assert reached(
        _check_supplements,
        [
            (u, IDENTITY6[:5], SWAP6[:5], SWAP6[:5]),  # a smaller base's twists
            (u, SWAP6, SWAP6, SWAP6),
            (u, IDENTITY6, IDENTITY6, SWAP6),
            (u, IDENTITY6, SWAP6, IDENTITY6),
        ],
    ) == {
        "unit of the pasting must be the mirror of 0",
        "right supplements break the twist formulas",
        "double left supplement differs from the twist",
    }


def test_kite_isomorphism_check_fires_on_a_foreign_extension() -> None:
    kite = build_kite(KiteSpec(chain(1), 2, (0, 1), (0, 1)))
    other = gamma_unitize(chain(3), (0, 1, 2, 3))
    assert other.algebra.size == kite.algebra.size == 8
    assert reached(gpea.kites._iso_report, [(kite, other)]) == {
        "canonical map is not an isomorphism onto the kite"
    }


@pytest.mark.parametrize(
    ("base", "message"),
    [
        (chain(1), "identity-fixing sum-preserving map onto the kite is not unique"),
        (chain(5), "unit partner in the kite is not uniquely the canonical image"),
    ],
)
def test_kite_uniqueness_checks_fire_past_a_waved_through_isomorphism(
    monkeypatch: pytest.MonkeyPatch, base: FiniteGpea, message: str
) -> None:
    """Both uniqueness checks sit behind the isomorphism check, which a
    wrong canonical map never passes, so it is waved through here.  The
    kite is relabelled as the one with ``lam = rho = (1, 0)``, whose
    canonical map differs; small kites (at most 64 elements) search the
    candidate maps and larger ones test the unit partners."""
    kite = build_kite(KiteSpec(base, 2, (0, 1), (0, 1)))
    extension = gamma_unitize(kite.power.algebra, kite.gamma)
    relabelled = dataclasses.replace(kite, spec=KiteSpec(base, 2, (1, 0), (1, 0)))
    monkeypatch.setattr(gpea.kites, "is_isomorphism", lambda *args: True)
    assert reached(gpea.kites._iso_report, [(relabelled, extension)]) == {message}
