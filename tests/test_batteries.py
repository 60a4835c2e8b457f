"""The theorem batteries fire on corrupted input.

``pea_view``, unit extensions and kites re-check identities that hold for
every valid input (a unit extension builds its own table and checks only
its supplement laws and that its base is a normal ideal), so no run on
valid input reaches a failure clause of
``core._check_pea_identities``, ``core._check_subtraction_formulas``,
``unitization._check_supplements`` or ``kites._iso_report``.  These tests
feed each battery corrupted input and pin the set of clause messages
reached.  The batteries keep only clauses that some corrupted input
reaches; the identities they no longer search (the reverse and
right-supplement exchanges, the three-way exchange, order reversal, the
existence criterion, three subtraction forms, the left supplements of an
extension) are proved in the docstrings of the checks that remain.
"""

from __future__ import annotations

import dataclasses
import itertools
from typing import Callable, Iterable

import pytest

import gpea.kites
from gpea import (
    AlgebraError,
    FiniteGpea,
    InvariantViolation,
    KiteSpec,
    build_kite,
    chain,
    fig1,
    gamma_unitize,
)
from gpea.catalog import enumerate_gpeas
from gpea.core import PeaView, _check_pea_identities, _check_subtraction_formulas
from gpea.unitization import _check_supplements

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


def corrupted_tables(g: FiniteGpea) -> Iterable[tuple[FiniteGpea, PeaView]]:
    """``g``'s view against ``g``'s table with one entry off zero's row and
    column removed, added or changed, passed off as validated.  Tables whose
    induced order fails are left out."""
    op = {(a, b): s for a, b, s in g.sums}
    for a, b in itertools.product(range(1, g.size), repeat=2):
        for value in [None, *g.elements]:
            if op.get((a, b)) == value:
                continue
            changed = {key: s for key, s in op.items() if key != (a, b)}
            if value is not None:
                changed[(a, b)] = value
            h = FiniteGpea(g.size, changed)
            h._validated = True
            try:
                h.order
            except AlgebraError:
                continue
            yield h, g.pea


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


def test_batteries_fire_on_corrupted_tables(unital) -> None:
    cases = [case for g in unital for case in corrupted_tables(g)]
    assert reached(_check_pea_identities, cases) == {
        "unital identity failed: sum/left-supplement exchange (forward)",
    }
    assert reached(_check_subtraction_formulas, cases) == {
        "subtraction formula failed: right subtraction via supplements",
        "subtraction formula failed: left subtraction via supplements",
        "subtraction formula failed: existence transfer between supplement bounds",
    }


def test_supplement_laws_fire_on_wrong_twists() -> None:
    """Wrong twists reach all three clauses.  The left supplements are the
    inverse of the right ones, which ``pea_view`` checks, so they follow
    the formulas whenever the right ones do and are not compared."""
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
