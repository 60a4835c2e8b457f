"""The planned isomorphism search against the search it replaced.

``pairwise_find_morphisms`` is the previous ``core.find_morphisms``,
kept verbatim: it branches on every nonzero element in decreasing
connectivity order and prunes only by pairwise consistency.  The planned
search (branch only on elements that are not sums of placed ones, take
each sum's image from the table, try only images with equal invariants)
must return the same sorted list on:

* every ordered same-size pair of the 64 class representatives of sizes
  1 to 6;
* each representative against three seeded relabellings, both ways;
* every unit extension of ``standard_instances(5)``, with itself and
  with a relabelling;
* the benchmark's catalog algebras of 6 to 32 elements;
* a deterministic ``hypothesis`` stream of (algebra, relabelling).

The old search takes seconds on the 54-element unit extension of
``chain(2)^3``, so its counts there are pinned without the oracle.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from gpea import (
    FiniteGpea,
    boolean,
    builtin,
    chain,
    enumerate_gpeas,
    enumerate_unitizing,
    find_morphisms,
    gamma_unitize,
    is_isomorphism,
    product,
    standard_instances,
)


def pairwise_find_morphisms(p: FiniteGpea, q: FiniteGpea) -> list[tuple[int, ...]]:
    """All structure isomorphisms ``p -> q`` as image tuples, sorted.

    An isomorphism is a bijection transferring existence both ways and
    preserving sums; ``find_morphisms(p, p)`` gives the automorphisms.
    Returns the empty list when none exist.  An isomorphism preserves the
    induced order, so between unital algebras it maps unit to unit.
    """
    p.require_validated()
    q.require_validated()
    if p.size != q.size:
        return []
    n = p.size
    if len(p.sums) != len(q.sums):  # an isomorphism maps sums one-to-one
        return []

    p_table = p.table
    q_table = q.table
    results: list[tuple[int, ...]] = []
    phi: list[int | None] = [None] * n
    used = [False] * n
    phi[0] = 0
    used[0] = True

    # Elements in decreasing connectivity order make the pruning bite early.
    weight = [0] * n
    for a, b, _ in p.sums:
        weight[a] += 1
        weight[b] += 1
    todo = sorted(range(1, n), key=lambda x: -weight[x])

    def consistent(a: int, b: int) -> bool:
        fa, fb = phi[a], phi[b]
        s = p_table[a * n + b]
        t = q_table[fa * n + fb]
        if (s == n) != (t == n):
            return False
        if s != n and phi[s] is not None and phi[s] != t:
            return False
        return True

    def extend(k: int) -> None:
        if k == len(todo):
            img = tuple(phi)  # fully assigned
            if is_isomorphism(p, q, img):
                results.append(img)
            return
        x = todo[k]
        for w in range(n):
            if used[w]:
                continue
            phi[x] = w
            used[w] = True
            ok = True
            for y in range(n):
                if phi[y] is None:
                    continue
                if not (consistent(x, y) and consistent(y, x)):
                    ok = False
                    break
            if ok:
                extend(k + 1)
            phi[x] = None
            used[w] = False

    extend(0)
    return sorted(results)


def assert_same(p: FiniteGpea, q: FiniteGpea) -> list[tuple[int, ...]]:
    found = find_morphisms(p, q)
    assert found == pairwise_find_morphisms(p, q), (p.table_key(), q.table_key())
    return found


def relabelling(g: FiniteGpea, rng: random.Random) -> FiniteGpea:
    rest = list(range(1, g.size))
    rng.shuffle(rest)
    return g.relabel([0, *rest])


REPRESENTATIVES = [g for n in range(1, 7) for g in enumerate_gpeas(n)]

# The benchmark's catalog algebras (6 to 32 elements).
CATALOG = (
    "fig1",
    "chain(5)",
    "chain(7)",
    "chain(8)",
    "product(chain(1),chain(2))",
    "boolean(3)",
    "boolean(4)",
    "boolean(5)",
    "product(chain(2),product(chain(2),chain(2)))",
    "product(fig1,chain(1))",
    "product(chain(1),product(chain(1),chain(2)))",
    "product(chain(3),chain(3))",
)


def test_every_same_size_pair_of_representatives():
    assert len(REPRESENTATIVES) == 64
    hits = 0
    for p in REPRESENTATIVES:
        for q in REPRESENTATIVES:
            if p.size == q.size:
                hits += bool(assert_same(p, q))
    assert hits == 64  # classes are pairwise non-isomorphic


def test_representatives_against_seeded_relabellings():
    rng = random.Random(15)
    for g in REPRESENTATIVES:
        for _ in range(3):
            h = relabelling(g, rng)
            assert assert_same(g, h)
            assert assert_same(h, g)


def test_unit_extensions_of_the_budget_five_instances():
    rng = random.Random(5)
    extensions = [
        gamma_unitize(g, gamma).algebra
        for _, g in standard_instances(5)
        for gamma in enumerate_unitizing(g)
    ]
    assert len(extensions) == 56
    for u in extensions:
        autos = assert_same(u, u)
        assert assert_same(u, relabelling(u, rng)) and autos


@pytest.mark.parametrize("expr", CATALOG)
def test_catalog_algebras(expr):
    g = builtin(expr)
    assert assert_same(g, g)


def test_planned_search_leaves_the_old_ones_reach():
    # Counts only: the pairwise-only search takes seconds on the extension.
    cube = product(chain(2), product(chain(2), chain(2)))
    extension = gamma_unitize(cube, tuple(range(27))).algebra
    assert extension.size == 54
    assert len(find_morphisms(extension, extension)) == 6
    assert enumerate_unitizing(extension) == [tuple(range(54))]
    assert len(find_morphisms(boolean(5), boolean(5))) == math.factorial(5)


def test_plan_places_every_element_once_and_forces_each_sum():
    for g in [*REPRESENTATIVES, builtin(CATALOG[8])]:
        plan = g.morphism_plan
        placed = [0] + [x for x, _ in plan.steps]
        assert sorted(placed) == list(g.elements)
        for k, (x, summands) in enumerate(plan.steps):
            if summands is not None:
                a, b = summands
                assert g.value(a, b) == x
                assert {a, b} <= set(placed[: k + 1])
    # Three atoms branch; the other 23 nonzero elements are their sums.
    steps = builtin(CATALOG[8]).morphism_plan.steps
    assert sum(summands is None for _, summands in steps) == 3


# The representatives plus the unit extensions of those up to size 5.
STREAM_POOL = REPRESENTATIVES + [
    gamma_unitize(g, gamma).algebra
    for g in REPRESENTATIVES
    if g.size <= 5
    for gamma in enumerate_unitizing(g)
]


@settings(max_examples=200)
@given(st.data())
def test_random_relabellings(data):
    g = data.draw(st.sampled_from(STREAM_POOL))
    rest = data.draw(st.permutations(range(1, g.size)))
    h = g.relabel([0, *rest])
    assert assert_same(g, h)
    assert assert_same(h, g)
