"""The isomorphism search and test against the code they replaced.

Three oracles are kept verbatim:

* ``grid_is_isomorphism``, the n² test of every pair that
  ``core.is_isomorphism`` ran before it made one test per defined sum;
* ``fits_find_morphisms``, the planned search that checked each
  placement against every placed element (``fits``) and each full map
  with the n² test, before each defined sum was tested once, at the step
  that places its last element;
* ``pairwise_find_morphisms``, the search before the plan: it branches
  on every nonzero element in decreasing connectivity order and prunes
  only by pairwise consistency.

``is_isomorphism`` must agree with the n² test on every map, permutation
or not, between the labelled tables of sizes 1 to 4 (pairs with unequal
sum counts among them), and on a deterministic ``hypothesis`` stream of
raw tables, edited relabellings and maps.

``find_morphisms`` must return the same sorted list as the pairwise
search on:

* every ordered same-size pair of the 64 class representatives of sizes
  1 to 6;
* each representative against three seeded relabellings, both ways;
* every unit extension of ``standard_instances(5)``, with itself and
  with a relabelling;
* the benchmark's catalog algebras of 6 to 32 elements;
* the flat algebra of size 7 (no nonzero sum defined; 720 maps);
* every pair with equal profiles but no isomorphism among the
  representatives of sizes 1 to 7 and the unit extensions of those up to
  size 4, where the search cannot stop at the profile;
* a deterministic ``hypothesis`` stream of (algebra, relabelling).

The pairwise search takes seconds on a 54-element table, so the 18
kites of ``verify``'s grid (4 to 54 elements) are checked against
``fits_find_morphisms``, with themselves, with a relabelling and with
every kite of their size, and against the pairwise search up to 18
elements.
"""

from __future__ import annotations

import itertools
import math
import random

import pytest
from hypothesis import find, given, settings, strategies as st

import gpea.core
from gpea import (
    FiniteGpea,
    boolean,
    build_kite,
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
from test_table import raw_tables, verify_grid_kites


def grid_is_isomorphism(p: FiniteGpea, q: FiniteGpea, phi) -> bool:
    """Whether ``phi`` is a bijection transferring definedness and sums exactly.

    ``phi[a]`` is the image of ``a``; a map that is not a permutation of
    the carrier, or algebras of different sizes, give ``False``.
    """
    n = p.size
    if q.size != n or sorted(phi) != list(range(n)):
        return False
    p_table = p.table
    q_table = q.table
    for a in range(n):
        for b in range(n):
            s = p_table[a * n + b]
            if q_table[phi[a] * n + phi[b]] != (n if s == n else phi[s]):
                return False
    return True


def fits_find_morphisms(p: FiniteGpea, q: FiniteGpea) -> list[tuple[int, ...]]:
    """All structure isomorphisms ``p -> q`` as image tuples, sorted.

    An isomorphism is a bijection transferring existence both ways and
    preserving sums; ``find_morphisms(p, p)`` gives the automorphisms.
    Returns the empty list when none exist.  An isomorphism preserves the
    induced order, so between unital algebras it maps unit to unit.

    The search follows ``p.morphism_plan``: a branch element tries each
    unused image with its invariants, and an element that is a sum of
    elements placed before it takes the sum of their images in ``q``.
    Every placement must agree with the placed elements pairwise, and
    every full map is checked with :func:`is_isomorphism`.
    """
    p.require_validated()
    q.require_validated()
    plan = p.morphism_plan
    if plan.profile != q.morphism_plan.profile:  # so the sizes are equal too
        return []
    n = p.size
    p_table = p.table
    q_table = q.table
    invariants = plan.invariants
    q_invariants = q.morphism_plan.invariants
    steps = plan.steps
    placed = [0] + [x for x, _ in steps]
    results: list[tuple[int, ...]] = []
    # ``phi`` and ``used`` carry the sentinel ``n`` at index ``n``: an
    # undefined sum maps to an undefined sum and is never an image.
    phi: list[int | None] = [0] + [None] * (n - 1) + [n]
    used = [True] + [False] * (n - 1) + [True]

    def fits(x: int, w: int, k: int) -> bool:
        """Whether ``x -> w`` agrees with each placed ``y`` on both sums.

        The image of ``x + y`` (and of ``y + x``) must be the sum of the
        images, or, for a sum not placed yet, some defined element.
        """
        for y in placed[: k + 2]:
            fy = phi[y]
            m, t = phi[p_table[x * n + y]], q_table[w * n + fy]
            if m != t and (m is not None or t == n):
                return False
            m, t = phi[p_table[y * n + x]], q_table[fy * n + w]
            if m != t and (m is not None or t == n):
                return False
        return True

    def extend(k: int) -> None:
        if k == len(steps):
            img = tuple(phi[:n])  # fully assigned
            if grid_is_isomorphism(p, q, img):
                results.append(img)
            return
        x, summands = steps[k]
        if summands is None:
            images = range(n)
        else:
            a, b = summands
            images = (q_table[phi[a] * n + phi[b]],)
        for w in images:
            if used[w] or q_invariants[w] != invariants[x]:
                continue
            phi[x] = w
            used[w] = True
            if fits(x, w, k):
                extend(k + 1)
            phi[x] = None
            used[w] = False

    extend(0)
    return sorted(results)


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
            if grid_is_isomorphism(p, q, img):
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


def test_only_a_source_past_the_profile_test_builds_its_plan(monkeypatch):
    p, q, other = chain(3), builtin("chain(3)"), boolean(2)
    assert find_morphisms(other, p) == []
    assert find_morphisms(p, q) == [tuple(p.elements)]
    assert [g for g in (p, q, other) if "morphism_plan" in vars(g)] == [p]
    # The class filter at size 7 searches from 135 of its 296 tables.
    plans = []
    build = gpea.core._morphism_plan
    monkeypatch.setattr(gpea.core, "_morphism_plan", lambda g: plans.append(g) or build(g))
    assert len(enumerate_gpeas(7)) == 171
    assert len(plans) == 135


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


# ------------------------------------------------------- the test per sum


def labelled_tables(size: int) -> list[FiniteGpea]:
    """Every distinct labelling of the classes of ``size`` elements."""
    out: dict[tuple[int, ...], FiniteGpea] = {}
    for g in enumerate_gpeas(size):
        for rest in itertools.permutations(range(1, size)):
            h = g.relabel((0, *rest))
            out.setdefault(h.table_key(), h)
    return list(out.values())


@pytest.mark.parametrize("size", [1, 2, 3, 4])
def test_is_isomorphism_matches_the_grid_on_every_map_of_labelled_tables(size):
    tables = labelled_tables(size)
    smaller = labelled_tables(size - 1) if size > 1 else []
    counted = 0  # permutations taking every sum to a sum, counts unequal
    for p in tables:
        for q in smaller:
            assert not is_isomorphism(p, q, tuple(range(size)))
            assert not is_isomorphism(q, p, tuple(range(size - 1)))
        for q in tables:
            for phi in itertools.product(range(size), repeat=size):
                assert is_isomorphism(p, q, phi) == grid_is_isomorphism(p, q, phi), (
                    p.table_key(), q.table_key(), phi
                )
                counted += (
                    len(set(phi)) == size
                    and len(p.sums) != len(q.sums)
                    and all(q.value(phi[a], phi[b]) == phi[s] for a, b, s in p.sums)
                )
    # From size 3 on, the flat table's sums go into a chain's under the
    # identity: only the count of defined sums tells them apart.
    assert (counted > 0) == (size >= 3)


@st.composite
def raw_pairs(draw):
    """A raw table, an edited relabelling of it, and a map between them:
    the relabelling permutation or any map of the carrier into itself."""
    n, op = draw(raw_tables())
    perm = draw(st.permutations(range(n)))
    relabelled = {(perm[a], perm[b]): perm[s] for (a, b), s in op.items()}
    element = st.integers(min_value=0, max_value=n - 1)
    for cell, value in draw(
        st.lists(st.tuples(st.tuples(element, element), st.none() | element), max_size=2)
    ):
        if value is None:
            relabelled.pop(cell, None)
        else:
            relabelled[cell] = value
    phi = draw(st.just(tuple(perm)) | st.lists(element, min_size=n, max_size=n).map(tuple))
    return FiniteGpea(n, op), FiniteGpea(n, relabelled), phi


@settings(max_examples=300)
@given(raw_pairs())
def test_is_isomorphism_matches_the_grid_on_random_raw_tables(drawn):
    p, q, phi = drawn
    assert is_isomorphism(p, q, phi) == grid_is_isomorphism(p, q, phi)
    assert is_isomorphism(q, p, phi) == grid_is_isomorphism(q, p, phi)


@pytest.mark.parametrize("verdict", [True, False])
def test_random_raw_pairs_include_both_verdicts(verdict):
    # The comparison above is only meaningful if both kinds are drawn.
    find(
        raw_pairs(),
        lambda drawn: grid_is_isomorphism(*drawn) == verdict,
        settings=settings(database=None),
    )


def flat_algebra(size: int) -> FiniteGpea:
    """No nonzero sum defined: every permutation fixing 0 is an automorphism."""
    op = {(0, x): x for x in range(size)}
    op.update({(x, 0): x for x in range(size)})
    return FiniteGpea(size, op).validate()


def test_flat_algebra_of_size_seven():
    g = flat_algebra(7)
    assert len(assert_same(g, g)) == math.factorial(6)
    assert len(assert_same(g, relabelling(g, random.Random(7)))) == math.factorial(6)


def same_profile_pairs() -> list[tuple[FiniteGpea, FiniteGpea]]:
    """Ordered pairs with equal profiles and no isomorphism."""
    pool = [g for n in range(1, 8) for g in enumerate_gpeas(n)]
    pool += [
        gamma_unitize(g, gamma).algebra
        for g in pool
        if g.size <= 4
        for gamma in enumerate_unitizing(g)
    ]
    by_profile: dict[tuple, list[FiniteGpea]] = {}
    for g in pool:
        by_profile.setdefault(g.morphism_plan.profile, []).append(g)
    return [
        (p, q)
        for group in by_profile.values()
        for p in group
        for q in group
        if p is not q and not pairwise_find_morphisms(p, q)
    ]


def test_pairs_with_equal_profiles_and_no_isomorphism():
    pairs = same_profile_pairs()
    assert len(pairs) == 778
    assert {p.size for p, _ in pairs} == {4, 5, 6, 7, 8}
    for p, q in pairs:
        assert find_morphisms(p, q) == [], (p.table_key(), q.table_key())


KITES = [build_kite(spec).algebra for _, spec in verify_grid_kites()]


@pytest.mark.parametrize("index", range(len(KITES)))
def test_grid_kites(index):
    assert len(KITES) == 18
    g = KITES[index]
    h = relabelling(g, random.Random(index))
    for p, q in [(g, g), (g, h), (h, g)]:
        found = find_morphisms(p, q)
        assert found and found == fits_find_morphisms(p, q)
        if g.size <= 18:
            assert found == pairwise_find_morphisms(p, q)
    for other in KITES:
        if other.size == g.size:
            assert find_morphisms(g, other) == fits_find_morphisms(g, other)


def test_plan_checks_list_each_sum_once_at_its_last_step():
    for g in [*REPRESENTATIVES, *KITES, builtin(CATALOG[8])]:
        plan = g.morphism_plan
        step_of = {0: -1, **{x: k for k, (x, _) in enumerate(plan.steps)}}
        listed = [(a, b, s) for checks in plan.checks for a, b, s in checks]
        forced = [(*summands, x) for x, summands in plan.steps if summands is not None]
        with_zero = [(a, b, s) for a, b, s in g.sums if not (a and b)]
        assert sorted([*listed, *forced, *with_zero]) == sorted(g.sums)
        for k, checks in enumerate(plan.checks):
            for a, b, s in checks:
                assert max(step_of[a], step_of[b], step_of[s]) == k


class RecordingTable(tuple):
    """A table that records the index of every cell read."""

    def __getitem__(self, index):
        self.reads.append(index)
        return tuple.__getitem__(self, index)


@pytest.mark.parametrize(
    "expr", ["chain(7)", "product(chain(1),chain(2))", "product(chain(2),chain(3))"]
)
def test_search_reads_each_defined_sum_once(expr):
    # Each branch element has one image with its invariants, so the search
    # walks one path and reads each cell of a defined sum of nonzero
    # elements once: the sum a step is forced by, or the test of a sum at
    # its last step.  Search results alone do not show a skipped test: a
    # search without the tests at forced steps returns the same maps on
    # every other input in this file.
    p, q = builtin(expr), builtin(expr)
    q.morphism_plan
    q.table = RecordingTable(q.table)
    q.table.reads = []
    assert find_morphisms(p, q) == [tuple(p.elements)]
    n = p.size
    assert sorted(q.table.reads) == sorted(a * n + b for a, b, _ in p.sums if a and b)
