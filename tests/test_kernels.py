"""The table-indexed RDP, ideal and kite kernels against the code they replaced.

Kept verbatim as references: the brute-force ``rdp_profile`` (every
product of the sum pairs of ``a`` and ``b``), the R1/R2 checks that
scanned members with ``le()`` calls and subtraction lookups, the ideal
enumeration that re-closed every ``I ∪ {x}`` from scratch, and the
``value()``-based kite candidate maps.  The kernels must agree with them
exactly: the whole ``RdpProfile`` with its witnesses, the ideal list in
its order, the R1/Riesz flags of ``classify_subset`` on every ideal, and
the candidate maps of each kite.  Inputs are every enumerated algebra of
size at most 5 with its unit extension under each unitizing twist, the
buildable kites of the ``verify`` grid, and a deterministic
``hypothesis`` stream of valid tables.
"""

from __future__ import annotations

import itertools
from typing import Iterator

import pytest
from hypothesis import assume, given, settings, strategies as st

from gpea import (
    FiniteGpea,
    InvariantViolation,
    KiteSpec,
    build_kite,
    chain,
    check_kc,
    classify_subset,
    enumerate_ideals,
    enumerate_unitizing,
    gamma_unitize,
    ideal_closure,
    rdp_profile,
    validate_axioms,
)
from gpea.ideals import _check_r1, _check_r2
from gpea.kites import _candidate_maps
from gpea.rdp import RdpProfile
from test_table import ENUMERATED, raw_tables

# ---------------------------------------------------------------------------
# Brute-force references, unchanged from the implementations they replaced
# ---------------------------------------------------------------------------


def _refinements(
    g: FiniteGpea,
    pairs: list[list[tuple[int, int]]],
    a: int,
    b: int,
    c: int,
    d: int,
) -> Iterator[tuple[int, int, int, int]]:
    for e11, e12 in pairs[a]:
        for e21, e22 in pairs[b]:
            if g.value(e11, e21) == c and g.value(e12, e22) == d:
                yield e11, e12, e21, e22


def _commutes_below(g: FiniteGpea, e12: int, e21: int) -> bool:
    masks = g.order.down_masks
    lower_left = [x for x in g.elements if masks[e12] >> x & 1]
    lower_right = [y for y in g.elements if masks[e21] >> y & 1]
    for f in lower_left:
        for h in lower_right:
            s = g.value(f, h)
            if s is None or g.value(h, f) != s:
                return False
    return True


def brute_rdp_profile(g: FiniteGpea) -> RdpProfile:
    """Evaluate all four decomposition properties by exhaustive search."""
    g.require_validated()
    # Row-major order of g.sums keeps every list of pairs sorted.
    pairs: list[list[tuple[int, int]]] = [[] for _ in g.elements]
    for x, y, s in g.sums:
        pairs[s].append((x, y))

    equations = sorted(
        (a, b, c, d) for lst in pairs for (a, b) in lst for (c, d) in lst
    )

    down_masks = g.order.down_masks
    rdp = rdp1 = rdp2 = True
    w_rdp = w_rdp1 = w_rdp2 = None
    for eq in equations:
        a, b, c, d = eq
        found = found1 = found2 = False
        for e11, e12, e21, e22 in _refinements(g, pairs, a, b, c, d):
            found = True
            if not found1 and _commutes_below(g, e12, e21):
                found1 = True
            if not found2 and down_masks[e12] & down_masks[e21] == 1:
                found2 = True
            if found1 and found2:
                break
        if rdp and not found:
            rdp, w_rdp = False, eq
        if rdp1 and not found1:
            rdp1, w_rdp1 = False, eq
        if rdp2 and not found2:
            rdp2, w_rdp2 = False, eq

    rdp0 = True
    w_rdp0 = None
    for a in g.elements:
        if not rdp0:
            break
        for b in g.elements:
            if not rdp0:
                break
            for c in g.elements:
                s = g.value(b, c)
                if s is None or not g.le(a, s):
                    continue
                if not any(
                    g.value(b1, c1) == a
                    for b1 in g.elements
                    if down_masks[b] >> b1 & 1
                    for c1 in g.elements
                    if down_masks[c] >> c1 & 1
                ):
                    rdp0, w_rdp0 = False, (a, b, c)
                    break

    if rdp and not rdp0:
        raise InvariantViolation(
            "refinement property holds but bound splitting fails"
        )
    return RdpProfile(rdp0, rdp, rdp1, rdp2, w_rdp0, w_rdp, w_rdp1, w_rdp2)


def brute_check_r1(g: FiniteGpea, mask: int, inside: list[int]) -> bool:
    """Every member below a defined sum splits below the summands.

    For each member ``i`` with ``i <= a + b`` there must be members
    ``j <= a`` and ``k <= b`` whose sum is defined and dominates ``i``.
    """
    n = g.size
    table = g.table
    le = g.le
    down = g.order.down_masks
    lower_members: list[list[int]] = [
        [j for j in inside if down[a] >> j & 1] for a in range(n)
    ]
    for a, b, s in g.sums:
        under_s = [i for i in inside if le(i, s)]
        if not under_s:
            continue
        covers = 0  # bitmask of members i already justified
        for j in lower_members[a]:
            for k in lower_members[b]:
                t = table[j * n + k]
                if t != n:
                    covers |= down[t]
        for i in under_s:
            if not covers >> i & 1:
                return False
    return True


def brute_check_r2(g: FiniteGpea, mask: int, inside: list[int]) -> bool:
    """The two residual-compatibility clauses of a Riesz ideal.

    Clause one: for ``i <= a``, whenever ``(a minus i) + b`` is defined some
    member ``j <= b`` makes ``a + (j-to-b residual)`` defined.  Clause two:
    whenever ``b + (i-to-a residual)`` is defined some member ``k <= b``
    makes ``(b minus k) + a`` defined.
    """
    n = g.size
    table = g.table
    le = g.le
    down = g.order.down_masks
    lower_members: list[list[int]] = [
        [j for j in inside if down[b] >> j & 1] for b in range(n)
    ]
    for i in inside:
        for a in range(n):
            if not le(i, a):
                continue
            a_minus_i = g.right_subtraction(i, a)  # x with x + i == a
            i_into_a = g.left_subtraction(i, a)  # y with i + y == a
            for b in range(n):
                if table[a_minus_i * n + b] != n:
                    ok = False
                    for j in lower_members[b]:
                        resid = g.left_subtraction(j, b)  # j + resid == b
                        if resid is not None and table[a * n + resid] != n:
                            ok = True
                            break
                    if not ok:
                        return False
                if table[b * n + i_into_a] != n:
                    ok = False
                    for k in lower_members[b]:
                        rem = g.right_subtraction(k, b)  # rem + k == b
                        if rem is not None and table[rem * n + a] != n:
                            ok = True
                            break
                    if not ok:
                        return False
    return True


def closure_enumerate_ideals(g: FiniteGpea) -> list[frozenset[int]]:
    """All ideals, smallest first (by size, then by sorted members).

    Generated as closures: starting from the zero ideal, repeatedly adjoin
    one new element and close under downward membership and defined sums.
    Every ideal is reachable this way, so the enumeration is complete.
    """
    g.require_validated()
    n = g.size
    seen: set[int] = set()
    frontier = [ideal_closure(g, 1)]
    seen.add(frontier[0])
    while frontier:
        current = frontier.pop()
        for x in range(n):
            if not current >> x & 1:
                grown = ideal_closure(g, current | 1 << x)
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    subsets = [
        frozenset(x for x in range(n) if mask >> x & 1) for mask in seen
    ]
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


def value_candidate_maps(
    u: FiniteGpea, kite: FiniteGpea, m: int
) -> Iterator[tuple[int, ...]]:
    """All unit/zero-preserving sum-preserving maps fixing the first half.

    Any such map must send the mirror of ``t`` to a partner ``y`` with
    ``t + y`` equal to the kite's unit, because that sum is defined in
    the extension and must be preserved.  Candidates are enumerated from
    those partner sets and filtered by the full one-way sum check.
    """
    unit = m
    pools = [
        [y for y in kite.elements if kite.value(t, y) == unit] for t in range(m)
    ]
    for choice in itertools.product(*pools):
        psi = tuple(range(m)) + choice
        ok = True
        for a, b, s in u.sums:
            target = kite.value(psi[a], psi[b])
            if target is None or target != psi[s]:
                ok = False
                break
        if ok:
            yield psi


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def assert_kernels_match(g: FiniteGpea) -> None:
    """Profile, ideal list and per-ideal R1/Riesz flags equal the references."""
    try:
        expected_profile = brute_rdp_profile(g)
    except InvariantViolation:
        with pytest.raises(InvariantViolation):
            rdp_profile(g)
    else:
        assert rdp_profile(g) == expected_profile

    ideals = enumerate_ideals(g)
    assert ideals == closure_enumerate_ideals(g)
    for members in ideals:
        inside = sorted(members)
        mask = sum(1 << x for x in inside)
        r1 = brute_check_r1(g, mask, inside)
        r2 = brute_check_r2(g, mask, inside)
        assert _check_r1(g, mask, inside) == r1, inside
        assert _check_r2(g, mask, inside) == r2, inside
        flags = classify_subset(g, members)
        assert flags.ideal
        assert (flags.r1, flags.riesz) == (r1, r1 and r2), inside


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_enumerated_algebras_and_their_unit_extensions(size):
    checked = 0
    for g in ENUMERATED:
        if g.size != size:
            continue
        assert_kernels_match(g)
        for gamma in enumerate_unitizing(g):
            assert_kernels_match(gamma_unitize(g, gamma).algebra)
            checked += 1
    assert checked > 0


def verify_grid_kites() -> list[tuple[str, KiteSpec]]:
    """The buildable specs of ``verify``'s kite grid: chain(1) and chain(2)
    bases, index sets of size 1-3, every bijection pair with the transfer
    condition."""
    out = []
    for height in (1, 2):
        for k in (1, 2, 3):
            perms = list(itertools.permutations(range(k)))
            for lam, rho in itertools.product(perms, repeat=2):
                spec = KiteSpec(chain(height), k, lam, rho)
                if check_kc(spec).kci:
                    out.append((f"chain({height}):k={k}:lam={lam}:rho={rho}", spec))
    return out


KITES = verify_grid_kites()


def test_verify_grid_has_eighteen_buildable_kites():
    assert len(KITES) == 18


@pytest.mark.parametrize("spec", [s for _, s in KITES], ids=[label for label, _ in KITES])
def test_verify_grid_kites(spec):
    kite = build_kite(spec)
    assert_kernels_match(kite.algebra)
    u = gamma_unitize(kite.power.algebra, kite.gamma).algebra
    assert list(_candidate_maps(u, kite.algebra, kite.m)) == list(
        value_candidate_maps(u, kite.algebra, kite.m)
    )


@st.composite
def valid_tables(draw):
    n, op = draw(raw_tables())
    g = FiniteGpea(n, op)
    assume(validate_axioms(g).passed)
    return g.validate()


DETERMINISTIC = settings(
    derandomize=True,
    database=None,
    deadline=None,
)


@settings(DETERMINISTIC, max_examples=150)
@given(valid_tables())
def test_random_valid_tables(g):
    assert_kernels_match(g)


@settings(DETERMINISTIC, max_examples=150)
@given(valid_tables(), st.integers(min_value=0))
def test_random_subsets(g, bits):
    """R1 and R2 on arbitrary subsets, ideals or not."""
    mask = bits & ((1 << g.size) - 1)
    inside = [x for x in range(g.size) if mask >> x & 1]
    assert _check_r1(g, mask, inside) == brute_check_r1(g, mask, inside)
    assert _check_r2(g, mask, inside) == brute_check_r2(g, mask, inside)
