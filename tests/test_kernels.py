"""The table-indexed RDP, ideal and kite kernels against the code they replaced.

Kept verbatim as references: the brute-force ``rdp_profile`` (every
product of the sum pairs of ``a`` and ``b``), the R1/R2 checks that
scanned members with ``le()`` calls and subtraction lookups, the ideal
enumeration that re-closed every ``I ∪ {x}`` from scratch with the
fixpoint loop ``ideal_closure`` ran before it shared the sweep's
worklist, and the ``value()``-based kite candidate maps.  The kernels
must agree with them exactly: the whole ``RdpProfile`` with its
witnesses, the ideal list in its order, the R1/Riesz flags of
``classify_subset`` on every ideal, and the candidate maps of each kite;
R2, read off the sums, must also agree with the check it replaced, which
tabulated the members per ``b`` and transposed the table, on every ideal
and 300 seeded subsets of ``boolean(5)``, ``chain(2)^3`` and its unit
extension;
and ``ideal_closure`` must agree with the fixpoint loop on every seed
of the algebras of size at most 5 and of the budget-5 extensions.  The
short-circuit scan of ``smallest_normal_riesz_ideal`` must give the
least member of the whole ``normal_riesz_ideals`` family (``least_ideal``,
kept here), in both readings, with no twist, with each unitizing twist,
and on the unit extensions; with a twist that is no automorphism both
sides must raise alike.
Inputs are every enumerated algebra of
size at most 5 with its unit extension under each unitizing twist, the
buildable kites of the ``verify`` grid (and, for the scan, the kites over
the one-element base), and a deterministic ``hypothesis`` stream of
valid tables.

The table builders are compared with the loops they replaced: the
tuple-walking power, the per-coordinate kite clauses and the
subtraction-method loop of the unit extension must give the same table
and names as the one mirror-pasting kernel.  The clause loop of the
unit-extension contract is the oracle for every extension
``UnitizationAlgebra`` builds, and its two entry points must refuse bad
input alike.

The block maps are compared with the per-condition loops they replaced:
C2, C4, C4′, the quotient table, twist compatibility and the block twist
of ``quotient_unitization`` on every partition of every algebra of size
at most 6 and of the unit extensions of those up to size 3, on every
permutation (not only automorphisms) at size at most 5, and on a
deterministic ``hypothesis`` stream of labels over the budget-5
extensions.  ``_check_c4`` builds one of C4's two block maps, by a proof
in its docstring that the other follows; the two halves of the C4 loop
must agree on each of those inputs.  ``quotient_unitization`` is compared with the version that
rebuilt a checked extension of the quotient, on every congruence of the
budget-5 pairs it applies to.  The congruence walk, which cuts each
prefix of a labelling at its first C2 conflict, is compared with
building every partition and then filtering: on every algebra of size
at most 7, on ``boolean(3)`` and ``chain(7)``, and on every unit
extension of at most 8 elements.  The bitmask induced
relation with the peel-set matrix on every ideal of the budget-5
instances and their extensions: the same partition, or the same
exception type and text.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import Iterator

import pytest
from hypothesis import assume, given, settings, strategies as st

from gpea import (
    AlgebraError,
    FiniteGpea,
    InvariantViolation,
    KiteAlgebra,
    KiteSpec,
    MalformedTableError,
    NotEquivalenceError,
    NotValidatedError,
    Partition,
    PowerGpea,
    QuotientUnitizationVerdict,
    UnitizationAlgebra,
    all_partitions,
    boolean,
    build_kite,
    builtin,
    chain,
    check_kc,
    classify_relation,
    classify_subset,
    congruences,
    enumerate_gpeas,
    enumerate_ideals,
    enumerate_unitizing,
    extend_congruence,
    fig1,
    find_morphisms,
    gamma_unitize,
    ideal_closure,
    is_unitizing,
    normal_riesz_ideals,
    power_gpea,
    product,
    quotient,
    quotient_unitization,
    rdp_profile,
    sim_from_ideal,
    smallest_normal_riesz_ideal,
    standard_instances,
    validate_axioms,
)
from gpea.ideals import (
    _block_sums,
    _block_twist,
    _check_c3,
    _check_c4,
    _check_c4prime,
    _check_r1,
    _check_r2,
    _partition_walk,
    _subset_mask,
)
from gpea.kites import _candidate_maps
from gpea.rdp import RdpProfile
from gpea.verify import _unitized_pairs
from test_table import ENUMERATED, raw_tables, verify_grid_kites

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


def transpose_check_r2(g: FiniteGpea, mask: int, inside: list[int]) -> bool:
    """The two residual-compatibility clauses of a Riesz ideal.

    Clause one: for ``i <= a``, whenever ``(a minus i) + b`` is defined some
    member ``j <= b`` makes ``a + (j-to-b residual)`` defined.  Clause two:
    whenever ``b + (i-to-a residual)`` is defined some member ``k <= b``
    makes ``(b minus k) + a`` defined.  The "some member" side depends on
    ``a`` and ``b`` only: it is tabulated per ``b`` as a bitmask of ``a``,
    then transposed, so each ``(i, a)`` costs two mask tests.
    """
    n = g.size
    left, right = g.subtraction_tables
    down, up = g.order.down_masks, g.order.up_masks
    after = [0] * n  # after[x]: the y with x + y defined
    before = [0] * n  # before[y]: the x with x + y defined
    for x, y, _ in g.sums:
        after[x] |= 1 << y
        before[y] |= 1 << x
    works_one = [0] * n  # works_one[a]: the b where clause one finds a member
    works_two = [0] * n
    for b in range(n):
        one = two = 0
        for j in inside:
            if down[b] >> j & 1:
                one |= before[left[j * n + b]]
                two |= after[right[j * n + b]]
        for a in range(n):
            works_one[a] |= (one >> a & 1) << b
            works_two[a] |= (two >> a & 1) << b
    for i in inside:
        for a in range(n):
            if up[i] >> a & 1 and (
                after[right[i * n + a]] & ~works_one[a]
                or before[left[i * n + a]] & ~works_two[a]
            ):
                return False
    return True


def fixpoint_ideal_closure(g: FiniteGpea, seed: int) -> int:
    """Least ideal (as bitmask) containing the seed bitmask."""
    down = g.order.down_masks
    mask = seed | 1  # ideals contain 0
    while True:
        new = mask
        for x in range(g.size):
            if mask >> x & 1:
                new |= down[x]
        for a, b, s in g.sums:
            if new >> a & 1 and new >> b & 1:
                new |= 1 << s
        if new == mask:
            return mask
        mask = new


def closure_enumerate_ideals(g: FiniteGpea) -> list[frozenset[int]]:
    """All ideals, smallest first (by size, then by sorted members).

    Generated as closures: starting from the zero ideal, repeatedly adjoin
    one new element and close under downward membership and defined sums.
    Every ideal is reachable this way, so the enumeration is complete.
    """
    g.require_validated()
    n = g.size
    seen: set[int] = set()
    frontier = [fixpoint_ideal_closure(g, 1)]
    seen.add(frontier[0])
    while frontier:
        current = frontier.pop()
        for x in range(n):
            if not current >> x & 1:
                grown = fixpoint_ideal_closure(g, current | 1 << x)
                if grown not in seen:
                    seen.add(grown)
                    frontier.append(grown)
    subsets = [
        frozenset(x for x in range(n) if mask >> x & 1) for mask in seen
    ]
    return sorted(subsets, key=lambda s: (len(s), sorted(s)))


def least_ideal(family: list[frozenset[int]]) -> frozenset[int] | None:
    """The member of ``family`` contained in all others, or ``None`` when
    the family is empty or has no minimum."""
    if not family:
        return None
    candidate = min(family, key=len)
    if all(candidate <= other for other in family):
        return candidate
    return None


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


def value_unitization_clauses(g: FiniteGpea, gamma: tuple[int, ...], u: FiniteGpea) -> None:
    """The clause loop of the unit-extension contract."""
    n = g.size

    def fail(msg: str, a: int, b: int) -> None:
        raise InvariantViolation(f"{msg} at ({a}, {b})")

    for a in range(n):
        for b in range(n):
            if u.value(a, b) != g.value(a, b):
                fail("restriction to the base differs from the base operation", a, b)
            expect = g.right_subtraction(a, b)
            got = u.value(a, b + n)
            if got != (None if expect is None else expect + n):
                fail("left absorption clause violated", a, b + n)
            expect = g.left_subtraction(gamma[b], a)
            got = u.value(a + n, b)
            if got != (None if expect is None else expect + n):
                fail("right absorption clause violated", a + n, b)
            if u.defined(a + n, b + n):
                fail("mirror elements must never compose", a + n, b + n)


# ---------------------------------------------------------------------------
# Comparison
# ---------------------------------------------------------------------------


def assert_kernels_match(g: FiniteGpea) -> None:
    """Profile, ideal list and per-ideal R1/Riesz flags equal the references."""
    assert rdp_profile(g) == brute_rdp_profile(g)

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


def test_ideal_closure_matches_the_fixpoint_loop():
    """Every seed of every algebra of size at most 5 and of every
    budget-5 unit extension."""
    algebras = ENUMERATED + [p.extension.algebra for p in BUDGET_FIVE_PAIRS]
    for g in algebras:
        for seed in range(1 << g.size):
            assert ideal_closure(g, seed) == fixpoint_ideal_closure(g, seed), (g, seed)


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


@settings(max_examples=150)
@given(valid_tables())
def test_random_valid_tables(g):
    assert_kernels_match(g)


@settings(max_examples=150)
@given(valid_tables(), st.integers(min_value=0))
def test_random_subsets(g, bits):
    """R1 and R2 on arbitrary subsets, ideals or not."""
    mask = bits & ((1 << g.size) - 1)
    inside = [x for x in range(g.size) if mask >> x & 1]
    assert _check_r1(g, mask, inside) == brute_check_r1(g, mask, inside)
    assert _check_r2(g, mask, inside) == brute_check_r2(g, mask, inside)


def r2_subsets(g: FiniteGpea, count: int, seed: int) -> list[int]:
    """Every ideal of ``g``, then ``count`` seeded subsets in turn: an
    ideal with one element toggled, the union of two ideals, and a sparse
    random subset (uniform ones almost never satisfy R2)."""
    rng = random.Random(seed)
    ideals = [sum(1 << x for x in members) for members in enumerate_ideals(g)]
    out = list(ideals)
    for k in range(count):
        if k % 3 == 0:
            out.append(rng.choice(ideals) ^ 1 << rng.randrange(g.size))
        elif k % 3 == 1:
            out.append(rng.choice(ideals) | rng.choice(ideals))
        else:
            out.append(sum(1 << x for x in range(g.size) if rng.random() < 0.2))
    return out


CHAIN2_CUBE = product(chain(2), product(chain(2), chain(2)))
R2_ALGEBRAS = {
    "boolean(5)": boolean(5),
    "chain(2)^3": CHAIN2_CUBE,
    "ext:chain(2)^3": gamma_unitize(CHAIN2_CUBE, tuple(range(27))).algebra,
}


@pytest.mark.parametrize("g", R2_ALGEBRAS.values(), ids=R2_ALGEBRAS.keys())
def test_r2_matches_the_transposing_check(g):
    """R2 read off the sums against the per-``b`` tabulation it replaced,
    on every ideal and 300 seeded subsets, with both verdicts drawn."""
    verdicts = set()
    for mask in r2_subsets(g, 300, seed=g.size):
        inside = [x for x in range(g.size) if mask >> x & 1]
        verdict = _check_r2(g, mask, inside)
        assert verdict == transpose_check_r2(g, mask, inside), inside
        verdicts.add(verdict)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# The least normal Riesz ideal: the short-circuit scan against the family
# ---------------------------------------------------------------------------


def assert_scan_matches(g: FiniteGpea, gamma=None) -> None:
    """Both readings of ``smallest_normal_riesz_ideal`` equal the least
    member of the whole family, or both raise alike."""
    for improper in (True, False):
        scan = outcome(smallest_normal_riesz_ideal, g, gamma, improper)
        family = outcome(normal_riesz_ideals, g, gamma, improper)
        expected = family if isinstance(family, tuple) else least_ideal(family)
        assert scan == expected, (g, gamma, improper)


def bad_twists(g: FiniteGpea) -> list[tuple[int, ...]]:
    """A rotation (never an automorphism: it moves 0), every transposition
    of two nonzero elements that is not an automorphism, and a map that is
    not a permutation."""
    n = g.size
    twists = [tuple((x + 1) % n for x in range(n)), (0,) * n]
    autos = set(find_morphisms(g, g))
    for a, b in itertools.combinations(range(1, n), 2):
        swap = list(range(n))
        swap[a], swap[b] = b, a
        if tuple(swap) not in autos:
            twists.append(tuple(swap))
    return twists


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_least_ideal_scan_on_small_algebras_and_their_extensions(size):
    checked = 0
    for g in ENUMERATED:
        if g.size != size:
            continue
        assert_scan_matches(g)
        for gamma in enumerate_unitizing(g):
            assert_scan_matches(g, gamma)
            assert_scan_matches(gamma_unitize(g, gamma).algebra)
            checked += 1
        if size > 1:
            for gamma in bad_twists(g):
                assert_scan_matches(g, gamma)
                assert isinstance(outcome(smallest_normal_riesz_ideal, g, gamma), tuple)
    assert checked > 0


def one_element_base_kites() -> list[KiteSpec]:
    return [
        KiteSpec(chain(0), k, lam, rho)
        for k in (1, 2, 3)
        for lam in itertools.permutations(range(k))
        for rho in itertools.permutations(range(k))
    ]


def test_least_ideal_scan_on_kites():
    """The 18 grid kites have none; over the one-element base the whole
    two-element carrier is the least."""
    for _, spec in KITES:
        assert_scan_matches(build_kite(spec).algebra)
        assert smallest_normal_riesz_ideal(build_kite(spec).algebra) is None
    for spec in one_element_base_kites():
        kite = build_kite(spec).algebra
        assert_scan_matches(kite)
        assert smallest_normal_riesz_ideal(kite) == {0, 1}


@settings(max_examples=150)
@given(valid_tables(), st.data())
def test_least_ideal_scan_on_random_tables(g, data):
    assert_scan_matches(g)
    assert_scan_matches(g, data.draw(st.permutations(range(g.size))))


# ---------------------------------------------------------------------------
# Table builders
# ---------------------------------------------------------------------------


def tuple_power_gpea(p: FiniteGpea, k: int) -> PowerGpea:
    """Build ``p^k`` with the coordinatewise partial operation."""
    tuples = tuple(itertools.product(range(p.size), repeat=k))
    op: dict[tuple[int, int], int] = {}
    for s, a in enumerate(tuples):
        for t, b in enumerate(tuples):
            total = 0
            for x, y in zip(a, b):
                v = p.value(x, y)
                if v is None:
                    break
                total = total * p.size + v
            else:
                op[(s, t)] = total
    names = ["(" + ",".join(p.name(x) for x in t) + ")" for t in tuples]
    algebra = FiniteGpea(p.size**k, op, names).validate()
    return PowerGpea(base=p, index_size=k, algebra=algebra, tuples=tuples)


def coordinatewise_paste(
    spec: KiteSpec, power: PowerGpea, gamma: tuple[int, ...]
) -> KiteAlgebra:
    """The kite table over a built power; the caller has checked the spec."""
    m = power.algebra.size
    p = spec.base
    k = spec.index_size
    op = {(a, b): s for a, b, s in power.algebra.sums}
    for s, a in enumerate(power.tuples):
        for t, b in enumerate(power.tuples):
            mixed = []
            for i in range(k):
                x, y = a[spec.lam[i]], b[i]
                if not p.le(x, y):
                    break
                mixed.append(p.right_subtraction(x, y))
            else:
                op[(s, t + m)] = power.index_of(tuple(mixed)) + m
            mixed = []
            for i in range(k):
                x, y = b[spec.rho[i]], a[i]
                if not p.le(x, y):
                    break
                mixed.append(p.left_subtraction(x, y))
            else:
                op[(s + m, t)] = power.index_of(tuple(mixed)) + m
    names = [power.algebra.name(t) for t in range(m)]
    names += ["η" + power.algebra.name(t) for t in range(m)]
    algebra = FiniteGpea(2 * m, op, names).validate()
    return KiteAlgebra(spec=spec, power=power, gamma=gamma, algebra=algebra)


def subtraction_unitize(g: FiniteGpea, perm: tuple[int, ...]) -> FiniteGpea:
    """The unit extension's table, built with the subtraction methods."""
    n = g.size
    op = {(a, b): s for a, b, s in g.sums}
    for a in range(n):
        for b in range(n):
            c = g.right_subtraction(a, b)
            if c is not None:
                op[(a, b + n)] = c + n
            c = g.left_subtraction(perm[b], a)
            if c is not None:
                op[(a + n, b)] = c + n
    names = {i: g.name(i) for i in range(n)}
    names.update({i + n: "η" + g.name(i) for i in range(n)})
    return FiniteGpea(2 * n, op, names).validate()


def same_table_and_names(g: FiniteGpea, h: FiniteGpea) -> bool:
    names = [g.name(i) for i in g.elements]
    return g.same_table(h) and names == [h.name(i) for i in h.elements]


def kite_specs(height: int, k: int, pairs) -> list[tuple[str, KiteSpec]]:
    return [
        (f"chain({height}):k={k}:lam={lam}:rho={rho}", KiteSpec(chain(height), k, lam, rho))
        for lam, rho in pairs
    ]


def spec_pool() -> list[tuple[str, KiteSpec]]:
    """The verify grid; chain(3) at index 3 (128 elements) and chain(1) at
    index 5 with lam = rho a 5-cycle (64 elements); and every spec over the
    one-element base with lam != rho, the only buildable specs whose two
    reindexings differ."""
    cycle = (1, 2, 3, 4, 0)
    pool = list(KITES)
    pool += kite_specs(3, 3, [(p, p) for p in itertools.permutations(range(3))])
    pool += kite_specs(1, 5, [(cycle, cycle)])
    for k in (2, 3):
        perms = list(itertools.permutations(range(k)))
        pairs = [(lam, rho) for lam in perms for rho in perms if lam != rho]
        pool += kite_specs(0, k, pairs)
    return pool


SPECS = spec_pool()


@pytest.mark.parametrize("spec", [s for _, s in SPECS], ids=[label for label, _ in SPECS])
def test_power_and_kite_match_the_coordinatewise_loops(spec):
    assert check_kc(spec).kci
    power = power_gpea(spec.base, spec.index_size)
    reference = tuple_power_gpea(spec.base, spec.index_size)
    assert same_table_and_names(power.algebra, reference.algebra)
    assert power.tuples == reference.tuples
    kite = build_kite(spec)
    expected = coordinatewise_paste(spec, reference, kite.gamma)
    assert same_table_and_names(kite.algebra, expected.algebra)


def test_powers_of_every_small_algebra_match_the_tuple_walk():
    """Squares of every algebra of size at most 5, one of them not
    commutative, and cubes of those up to size 3."""
    for g in ENUMERATED:
        for k in (2, 3) if g.size <= 3 else (2,):
            power = power_gpea(g, k)
            assert same_table_and_names(power.algebra, tuple_power_gpea(g, k).algebra)
    n = 5
    assert any(
        g.table[a * n + b] != g.table[b * n + a]
        for g in ENUMERATED
        if g.size == n
        for a in range(n)
        for b in range(n)
    )


# The bases of the benchmark's five unit extensions, with their twists.
BENCH_EXTENSIONS = [
    ("chain(2)", (0, 1, 2)),
    ("fig1", (0, 2, 1, 3, 5, 4)),
    ("boolean(3)", tuple(range(8))),
    ("product(fig1,chain(1))", (0, 1, 4, 5, 2, 3, 6, 7, 10, 11, 8, 9)),
    ("product(chain(2),product(chain(2),chain(2)))", tuple(range(27))),
]


def test_unit_extensions_match_the_subtraction_loop():
    pairs = [(g, gamma) for g in ENUMERATED for gamma in enumerate_unitizing(g)]
    pairs += [(builtin(expr).validate(), gamma) for expr, gamma in BENCH_EXTENSIONS]
    for g, gamma in pairs:
        u = gamma_unitize(g, gamma).algebra
        assert same_table_and_names(u, subtraction_unitize(g, gamma)), (g, gamma)
    assert len(pairs) > len(BENCH_EXTENSIONS)


# ---------------------------------------------------------------------------
# Unit extensions: one builder, the clause loop as its oracle
# ---------------------------------------------------------------------------


def test_every_built_extension_passes_the_clause_loop():
    """Every unitizing twist of every algebra of size at most 5, and the
    benchmark's extension bases: the table ``UnitizationAlgebra`` builds
    satisfies every clause of the unit-extension contract."""
    pairs = [(g, gamma) for g in ENUMERATED for gamma in enumerate_unitizing(g)]
    pairs += [(builtin(expr).validate(), gamma) for expr, gamma in BENCH_EXTENSIONS]
    for g, gamma in pairs:
        ua = UnitizationAlgebra(g, gamma)
        assert ua.algebra.size == 2 * g.size
        value_unitization_clauses(g, gamma, ua.algebra)
    assert len(pairs) > len(BENCH_EXTENSIONS)
    assert UnitizationAlgebra(g, list(gamma)).gamma == ua.gamma == tuple(gamma)


def refusal(build, g: FiniteGpea, gamma) -> tuple[type, str]:
    with pytest.raises(AlgebraError) as info:
        build(g, gamma)
    return type(info.value), str(info.value)


def test_constructor_and_gamma_unitize_refuse_alike():
    """A raw base, a map that is no permutation, and every permutation of
    the algebras of size at most 4 that is not unitizing: the same error
    type and text from both entry points."""
    cases = [(FiniteGpea(3, {(0, x): x for x in range(3)}), (0, 1, 2))]
    cases += [(fig1(), gamma) for gamma in [(0, 0, 1, 2, 3, 4), (0, 1, 2), ()]]
    for g in ENUMERATED:
        if g.size <= 4:
            kept = set(enumerate_unitizing(g))
            cases += [
                (g, gamma)
                for gamma in itertools.permutations(range(g.size))
                if gamma not in kept
            ]
    seen = set()
    for g, gamma in cases:
        expected = refusal(gamma_unitize, g, gamma)
        assert refusal(UnitizationAlgebra, g, gamma) == expected, (g, gamma)
        seen.add(expected)
    assert seen == {
        (NotValidatedError, "operation requires a validated algebra; call .validate() first"),
        (MalformedTableError, "gamma must be a permutation of the carrier"),
        (MalformedTableError, "gamma is not a unitizing automorphism of the base"),
    }


# ---------------------------------------------------------------------------
# Block maps: the per-condition loops they replaced
# ---------------------------------------------------------------------------


def loop_check_c2(g: FiniteGpea, rel: Partition) -> bool:
    result_block: dict[tuple[int, int], int] = {}
    bl = rel.block_of
    for a, b, s in g.sums:
        key = (bl[a], bl[b])
        prev = result_block.get(key)
        if prev is None:
            result_block[key] = bl[s]
        elif prev != bl[s]:
            return False
    return True


def loop_check_c4(g: FiniteGpea, rel: Partition) -> bool:
    bl = rel.block_of
    left_partner: dict[tuple[int, int], int] = {}
    right_partner: dict[tuple[int, int], int] = {}
    for a, a1, s in g.sums:
        key = (bl[a], bl[s])
        prev = left_partner.get(key)
        if prev is None:
            left_partner[key] = bl[a1]
        elif prev != bl[a1]:
            return False
        key = (bl[a1], bl[s])
        prev = right_partner.get(key)
        if prev is None:
            right_partner[key] = bl[a]
        elif prev != bl[a]:
            return False
    return True


def c4_halves(g: FiniteGpea, rel: Partition) -> tuple[bool, bool]:
    """Whether the classes of ``a`` and ``a + b`` fix the class of ``b``,
    and whether the classes of ``b`` and ``a + b`` fix the class of ``a``:
    the two halves of ``loop_check_c4``."""
    bl = rel.block_of
    halves = (
        {((bl[a], bl[s]), bl[b]) for a, b, s in g.sums},
        {((bl[b], bl[s]), bl[a]) for a, b, s in g.sums},
    )
    return tuple(len({key for key, _ in pairs}) == len(pairs) for pairs in halves)


def loop_check_c4prime(g: FiniteGpea, rel: Partition) -> bool:
    view = g.pea
    bl = rel.block_of
    for block in rel.blocks:
        rs_blocks = {bl[view.right_supp[a]] for a in block}
        ls_blocks = {bl[view.left_supp[a]] for a in block}
        if len(rs_blocks) > 1 or len(ls_blocks) > 1:
            return False
    return True


def loop_check_gamma_congruence(rel: Partition, gamma) -> bool:
    bl = rel.block_of
    for block in rel.blocks:
        if len({bl[gamma[a]] for a in block}) > 1:
            return False
    image_blocks = {frozenset(gamma[a] for a in block) for block in rel.blocks}
    return image_blocks == set(rel.blocks)


def loop_quotient_table(g: FiniteGpea, rel: Partition) -> dict[tuple[int, int], int]:
    """``quotient``'s table loop."""
    bl = rel.block_of
    table: dict[tuple[int, int], int] = {}
    for a, b, s in g.sums:
        key = (bl[a], bl[b])
        if key in table and table[key] != bl[s]:
            raise InvariantViolation("quotient table is not well defined")
        table[key] = bl[s]
    return table


def loop_block_twist(g: FiniteGpea, rel: Partition, gamma) -> tuple[int, ...]:
    """``quotient_unitization``'s block-twist loop."""
    bl = rel.block_of
    gamma_tilde: list[int] = [-1] * len(rel.blocks)
    for x in g.elements:
        i, j = bl[x], bl[gamma[x]]
        if gamma_tilde[i] not in (-1, j):
            raise InvariantViolation("block twist is not well defined")
        gamma_tilde[i] = j
    return tuple(gamma_tilde)


def filter_partition_walk(g: FiniteGpea) -> tuple[Partition, ...]:
    """Every partition built first, then filtered by C2 and C3."""
    return tuple(
        rel
        for rel in all_partitions(g.size)
        if loop_check_c2(g, rel) and _check_c3(g, rel)
    )


def peel_sim_from_ideal(g: FiniteGpea, members) -> Partition:
    """``sim_from_ideal`` on peel sets and an n x n relation matrix."""
    flags = classify_subset(g, members)
    if not flags.ideal:
        raise MalformedTableError("sim_from_ideal requires an ideal")
    mask = _subset_mask(g, members)
    n = g.size
    inside = [x for x in range(n) if mask >> x & 1]
    down = g.order.down_masks

    def peels(a: int, use_left: bool) -> frozenset[int]:
        out = set()
        for i in inside:
            if down[a] >> i & 1:
                r = g.left_subtraction(i, a) if use_left else g.right_subtraction(i, a)
                out.add(r)
        return frozenset(out)

    right_peels = [peels(a, use_left=False) for a in range(n)]
    related = [[bool(right_peels[a] & right_peels[b]) for b in range(n)] for a in range(n)]

    if flags.normal:
        left_peels = [peels(a, use_left=True) for a in range(n)]
        for a in range(n):
            for b in range(n):
                if bool(left_peels[a] & left_peels[b]) != related[a][b]:
                    raise InvariantViolation(
                        "left- and right-peel relations differ on a normal ideal"
                    )

    for a in range(n):
        for b in range(n):
            if related[a][b]:
                for c in range(n):
                    if related[b][c] and not related[a][c]:
                        raise NotEquivalenceError(
                            f"NOT_EQUIVALENCE: transitivity fails at ({a}, {b}, {c})"
                        )

    labels = [-1] * n
    fresh = 0
    for a in range(n):
        if labels[a] < 0:
            for b in range(a, n):
                if related[a][b]:
                    labels[b] = fresh
            fresh += 1
    return Partition.from_block_of(labels)


def outcome(f, *args):
    """The value of ``f(*args)``, or the type and text of what it raises."""
    try:
        return f(*args)
    except AlgebraError as exc:
        return type(exc), str(exc)


def assert_relation_maps_match(g: FiniteGpea, rel: Partition) -> None:
    """C2, C4, C4′ and the quotient table (and, for a congruence with C4
    and C5, the quotient) agree with the loops."""
    bl = rel.block_of
    table = _block_sums(g, bl)
    assert (table is not None) == loop_check_c2(g, rel), bl
    assert outcome(loop_quotient_table, g, rel) == (
        table if table is not None
        else (InvariantViolation, "quotient table is not well defined")
    ), bl
    assert _check_c4(g, rel) == loop_check_c4(g, rel), bl
    kept, other = c4_halves(g, rel)
    assert kept == other, bl
    if g.flags.has_unit:
        assert _check_c4prime(g, rel) == loop_check_c4prime(g, rel), bl
    flags = classify_relation(g, rel)
    if flags.congruence and flags.c4 and flags.c5:
        q = quotient(g, rel)
        names = {
            i: "{" + ",".join(g.name(x) for x in sorted(block)) + "}"
            for i, block in enumerate(rel.blocks)
        }
        expected = FiniteGpea(len(rel.blocks), loop_quotient_table(g, rel), names)
        assert same_table_and_names(q, expected.validate()), bl


def assert_twist_maps_match(g: FiniteGpea, rel: Partition, gamma) -> None:
    """Twist compatibility and the block twist agree with the loops."""
    twist = _block_twist(rel, gamma)
    assert (twist is not None) == loop_check_gamma_congruence(rel, gamma)
    assert outcome(loop_block_twist, g, rel, gamma) == (
        tuple(twist[i] for i in range(len(rel.blocks))) if twist is not None
        else (InvariantViolation, "block twist is not well defined")
    )


def assert_walk_matches(g: FiniteGpea) -> None:
    assert _partition_walk(g) == filter_partition_walk(g)
    for rel in all_partitions(g.size):
        assert_relation_maps_match(g, rel)


@functools.cache
def algebras_of_size(size: int) -> list[FiniteGpea]:
    return enumerate_gpeas(size)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5, 6])
def test_block_maps_on_every_partition_of_every_small_algebra(size):
    algebras = algebras_of_size(size)
    for g in algebras:
        assert_walk_matches(g)
    assert any(g.flags.has_unit for g in algebras)


def test_c4_halves_agree_on_every_partition_of_every_algebra_up_to_size_six():
    """The theorem behind ``_check_c4``, not only the oracle: random labels
    rarely make either half hold, so every partition is tried."""
    verdicts = [
        c4_halves(g, rel)
        for size in range(1, 7)
        for g in algebras_of_size(size)
        for rel in all_partitions(size)
    ]
    assert all(kept == other for kept, other in verdicts)
    assert (len(verdicts), sum(kept for kept, _ in verdicts)) == (9_290, 1_939)


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_block_twist_under_every_permutation(size):
    """Not only automorphisms: every permutation of the carrier."""
    g = chain(size - 1)
    for rel in all_partitions(size):
        for gamma in itertools.permutations(range(size)):
            assert_twist_maps_match(g, rel, gamma)


def test_block_maps_on_the_unit_extensions_of_algebras_up_to_size_three():
    pairs = [(g, gamma) for g in ENUMERATED if g.size <= 3 for gamma in enumerate_unitizing(g)]
    for g, gamma in pairs:
        ua = gamma_unitize(g, gamma)
        assert_walk_matches(ua.algebra)
        for rel in all_partitions(g.size):
            assert_twist_maps_match(g, rel, ua.gamma)
            flags = classify_relation(g, rel, gamma=ua.gamma)
            if flags.congruence and flags.gamma_congruence and flags.c4 and flags.c5prime:
                verdict = quotient_unitization(ua, rel)
                assert verdict.gamma_tilde == loop_block_twist(g, rel, ua.gamma)
    assert len(pairs) > 3



def test_walk_matches_the_filter_on_every_size_seven_algebra():
    assert len(algebras_of_size(7)) == 171
    for g in algebras_of_size(7):
        assert _partition_walk(g) == filter_partition_walk(g), g.table_key()


def test_walk_matches_the_filter_on_eight_element_algebras():
    """``boolean(3)``, ``chain(7)`` and every unit extension of at most
    eight elements, at the congruence search's size limit."""
    extensions = [
        gamma_unitize(g, gamma).algebra
        for size in range(1, 5)
        for g in algebras_of_size(size)
        for gamma in enumerate_unitizing(g)
    ]
    assert (len(extensions), max(u.size for u in extensions)) == (15, 8)
    for g in [boolean(3), chain(7), *extensions]:
        assert _partition_walk(g) == filter_partition_walk(g), g.table_key()


BUDGET_FIVE_PAIRS = list(_unitized_pairs(standard_instances(5)))


def rebuild_quotient_unitization(
    ua: UnitizationAlgebra, rel: Partition
) -> QuotientUnitizationVerdict:
    """``quotient_unitization`` when it built a checked extension of the
    quotient to compare its table."""
    g, u, gamma = ua.base, ua.algebra, ua.gamma
    base_flags = classify_relation(g, rel, gamma=gamma)
    if not (
        base_flags.congruence
        and bool(base_flags.gamma_congruence)
        and base_flags.c4
        and base_flags.c5prime
    ):
        raise MalformedTableError(
            "requires a twist-compatible congruence with C4 and C5'"
        )
    block_twist = _block_twist(rel, gamma)
    if block_twist is None:
        raise InvariantViolation("block twist is not well defined")
    twist = tuple(block_twist[i] for i in range(len(rel.blocks)))
    q = quotient(g, rel)
    if not is_unitizing(q, twist):
        return QuotientUnitizationVerdict(
            False, twist, "block twist is not unitizing on the quotient"
        )
    rebuilt = gamma_unitize(q, twist)
    star = extend_congruence(ua, rel)
    try:
        lifted = quotient(u, star)
    except MalformedTableError:  # not a congruence with C4 and C5
        return QuotientUnitizationVerdict(
            False, twist, "lifted relation does not admit a quotient"
        )
    if rebuilt.algebra.same_table(lifted):
        return QuotientUnitizationVerdict(True, twist, "tables coincide")
    return QuotientUnitizationVerdict(
        False, twist, "no unit-preserving isomorphism fixes the quotient"
    )


def twist_compatible_c4_c5p(ua: UnitizationAlgebra) -> list[Partition]:
    """The congruences ``quotient_unitization`` is defined on."""
    out = []
    for rel in congruences(ua.base):
        flags = classify_relation(ua.base, rel, gamma=ua.gamma)
        if flags.gamma_congruence and flags.c4 and flags.c5prime:
            out.append(rel)
    return out


def test_quotient_unitization_matches_the_rebuild_on_budget_five_pairs():
    compared = 0
    for pair in BUDGET_FIVE_PAIRS:
        ua = pair.extension
        for rel in twist_compatible_c4_c5p(ua):
            expected = rebuild_quotient_unitization(ua, rel)
            assert quotient_unitization(ua, rel) == expected, (pair.label, rel)
            compared += 1
    assert compared > 100


def test_quotient_unitization_builds_no_checked_extension(monkeypatch):
    calls = []
    build = UnitizationAlgebra.__post_init__

    def counted(self):
        calls.append(self)
        build(self)

    extensions = [p.extension for p in BUDGET_FIVE_PAIRS[:20]]
    monkeypatch.setattr(UnitizationAlgebra, "__post_init__", counted)
    verdicts = [
        quotient_unitization(ua, rel)
        for ua in extensions
        for rel in twist_compatible_c4_c5p(ua)
    ]
    assert verdicts and all(v.passed for v in verdicts)
    assert calls == []


@st.composite
def extension_labels(draw):
    """A budget-5 unit extension with labels for its carrier and its base."""
    ua = draw(st.sampled_from(BUDGET_FIVE_PAIRS)).extension
    n, k = ua.algebra.size, ua.base.size
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return ua, labels


@settings(max_examples=300)
@given(extension_labels())
def test_block_maps_on_random_labels_over_budget_five_extensions(drawn):
    ua, labels = drawn
    assert_relation_maps_match(ua.algebra, Partition.from_block_of(labels))
    base_rel = Partition.from_block_of(labels[: ua.base.size])
    assert_twist_maps_match(ua.base, base_rel, ua.gamma)


def test_walk_builds_partitions_only_for_strings_passing_c2(monkeypatch):
    g = fig1()
    passing = sum(loop_check_c2(g, rel) for rel in all_partitions(g.size))
    built = []
    init = Partition.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Partition, "__init__", counted)
    list(congruences(fig1()))
    assert len(built) == passing < 203  # Bell(6)


def test_induced_relation_matches_the_peel_matrix():
    """Every ideal of every budget-5 instance and of its unit extensions:
    the same partition, or the same exception type and text."""
    algebras = [g for _, g in standard_instances(5)]
    algebras += [p.extension.algebra for p in BUDGET_FIVE_PAIRS]
    kinds = set()
    for g in algebras:
        for members in enumerate_ideals(g):
            expected = outcome(peel_sim_from_ideal, g, members)
            assert outcome(sim_from_ideal, g, members) == expected, (g, members)
            kinds.add(type(expected))
    assert kinds == {Partition, tuple}
