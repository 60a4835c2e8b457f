"""Unit extensions: build them, recognize them, and lift relations into them.

A *unitizing* automorphism ``gamma`` of an algebra transfers definedness
across the operation: ``gamma(a) + b`` is defined exactly when ``b + a``
is.  Any such pair ``(P, gamma)`` yields a unital algebra on twice the
carrier — the *unit extension* of ``P`` by ``gamma``:

* original elements keep their sums;
* each element ``b`` gains a mirror ``eta(b)``; ``a + eta(b)`` is defined
  iff ``a <= b`` and equals ``eta(c)`` for the ``c`` with ``c + a == b``;
* ``eta(a) + b`` is defined iff ``gamma(b) <= a`` and equals ``eta(c)``
  for the ``c`` with ``gamma(b) + c == a``;
* two mirror elements never compose, and ``eta(0)`` is the unit.

The extension makes the base a normal maximal proper ideal, sends each
``a`` to its right supplement ``eta(a)``, and realizes ``gamma`` as the
double left supplement.  This module builds the extension, recognizes
algebras of that shape, enumerates two-valued states, lifts equivalence
relations through the mirror, and bundles the joint checks that connect
an ideal of the base, its induced relation, and the lifted relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .core import FiniteGpea, MalformedTableError, NoUnitError, find_morphisms
from .ideals import (
    NotEquivalenceError,
    Partition,
    _block_twist,
    _is_automorphism,
    classify_relation,
    classify_subset,
    enumerate_ideals,
    gcr_condition,
    quotient,
    sim_from_ideal,
    smallest_normal_riesz_ideal,
)

__all__ = [
    "UnitizationAlgebra",
    "TwoValuedState",
    "Recognition",
    "SuiteReport",
    "QuotientUnitizationVerdict",
    "SmallestIdealComparison",
    "is_unitizing",
    "enumerate_unitizing",
    "gamma_unitize",
    "recognize_unitization",
    "two_valued_states",
    "extend_congruence",
    "congruence_suite",
    "quotient_unitization",
    "base_ideal_is_riesz_iff_upward",
    "restriction_verdict",
    "lift_congruence_biconditional",
    "smallest_ideal_comparison",
]


# ------------------------------------------------------------------ helpers


def _permutation(g: FiniteGpea, gamma: Sequence[int]) -> tuple[int, ...]:
    perm = tuple(gamma)
    if sorted(perm) != list(range(g.size)):
        raise MalformedTableError("gamma must be a permutation of the carrier")
    return perm


def _inverse(perm: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def _mirror_pasting(
    g: FiniteGpea, left_twist: Sequence[int], right_twist: Sequence[int]
) -> FiniteGpea:
    """The raw table on ``g`` and its mirror ``η(a) = a + n``.

    ``g`` keeps its sums; ``a + η(b) = η(c)`` with ``c + left_twist(a) = b``
    and ``η(a) + b = η(c)`` with ``right_twist(b) + c = a``, each defined
    exactly when that ``c`` exists; two mirrors never add.  The unit
    extension by ``γ`` is the pasting with twists ``(identity, γ)``, and
    a kite the pasting of its power with the two reindexings.

    A pasting that validates obeys the supplement laws, by proof.  Write
    lt and rt for the twists.  By cancellation in ``g``, ``c = 0`` is the
    only ``c`` with ``c + lt(a) = lt(a)`` or ``a + c = a``, so ``a +
    η(lt a) = η0`` and ``η(a) + rt⁻¹(a) = η0``.  Every element is then
    below ``η0``, the top, and the supplements are rs(a) = η(lt a),
    rs(ηa) = rt⁻¹(a), ls(a) = η(rt a) and ls(ηb) = lt⁻¹(b).  So ll =
    lt⁻¹∘rt on the base: ``γ`` for the unit extension, and for a kite
    R(λ)⁻¹∘R(ρ) = R(ρ∘λ⁻¹), its ``gamma``, where R(σ) is
    ``reindexing_permutation(σ)`` and R(σ)∘R(τ) = R(τ∘σ).

    The base ``0 .. n-1`` is a normal ideal, by proof.  Base sums stay in
    the base.  A mirror plus anything is a mirror or undefined, so
    nothing below a base element is a mirror.  For ``a + c = c + b = v``
    with ``v`` in the base, all three summands are in it; with ``v`` a
    mirror, each side has exactly one mirror summand, so ``a`` and ``b``
    are both mirrors when ``c`` is in the base, and both in it when not.
    """
    n = g.size
    left, right = g.subtraction_tables
    op = {(a, b): s for a, b, s in g.sums}
    for a in range(n):
        for b in range(n):
            c = right[left_twist[a] * n + b]
            if c != n:
                op[(a, b + n)] = c + n
            c = left[right_twist[b] * n + a]
            if c != n:
                op[(a + n, b)] = c + n
    names = [g.name(i) for i in range(n)] + ["η" + g.name(i) for i in range(n)]
    return FiniteGpea(2 * n, op, names)


def _definedness_transfer(g: FiniteGpea, gamma: Sequence[int]) -> bool:
    """Whether row ``gamma(a)`` of the table is defined where column ``a`` is."""
    n, table = g.size, g.table
    return all(
        (r == n) == (c == n)
        for a in range(n)
        for r, c in zip(table[gamma[a] * n : gamma[a] * n + n], table[a::n])
    )


def is_unitizing(g: FiniteGpea, gamma: Sequence[int]) -> bool:
    """Whether ``gamma`` is an automorphism with the definedness transfer.

    The transfer condition says ``gamma(a) + b`` is defined iff ``b + a``
    is.  The identity map qualifies exactly on weakly commutative
    algebras; on a total algebra every automorphism qualifies; a unital
    algebra has exactly one such map, the double left supplement.
    """
    g.require_validated()
    perm = _permutation(g, gamma)
    return perm[0] == 0 and _is_automorphism(g, perm) and _definedness_transfer(g, perm)


def enumerate_unitizing(g: FiniteGpea) -> list[tuple[int, ...]]:
    """All unitizing automorphisms, in lexicographic order."""
    return [
        phi
        for phi in find_morphisms(g, g)
        if _definedness_transfer(g, phi)
    ]


# ----------------------------------------------------------------- the type


@dataclass(frozen=True)
class UnitizationAlgebra:
    """A base algebra, a unitizing twist, and the unit extension they fix.

    The layout is fixed: base elements keep indices ``0 .. n-1``, the
    mirror copy occupies ``n .. 2n-1`` with ``eta(a) = a + n``, and the
    unit is ``eta(0) = n``.  Construction refuses a base that is not
    validated (:class:`NotValidatedError`) or a ``gamma`` that is not a
    unitizing automorphism (:class:`MalformedTableError`), builds
    ``algebra`` as the mirror pasting with twists ``(identity, gamma)``
    and validates it, so the restriction to the base, the two absorption
    clauses and the empty mirror-by-mirror sums hold by construction.
    The rest holds by the proofs in :func:`_mirror_pasting`, unchecked:

    * the unit is ``eta(0)``; a base element ``a`` has right supplement
      ``eta(a)`` and left supplement ``eta(gamma(a))``, and the double
      left supplement restricted to the base equals ``gamma``;
    * the mirror ``eta(a)`` has left supplement ``a`` and right
      supplement ``gamma⁻¹(a)``;
    * the base is a normal ideal.

    The base is also maximal among proper ideals: an ideal holding the
    base and any ``eta(a)`` holds ``a + eta(a)``, the unit, and is the
    whole carrier.  To decide whether a given table is a unit extension,
    use :func:`recognize_unitization`.  Equality and the hash follow
    ``(base, gamma)``, which fix ``algebra``.
    """

    base: FiniteGpea
    gamma: tuple[int, ...]
    algebra: FiniteGpea = field(init=False, compare=False)

    def __post_init__(self) -> None:
        g, gamma = self.base, tuple(self.gamma)
        object.__setattr__(self, "gamma", gamma)
        if not is_unitizing(g, gamma):
            raise MalformedTableError("gamma is not a unitizing automorphism of the base")
        u = _mirror_pasting(g, tuple(range(g.size)), gamma).validate()
        object.__setattr__(self, "algebra", u)

    @property
    def unit(self) -> int:
        return self.base.size

    def eta(self, a: int) -> int:
        """Index of the mirror of base element ``a``."""
        return a + self.base.size

    @property
    def base_members(self) -> frozenset[int]:
        return frozenset(range(self.base.size))

    @property
    def mirror_members(self) -> frozenset[int]:
        return frozenset(range(self.base.size, 2 * self.base.size))

    def __repr__(self) -> str:
        return (
            f"UnitizationAlgebra(base={self.base.size}, "
            f"gamma={self.gamma}, total={self.algebra.size})"
        )


# -------------------------------------------------------------- construction


def gamma_unitize(g: FiniteGpea, gamma: Sequence[int]) -> UnitizationAlgebra:
    """Build the unit extension of ``g`` by the unitizing automorphism.

    The same as ``UnitizationAlgebra(g, tuple(gamma))``: the result
    carries the fixed layout, the validated table and the supplement
    laws documented there.
    """
    return UnitizationAlgebra(g, tuple(gamma))


# --------------------------------------------------------------- recognition


@dataclass(frozen=True)
class Recognition:
    """Outcome of testing whether a subset splits an algebra into base + mirror.

    ``gamma`` and ``iso`` are ``None`` when the algebra is not the unit
    extension of the subset; ``diagnostics`` names the first clause that
    failed.  On success ``extension`` is the rebuilt extension of the
    relabeled base (subset elements renumbered ``0 .. k-1`` in increasing
    order), ``gamma`` its twist, and ``iso`` the unique structure
    isomorphism from the rebuilt extension onto the input that restricts
    to the identity on the subset.
    """

    gamma: tuple[int, ...] | None
    iso: tuple[int, ...] | None
    extension: "UnitizationAlgebra | None"
    diagnostics: str

    @property
    def recognized(self) -> bool:
        return self.gamma is not None

    def __bool__(self) -> bool:
        return self.recognized


def _reject(diagnostics: str) -> Recognition:
    return Recognition(gamma=None, iso=None, extension=None, diagnostics=diagnostics)


def recognize_unitization(u: FiniteGpea, p: Iterable[int]) -> Recognition:
    """Try to exhibit ``u`` as the unit extension of its subset ``p``.

    Rejections (soft, reported in ``diagnostics``): ``u`` is not unital;
    ``p`` is not a proper subset containing 0; the unit lies in ``p``;
    ``p`` is not closed under defined sums; two elements outside ``p``
    compose.  Sums are scanned in row-major order, and a sum escaping
    ``p`` is reported before two composing outside elements.

    Once those clauses hold, the extension's shape is forced, by proof,
    with nothing left to check.  Write ``P`` for the subset, ``Q`` for
    the rest, and use the identities of :func:`pea_view`.

    * ``rs`` and ``ls`` swap ``P`` and ``Q``.  ``rs(p)`` in ``P`` would
      put the unit ``p + rs(p)`` in ``P`` by sum closure, and ``rs(q)``
      in ``Q`` would make ``q + rs(q)`` a defined sum of two outside
      elements; likewise for ``ls(x) + x``.  So ``|P| = |Q|``, and ``ll``
      maps ``P`` onto ``P``.
    * ``P`` is downward closed.  Take ``y`` in ``Q``, ``d`` in ``P`` and
      ``y + d`` in ``P``.  Then ``ls(y+d)`` is in ``Q``, and
      ``(ls(y+d) + y) + d`` is the unit, so two outside elements
      compose; ``d + y`` in ``P`` fails the same way through ``rs``.
    * The twist ``γ``, ``ll`` on ``P``, is unitizing.  Identity (4),
      applied three times, takes ``a + b = c`` to ``ll a + ll b = ll c``,
      and (5) does the same for ``rr``, so ``ll`` is an automorphism, and
      ``ll 0 = 0`` by (1).  By the existence criterion ``γ(a) + b`` and
      ``b + a`` are both defined exactly when ``b <= ls(a)``.
    * The map ``η(a) -> rs(a)`` is an isomorphism.  (5) takes ``c + a =
      b`` to ``a + rs(b) = rs(c)``, and the three-way exchange makes
      ``rs(a) + b = rs(c)`` the same as ``γ(b) + c = a``; each ``c`` is
      in ``P`` by downward closure.  These are the two mirror clauses,
      and outside elements never compose.

    :func:`gamma_unitize` still refuses a twist that is not unitizing.
    """
    u.require_validated()
    if not u.flags.has_unit:
        return _reject("carrier has no unit")
    unit = u.pea.unit
    members = sorted(set(p))
    if any(not 0 <= x < u.size for x in members):
        raise MalformedTableError("subset members out of range")
    if 0 not in members:
        return _reject("base must contain 0")
    if unit in members:
        return _reject("unit lies inside the base")
    pos = {old: i for i, old in enumerate(members)}
    base_op = {}
    escapes = composes = ""
    for a, b, s in u.sums:
        if a in pos and b in pos:
            if s in pos:
                base_op[(pos[a], pos[b])] = pos[s]
            elif not escapes:
                escapes = f"base not closed under sums: {a} + {b} = {s} escapes"
        elif a not in pos and b not in pos and not composes:
            composes = f"outside elements compose: {a} + {b} is defined"
    if escapes or composes:
        return _reject(escapes or composes)

    base = FiniteGpea(
        len(members), base_op, [u.name(old) for old in members]
    ).validate()
    view = u.pea
    gamma = tuple(pos[view.ll(old)] for old in members)
    iso = tuple(members) + tuple(view.right_supp[old] for old in members)
    return Recognition(
        gamma=gamma, iso=iso, extension=gamma_unitize(base, gamma), diagnostics="ok"
    )


# -------------------------------------------------------------------- states


@dataclass(frozen=True)
class TwoValuedState:
    """A {0,1}-valued map sending the unit to 1 and adding over sums."""

    values: tuple[int, ...]

    @property
    def kernel(self) -> frozenset[int]:
        return frozenset(i for i, v in enumerate(self.values) if v == 0)


def two_valued_states(u: FiniteGpea) -> list[TwoValuedState]:
    """All two-valued states of a unital algebra, sorted by value tuple.

    The kernel of such a map is necessarily an ideal (downward closure
    and sum closure both follow from additivity), and the kernel
    determines the map; the scan therefore walks the ideal lattice
    instead of all ``2^n`` assignments.  Each kernel is also normal, with
    nothing to check: ``a + c == c + b`` gives ``s(a) == s(b)``.
    """
    u.require_validated()
    if not u.flags.has_unit:
        raise NoUnitError("two-valued states require a unital algebra")
    unit = u.pea.unit
    out = []
    for members in enumerate_ideals(u):
        if unit in members:
            continue
        values = tuple(0 if x in members else 1 for x in u.elements)
        if any(values[a] + values[b] != values[s] for a, b, s in u.sums):
            continue
        out.append(TwoValuedState(values))
    return sorted(out, key=lambda s: s.values)


# ----------------------------------------------------------- lifted relations


def extend_congruence(ua: UnitizationAlgebra, rel: Partition) -> Partition:
    """Lift a base relation through the mirror.

    Base elements stay related exactly as in ``rel``, mirrors are related
    iff their base elements are, and a base element is never related to a
    mirror.
    """
    if rel.size != ua.base.size:
        raise MalformedTableError("relation size does not match the base")
    k = len(rel.blocks)
    return Partition.from_block_of(rel.block_of + tuple(k + i for i in rel.block_of))


def lift_congruence_biconditional(ua: UnitizationAlgebra, rel: Partition) -> bool:
    """Whether "the lift is a congruence" matches its base characterization.

    For a congruence ``rel`` of the base, the lifted relation is a
    congruence of the extension exactly when ``rel`` is compatible with
    the twist and satisfies the cancellation-transfer and decomposition
    conditions (C4 and C5′).  Returns the truth of that biconditional.
    """
    base_flags = classify_relation(ua.base, rel, gamma=ua.gamma)
    if not base_flags.congruence:
        raise MalformedTableError("biconditional is about congruences of the base")
    lhs = classify_relation(ua.algebra, extend_congruence(ua, rel)).congruence
    rhs = bool(base_flags.gamma_congruence) and base_flags.c4 and base_flags.c5prime
    return lhs == rhs


# ------------------------------------------------------------ theorem bundles


@dataclass(frozen=True)
class SuiteReport:
    """Joint verdicts tying a base ideal, its relation, and the lift.

    ``conditions`` holds the four individually-checked statements that
    must be mutually equivalent:

    * ``lift_c3`` — the lifted relation transfers definedness (C3);
    * ``ideal_riesz_twist_closed`` — the ideal is Riesz (and twist-closed);
    * ``relation_twist_c4_c5p`` — the induced relation is a
      twist-compatible congruence with C4 and C5′;
    * ``lift_full_congruence`` — the lift is a congruence with C4, C4′,
      C5′ and C5.

    The remaining fields are ``None`` when their hypotheses do not apply.
    ``gcr_triangle`` records the three-way equality between the padded-sum
    condition on the relation, "the lift is a Riesz congruence", and "the
    ideal is a normal Riesz ideal of the extension"; ``upward_all`` says
    everything above is true because the base is upward directed;
    ``induced_matches_lift`` compares the relation induced by the ideal
    inside the extension against the lift.
    """

    conditions: tuple[tuple[str, bool], ...]
    equivalent: bool
    supplement_lemma: bool | None
    gcr: bool
    gcr_right_variant: bool
    forms_agree: bool | None
    lift_riesz: bool
    ideal_riesz_in_extension: bool
    gcr_triangle: bool | None
    upward_all: bool | None
    induced_matches_lift: bool | None
    passed: bool
    detail: str

    def lines(self) -> list[str]:
        out = [f"{name}={str(value).lower()}" for name, value in self.conditions]
        out.append(f"equivalent={str(self.equivalent).lower()}")
        for name in (
            "supplement_lemma",
            "gcr",
            "gcr_right_variant",
            "forms_agree",
            "lift_riesz",
            "ideal_riesz_in_extension",
            "gcr_triangle",
            "upward_all",
            "induced_matches_lift",
            "passed",
        ):
            value = getattr(self, name)
            if value is not None:
                out.append(f"{name}={str(value).lower()}")
        return out


def congruence_suite(ua: UnitizationAlgebra, i: Iterable[int]) -> SuiteReport:
    """Run every joint check for a normal twist-closed ideal with R1.

    Builds the induced relation of ``i``, lifts it, and evaluates the
    four equivalent conditions, the supplement-compatibility lemma, the
    padded-sum condition in both variants, the Riesz verdicts on both
    sides of the mirror, and the comparison of the induced relation of
    ``i`` inside the extension with the lift.
    """
    g, u, gamma = ua.base, ua.algebra, ua.gamma
    members = frozenset(i)
    pre = classify_subset(g, members, gamma)
    if not (pre.ideal and pre.normal and pre.r1 and pre.gamma_closed):
        raise MalformedTableError(
            "suite requires a normal twist-closed ideal with the splitting property"
        )
    rel = sim_from_ideal(g, members)
    star = extend_congruence(ua, rel)
    base_flags = classify_relation(g, rel, gamma=gamma)
    star_flags = classify_relation(u, star)

    conditions = (
        ("lift_c3", star_flags.c3),
        ("ideal_riesz_twist_closed", bool(pre.riesz)),
        (
            "relation_twist_c4_c5p",
            base_flags.congruence
            and bool(base_flags.gamma_congruence)
            and base_flags.c4
            and base_flags.c5prime,
        ),
        (
            "lift_full_congruence",
            star_flags.congruence
            and star_flags.c4
            and star_flags.c4prime is True
            and star_flags.c5prime
            and star_flags.c5,
        ),
    )
    values = [v for _, v in conditions]
    equivalent = len(set(values)) == 1
    failures: list[str] = []
    if not equivalent:
        failures.append("conditions diverge")

    gcr = gcr_condition(g, rel, members, form=1)
    gcr2 = gcr_condition(g, rel, members, form=2)
    ext_flags = classify_subset(u, members)
    in_extension = ext_flags.normal and ext_flags.riesz
    lift_riesz = star_flags.riesz_congruence

    supplement: bool | None = None
    if equivalent and values[0]:
        view = u.pea
        supplement = True
        for a in range(g.size):
            for b in range(g.size):
                if star.related(view.left_supp[a], view.left_supp[b]) != rel.related(a, b):
                    supplement = False
                first = rel.related(a, view.ll(b))
                second = rel.related(view.rr(a), b)
                third = star.related(view.right_supp[a], view.left_supp[b])
                if not (first == second == third):
                    supplement = False
        if not supplement:
            failures.append("supplement lemma fails")

    forms_agree: bool | None = None
    triangle: bool | None = None
    if pre.riesz:
        forms_agree = gcr == gcr2
        triangle = (lift_riesz == gcr) and (in_extension == gcr)
        if not forms_agree:
            failures.append("padded-sum variants disagree")
        if not triangle:
            failures.append("padded-sum triangle broken")

    induced: bool | None = None
    if in_extension:
        try:
            induced = sim_from_ideal(u, members) == star
        except NotEquivalenceError:
            induced = False
        if not induced:
            failures.append("induced relation in the extension differs from the lift")

    upward: bool | None = None
    if g.flags.upward_directed:
        upward = (
            equivalent
            and values[0]
            and gcr
            and gcr2
            and lift_riesz
            and in_extension
            and induced is True
        )
        if not upward:
            failures.append("upward-directed base but not all verdicts true")

    passed = (
        equivalent
        and supplement is not False
        and forms_agree is not False
        and triangle is not False
        and induced is not False
        and upward is not False
    )
    return SuiteReport(
        conditions=conditions,
        equivalent=equivalent,
        supplement_lemma=supplement,
        gcr=gcr,
        gcr_right_variant=gcr2,
        forms_agree=forms_agree,
        lift_riesz=lift_riesz,
        ideal_riesz_in_extension=in_extension,
        gcr_triangle=triangle,
        upward_all=upward,
        induced_matches_lift=induced,
        passed=passed,
        detail="; ".join(failures),
    )


@dataclass(frozen=True)
class QuotientUnitizationVerdict:
    """Whether quotient-then-extend agrees with extend-then-quotient."""

    passed: bool
    gamma_tilde: tuple[int, ...]
    detail: str


def quotient_unitization(
    ua: UnitizationAlgebra, rel: Partition
) -> QuotientUnitizationVerdict:
    """Compare the extension of the quotient with the quotient of the extension.

    For a twist-compatible congruence with C4 and C5′: the block-wise
    twist must be a unitizing automorphism of the quotient, and the unit
    extension of the quotient must be isomorphic — by a unit-preserving
    isomorphism restricting to the identity on the quotient — to the
    quotient of the extension by the lifted congruence.  Such an
    isomorphism must send the mirror block ``k + i`` to the unique ``y``
    with ``i + y`` the unit, and in the quotient of the extension that is
    ``k + i`` itself (``x + η(x) = η(0)``, and blocks are ordered by least
    element), so it exists exactly when the two tables coincide.  The
    raw pasting is compared: :func:`quotient` validates its result, so a
    pasting that is not valid differs and counts as a failure.  The block
    twist exists: ``gamma_congruence`` is ``_block_twist`` not ``None``.
    """
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
    twist = tuple(block_twist[i] for i in range(len(rel.blocks)))
    q = quotient(g, rel)
    if not is_unitizing(q, twist):
        return QuotientUnitizationVerdict(
            False, twist, "block twist is not unitizing on the quotient"
        )
    star = extend_congruence(ua, rel)
    try:
        lifted = quotient(u, star)
    except MalformedTableError:  # not a congruence with C4 and C5
        return QuotientUnitizationVerdict(
            False, twist, "lifted relation does not admit a quotient"
        )
    if _mirror_pasting(q, tuple(range(q.size)), twist).same_table(lifted):
        return QuotientUnitizationVerdict(True, twist, "tables coincide")
    return QuotientUnitizationVerdict(
        False, twist, "no unit-preserving isomorphism fixes the quotient"
    )


# ------------------------------------------------------------ global checks


def base_ideal_is_riesz_iff_upward(ua: UnitizationAlgebra) -> tuple[bool, bool]:
    """The two sides of "the base is a Riesz ideal iff it is upward directed".

    Returns ``(riesz_in_extension, upward_directed)``; the checked
    biconditional is their equality.  The base is always a normal ideal
    of the extension, so the Riesz verdict carries the whole content.
    """
    riesz = classify_subset(ua.algebra, ua.base_members).riesz
    return bool(riesz), ua.base.flags.upward_directed


def restriction_verdict(
    ua: UnitizationAlgebra,
) -> tuple[bool, frozenset[int] | None]:
    """Check that cutting any normal Riesz ideal down to the base behaves.

    For every normal Riesz ideal of the extension, its intersection with
    the base must be a twist-closed normal Riesz ideal of the base.
    Returns ``(True, None)`` or ``(False, offending ideal)``.
    """
    n = ua.base.size
    for members in enumerate_ideals(ua.algebra):
        flags = classify_subset(ua.algebra, members)
        if not (flags.normal and flags.riesz):
            continue
        cut = frozenset(x for x in members if x < n)
        cf = classify_subset(ua.base, cut, ua.gamma)
        if not (cf.ideal and cf.normal and cf.riesz and cf.gamma_closed):
            return False, members
    return True, None


@dataclass(frozen=True)
class SmallestIdealComparison:
    """Existence comparison of smallest nontrivial normal Riesz ideals.

    ``base_smallest`` ranges over twist-closed ideals of the base,
    ``extension_smallest`` over ideals of the extension; the compared
    statement is that the two exist together.
    """

    base_smallest: frozenset[int] | None
    extension_smallest: frozenset[int] | None

    @property
    def agree(self) -> bool:
        return (self.base_smallest is None) == (self.extension_smallest is None)


def smallest_ideal_comparison(
    ua: UnitizationAlgebra, include_improper: bool = True
) -> SmallestIdealComparison:
    """Compute both sides of the smallest-ideal existence biconditional."""
    return SmallestIdealComparison(
        base_smallest=smallest_normal_riesz_ideal(
            ua.base, ua.gamma, include_improper=include_improper
        ),
        extension_smallest=smallest_normal_riesz_ideal(
            ua.algebra, None, include_improper=include_improper
        ),
    )
