"""Kites: coordinatewise powers of a base algebra with a mirrored top half.

Given a base algebra ``P``, a finite index set, and two bijections
``lam`` and ``rho`` on the indices, the *kite* lives on two copies of
the power ``P^I``: the tuples themselves, and a mirror copy written
``η(...)``.  Sums follow four clauses:

* two tuples add coordinatewise when every coordinate sum is defined;
* ``(a_i) + (η b_i)`` is defined iff ``a_{lam(i)} <= b_i`` everywhere
  and equals ``(η c_i)`` where ``c_i + a_{lam(i)} = b_i``;
* ``(η a_i) + (b_i)`` is defined iff ``b_{rho(i)} <= a_i`` everywhere
  and equals ``(η c_i)`` where ``b_{rho(i)} + c_i = a_i``;
* two mirror elements never add.

So the kite is the mirror pasting of its power, twisted on the left by
reindexing along ``lam`` and on the right along ``rho``, and the kernel
that builds unit extensions builds it; its laws, proved there, make
the mirror of the zero tuple the unit.  The construction succeeds
exactly when the *transfer condition* holds — for all tuples and every
index ``i``, ``a_{rho(i)} + b_i`` is defined iff ``b_i + a_{lam(i)}``
is.  Quantified over all tuples, that condition collapses pointwise: at
an index where the two bijections agree it says the base is weakly
commutative, and at an index where they differ it forces the base to be
total (a sum with an arbitrary partner can only transfer if every sum
exists).  The mirror-image variant of the condition collapses to the
same pointwise facts, so the two verdicts always coincide on finite
tables.

When the transfer condition holds, reindexing tuples by
``rho ∘ lam⁻¹`` is a unitizing automorphism of the power, the kite is
isomorphic to the resulting unit extension by a unique isomorphism
fixing every tuple, and the supplement maps on the kite are given by
reindexing: ``(a_i)⁻ = (η a_{rho(i)})``, ``(a_i)~ = (η a_{lam(i)})``,
``(η a_i)⁻ = (a_{lam⁻¹(i)})``, ``(η a_i)~ = (a_{rho⁻¹(i)})``.

Every entry point keeps what it shares in the base's ``verdicts`` store
(see :attr:`FiniteGpea.verdicts`), so each piece of work is done once per
base.  The store holds seven kinds of entry: the power per index size
(key ``("power", k)``); per twist (``spec.twist_indices``) the
reindexing permutation (``"twist"``), the unit extension
(``"extension"``), the twist's first kite (``"first kite"``) and that
kite's RDP₁ verdict with its least nontrivial normal Riesz ideal under
the improper-included and the proper-only readings, each ``None`` when
there is none (``"refinement"``); per spec (``lam``, ``rho``) the kite
(``"kite"``) and its isomorphism report (``"iso"``).  Calls over one
base share that work and return the same frozen objects; the RDP₁
verdict and least ideals of a twist's first kite reach its other kites
through two such isomorphisms, both checked.

Two theorems about kites are checked in ``verify``, where they are
counted, and not here: that the reindexing permutation is unitizing
exactly when the transfer condition holds, and that the supports of
distinct twist orbits are twist-closed normal ideals meeting only in
zero, with a least ideal forcing a connected index set.  A built kite
still passes the axioms and its canonical map from the unit extension
is still checked, because carrying least ideals between kites relies
on that map.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator

from .core import (
    BudgetExceededError,
    FiniteGpea,
    InvalidAlgebraError,
    InvariantViolation,
    MalformedTableError,
    element_budget,
    is_isomorphism,
)
from .ideals import _stored, smallest_normal_riesz_ideal
from .rdp import rdp_profile
from .unitization import UnitizationAlgebra, _inverse, _mirror_pasting, gamma_unitize

__all__ = [
    "KiteSpec",
    "PowerGpea",
    "KcVerdict",
    "KiteAlgebra",
    "KiteIsoReport",
    "ConnectivityReport",
    "power_gpea",
    "check_kc",
    "kite_gamma",
    "build_kite",
    "kite_iso",
    "index_connectivity",
]


def _check_index_permutation(perm: tuple[int, ...], k: int, label: str) -> None:
    if sorted(perm) != list(range(k)):
        raise MalformedTableError(f"{label} must be a permutation of 0..{k - 1}")


@dataclass(frozen=True)
class KiteSpec:
    """A base algebra with an index count and two index bijections."""

    base: FiniteGpea
    index_size: int
    lam: tuple[int, ...]
    rho: tuple[int, ...]

    def __post_init__(self) -> None:
        self.base.require_validated()
        if self.index_size < 1:
            raise MalformedTableError("index set must be nonempty")
        object.__setattr__(self, "lam", tuple(self.lam))
        object.__setattr__(self, "rho", tuple(self.rho))
        _check_index_permutation(self.lam, self.index_size, "lam")
        _check_index_permutation(self.rho, self.index_size, "rho")

    @property
    def twist_indices(self) -> tuple[int, ...]:
        """The index map ``i -> rho(lam⁻¹(i))`` that realizes the twist."""
        lam_inv = _inverse(self.lam)
        return tuple(self.rho[lam_inv[i]] for i in range(self.index_size))


@dataclass(frozen=True)
class PowerGpea:
    """The coordinatewise power of a base algebra.

    Tuples are numbered in row-major order (last coordinate varies
    fastest), so index 0 is the all-zero tuple.
    """

    base: FiniteGpea
    index_size: int
    algebra: FiniteGpea
    tuples: tuple[tuple[int, ...], ...]

    def index_of(self, t: tuple[int, ...]) -> int:
        n = self.base.size
        idx = 0
        for x in t:
            idx = idx * n + x
        return idx

    def reindexing_permutation(self, sigma: tuple[int, ...]) -> tuple[int, ...]:
        """Carrier permutation sending each tuple ``a`` to ``(a[sigma[i]])_i``."""
        n, k = self.base.size, self.index_size
        weights = [n ** (k - 1 - i) for i in range(k)]
        return tuple(sum(t[j] * w for j, w in zip(sigma, weights)) for t in self.tuples)


def power_gpea(p: FiniteGpea, k: int) -> PowerGpea:
    """Build ``p^k`` with the coordinatewise partial operation.

    Definedness is coordinatewise, so the power is total exactly when the
    base is, and weakly commutative (``b + a`` defined with ``a + b``)
    exactly when the base is.
    """
    p.require_validated()
    if k < 1:
        raise MalformedTableError("index set must be nonempty")
    size = p.size**k
    if size > element_budget():
        raise BudgetExceededError(
            f"power carrier of {size} elements exceeds the budget of {element_budget()}"
        )
    # The k-fold product of p's sums, each tuple read as a base-n numeral.
    n = p.size
    sums = [(0, 0, 0)]
    for _ in range(k):
        sums = [
            (x * n + a, y * n + b, z * n + c) for x, y, z in sums for a, b, c in p.sums
        ]
    op = {(x, y): z for x, y, z in sums}
    tuples = tuple(itertools.product(range(n), repeat=k))
    names = ["(" + ",".join(p.name(x) for x in t) + ")" for t in tuples]
    algebra = FiniteGpea(size, op, names).validate()
    return PowerGpea(base=p, index_size=k, algebra=algebra, tuples=tuples)


def _power(spec: KiteSpec) -> PowerGpea:
    """The spec's power, built on first use, so every refusal of a spec
    comes before it."""
    return _stored(
        spec.base,
        ("power", spec.index_size),
        lambda: power_gpea(spec.base, spec.index_size),
    )


@dataclass(frozen=True)
class KcVerdict:
    """Verdicts of the two transfer conditions on a kite specification."""

    kci: bool
    kcii: bool


def check_kc(spec: KiteSpec) -> KcVerdict:
    """Evaluate both transfer conditions over all tuple pairs and indices.

    The quantifier over tuples touches only the coordinate values at the
    three positions an index names, so the check runs over those values
    directly: weak commutativity of the base where the bijections agree,
    totality where they differ (see the module docstring).  Whether
    ``rho(i)`` and ``lam(i)`` agree does not depend on which condition
    asks, so both verdicts are this one test, computed once.
    """
    flags = spec.base.flags
    ok = all(
        flags.weakly_commutative if spec.rho[i] == spec.lam[i] else flags.total
        for i in range(spec.index_size)
    )
    return KcVerdict(kci=ok, kcii=ok)


def kite_gamma(spec: KiteSpec) -> tuple[int, ...]:
    """The tuple-reindexing permutation of the power induced by the twist.

    It is a unitizing automorphism of the power exactly when the first
    transfer condition holds; ``verify`` counts that characterization
    (``kite_transfer_characterization``).
    """
    sigma = spec.twist_indices
    return _stored(
        spec.base, ("twist", sigma), lambda: _power(spec).reindexing_permutation(sigma)
    )


@dataclass(frozen=True)
class KiteAlgebra:
    """A built kite: the specification, the power, the twist, the table.

    Layout: tuple ``t`` of the power keeps its index, its mirror is
    ``t + m`` where ``m`` is the power size; the zero tuple is 0 and the
    unit is the mirror of zero, index ``m``.
    """

    spec: KiteSpec
    power: PowerGpea
    gamma: tuple[int, ...]
    algebra: FiniteGpea

    @property
    def m(self) -> int:
        return self.power.algebra.size

    @property
    def unit(self) -> int:
        return self.m

    def eta(self, t: int) -> int:
        return t + self.m


def build_kite(spec: KiteSpec) -> KiteAlgebra:
    """Construct the kite table from the four clauses and validate it."""
    if not check_kc(spec).kci:
        raise MalformedTableError(
            "kite construction requires the transfer condition on (rho, lam)"
        )
    size = 2 * spec.base.size**spec.index_size
    if size > element_budget():
        raise BudgetExceededError(
            f"kite carrier of {size} elements exceeds the budget of {element_budget()}"
        )
    return _stored(
        spec.base,
        ("kite", spec.lam, spec.rho),
        lambda: _paste(spec, _power(spec), kite_gamma(spec)),
    )


def _paste(spec: KiteSpec, power: PowerGpea, gamma: tuple[int, ...]) -> KiteAlgebra:
    """The kite over a built power: its mirror pasting with the reindexings
    along ``lam`` and ``rho``.  The caller has checked the spec."""
    lam, rho = map(power.reindexing_permutation, (spec.lam, spec.rho))
    try:
        algebra = _mirror_pasting(power.algebra, lam, rho).validate()
    except InvalidAlgebraError as exc:
        raise InvariantViolation(f"kite table fails the axioms: {exc}") from exc
    return KiteAlgebra(spec=spec, power=power, gamma=gamma, algebra=algebra)


@dataclass(frozen=True)
class KiteIsoReport:
    """The canonical isomorphism from the unit extension onto the kite.

    ``phi`` fixes every tuple of the power and sends the mirror of ``a``
    to the mirror of ``a`` reindexed by ``lam``.  Construction verifies
    that ``phi`` transfers sums both ways.  No other sum-preserving
    unit-preserving map fixes the power pointwise, by the forcing
    argument in :func:`_iso_report` ("the partner of a tuple summing to
    the unit is unique").  The supplement maps on the kite follow the
    reindexing formulas, with the double left supplement equal to the
    twist, by the proof in :func:`unitization._mirror_pasting`.
    ``searched_exhaustively`` tells whether uniqueness was also confirmed
    by enumerating the candidate maps, which is done on carriers of at
    most 64 elements.
    """

    extension: UnitizationAlgebra
    kite: KiteAlgebra
    phi: tuple[int, ...]
    searched_exhaustively: bool


def _candidate_maps(
    u: FiniteGpea, kite: FiniteGpea, m: int
) -> Iterator[tuple[int, ...]]:
    """All unit/zero-preserving sum-preserving maps fixing the first half.

    Any such map must send the mirror of ``t`` to a partner ``y`` with
    ``t + y`` equal to the kite's unit ``m``, because that sum is defined in
    the extension and must be preserved.  Candidates are enumerated from
    those partner sets and filtered by the full one-way sum check.
    """
    size, table = kite.size, kite.table
    pools = [
        [y for y in range(size) if table[t * size + y] == m] for t in range(m)
    ]
    for choice in itertools.product(*pools):
        psi = tuple(range(m)) + choice
        # An undefined image sum reads as the sentinel, never a psi value.
        if all(table[psi[a] * size + psi[b]] == psi[s] for a, b, s in u.sums):
            yield psi


def kite_iso(spec: KiteSpec) -> KiteIsoReport:
    """Build both sides, exhibit the canonical isomorphism, verify its laws.

    A single call builds the power, the kite and the unit extension once
    each.
    """
    kite = build_kite(spec)
    extension = _stored(
        spec.base,
        ("extension", spec.twist_indices),
        lambda: gamma_unitize(kite.power.algebra, kite.gamma),
    )
    return _stored(
        spec.base, ("iso", spec.lam, spec.rho), lambda: _iso_report(kite, extension)
    )


def _iso_report(kite: KiteAlgebra, extension: UnitizationAlgebra) -> KiteIsoReport:
    """Check the canonical map; on small carriers, search the candidates.

    Past the isomorphism check, ``phi`` is the only candidate, by proof.
    The kite is validated, so by cancellation each tuple ``t`` has at
    most one ``y`` with ``t + y = m``.  In the extension ``t + η(t) =
    η(0)`` (see :func:`unitization._mirror_pasting`), and ``phi`` fixes
    ``t`` and sends ``η(0)`` to ``m``, so ``phi(η t)`` is that ``y``.  A
    map that fixes the power and keeps sums and the unit sends ``η t`` to
    such a ``y`` too, so it is ``phi``.
    """
    m = kite.m
    lam = kite.power.reindexing_permutation(kite.spec.lam)
    phi = tuple(range(m)) + tuple(x + m for x in lam)
    if not is_isomorphism(extension.algebra, kite.algebra, phi):
        raise InvariantViolation(
            "canonical map is not an isomorphism onto the kite"
        )

    small = 2 * m <= 64
    if small:
        found = list(
            itertools.islice(_candidate_maps(extension.algebra, kite.algebra, m), 3)
        )
        if found != [phi]:
            raise InvariantViolation(
                "identity-fixing sum-preserving map onto the kite is not unique"
            )
    return KiteIsoReport(
        extension=extension, kite=kite, phi=phi, searched_exhaustively=small
    )


@dataclass(frozen=True)
class ConnectivityReport:
    """Orbit structure of the index set under the twist, with the kite's ideals.

    ``components`` are the orbits of ``i -> rho(lam⁻¹(i))``, in order of
    their least index; the index set is connected when there is exactly
    one.  ``pairs_verified`` counts the pairs of distinct components; for
    each, the tuples supported on either one form twist-closed normal
    ideals of the power that meet only in zero, which ``verify`` checks
    (``kite_component_ideals``).  When the kite exists within budget:
    ``kite_rdp1`` reports its refinement property, ``kite_smallest`` /
    ``kite_smallest_proper`` the smallest nontrivial normal Riesz ideal
    of the kite under the improper-included and proper-only readings,
    and ``implication_checked`` whether the hypotheses of "a smallest
    ideal forces a connected index set" armed (a base of more than one
    element that is upward directed, the transfer condition, the
    refinement property); ``verify`` checks the consequence then.  Over
    the one-element base every index set gives the same two-element
    kite, whose whole carrier is its smallest ideal, so that kite tells
    nothing about connectivity and the hypotheses do not arm there.
    """

    components: tuple[frozenset[int], ...]
    connected: bool
    pairs_verified: int
    kite_rdp1: bool | None
    kite_smallest: frozenset[int] | None
    kite_smallest_proper: frozenset[int] | None
    implication_checked: bool


def index_connectivity(spec: KiteSpec) -> ConnectivityReport:
    """Partition the index set into twist orbits and report the kite's ideals.

    The RDP₁ verdict and the two least nontrivial normal Riesz ideals
    (improper-included and proper-only, see
    :func:`smallest_normal_riesz_ideal`) are computed on the first kite of
    the twist asked about on this base.  A later kite of the twist takes
    the verdict unchanged and the least ideals mapped through
    ``φ_spec ∘ φ_first⁻¹``.  Both maps are isomorphisms from the twist's
    unit extension onto a kite, checked by :func:`kite_iso`, so the
    composite is an isomorphism from the first kite onto the later one;
    RDP₁ is invariant under it, and it maps the first kite's normal Riesz
    ideals exactly onto the later kite's, so their least members too.  So
    the first call of a twist builds the power and, when the transfer
    condition holds within budget, the kite, and builds no unit
    extension.
    """
    base, sigma = spec.base, spec.twist_indices
    _power(spec)  # refuses a power over the element budget
    seen: set[int] = set()
    components: list[frozenset[int]] = []
    for start in range(spec.index_size):
        if start in seen:
            continue
        orbit = {start}
        cursor = sigma[start]
        while cursor not in orbit:
            orbit.add(cursor)
            cursor = sigma[cursor]
        seen |= orbit
        components.append(frozenset(orbit))
    if not check_kc(spec).kci or 2 * base.size**spec.index_size > element_budget():
        return _connectivity_report(spec, tuple(components), None)
    first = _stored(base, ("first kite", sigma), lambda: spec)
    g = build_kite(first).algebra
    rdp1, *least = _stored(
        base,
        ("refinement", sigma),
        lambda: (
            rdp_profile(g).rdp1,
            smallest_normal_riesz_ideal(g),
            smallest_normal_riesz_ideal(g, include_improper=False),
        ),
    )
    if (first.lam, first.rho) != (spec.lam, spec.rho):
        to_spec = kite_iso(spec).phi
        carry = [to_spec[x] for x in _inverse(kite_iso(first).phi)]
        least = [None if m is None else frozenset(carry[x] for x in m) for m in least]
    return _connectivity_report(spec, tuple(components), (rdp1, *least))


def _connectivity_report(
    spec: KiteSpec,
    components: tuple[frozenset[int], ...],
    refinement: tuple[bool, frozenset[int] | None, frozenset[int] | None] | None,
) -> ConnectivityReport:
    """Assemble the report from the orbits.

    ``refinement`` is the kite's RDP₁ verdict and its least nontrivial
    normal Riesz ideal under the improper-included and the proper-only
    readings, or ``None`` when no kite is built.
    """
    kite_rdp1, smallest, smallest_proper = refinement or (None, None, None)
    base = spec.base
    return ConnectivityReport(
        components=components,
        connected=len(components) == 1,
        pairs_verified=len(components) * (len(components) - 1) // 2,
        kite_rdp1=kite_rdp1,
        kite_smallest=smallest,
        kite_smallest_proper=smallest_proper,
        implication_checked=bool(kite_rdp1)
        and base.size > 1
        and base.flags.upward_directed,
    )
