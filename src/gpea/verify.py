"""Theorem suites: brute-force verification of every structural biconditional.

Each suite quantifies a statement over a deterministic family of instances
(the built-in examples plus every enumerated table up to a size budget,
paired with every twist that admits a unit extension) and tallies one
:class:`TheoremResult` per statement: how many instances were checked and
how many violated it.  The machine-readable summary is one line

    ``RESULT theorem=<name> instances=<count> failures=<count>``

per statement, emitted in sorted order so runs are reproducible and
diffable.  A nonzero failure count is a finding, not a crash: suites never
weaken a statement to make it pass, and the single known-false statement
(`smallest_ideal_default`, see its docstring) is reported with its honest
failure count.

Scopes group the statements by subject — ``unitization``, ``congruence``,
``kite``, ``rdp`` — and ``all`` runs every scope over one shared instance
family.  The (base, twist) pairs are streamed: each unit extension is
built once, passed through every wanted scope body and dropped before the
next is built, so at most one extension, with its verdict store, is
alive.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator

from .catalog import ENUMERATION_LIMIT, chain, enumerate_gpeas, fig1, product
from .core import (
    AlgebraError,
    BudgetExceededError,
    FiniteGpea,
    InvariantViolation,
    MalformedTableError,
)
from .ideals import (
    NotEquivalenceError,
    Partition,
    classify_relation,
    classify_subset,
    congruences,
    enumerate_ideals,
    normal_ideal_lemmas,
    quotient,
    riesz_congruence_roundtrip,
    sim_from_ideal,
)
from .kites import KiteSpec, _orbits, _power, check_kc, kite_gamma, kite_iso
from .rdp import rdp_profile, rdp_transfer
from .unitization import (
    UnitizationAlgebra,
    base_ideal_is_riesz_iff_upward,
    congruence_suite,
    enumerate_unitizing,
    gamma_unitize,
    is_unitizing,
    lift_congruence_biconditional,
    quotient_unitization,
    recognize_unitization,
    restriction_verdict,
    smallest_ideal_comparison,
    two_valued_states,
)

__all__ = [
    "DEFAULT_ENUMERATION_BUDGET",
    "SCOPES",
    "TheoremResult",
    "VerifyReport",
    "standard_instances",
    "run_verify",
]

#: Largest carrier size fed to the enumerator by default.
DEFAULT_ENUMERATION_BUDGET = 5

#: Valid scope names, in the order ``all`` runs them.
SCOPES = ("unitization", "congruence", "kite", "rdp")

#: Witness labels kept per theorem (the first few failing instances).
_MAX_WITNESSES = 6


# --------------------------------------------------------------------- tallies


@dataclass(frozen=True)
class TheoremResult:
    """Aggregate verdict of one statement over the instance family."""

    name: str
    instances: int
    failures: int
    witnesses: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def line(self) -> str:
        return (
            f"RESULT theorem={self.name} "
            f"instances={self.instances} failures={self.failures}"
        )


@dataclass
class _Tally:
    instances: int = 0
    failures: int = 0
    witnesses: list[str] = field(default_factory=list)

    def check(self, label: str, ok: bool) -> None:
        self.instances += 1
        if not ok:
            self.failures += 1
            if len(self.witnesses) < _MAX_WITNESSES:
                self.witnesses.append(label)

    def result(self, name: str) -> TheoremResult:
        return TheoremResult(
            name=name,
            instances=self.instances,
            failures=self.failures,
            witnesses=tuple(self.witnesses),
        )


class _Tallies(dict):
    """Name-indexed tallies with auto-creation."""

    def __missing__(self, name: str) -> _Tally:
        tally = _Tally()
        self[name] = tally
        return tally


@dataclass(frozen=True)
class VerifyReport:
    """All theorem results of one run, plus informational notes.

    ``notes`` carries findings that are not pass/fail statements (for
    example, partial algebras outside a theorem's hypotheses where the
    conclusion happens to diverge — evidence that the hypothesis is
    needed, not a failure).
    """

    scope: str
    budget: int
    results: tuple[TheoremResult, ...]
    notes: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def lines(self) -> list[str]:
        return [r.line() for r in self.results]

    def detail_lines(self) -> list[str]:
        out = []
        for r in self.results:
            for w in r.witnesses:
                out.append(f"  failure {r.name}: {w}")
        out.extend(f"  note: {n}" for n in self.notes)
        return out


# ------------------------------------------------------------------- instances


def _check_budget(budget: int) -> None:
    """Refuse a negative budget, or one the enumerator would refuse."""
    if budget < 0:
        raise MalformedTableError(f"budget must be at least 0, not {budget}")
    if budget > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"enumeration supports at most {ENUMERATION_LIMIT} elements"
        )


def standard_instances(
    budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> list[tuple[str, FiniteGpea]]:
    """The shared instance family: named examples plus enumerated tables.

    The named entries exercise sizes beyond the enumeration budget: the
    six-element partial algebra with two incomparable maximal sums and
    the product of two chains.  Enumerated entries cover every table, up
    to isomorphism, of size ``1 .. budget``; a negative budget, or one the
    enumerator would refuse, is refused before any size is enumerated.
    """
    _check_budget(budget)
    out: list[tuple[str, FiniteGpea]] = [
        ("fig1", fig1()),
        ("chain1xchain2", product(chain(1), chain(2))),
    ]
    for n in range(1, budget + 1):
        for idx, g in enumerate(enumerate_gpeas(n)):
            out.append((f"n{n}#{idx}", g))
    return out


@dataclass(frozen=True)
class _Pair:
    """One (algebra, unitizing twist) pair with its built extension."""

    label: str
    base: FiniteGpea
    gamma: tuple[int, ...]
    extension: UnitizationAlgebra | None
    error: str = ""


def _unitized_pairs(
    instances: list[tuple[str, FiniteGpea]],
) -> Iterator[_Pair]:
    """Each instance with each of its unitizing twists, in order, built
    one at a time as the caller asks for it."""
    for label, g in instances:
        for j, gamma in enumerate(enumerate_unitizing(g)):
            try:
                ua = gamma_unitize(g, gamma)
            except AlgebraError as exc:  # recorded, judged by the caller
                yield _Pair(f"{label}:g{j}", g, gamma, None, str(exc))
            else:
                yield _Pair(f"{label}:g{j}", g, gamma, ua)


def _subset_label(members) -> str:
    return "{" + ",".join(str(x) for x in sorted(members)) + "}"


def _relation_label(rel: Partition) -> str:
    return "|".join(",".join(str(x) for x in sorted(b)) for b in rel.blocks)


# ---------------------------------------------------------- unitization scope


def _verify_unitization(p: _Pair, tallies: _Tallies) -> None:
    """Statements about the unit extension of one pair.

    * ``extension_construction`` — the extension builds: the mirror
      pasting passes the axioms (:class:`UnitizationAlgebra`).  Its
      supplements follow the twist and the base is a normal maximal
      ideal by proof, not by a check (see ``_mirror_pasting``).
    * ``base_riesz_iff_upward`` — the base is a Riesz ideal of the
      extension exactly when it is upward directed.
    * ``restriction_to_base`` — every normal Riesz ideal of the extension
      cuts down to a twist-closed normal Riesz ideal of the base.
    * ``smallest_ideal_default`` — on upward-directed bases: the
      extension has a smallest nontrivial normal Riesz ideal iff the base
      has a smallest nontrivial normal Riesz twist-closed ideal, with
      "nontrivial" meaning only "different from the zero ideal" (the
      whole carrier is admitted).  This statement is FALSE: whenever the
      base has a maximum, the zero-plus-mirrored-maximum pair is a normal
      Riesz ideal of the extension meeting the base trivially, so the
      extension side can hold with the base side empty.  The suite
      reports the honest failure count.
    * ``smallest_ideal_proper`` — the same comparison with the whole
      carrier excluded from "nontrivial" on both sides.
    * ``recognition_roundtrip`` — re-recognizing the built extension from
      its base subset recovers the twist and the same table.
    * ``two_valued_state_kernel`` — the extension carries a two-valued
      state whose kernel is exactly the base.
    """
    ua = p.extension
    tallies["extension_construction"].check(f"{p.label}: {p.error}", ua is not None)
    if ua is None:
        return
    riesz, upward = base_ideal_is_riesz_iff_upward(ua)
    tallies["base_riesz_iff_upward"].check(
        f"{p.label}: riesz={riesz} upward={upward}", riesz == upward
    )

    ok, offender = restriction_verdict(ua)
    tallies["restriction_to_base"].check(
        f"{p.label}: ideal {_subset_label(offender or ())} cuts badly", ok
    )

    if ua.base.flags.upward_directed:
        for name, include_improper in (
            ("smallest_ideal_default", True),
            ("smallest_ideal_proper", False),
        ):
            cmp = smallest_ideal_comparison(ua, include_improper=include_improper)
            base_side = (
                "none"
                if cmp.base_smallest is None
                else _subset_label(cmp.base_smallest)
            )
            ext_side = (
                "none"
                if cmp.extension_smallest is None
                else _subset_label(cmp.extension_smallest)
            )
            tallies[name].check(
                f"{p.label}: base={base_side} extension={ext_side}", cmp.agree
            )

    rec = recognize_unitization(ua.algebra, ua.base_members)
    ok = (
        rec.recognized
        and rec.gamma == ua.gamma
        and rec.extension is not None
        and rec.extension.algebra.same_table(ua.algebra)
    )
    tallies["recognition_roundtrip"].check(f"{p.label}: {rec.diagnostics}", ok)

    base_set = frozenset(ua.base_members)
    kernels = {s.kernel for s in two_valued_states(ua.algebra)}
    tallies["two_valued_state_kernel"].check(
        f"{p.label}: kernels={sorted(map(_subset_label, kernels))}",
        base_set in kernels,
    )


# ----------------------------------------------------------- congruence scope


def _verify_congruence_base(label: str, g: FiniteGpea, tallies: _Tallies) -> None:
    """Twist-free statements about the ideals, induced relations and
    congruences of one instance, per subset, ideal or congruence:

    * ``ideal_flag_implications`` — Riesz implies splitting; ideal
      implies order ideal and subalgebra.
    * ``normal_ideal_membership`` — membership in a normal ideal respects
      peeling summands off defined sums and (on unital algebras) the
      supplement maps.
    * ``r1_ideal_relation`` — a normal splitting ideal induces an
      equivalence that respects sums (C1, C2, C5′) and whose zero class
      is the ideal.
    * ``riesz_ideal_quotient`` — a normal Riesz ideal induces a relation
      whose quotient is again a valid algebra.
    * ``roundtrip_directed_classes`` — a congruence with C4 and C5′ is a
      Riesz congruence iff all its classes are directed both ways; its
      zero class then regenerates it.
    * ``upward_r1_equals_riesz`` — on upward-directed instances the
      splitting and Riesz verdicts coincide for every ideal.
    * ``upward_ideal_riesz_congruence`` — on upward-directed instances
      every normal Riesz ideal induces a Riesz congruence.
    """
    n = g.size
    # By size, then sorted members: the ideals come in enumerate_ideals' order.
    ideals = []
    for members_tuple in itertools.chain.from_iterable(
        itertools.combinations(range(1, n), r) for r in range(n)
    ):
        members = frozenset((0, *members_tuple))
        flags = classify_subset(g, members)
        ok = (
            (not flags.riesz or flags.r1)
            and (not flags.ideal or flags.order_ideal)
            and (not flags.ideal or flags.sub_gpea)
        )
        tallies["ideal_flag_implications"].check(
            f"{label}:S={_subset_label(members)}", ok
        )
        if flags.ideal:
            ideals.append((members, flags))

    for members, flags in ideals:
        ilabel = f"{label}:I={_subset_label(members)}"
        if flags.normal:
            verdict = normal_ideal_lemmas(g, members)
            tallies["normal_ideal_membership"].check(
                f"{ilabel}: witness={verdict.witness}", verdict.passed
            )
        # The induced relation, or why there is none; a Riesz ideal has R1.
        rel: Partition | NotEquivalenceError | None = None
        if flags.normal and flags.r1:
            try:
                rel = sim_from_ideal(g, members)
            except NotEquivalenceError as exc:
                rel = exc
                tallies["r1_ideal_relation"].check(f"{ilabel}: {exc}", False)
            else:
                rflags = classify_relation(g, rel)
                ok = (
                    rflags.c1
                    and rflags.c2
                    and rflags.c5prime
                    and rel.block(0) == members
                )
                tallies["r1_ideal_relation"].check(
                    f"{ilabel}: flags={rflags.items()}", ok
                )
        if flags.normal and flags.riesz:
            try:
                if isinstance(rel, NotEquivalenceError):
                    raise rel
                quotient(g, rel)
            except AlgebraError as exc:
                tallies["riesz_ideal_quotient"].check(f"{ilabel}: {exc}", False)
            else:
                tallies["riesz_ideal_quotient"].check(ilabel, True)
        if g.flags.upward_directed:
            if flags.ideal:
                tallies["upward_r1_equals_riesz"].check(
                    f"{ilabel}: r1={flags.r1} riesz={flags.riesz}",
                    flags.r1 == flags.riesz,
                )
            if flags.normal and flags.riesz:
                if isinstance(rel, NotEquivalenceError):
                    raise rel
                tallies["upward_ideal_riesz_congruence"].check(
                    ilabel, classify_relation(g, rel).riesz_congruence
                )

    for rel in congruences(g):
        rlabel = f"{label}:rel={_relation_label(rel)}"
        rflags = classify_relation(g, rel)
        if rflags.c4 and rflags.c5prime:
            verdict = riesz_congruence_roundtrip(g, rel)
            tallies["roundtrip_directed_classes"].check(
                f"{rlabel}: {verdict.detail}", verdict.passed
            )


def _verify_congruence_pair(p: _Pair, tallies: _Tallies) -> None:
    """Statements about lifts and quotients over one built pair.

    Joint checks per (base, twist, ideal) with the ideal normal,
    twist-closed and splitting (R1):

    * ``lifting_equivalences`` — the four equivalent conditions tying the
      ideal, its induced relation, and the lifted relation agree.
    * ``supplement_compatibility`` — the supplement maps of the extension
      respect the lift exactly as the base relation dictates.
    * ``padded_sum_variants`` — the two sides of the member-padded equal
      sum condition (members added on the left vs on the right) agree.
    * ``riesz_lift_triangle`` — for Riesz ideals: the padded-sum verdict,
      "the lift is a Riesz congruence", and "the ideal is a normal Riesz
      ideal of the extension" are one and the same.
    * ``lift_matches_induced`` — when the ideal is a normal Riesz ideal
      of the extension, the relation it induces there equals the lift.
    * ``upward_base_suite`` — on upward-directed bases all of the above
      hold outright.

    Per (base, twist, congruence):

    * ``lift_congruence_biconditional`` — the lifted relation is a
      congruence of the extension iff the base relation is
      twist-compatible and satisfies C4 and C5′.
    * ``quotient_extension_commutes`` — for twist-compatible congruences
      with C4 and C5′: extending the quotient equals quotienting the
      extension, via a unit-preserving isomorphism fixing the quotient.
    """
    ua, g, gamma = p.extension, p.base, p.gamma
    for members in enumerate_ideals(g):
        flags = classify_subset(g, members, gamma)
        if not (flags.ideal and flags.normal and flags.r1 and flags.gamma_closed):
            continue
        report = congruence_suite(ua, members)
        ilabel = f"{p.label}:I={_subset_label(members)}"
        tallies["lifting_equivalences"].check(
            f"{ilabel}: {report.detail}", report.equivalent
        )
        for name, value in (
            ("supplement_compatibility", report.supplement_lemma),
            ("padded_sum_variants", report.forms_agree),
            ("riesz_lift_triangle", report.gcr_triangle),
            ("lift_matches_induced", report.induced_matches_lift),
            ("upward_base_suite", report.upward_all),
        ):
            if value is not None:
                tallies[name].check(f"{ilabel}: {report.detail}", value)

    for rel in congruences(g):
        rlabel = f"{p.label}:rel={_relation_label(rel)}"
        tallies["lift_congruence_biconditional"].check(
            rlabel, lift_congruence_biconditional(ua, rel)
        )
        rflags = classify_relation(g, rel, gamma=gamma)
        if bool(rflags.gamma_congruence) and rflags.c4 and rflags.c5prime:
            verdict = quotient_unitization(ua, rel)
            tallies["quotient_extension_commutes"].check(
                f"{rlabel}: {verdict.detail}", verdict.passed
            )


# ------------------------------------------------------------------ kite scope


_KITE_BASES = (("chain(1)", 1), ("chain(2)", 2))
_KITE_MAX_INDEX = 3


def _verify_kite(tallies: _Tallies) -> None:
    """Statements about powers, index twists, and the two-sided pasting.

    Over every (base, index size, pair of index bijections) in the fixed
    grid — chains of two and three elements, index sets of size one to
    three, all bijection pairs:

    * ``kite_transfer_characterization`` — the tuple-reindexing
      permutation induced by the pair is a unitizing automorphism of the
      power exactly when the definedness-transfer condition holds (both
      sides computed independently, and compared only here).
    * ``kite_component_ideals`` — tuples supported on distinct orbits of
      the twist form twist-closed normal ideals of the power meeting
      only in zero, checked only here, on the orbits of ``kites._orbits``.

    The implication "a smallest nontrivial normal Riesz ideal of the kite
    forces a connected index set" is settled by proof, not checked: its
    hypotheses (a base of more than one element that is upward directed,
    the transfer condition, RDP₁) never hold together with a smallest
    ideal.  The transfer condition over such a base forces ``lam = rho``
    and a weakly commutative base with a greatest element ``u``; then the
    power and ``{0, η(u, ..., u)}`` are both nontrivial proper normal
    Riesz ideals of the kite meeting only in 0, so neither reading has a
    least one (the full proof is in ``kites.ConnectivityReport``).  On
    this grid: each of the 18 buildable kites has those two ideals.

    On the pairs where the transfer condition holds (so the pasting is
    defined):

    * ``kite_axioms`` — the pasted table passes all axioms, checked by
      ``build_kite``; the mirror of the zero tuple is its unit by proof.
    * ``kite_extension_isomorphism`` — the canonical map from the unit
      extension of the power onto the pasting is an isomorphism, checked
      by ``kite_iso``, and the only sum-preserving map fixing the power
      pointwise, by proof (see ``kites._iso_report``).  The supplement
      maps follow the reindexing formulas, with the double left
      supplement equal to the twist, by proof, not by a check (see
      ``unitization._mirror_pasting``).

    Work is shared within one (base, index size) and nothing else: each
    gets a freshly built base, in whose ``verdicts`` store the kite
    functions keep one power; per twist one reindexing permutation and
    unit extension; one kite and isomorphism check per buildable spec.
    A failed kite build or isomorphism check is counted under
    ``kite_axioms`` and ``kite_extension_isomorphism`` only.
    """
    for base_name, height in _KITE_BASES:
        for k in range(1, _KITE_MAX_INDEX + 1):
            _verify_kite_power(tallies, base_name, chain(height), k)


def _verify_kite_power(
    tallies: _Tallies, base_name: str, base: FiniteGpea, k: int
) -> None:
    """Every (lam, rho) pair over one power; what they share lives in
    ``base``'s store and dies with it.  The unitizing verdict and the
    component check depend on a spec only through its twist: each is
    computed once per twist and counted for every spec."""
    perms = list(itertools.permutations(range(k)))
    unitizing: dict[tuple[int, ...], bool] = {}
    component_problems: dict[tuple[int, ...], str] = {}
    for lam in perms:
        for rho in perms:
            spec = KiteSpec(base, k, lam, rho)
            label = f"{base_name}:k={k}:lam={lam}:rho={rho}"
            sigma, kci = spec.twist_indices, check_kc(spec).kci
            if sigma not in unitizing:
                unitizing[sigma] = is_unitizing(_power(spec).algebra, kite_gamma(spec))
            tallies["kite_transfer_characterization"].check(
                f"{label}: twist permutation is unitizing exactly when the "
                "transfer condition holds",
                unitizing[sigma] == kci,
            )
            if kci:
                try:
                    kite_iso(spec)
                except AlgebraError as exc:
                    tallies["kite_axioms"].check(f"{label}: {exc}", False)
                    tallies["kite_extension_isomorphism"].check(
                        f"{label}: {exc}", False
                    )
                else:
                    tallies["kite_axioms"].check(label, True)
                    tallies["kite_extension_isomorphism"].check(label, True)
            if sigma not in component_problems:
                component_problems[sigma] = _component_problem(spec, _orbits(spec))
            problem = component_problems[sigma]
            tallies["kite_component_ideals"].check(f"{label}: {problem}", not problem)


def _component_problem(spec: KiteSpec, orbits: tuple[frozenset[int], ...]) -> str:
    """Why the twist's ``orbits`` break ``kite_component_ideals``, or ``""``.

    The tuples supported on each of two distinct orbits must form
    twist-closed normal ideals of the power meeting only in zero.
    """
    power, gamma = _power(spec), kite_gamma(spec)
    supported = [
        frozenset(
            t
            for t, tup in enumerate(power.tuples)
            if all(x == 0 for i, x in enumerate(tup) if i not in comp)
        )
        for comp in orbits
    ]
    for first, second in itertools.combinations(supported, 2):
        for members in (first, second):
            flags = classify_subset(power.algebra, members, gamma)
            if not (flags.ideal and flags.normal and flags.gamma_closed):
                return "component support is not a twist-closed normal ideal"
        if first & second != {0}:
            return "supports of distinct components must meet only in zero"
    return ""


# ------------------------------------------------------------------- rdp scope


def _verify_rdp_base(
    label: str, g: FiniteGpea, tallies: _Tallies, profiles: dict
) -> None:
    """Statements about the refinement properties of one instance, whose
    profile is kept in ``profiles`` under ``label`` for its pairs.

    * ``refinement_implies_splitting`` — on every instance, the
      refinement-matrix property implies the splitting property (an
      element under a sum splits under its summands).
    * ``upward_rdp_ideals_r1`` — on upward-directed instances with the
      refinement-matrix property, every ideal has the splitting
      property.
    """
    profile = rdp_profile(g)
    profiles[label] = profile
    tallies["refinement_implies_splitting"].check(
        f"{label}: rdp={profile.rdp} rdp0={profile.rdp0}",
        not (profile.rdp and not profile.rdp0),
    )
    if g.flags.upward_directed and profile.rdp:
        for members in enumerate_ideals(g):
            flags = classify_subset(g, members)
            tallies["upward_rdp_ideals_r1"].check(
                f"{label}:I={_subset_label(members)}", flags.r1
            )


def _verify_rdp_pair(
    p: _Pair, profiles: dict, tallies: _Tallies, notes: list[str]
) -> None:
    """Refinement across one built pair.

    * ``rdp_transfer_total`` — on every total instance and every twist,
      all four refinement verdicts of the base and its unit extension
      coincide.  (The only total finite instance is the one-element
      algebra: any maximal element m of a total algebra has m + m = m,
      hence m = 0 by cancellation.)

    Pairs outside the transfer statement's totality hypothesis where the
    base and extension profiles nevertheless differ are reported as
    notes: evidence that the hypothesis is needed.
    """
    if p.base.flags.total:
        try:
            report = rdp_transfer(p.base, p.gamma)
        except AlgebraError as exc:
            tallies["rdp_transfer_total"].check(f"{p.label}: {exc}", False)
        else:
            tallies["rdp_transfer_total"].check(p.label, report.agree)
        return
    base_profile = profiles[p.label.rsplit(":", 1)[0]]
    ext_profile = rdp_profile(p.extension.algebra)
    if (base_profile.rdp0, base_profile.rdp, base_profile.rdp1, base_profile.rdp2) != (
        ext_profile.rdp0,
        ext_profile.rdp,
        ext_profile.rdp1,
        ext_profile.rdp2,
    ):
        notes.append(
            f"non-total {p.label}: refinement profiles diverge "
            f"(base rdp0={base_profile.rdp0} rdp={base_profile.rdp} "
            f"rdp1={base_profile.rdp1} rdp2={base_profile.rdp2}; "
            f"extension rdp0={ext_profile.rdp0} rdp={ext_profile.rdp} "
            f"rdp1={ext_profile.rdp1} rdp2={ext_profile.rdp2})"
        )


# ------------------------------------------------------------------ entrypoint


def run_verify(
    scope: str = "all", budget: int = DEFAULT_ENUMERATION_BUDGET
) -> VerifyReport:
    """Run the theorem suites for ``scope`` and collect sorted results."""
    if scope != "all" and scope not in SCOPES:
        raise ValueError(f"unknown scope {scope!r}; use 'all' or one of {SCOPES}")
    wanted = SCOPES if scope == "all" else (scope,)

    _check_budget(budget)

    tallies = _Tallies()
    notes: list[str] = []
    if "kite" in wanted:
        _verify_kite(tallies)
    if {"unitization", "congruence", "rdp"} & set(wanted):
        instances = standard_instances(budget)
        profiles: dict = {}
        for label, g in instances:
            if "congruence" in wanted:
                _verify_congruence_base(label, g, tallies)
            if "rdp" in wanted:
                _verify_rdp_base(label, g, tallies, profiles)
        # One pair, hence one unit extension and its store, alive at a time.
        for p in _unitized_pairs(instances):
            if "unitization" in wanted:
                _verify_unitization(p, tallies)
            if p.extension is None and {"congruence", "rdp"} & set(wanted):
                raise InvariantViolation(
                    f"unit extension failed to build for {p.label} ({p.error})"
                )
            if "congruence" in wanted:
                _verify_congruence_pair(p, tallies)
            if "rdp" in wanted:
                _verify_rdp_pair(p, profiles, tallies, notes)

    results = tuple(
        tallies[name].result(name) for name in sorted(tallies)
    )
    return VerifyReport(
        scope=scope, budget=budget, results=results, notes=tuple(sorted(notes))
    )
