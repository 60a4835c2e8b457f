"""Tests for kite constructions over powers of a base algebra."""

from __future__ import annotations

import itertools
import math

import pytest

import gpea.kites
import gpea.verify
from gpea import (
    BudgetExceededError,
    ConnectivityReport,
    InvariantViolation,
    KiteSpec,
    MalformedTableError,
    boolean,
    build_kite,
    chain,
    check_kc,
    enumerate_gpeas,
    find_morphisms,
    gamma_unitize,
    index_connectivity,
    is_unitizing,
    kite_gamma,
    kite_iso,
    power_gpea,
    smallest_normal_riesz_ideal,
)
from gpea.cli import run as cli_run
from gpea.core import element_budget
from gpea.ideals import classify_subset, normal_riesz_ideals
from gpea.rdp import rdp_profile
from gpea.verify import run_verify
from test_kernels import least_ideal


def identity(k: int) -> tuple[int, ...]:
    return tuple(range(k))


# ---------------------------------------------------------------------------
# KiteSpec validation and derived data
# ---------------------------------------------------------------------------


def test_spec_rejects_non_permutations() -> None:
    with pytest.raises(MalformedTableError, match="lam must be a permutation"):
        KiteSpec(base=chain(1), index_size=2, lam=(0, 0), rho=(0, 1))
    with pytest.raises(MalformedTableError, match="rho must be a permutation"):
        KiteSpec(base=chain(1), index_size=2, lam=(0, 1), rho=(2, 0))


def test_spec_rejects_empty_index_set() -> None:
    with pytest.raises(MalformedTableError, match="index set must be nonempty"):
        KiteSpec(base=chain(1), index_size=0, lam=(), rho=())


def test_twist_indices_is_rho_after_lam_inverse() -> None:
    spec = KiteSpec(base=chain(2), index_size=2, lam=(1, 0), rho=(1, 0))
    assert spec.twist_indices == (0, 1)
    spec = KiteSpec(base=chain(1), index_size=4, lam=identity(4), rho=(1, 0, 3, 2))
    assert spec.twist_indices == (1, 0, 3, 2)
    # Nontrivial composition: lam a 3-cycle, rho a transposition.
    spec = KiteSpec(base=chain(1), index_size=3, lam=(1, 2, 0), rho=(1, 0, 2))
    lam_inverse = (2, 0, 1)
    assert spec.twist_indices == tuple(spec.rho[lam_inverse[i]] for i in range(3))


# ---------------------------------------------------------------------------
# Powers
# ---------------------------------------------------------------------------


def test_power_of_two_element_chain_is_boolean_square() -> None:
    power = power_gpea(chain(1), 2)
    assert power.algebra.size == 4
    assert power.tuples == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert power.algebra.same_table(boolean(2))
    assert [power.algebra.name(i) for i in range(4)] == [
        "(0,0)",
        "(0,1)",
        "(1,0)",
        "(1,1)",
    ]


def test_power_componentwise_operation() -> None:
    power = power_gpea(chain(2), 2)
    a = power.index_of((1, 0))
    b = power.index_of((1, 2))
    assert power.algebra.value(a, b) == power.index_of((2, 2))
    # One coordinate overflows the chain, so the sum is undefined.
    assert power.algebra.value(b, b) is None


def test_power_index_of_inverts_tuples() -> None:
    power = power_gpea(chain(2), 3)
    for index, members in enumerate(power.tuples):
        assert power.index_of(members) == index


def test_reindexing_permutation_swaps_coordinates() -> None:
    power = power_gpea(chain(1), 2)
    assert power.reindexing_permutation((1, 0)) == (0, 2, 1, 3)
    assert power.reindexing_permutation((0, 1)) == (0, 1, 2, 3)


def test_power_respects_element_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("GPEA_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        power_gpea(chain(2), 3)


# ---------------------------------------------------------------------------
# Transfer condition
# ---------------------------------------------------------------------------


def naive_transfer(base, k: int, first: tuple[int, ...], second: tuple[int, ...]) -> bool:
    """Quantify the transfer condition directly over all tuple pairs.

    For tuples ``a`` and ``b`` and every index ``i``, the sum
    ``a[first[i]] + b[i]`` must be defined exactly when ``b[i] + a[second[i]]``
    is.  The library collapses this to a per-index test; this reference
    version performs the full quantification.
    """
    for a in itertools.product(range(base.size), repeat=k):
        for b in itertools.product(range(base.size), repeat=k):
            for i in range(k):
                forward = base.value(a[first[i]], b[i]) is not None
                backward = base.value(b[i], a[second[i]]) is not None
                if forward != backward:
                    return False
    return True


@pytest.mark.parametrize("k", [1, 2])
def test_transfer_condition_matches_naive_quantification(k: int) -> None:
    antichain3 = enumerate_gpeas(3)[1]
    for base in (chain(1), chain(2), antichain3):
        for lam in itertools.permutations(range(k)):
            for rho in itertools.permutations(range(k)):
                spec = KiteSpec(base=base, index_size=k, lam=lam, rho=rho)
                verdict = check_kc(spec)
                assert verdict.kci == naive_transfer(base, k, rho, lam)
                assert verdict.kcii == naive_transfer(base, k, lam, rho)


def test_transfer_holds_on_diagonal_for_weakly_commutative_base() -> None:
    # With lam == rho the condition reduces to weak commutativity, which
    # every catalog chain satisfies.
    for k, perm in [(2, (1, 0)), (3, (1, 2, 0))]:
        spec = KiteSpec(base=chain(2), index_size=k, lam=perm, rho=perm)
        verdict = check_kc(spec)
        assert verdict.kci and verdict.kcii


def test_transfer_fails_off_diagonal_for_partial_base() -> None:
    # When lam(i) != rho(i) the condition forces totality at index i, so a
    # chain (where 1 + 1 is undefined) must fail.
    spec = KiteSpec(base=chain(1), index_size=2, lam=(0, 1), rho=(1, 0))
    verdict = check_kc(spec)
    assert not verdict.kci and not verdict.kcii


def test_transfer_holds_for_trivial_base_regardless_of_twist() -> None:
    spec = KiteSpec(base=chain(0), index_size=3, lam=(1, 2, 0), rho=(0, 2, 1))
    verdict = check_kc(spec)
    assert verdict.kci and verdict.kcii


# ---------------------------------------------------------------------------
# The twist map on the power
# ---------------------------------------------------------------------------


def test_kite_gamma_is_identity_on_diagonal_specs() -> None:
    spec = KiteSpec(base=chain(2), index_size=2, lam=(1, 0), rho=(1, 0))
    assert kite_gamma(spec) == tuple(range(9))


def test_kite_gamma_is_a_unitizing_map_of_the_power() -> None:
    spec = KiteSpec(base=chain(1), index_size=2, lam=(1, 0), rho=(1, 0))
    gamma = kite_gamma(spec)
    power = power_gpea(spec.base, spec.index_size)
    assert is_unitizing(power.algebra, gamma)


# ---------------------------------------------------------------------------
# Kite construction
# ---------------------------------------------------------------------------


def test_build_refuses_specs_without_the_transfer_condition() -> None:
    spec = KiteSpec(base=chain(1), index_size=2, lam=(0, 1), rho=(1, 0))
    with pytest.raises(MalformedTableError, match="transfer condition"):
        build_kite(spec)


def test_build_respects_element_budget(monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setenv("GPEA_BUDGET", "10")
    spec = KiteSpec(base=chain(2), index_size=2, lam=(1, 0), rho=(1, 0))
    with pytest.raises(BudgetExceededError):
        build_kite(spec)


def test_singleton_kite_over_two_element_chain() -> None:
    kite = build_kite(KiteSpec(base=chain(1), index_size=1, lam=(0,), rho=(0,)))
    algebra = kite.algebra
    assert algebra.size == 4
    assert kite.unit == 2
    assert [algebra.name(i) for i in range(4)] == ["(0)", "(1)", "η(0)", "η(1)"]
    # The same data arises as the unit extension of the base along the
    # identity, up to isomorphism.
    extension = gamma_unitize(chain(1), (0, 1))
    assert find_morphisms(algebra, extension.algebra)


def test_kite_layout_and_clauses() -> None:
    spec = KiteSpec(base=chain(2), index_size=2, lam=(1, 0), rho=(1, 0))
    kite = build_kite(spec)
    algebra = kite.algebra
    power = kite.power
    m = power.algebra.size
    assert algebra.size == 2 * m == 18
    assert kite.unit == m == 9
    assert algebra.flags.has_unit and algebra.pea.unit == m

    # Clause 1: the lower half is the power operation, verbatim.
    for s in range(m):
        for t in range(m):
            assert algebra.value(s, t) == power.algebra.value(s, t)
            # Clause 4: mirror elements never compose with each other.
            assert algebra.value(s + m, t + m) is None

    # Clause 2: base + mirror uses lam-reindexing, e.g.
    # (1,0) + η(1,1) = η(1,0) because ((1,0)∘lam)[i] + (1,0)[i] = (1,1)[i].
    assert algebra.value(power.index_of((1, 0)), m + power.index_of((1, 1))) == (
        m + power.index_of((1, 0))
    )
    # Undefined when a coordinate fails the order test.
    assert algebra.value(power.index_of((2, 2)), m + power.index_of((0, 0))) is None

    # Clause 3: mirror + base uses rho-reindexing, e.g.
    # η(1,1) + (0,1) = η(0,1) because ((0,1)∘rho)[i] + (0,1)[i] = (1,1)[i].
    assert algebra.value(m + power.index_of((1, 1)), power.index_of((0, 1))) == (
        m + power.index_of((0, 1))
    )

    # Every mirror name carries the η prefix over the power name.
    assert algebra.name(m + power.index_of((1, 0))) == "η(1,0)"


def test_kite_clauses_against_supplement_formulas() -> None:
    # On a diagonal spec with the swap, the kite supplements follow the
    # reindexing formulas: the right supplement of a base tuple is the
    # mirror of its rho-reindexing and the left supplement the mirror of
    # its lam-reindexing.
    spec = KiteSpec(base=chain(1), index_size=2, lam=(1, 0), rho=(1, 0))
    kite = build_kite(spec)
    pea = kite.algebra.pea
    m = kite.power.algebra.size
    rho_perm = kite.power.reindexing_permutation(spec.rho)
    lam_perm = kite.power.reindexing_permutation(spec.lam)
    for t in range(m):
        assert pea.right_supp[t] == lam_perm[t] + m
        assert pea.left_supp[t] == rho_perm[t] + m
        assert pea.ll(t) == kite.gamma[t]


# ---------------------------------------------------------------------------
# Isomorphism with the unit extension
# ---------------------------------------------------------------------------


def test_identity_kite_matches_unit_extension_pointwise() -> None:
    report = kite_iso(KiteSpec(base=chain(1), index_size=2, lam=(0, 1), rho=(0, 1)))
    assert report.searched_exhaustively
    assert report.phi == tuple(range(8))
    assert report.kite.algebra.same_table(report.extension.algebra)


def test_swap_kite_is_isomorphic_by_a_mirror_reindexing() -> None:
    report = kite_iso(KiteSpec(base=chain(1), index_size=2, lam=(1, 0), rho=(1, 0)))
    assert report.searched_exhaustively
    # The base half maps identically; the mirror half absorbs the swap.
    assert report.phi == (0, 1, 2, 3, 4, 6, 5, 7)


def test_single_index_kite_iso_is_the_identity() -> None:
    report = kite_iso(KiteSpec(base=chain(2), index_size=1, lam=(0,), rho=(0,)))
    assert report.searched_exhaustively
    assert report.phi == (0, 1, 2, 3, 4, 5)
    assert report.extension.algebra.size == 6


def test_large_kite_uses_forced_search() -> None:
    spec = KiteSpec(base=chain(3), index_size=3, lam=(1, 2, 0), rho=(1, 2, 0))
    report = kite_iso(spec)
    assert report.kite.algebra.size == 128
    assert not report.searched_exhaustively
    assert report.phi is not None
    # The forced map, read from the extension into the kite, is still a
    # genuine isomorphism.
    phi = report.phi
    kite = report.kite.algebra
    extension = report.extension.algebra
    for a in range(extension.size):
        for b in range(extension.size):
            value = extension.value(a, b)
            image = kite.value(phi[a], phi[b])
            assert (value is None and image is None) or image == phi[value]


def test_kite_iso_verifies_phi_on_small_diagonal_grid() -> None:
    for k in (1, 2):
        for perm in itertools.permutations(range(k)):
            report = kite_iso(KiteSpec(base=chain(1), index_size=k, lam=perm, rho=perm))
            assert report.phi is not None
            assert report.searched_exhaustively


# ---------------------------------------------------------------------------
# Index connectivity
# ---------------------------------------------------------------------------


def test_disconnected_double_transposition() -> None:
    spec = KiteSpec(base=chain(1), index_size=4, lam=identity(4), rho=(1, 0, 3, 2))
    report = index_connectivity(spec)
    assert report.components == (frozenset({0, 1}), frozenset({2, 3}))
    assert not report.connected
    assert report.pairs_verified == 1
    # The transfer condition fails here (off-diagonal over a chain), so no
    # kite is built and the implication is not armed.
    assert report.kite_rdp1 is None
    assert report.kite_smallest is None
    assert not report.implication_checked


def test_cycle_twist_is_connected() -> None:
    spec = KiteSpec(base=chain(1), index_size=3, lam=identity(3), rho=(1, 2, 0))
    report = index_connectivity(spec)
    assert report.connected
    assert len(report.components) == 1
    assert report.components[0] == frozenset({0, 1, 2})


def test_diagonal_swap_has_singleton_orbits_and_checks_implication() -> None:
    spec = KiteSpec(base=chain(1), index_size=2, lam=(1, 0), rho=(1, 0))
    report = index_connectivity(spec)
    assert report.components == (frozenset({0}), frozenset({1}))
    assert not report.connected
    assert report.kite_rdp1 is True
    assert report.kite_smallest is None
    assert report.kite_smallest_proper is None
    assert report.implication_checked


def test_connectivity_follows_twist_orbits() -> None:
    spec = KiteSpec(base=chain(1), index_size=4, lam=(1, 0, 3, 2), rho=(2, 3, 0, 1))
    # twist = rho ∘ lam⁻¹ maps 0↔3 and 1↔2 into one 4-cycle check.
    twist = spec.twist_indices
    report = index_connectivity(spec)
    seen = set()
    for component in report.components:
        for i in component:
            assert twist[i] in component
        seen |= component
    assert seen == {0, 1, 2, 3}


@pytest.mark.parametrize("height, max_index", [(1, 3), (2, 2)])
def test_connectivity_smallest_ideals_match_direct_computation(height, max_index) -> None:
    base = chain(height)
    checked = 0
    for k in range(1, max_index + 1):
        perms = list(itertools.permutations(range(k)))
        for lam in perms:
            for rho in perms:
                spec = KiteSpec(base=base, index_size=k, lam=lam, rho=rho)
                if not check_kc(spec).kci:
                    continue
                kite = build_kite(spec).algebra
                report = index_connectivity(spec)
                assert report.kite_smallest == smallest_normal_riesz_ideal(kite)
                assert report.kite_smallest_proper == smallest_normal_riesz_ideal(
                    kite, include_improper=False
                )
                checked += 1
    # Over a chain the transfer condition holds exactly on the diagonal lam == rho.
    assert checked == sum(math.factorial(k) for k in range(1, max_index + 1))


# ---------------------------------------------------------------------------
# The kite scope of verify: shared work, carried results
# ---------------------------------------------------------------------------


def reference_index_connectivity(spec: KiteSpec) -> ConnectivityReport:
    """``index_connectivity`` as it was before verify shared its work:
    every spec builds its own power and kite and computes the refinement
    property and the normal Riesz ideals on that kite.  It also raises on
    the characterization, support and implication checks, which
    ``verify`` now makes and ``index_connectivity`` does not."""
    sigma = spec.twist_indices
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
    components.sort(key=min)

    power = power_gpea(spec.base, spec.index_size)
    gamma = power.reindexing_permutation(sigma)
    if is_unitizing(power.algebra, gamma) != check_kc(spec).kci:
        raise InvariantViolation(
            "twist permutation is unitizing exactly when the transfer condition holds"
        )
    supported = []
    for comp in components:
        members = frozenset(
            t
            for t, tup in enumerate(power.tuples)
            if all(x == 0 for i, x in enumerate(tup) if i not in comp)
        )
        supported.append(members)
    pairs = 0
    for a in range(len(components)):
        for b in range(a + 1, len(components)):
            for members in (supported[a], supported[b]):
                flags = classify_subset(power.algebra, members, gamma)
                if not (flags.ideal and flags.normal and flags.gamma_closed):
                    raise InvariantViolation(
                        "component support is not a twist-closed normal ideal"
                    )
            if supported[a] & supported[b] != {0}:
                raise InvariantViolation(
                    "supports of distinct components must meet only in zero"
                )
            pairs += 1

    connected = len(components) == 1
    kite_rdp1: bool | None = None
    smallest: frozenset[int] | None = None
    smallest_proper: frozenset[int] | None = None
    implication_checked = False
    if check_kc(spec).kci and 2 * power.algebra.size <= element_budget():
        kite = build_kite(spec)
        kite_rdp1 = rdp_profile(kite.algebra).rdp1
        family = normal_riesz_ideals(kite.algebra)
        smallest = least_ideal(family)
        smallest_proper = least_ideal(
            [members for members in family if len(members) != kite.algebra.size]
        )
        base = spec.base
        if base.size > 1 and base.flags.upward_directed and kite_rdp1:
            implication_checked = True
            if smallest is not None and not connected:
                raise InvariantViolation(
                    "kite has a smallest nontrivial normal Riesz ideal "
                    "but the index set is disconnected"
                )
    return ConnectivityReport(
        components=tuple(components),
        connected=connected,
        pairs_verified=pairs,
        kite_rdp1=kite_rdp1,
        kite_smallest=smallest,
        kite_smallest_proper=smallest_proper,
        implication_checked=implication_checked,
    )


def verify_grid() -> list[KiteSpec]:
    """Every spec of verify's kite grid, buildable or not."""
    specs = []
    for height in (1, 2):
        for k in (1, 2, 3):
            perms = list(itertools.permutations(range(k)))
            for lam, rho in itertools.product(perms, repeat=2):
                specs.append(KiteSpec(base=chain(height), index_size=k, lam=lam, rho=rho))
    return specs


def spec_key(spec: KiteSpec) -> tuple:
    return spec.base.size, spec.index_size, spec.lam, spec.rho


def test_verify_kite_scope_carries_exact_results(monkeypatch: pytest.MonkeyPatch) -> None:
    """Each spec's report, isomorphism and carried least ideals, as verify
    computes them, against a per-spec recomputation on the spec's own kite.

    No grid kite has a smallest normal Riesz ideal, so this alone would not
    notice a wrong carrying map; the next two tests check the map.
    """
    reports: dict[tuple, tuple] = {}
    isos: dict[tuple, tuple] = {}
    connectivity_report = gpea.kites._connectivity_report
    iso_report = gpea.kites._iso_report

    def record_connectivity(spec, orbits, refinement):
        report = connectivity_report(spec, orbits, refinement)
        assert spec_key(spec) not in reports
        reports[spec_key(spec)] = (report, refinement)
        return report

    def record_iso(kite, extension):
        report = iso_report(kite, extension)
        assert spec_key(kite.spec) not in isos
        isos[spec_key(kite.spec)] = (report.phi, report.searched_exhaustively)
        return report

    monkeypatch.setattr(gpea.kites, "_connectivity_report", record_connectivity)
    monkeypatch.setattr(gpea.kites, "_iso_report", record_iso)
    assert run_verify("kite", 2).passed
    monkeypatch.undo()

    grid = verify_grid()
    assert len(grid) == 82 and len(reports) == 82
    buildable = 0
    for spec in grid:
        report, refinement = reports[spec_key(spec)]
        assert report == reference_index_connectivity(spec), spec
        if not check_kc(spec).kci:
            assert refinement is None and spec_key(spec) not in isos
            continue
        buildable += 1
        kite = build_kite(spec).algebra
        assert refinement == (rdp_profile(kite).rdp1, *direct_least_ideals(kite)), spec
        expected = kite_iso(spec)
        assert isos[spec_key(spec)] == (expected.phi, expected.searched_exhaustively)
    assert buildable == len(isos) == 18


def direct_least_ideals(kite) -> tuple:
    """The least member of the kite's own normal Riesz ideals, improper
    included and proper only."""
    return tuple(
        least_ideal(normal_riesz_ideals(kite, include_improper=improper))
        for improper in (True, False)
    )


@pytest.mark.parametrize(
    "base", [chain(0), enumerate_gpeas(3)[1]], ids=["chain0", "n3#1"]
)
def test_carried_least_ideals_where_one_exists(
    monkeypatch: pytest.MonkeyPatch, base
) -> None:
    """Kites with a least ideal, every spec of index size 1 and 2 in
    order, so a later spec of a twist carries it: over the one-element
    base it is ``{0, 1}``, over ``enumerate_gpeas(3)[1]`` the whole
    carrier."""
    carried = []
    connectivity_report = gpea.kites._connectivity_report

    def record(spec, orbits, refinement):
        carried.append((spec, refinement))
        return connectivity_report(spec, orbits, refinement)

    monkeypatch.setattr(gpea.kites, "_connectivity_report", record)
    for k in (1, 2):
        for lam, rho in itertools.product(itertools.permutations(range(k)), repeat=2):
            index_connectivity(KiteSpec(base=base, index_size=k, lam=lam, rho=rho))
    monkeypatch.undo()
    buildable = [(spec, refinement) for spec, refinement in carried if refinement]
    assert len(buildable) == (5 if base.size == 1 else 3)
    for spec, refinement in buildable:
        kite = build_kite(spec).algebra
        least = direct_least_ideals(kite)
        assert least[0] == frozenset(range(kite.size)), spec
        assert refinement == (rdp_profile(kite).rdp1, *least), spec


def test_carried_ideals_undo_the_first_kites_isomorphism(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """On verify's grid every twist's first kite has ``lam`` the identity,
    so its isomorphism is the identity too.  With the swap spec first, the
    identity spec's least ideals are carried through ``φ_id ∘ φ_swap⁻¹``.
    The swap kite has no least ideal, so each of its normal Riesz ideals
    is planted in turn as its least proper one: the carried sets must be
    exactly the identity kite's own normal Riesz ideals."""
    swap, same = ((1, 0), (1, 0)), ((0, 1), (0, 1))
    kites = [build_kite(KiteSpec(chain(1), 2, *lr)).algebra for lr in (swap, same)]
    family, own = map(normal_riesz_ideals, kites)
    carried = []
    for planted in family:
        monkeypatch.setattr(
            gpea.kites,
            "smallest_normal_riesz_ideal",
            lambda g, include_improper=True: None if include_improper else planted,
        )
        base = chain(1)
        first, later = (
            index_connectivity(KiteSpec(base, 2, *lr)) for lr in (swap, same)
        )
        assert first.kite_smallest_proper == planted
        assert later.kite_smallest is None
        carried.append(later.kite_smallest_proper)
    monkeypatch.undo()
    assert len(set(carried)) == len(family) and set(carried) == set(own)
    assert set(family) != set(own)


def test_public_connectivity_matches_the_per_spec_reference() -> None:
    for spec in verify_grid():
        assert index_connectivity(spec) == reference_index_connectivity(spec), spec


def count_kite_work(
    monkeypatch: pytest.MonkeyPatch, module=gpea.kites
) -> dict[str, int]:
    """Count, from now on, the calls ``module`` makes to the kite workers;
    a worker the module does not bind counts 0."""
    counts = dict.fromkeys(
        (
            "power_gpea",
            "_paste",
            "gamma_unitize",
            "rdp_profile",
            "smallest_normal_riesz_ideal",
            "is_unitizing",
            "classify_subset",
        ),
        0,
    )

    def counted(name: str, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in counts:
        if hasattr(module, name):
            monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


def test_verify_kite_scope_builds_each_shared_algebra_once(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """One power per (base, index size), one kite per buildable spec, and
    per distinct twist (18 on the grid; every buildable grid spec has the
    identity twist), when the twist has kites, one unit extension with one
    RDP and two least-ideal scans, one per reading.  The unitizing check
    and the orbit support check, once per twist, are made by ``verify``
    itself, and the kites module makes none."""
    counts = count_kite_work(monkeypatch)
    checks = count_kite_work(monkeypatch, gpea.verify)
    run_verify("kite", 2)
    assert counts == {
        "power_gpea": 6,
        "_paste": 18,
        "gamma_unitize": 6,
        "rdp_profile": 6,
        "smallest_normal_riesz_ideal": 12,
        "is_unitizing": 0,
        "classify_subset": 0,
    }
    assert checks == {
        "power_gpea": 0,
        "_paste": 0,
        "gamma_unitize": 0,
        "rdp_profile": 0,
        "smallest_normal_riesz_ideal": 0,
        "is_unitizing": 18,
        "classify_subset": 28,
    }


def test_public_kite_calls_on_one_base_share_their_work(
    monkeypatch: pytest.MonkeyPatch,
) -> None:
    """Two specs of one twist over one base: the base's store holds one
    power and one unit extension for both, and a repeated call returns the
    object it returned before."""
    counts = count_kite_work(monkeypatch)
    base = chain(1)
    for lam in ((0, 1), (1, 0)):
        spec = KiteSpec(base=base, index_size=2, lam=lam, rho=lam)
        kite = build_kite(spec)
        report = kite_iso(spec)
        assert index_connectivity(spec) == reference_index_connectivity(spec)
        assert kite_iso(spec) is report and build_kite(spec) is kite
    assert counts["power_gpea"] == 1
    assert counts["gamma_unitize"] == 1


def test_single_kite_command_builds_no_extension(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str], tmp_path
) -> None:
    counts = count_kite_work(monkeypatch)
    argv = ["kite", "--base", "chain(2)", "--index", "2", "--lambda", "0,1"]
    argv += ["--rho", "0,1", "-o", str(tmp_path / "kite.txt")]
    assert cli_run(argv) == 0
    out = capsys.readouterr().out
    assert "RESULT size=18" in out and "RESULT connected=false" in out
    assert counts == {
        "power_gpea": 1,
        "_paste": 1,
        "gamma_unitize": 0,
        "rdp_profile": 1,
        "smallest_normal_riesz_ideal": 2,
        "is_unitizing": 0,
        "classify_subset": 0,
    }


def test_kite_budget_refusal_comes_before_the_power(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    monkeypatch.setenv("GPEA_BUDGET", "16")
    counts = count_kite_work(monkeypatch)
    message = "kite carrier of 32 elements exceeds the budget of 16"
    argv = ["kite", "--base", "chain(1)", "--index", "4"]
    assert cli_run([*argv, "--lambda", "0,1,2,3", "--rho", "0,1,2,3"]) == 2
    assert message in capsys.readouterr().err
    spec = KiteSpec(base=chain(1), index_size=4, lam=identity(4), rho=identity(4))
    for build in (build_kite, kite_iso):
        with pytest.raises(BudgetExceededError, match=message):
            build(spec)
    assert counts["power_gpea"] == 0
