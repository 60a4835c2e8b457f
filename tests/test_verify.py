"""Tests for the theorem-suite runner and its reporting contract."""

from __future__ import annotations

import gc
import random
import re
import weakref
from dataclasses import replace
from pathlib import Path

import pytest

import gpea.verify
from gpea import (
    AlgebraError,
    BudgetExceededError,
    InvariantViolation,
    MalformedTableError,
    NotEquivalenceError,
    all_partitions,
    chain,
    enumerate_unitizing,
    fig1,
    product,
)
from gpea.verify import (
    DEFAULT_ENUMERATION_BUDGET,
    SCOPES,
    VerifyReport,
    run_verify,
    standard_instances,
)

BUDGET = 2

UNITIZATION_NAMES = [
    "base_riesz_iff_upward",
    "extension_construction",
    "recognition_roundtrip",
    "restriction_to_base",
    "smallest_ideal_default",
    "smallest_ideal_proper",
    "two_valued_state_kernel",
]
CONGRUENCE_NAMES = [
    "ideal_flag_implications",
    "lift_congruence_biconditional",
    "lift_matches_induced",
    "lifting_equivalences",
    "normal_ideal_membership",
    "padded_sum_variants",
    "quotient_extension_commutes",
    "r1_ideal_relation",
    "riesz_ideal_quotient",
    "riesz_lift_triangle",
    "roundtrip_directed_classes",
    "supplement_compatibility",
    "upward_base_suite",
    "upward_ideal_riesz_congruence",
    "upward_r1_equals_riesz",
]
KITE_NAMES = [
    "kite_axioms",
    "kite_component_ideals",
    "kite_extension_isomorphism",
    "kite_transfer_characterization",
]
RDP_NAMES = [
    "rdp_transfer_total",
    "refinement_implies_splitting",
    "upward_rdp_ideals_r1",
]


@pytest.fixture(scope="module")
def budget2_report():
    return run_verify("all", BUDGET)


def test_instance_family_is_named_examples_plus_enumeration():
    labels = [label for label, _ in standard_instances(BUDGET)]
    assert labels == ["fig1", "chain1xchain2", "n1#0", "n2#0"]
    named = dict(standard_instances(BUDGET))
    assert named["fig1"].same_table(fig1())
    assert named["chain1xchain2"].same_table(product(chain(1), chain(2)))
    assert named["n1#0"].size == 1 and named["n2#0"].size == 2
    labels3 = [label for label, _ in standard_instances(3)]
    assert labels3[:4] == labels and labels3[4:] == ["n3#0", "n3#1"]


def test_default_budget_is_five():
    assert DEFAULT_ENUMERATION_BUDGET == 5


def test_rejects_unknown_scope():
    with pytest.raises(ValueError, match="unknown scope"):
        run_verify("everything", BUDGET)


@pytest.mark.parametrize("scope", ["all", *SCOPES])
def test_every_scope_refuses_a_bad_budget_before_any_scope_runs(monkeypatch, scope):
    """The kite scope enumerates nothing, but a budget the instance family
    would refuse is refused for it too, before the kite battery runs."""
    monkeypatch.setattr(
        gpea.verify, "_verify_kite", lambda tallies: pytest.fail("kite scope ran")
    )
    with pytest.raises(BudgetExceededError, match="at most 7 elements"):
        run_verify(scope, 99)
    with pytest.raises(MalformedTableError, match="at least 0, not -1"):
        run_verify(scope, -1)


def test_full_run_reports_every_statement_sorted(budget2_report):
    names = [r.name for r in budget2_report.results]
    assert names == sorted(names)
    assert names == sorted(
        UNITIZATION_NAMES + CONGRUENCE_NAMES + KITE_NAMES + RDP_NAMES
    )
    assert len(names) == 29


def test_result_lines_follow_the_machine_format(budget2_report):
    for result in budget2_report.results:
        assert result.line() == (
            f"RESULT theorem={result.name} "
            f"instances={result.instances} failures={result.failures}"
        )
    lines = budget2_report.lines()
    assert lines[0] == "RESULT theorem=base_riesz_iff_upward instances=5 failures=0"


def test_only_known_false_statement_fails(budget2_report):
    failing = {r.name: r for r in budget2_report.results if not r.passed}
    assert set(failing) == {"smallest_ideal_default"}
    result = failing["smallest_ideal_default"]
    assert result.instances == 3
    assert result.failures == 2
    assert result.witnesses == (
        "n1#0:g0: base=none extension={0,1}",
        "n2#0:g0: base={0,1} extension=none",
    )
    assert not budget2_report.passed


def test_proper_reading_of_smallest_ideal_passes(budget2_report):
    by_name = {r.name: r for r in budget2_report.results}
    proper = by_name["smallest_ideal_proper"]
    assert proper.instances == 3 and proper.failures == 0


def test_notes_record_divergence_outside_hypotheses(budget2_report):
    assert budget2_report.notes == (
        "non-total fig1:g0: refinement profiles diverge (base rdp0=True rdp=True"
        " rdp1=True rdp2=True; extension rdp0=False rdp=False rdp1=False"
        " rdp2=False)",
        "non-total fig1:g1: refinement profiles diverge (base rdp0=True rdp=True"
        " rdp1=True rdp2=True; extension rdp0=False rdp=False rdp1=False"
        " rdp2=False)",
    )


def test_detail_lines_carry_witnesses_and_notes(budget2_report):
    detail = budget2_report.detail_lines()
    assert (
        "  failure smallest_ideal_default: n1#0:g0: base=none extension={0,1}"
        in detail
    )
    assert any(line.startswith("  note: non-total fig1:g0") for line in detail)


def test_scopes_partition_the_statements():
    assert SCOPES == ("unitization", "congruence", "kite", "rdp")
    expected = {
        "unitization": UNITIZATION_NAMES,
        "congruence": CONGRUENCE_NAMES,
        "kite": KITE_NAMES,
        "rdp": RDP_NAMES,
    }
    for scope, names in expected.items():
        report = run_verify(scope, BUDGET)
        assert [r.name for r in report.results] == sorted(names)
        assert report.scope == scope and report.budget == BUDGET


def test_kite_scope_is_instance_budget_independent():
    lines2 = run_verify("kite", 2).lines()
    lines3 = run_verify("kite", 3).lines()
    assert lines2 == lines3
    assert "RESULT theorem=kite_axioms instances=18 failures=0" in lines2


def test_rdp_scope_carries_the_divergence_notes():
    report = run_verify("rdp", BUDGET)
    assert len(report.notes) == 2
    assert all("refinement profiles diverge" in note for note in report.notes)
    by_name = {r.name: r for r in report.results}
    assert by_name["rdp_transfer_total"].instances == 1
    assert by_name["rdp_transfer_total"].failures == 0


def test_rdp_scope_counts_refinement_without_splitting(monkeypatch):
    """An algebra reported with RDP but without RDP0 is a counted failure
    of ``refinement_implies_splitting``, not a crash."""
    profile = gpea.verify.rdp_profile

    def broken(g):
        return replace(profile(g), rdp=True, rdp0=False, rdp0_witness=(0, 0, 0))

    monkeypatch.setattr(gpea.verify, "rdp_profile", broken)
    by_name = {r.name: r for r in run_verify("rdp", BUDGET).results}
    result = by_name["refinement_implies_splitting"]
    assert result.instances > 0
    assert result.failures == result.instances
    assert result.witnesses[0].endswith(": rdp=True rdp0=False")


def test_kite_scope_counts_a_wrong_unitizing_verdict(monkeypatch):
    """The characterization is checked in ``verify``: a negated unitizing
    verdict fails it on every spec, witnessed by the spec's label."""
    unitizing = gpea.verify.is_unitizing
    monkeypatch.setattr(
        gpea.verify, "is_unitizing", lambda g, gamma: not unitizing(g, gamma)
    )
    by_name = {r.name: r for r in run_verify("kite", BUDGET).results}
    result = by_name["kite_transfer_characterization"]
    assert result.failures == result.instances == 82
    assert result.witnesses[0] == (
        "chain(1):k=1:lam=(0,):rho=(0,): twist permutation is unitizing "
        "exactly when the transfer condition holds"
    )
    assert by_name["kite_component_ideals"].failures == 0


def test_kite_scope_counts_a_support_that_is_not_normal(monkeypatch):
    """The component supports are checked in ``verify``: read as not
    normal, they fail ``kite_component_ideals`` on every spec whose twist
    has more than one orbit, 26 per base."""
    classify = gpea.verify.classify_subset
    monkeypatch.setattr(
        gpea.verify,
        "classify_subset",
        lambda g, members, gamma=None: replace(
            classify(g, members, gamma), normal=False
        ),
    )
    by_name = {r.name: r for r in run_verify("kite", BUDGET).results}
    result = by_name["kite_component_ideals"]
    assert (result.instances, result.failures) == (82, 52)
    assert result.witnesses[0] == (
        "chain(1):k=2:lam=(0, 1):rho=(0, 1): "
        "component support is not a twist-closed normal ideal"
    )
    assert by_name["kite_transfer_characterization"].failures == 0


def test_runs_are_deterministic(budget2_report):
    again = run_verify("all", BUDGET)
    assert again.lines() == budget2_report.lines()
    assert again.notes == budget2_report.notes
    assert [r.witnesses for r in again.results] == [
        r.witnesses for r in budget2_report.results
    ]


def test_every_statement_quantifies_over_something(budget2_report):
    for result in budget2_report.results:
        assert result.instances > 0


def test_congruence_scope_induces_each_relation_once(monkeypatch):
    calls = []
    induce = gpea.verify.sim_from_ideal

    def counted(g, members):
        calls.append((id(g), frozenset(members)))
        return induce(g, members)

    monkeypatch.setattr(gpea.verify, "sim_from_ideal", counted)
    run_verify("congruence", BUDGET)
    assert calls and len(calls) == len(set(calls))


def test_relation_that_is_no_equivalence_keeps_its_outcomes(monkeypatch):
    """On an instance that is not upward directed the failure is witnessed
    by both statements about the relation; on an upward-directed one it
    propagates."""
    induce = gpea.verify.sim_from_ideal

    def intransitive(upward):
        def fake(g, members):
            if g.flags.upward_directed == upward:
                raise NotEquivalenceError("not transitive")
            return induce(g, members)

        return fake

    monkeypatch.setattr(gpea.verify, "sim_from_ideal", intransitive(False))
    by_name = {r.name: r for r in run_verify("congruence", BUDGET).results}
    for name in ("r1_ideal_relation", "riesz_ideal_quotient"):
        assert by_name[name].failures > 0
        assert by_name[name].witnesses[0].endswith(": not transitive")
    monkeypatch.setattr(gpea.verify, "sim_from_ideal", intransitive(True))
    with pytest.raises(NotEquivalenceError, match="not transitive"):
        run_verify("congruence", BUDGET)


def test_relation_label_keeps_the_blocks_in_their_stored_order():
    """Blocks come ordered by least element, so the label of every
    partition of size at most 5 is the one the sorted blocks gave."""
    for n in range(1, 6):
        for rel in all_partitions(n):
            blocks = sorted(tuple(sorted(b)) for b in rel.blocks)
            old = "|".join(",".join(str(x) for x in b) for b in blocks)
            assert gpea.verify._relation_label(rel) == old


# --------------------------------------------------------- relabelled family


def relabelling(label: str, size: int) -> tuple[int, ...]:
    """A permutation of the carrier fixing 0, shuffled by a generator
    seeded with the instance label."""
    rest = list(range(1, size))
    random.Random(label).shuffle(rest)
    return (0, *rest)


class Carrier:
    """Maps a witness or note of the plain family into the relabelled one.

    The pair label ``<instance>:g<j>`` names the ``j``-th unitizing twist
    ``γ``; the relabelled family lists ``π γ π⁻¹`` at its own index.  A
    subset ``{...}`` maps through ``π``, extended to the mirror by
    ``η(a) -> η(π(a))``, which is an isomorphism between the two unit
    extensions; on base members the two maps agree.
    """

    PAIR = re.compile(r"([\w#]+)(?::g(\d+))?:")
    SUBSET = re.compile(r"\{([\d,]*)\}")

    def __init__(self, family, perms):
        self.family = dict(family)
        self.perms = perms

    def twist_index(self, label: str, j: int) -> int:
        g, perm = self.family[label], self.perms[label]
        gamma = enumerate_unitizing(g)[j]
        image = [0] * g.size
        for a in range(g.size):
            image[perm[a]] = perm[gamma[a]]
        return enumerate_unitizing(g.relabel(perm)).index(tuple(image))

    def __call__(self, text: str) -> str:
        pair = self.PAIR.search(text)
        label, j = pair.groups()
        perm = self.perms[label]
        n = len(perm)
        if j is not None:
            text = (
                text[: pair.start()]
                + f"{label}:g{self.twist_index(label, int(j))}:"
                + text[pair.end():]
            )

        def subset(found: re.Match) -> str:
            members = [int(x) for x in found.group(1).split(",") if x]
            images = [perm[x] if x < n else perm[x - n] + n for x in members]
            return "{" + ",".join(map(str, sorted(images))) + "}"

        return self.SUBSET.sub(subset, text)


@pytest.mark.parametrize("budget", [4, 5])
@pytest.mark.parametrize("scope", ["unitization", "congruence", "rdp"])
def test_a_relabelled_family_gives_the_same_report(monkeypatch, scope, budget):
    """Every verdict is an isomorphism invariant: relabelling each instance
    by a permutation fixing 0 changes no RESULT line, and the witnesses and
    notes only by that permutation."""
    family = standard_instances(budget)
    perms = {label: relabelling(label, g.size) for label, g in family}
    relabelled = [(label, g.relabel(perms[label])) for label, g in family]
    monkeypatch.setattr(gpea.verify, "standard_instances", lambda _: family)
    plain = run_verify(scope, budget)
    monkeypatch.setattr(gpea.verify, "standard_instances", lambda _: relabelled)
    report = run_verify(scope, budget)
    assert report.lines() == plain.lines()
    carry = Carrier(family, perms)
    for before, after in zip(plain.results, report.results):
        assert {carry(w) for w in before.witnesses} == set(after.witnesses), before.name
    assert {carry(note) for note in plain.notes} == set(report.notes)
    assert any(p != tuple(range(len(p))) for p in perms.values())


# ------------------------------------------------------------ streamed pairs


SWAP_OF_FIG1 = (0, 2, 1, 3, 5, 4)  # the twist of the pair fig1:g1


@pytest.fixture
def broken_build(monkeypatch):
    """``gamma_unitize`` refusing the pair ``fig1:g1`` and no other."""
    build = gpea.verify.gamma_unitize

    def refusing(g, gamma):
        if gamma == SWAP_OF_FIG1:
            raise AlgebraError("refused on purpose")
        return build(g, gamma)

    monkeypatch.setattr(gpea.verify, "gamma_unitize", refusing)


def test_unitization_scope_counts_a_broken_build(broken_build):
    by_name = {r.name: r for r in run_verify("unitization", 3).results}
    result = by_name["extension_construction"]
    assert (result.instances, result.failures) == (8, 1)
    assert result.witnesses == ("fig1:g1: refused on purpose",)
    assert by_name["two_valued_state_kernel"].instances == 7


@pytest.mark.parametrize("scope", ["congruence", "rdp", "all"])
def test_a_broken_build_is_refused_where_every_extension_is_needed(
    broken_build, scope
):
    message = "unit extension failed to build for fig1:g1 (refused on purpose)"
    with pytest.raises(InvariantViolation, match=f"^{re.escape(message)}$"):
        run_verify(scope, 3)


@pytest.mark.parametrize("scope", ["all", *SCOPES])
def test_at_most_one_unit_extension_is_alive_at_a_time(monkeypatch, scope):
    """Each pair is dropped before the next is built: before every build,
    at most the previous extension is still reachable."""
    build = gpea.verify.gamma_unitize
    built: list[weakref.ref] = []
    alive: list[int] = []

    def recording(g, gamma):
        gc.collect()
        alive.append(sum(ref() is not None for ref in built))
        ua = build(g, gamma)
        built.append(weakref.ref(ua))
        return ua

    monkeypatch.setattr(gpea.verify, "gamma_unitize", recording)
    run_verify(scope, 4)
    assert len(built) == (0 if scope == "kite" else 18)
    assert max(alive, default=0) <= 1


def merged_scopes(budget: int) -> VerifyReport:
    """The four single-scope reports at ``budget`` merged into one."""
    reports = [run_verify(scope, budget) for scope in SCOPES]
    results = sorted((r for rep in reports for r in rep.results), key=lambda r: r.name)
    notes = sorted(note for rep in reports for note in rep.notes)
    return VerifyReport("all", budget, tuple(results), tuple(notes))


@pytest.mark.parametrize("budget", [4, 5])
def test_single_scope_reports_merge_into_the_all_report(budget):
    assert merged_scopes(budget) == run_verify("all", budget)


def test_single_scope_reports_merge_into_the_golden_all_report_at_budget_six():
    merged = merged_scopes(6)
    text = "".join(
        line + "\n"
        for line in ["VERIFY scope=all budget=6", *merged.detail_lines(), *merged.lines()]
    )
    golden = Path(__file__).parent / "golden" / "verify-all-budget-6.txt"
    assert text == golden.read_text(encoding="utf-8")
