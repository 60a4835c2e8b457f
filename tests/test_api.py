"""The package's public names: one list, built from the modules' own."""

from __future__ import annotations

import gpea

PUBLIC = [
    # core
    "AXIOMS", "AlgebraError", "AxiomReport", "BudgetExceededError", "FiniteGpea",
    "InvalidAlgebraError", "InvariantViolation", "MalformedTableError", "NoUnitError",
    "NotValidatedError", "OrderRelation", "PeaView", "StructureFlags", "classify",
    "element_budget", "extended_cancellation_witness", "find_morphisms",
    "induced_order", "is_isomorphism", "pea_view", "subtract", "validate_axioms",
    # ideals
    "CongruenceFlags", "IdealFlags", "LemmaVerdict", "NotEquivalenceError", "Partition",
    "RoundtripVerdict", "all_partitions", "classify_relation", "classify_subset",
    "congruences", "enumerate_ideals", "gcr_condition", "ideal_closure",
    "normal_ideal_lemmas", "normal_riesz_ideals", "quotient",
    "riesz_congruence_roundtrip", "sim_from_ideal", "smallest_normal_riesz_ideal",
    # unitization
    "UnitizationAlgebra", "TwoValuedState", "Recognition", "SuiteReport",
    "QuotientUnitizationVerdict", "SmallestIdealComparison", "is_unitizing",
    "enumerate_unitizing", "gamma_unitize", "recognize_unitization",
    "two_valued_states", "extend_congruence", "congruence_suite",
    "quotient_unitization", "base_ideal_is_riesz_iff_upward", "restriction_verdict",
    "lift_congruence_biconditional", "smallest_ideal_comparison",
    # kites
    "KiteSpec", "PowerGpea", "KcVerdict", "KiteAlgebra", "KiteIsoReport",
    "ConnectivityReport", "power_gpea", "check_kc", "kite_gamma", "build_kite",
    "kite_iso", "index_connectivity",
    # rdp
    "RdpProfile", "TransferReport", "rdp_profile", "rdp_transfer",
    # catalog
    "ParseError", "WindowSpotCheck", "builtin", "fig1", "chain", "product", "boolean",
    "twisted_window", "enumerate_gpeas", "count_gpeas_naive", "parse", "serialize",
    # verify
    "DEFAULT_ENUMERATION_BUDGET", "SCOPES", "TheoremResult", "VerifyReport",
    "standard_instances", "run_verify",
]


def test_public_names_are_listed_once_and_resolve():
    assert len(PUBLIC) == 93
    assert len(set(PUBLIC)) == len(PUBLIC)
    assert gpea.__all__ == PUBLIC
    assert [name for name in PUBLIC if not hasattr(gpea, name)] == []
