"""The per-algebra verdict store against answers computed without it.

``gpea.ideals`` keeps what it decides about a validated algebra in that
instance's ``verdicts`` store.  Each public call that reads the store is
compared with the same call on a copy of the table whose store is
emptied before every call (the oracle): the same return value, or the
same exception type and message.  The instances under test are copies
too, because the shared fixtures and module-level pools of other test
files fill the stores of their own instances.

Inputs are every enumerated algebra of size at most 5 and the unit
extension of every (base, twist) pair ``verify all --budget 4`` builds.
On each, every subset (carriers up to 8 elements; beyond that the ideals
and each ideal with one element added) is classified without a twist and
with each of up to two automorphisms and a permutation that is not an
automorphism; every partition (carriers up to 6 elements; beyond that
the congruences and the lifts of every base partition) is classified
without a twist or GCR ideal, with either, and with both, and its
quotient taken; every ideal induces its relation; each twist is asked
whether it is unitizing.  The calls run in one order on one copy and
in the reverse order on another, and then once more from the filled
store.  A derandomized ``hypothesis`` stream of call sequences on random
valid tables covers the orders the sweep does not.

The kernels behind the store run once per (algebra, key), and each
twist is proved an automorphism once per algebra: in
``run_verify("all", 4)`` their counts are pinned exactly.  A kite's
twist, kept in its base's store too, does not collide with the base's
automorphism proof of the same tuple.
"""

from __future__ import annotations

import inspect
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import gpea.kites
import gpea.unitization
from gpea import (
    AlgebraError,
    FiniteGpea,
    KiteSpec,
    NotEquivalenceError,
    NotValidatedError,
    Partition,
    all_partitions,
    chain,
    classify_relation,
    classify_subset,
    congruences,
    enumerate_ideals,
    extend_congruence,
    find_morphisms,
    gamma_unitize,
    index_connectivity,
    is_unitizing,
    lift_congruence_biconditional,
    parse,
    quotient,
    quotient_unitization,
    sim_from_ideal,
)
from gpea import ideals
from gpea.verify import _unitized_pairs, run_verify, standard_instances
from test_kernels import valid_tables
from test_table import ENUMERATED


def copy_of(g: FiniteGpea) -> FiniteGpea:
    """A new validated instance of the same table, with an empty store."""
    return FiniteGpea(g.size, {(a, b): s for a, b, s in g.sums}, g.names).validate()


def outcome(call, g: FiniteGpea, *args, **kwargs):
    """What ``call`` answers on ``g``: its value (an iterator drained, an
    algebra as its table and names) or the type and text of its error."""
    try:
        value = call(g, *args, **kwargs)
        if inspect.isgenerator(value):
            value = list(value)
    except AlgebraError as exc:
        return type(exc), str(exc)
    if isinstance(value, FiniteGpea):
        return value.table, value.names
    return value


class Oracle:
    """Answers on a copy of ``g`` whose store is emptied before each call."""

    def __init__(self, g: FiniteGpea):
        self.copy = copy_of(g)

    def __call__(self, call, *args, **kwargs):
        vars(self.copy).pop("verdicts", None)
        return outcome(call, self.copy, *args, **kwargs)


def assert_store_matches(g: FiniteGpea, calls: list[tuple]) -> None:
    """Each call, in both orders and then again from the store, answers as
    the oracle does."""
    oracle = Oracle(g)
    expected = [oracle(call, *args, **kwargs) for call, args, kwargs in calls]
    for order in (range(len(calls)), reversed(range(len(calls)))):
        stored = copy_of(g)
        for i in [*order, *range(len(calls))]:
            call, args, kwargs = calls[i]
            assert outcome(call, stored, *args, **kwargs) == expected[i], (
                call.__name__, args, kwargs,
            )


def twists_of(g: FiniteGpea) -> list[tuple[int, ...]]:
    """Up to two automorphisms, and a transposition that is not one."""
    autos = find_morphisms(g, g)
    out = autos[-2:]
    for x, y in itertools.combinations(range(g.size), 2):
        perm = list(range(g.size))
        perm[x], perm[y] = y, x
        if tuple(perm) not in autos:
            return out + [tuple(perm)]
    return out


def store_calls(g: FiniteGpea, partitions: list[Partition]) -> list[tuple]:
    n = g.size
    found = enumerate_ideals(copy_of(g))
    if n <= 8:
        subsets = [
            frozenset(s)
            for r in range(n + 1)
            for s in itertools.combinations(range(n), r)
        ]
    else:
        subsets = found + [i | {x} for i in found for x in range(n) if x not in i]
    twists = twists_of(g)  # the first is an automorphism
    smallest = found[min(1, len(found) - 1)]
    calls: list[tuple] = [(enumerate_ideals, (), {})]
    if n <= ideals.CONGRUENCE_LIMIT:
        calls.append((congruences, (), {}))
    calls += [(is_unitizing, (gamma,), {}) for gamma in twists]
    for s in subsets:
        calls.append((classify_subset, (s,), {}))
        calls += [(classify_subset, (s, gamma), {}) for gamma in twists]
    calls += [(sim_from_ideal, (i,), {}) for i in found]
    for rel in partitions:
        calls += [
            (classify_relation, (rel,), {}),
            (classify_relation, (rel,), {"ideal_for_gcr": found[-1]}),
            (classify_relation, (rel,), {"gamma": twists[-1]}),
            (classify_relation, (rel,), {"ideal_for_gcr": smallest, "gamma": twists[0]}),
            (quotient, (rel,), {}),
        ]
    return calls


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_enumerated_algebras(size):
    for g in ENUMERATED:
        if g.size == size:
            assert_store_matches(g, store_calls(g, list(all_partitions(size))))


BUDGET_FOUR_PAIRS = _unitized_pairs(standard_instances(4))


@pytest.mark.parametrize(
    "pair", BUDGET_FOUR_PAIRS, ids=[p.label for p in BUDGET_FOUR_PAIRS]
)
def test_unit_extensions_of_the_budget_four_pairs(pair):
    ua = pair.extension
    u = ua.algebra
    if u.size <= 6:
        partitions = list(all_partitions(u.size))
    else:
        lifts = [extend_congruence(ua, rel) for rel in all_partitions(ua.base.size)]
        found = list(congruences(copy_of(u))) if u.size <= ideals.CONGRUENCE_LIMIT else []
        partitions = list(dict.fromkeys(lifts + found))
    assert_store_matches(u, store_calls(u, partitions))


def test_every_call_returns_a_fresh_list_or_iterator():
    g = copy_of(ENUMERATED[-1])
    first = enumerate_ideals(g)
    first.clear()
    assert enumerate_ideals(g) == enumerate_ideals(copy_of(g)) != []
    walk = congruences(g)
    assert list(walk) == list(congruences(g)) != []
    assert list(walk) == []


def test_a_failed_induced_relation_is_raised_again_on_every_call():
    # The unit extension of the three-element algebra n3#1 (1 + 1 and
    # 2 + 2 undefined) by the identity twist: {0, 1, 2} is a normal ideal
    # whose peel relation is not transitive.
    u = parse(
        "gpea 1\nn 6\nop 1 4 3\nop 2 5 3\nop 4 1 3\nop 5 2 3\n"
    ).validate()
    for _ in range(3):
        with pytest.raises(NotEquivalenceError, match=r"fails at \(4, 3, 5\)$"):
            sim_from_ideal(u, [0, 1, 2])


# ------------------------------------------------------------ call sequences


@st.composite
def call_sequences(draw):
    g = draw(valid_tables())
    n = g.size
    found = enumerate_ideals(copy_of(g))
    element = st.integers(min_value=0, max_value=n - 1)
    subset = st.frozensets(element)
    perm = st.sampled_from(find_morphisms(g, g)) | st.permutations(range(n)).map(tuple)
    gamma = st.none() | perm
    relation = st.lists(element, min_size=n, max_size=n).map(Partition.from_block_of)
    call = st.one_of(
        st.tuples(st.just(classify_subset), st.tuples(subset, gamma), st.just({})),
        st.tuples(
            st.just(classify_relation),
            st.tuples(relation),
            st.fixed_dictionaries({"ideal_for_gcr": st.none() | subset, "gamma": gamma}),
        ),
        st.tuples(st.just(enumerate_ideals), st.just(()), st.just({})),
        st.tuples(st.just(congruences), st.just(()), st.just({})),
        st.tuples(st.just(sim_from_ideal), st.tuples(st.sampled_from(found) | subset), st.just({})),
        st.tuples(st.just(quotient), st.tuples(relation), st.just({})),
        st.tuples(st.just(is_unitizing), st.tuples(perm), st.just({})),
    )
    return g, draw(st.lists(call, max_size=30))


@settings(max_examples=60)
@given(call_sequences())
def test_random_call_sequences(sequence):
    g, calls = sequence
    oracle = Oracle(g)
    for call, args, kwargs in calls:
        assert outcome(call, g, *args, **kwargs) == oracle(call, *args, **kwargs)


# ---------------------------------------------------------------- raw tables


def test_a_raw_table_is_refused_on_every_call():
    raw = FiniteGpea(2, {(0, 0): 0, (0, 1): 1, (1, 0): 1})
    rel = Partition.identity(2)
    calls = [
        lambda: classify_subset(raw, [0]),
        lambda: classify_subset(raw, [0], (0, 1)),
        lambda: classify_relation(raw, rel),
        lambda: classify_relation(raw, rel, [0], (0, 1)),
        lambda: enumerate_ideals(raw),
        lambda: list(congruences(raw)),
        lambda: sim_from_ideal(raw, [0]),
        lambda: quotient(raw, rel),
        lambda: raw.verdicts,
    ]
    for _ in range(2):
        for call in calls:
            with pytest.raises(NotValidatedError):
                call()
    assert "verdicts" not in vars(raw)
    raw.validate()
    assert classify_subset(raw, [0]).ideal
    assert list(congruences(raw)) == [Partition.single_block(2), Partition.identity(2)]


# ------------------------------------------------------------ pinned counts


KERNELS = ("_subset_flags", "_relation_flags", "_partition_walk", "_ideal_sweep")


def count_kernel_runs(monkeypatch) -> dict[str, list[tuple]]:
    """Record each kernel run as (algebra, key); the algebras are kept
    alive, so their ids stay distinct."""
    runs: dict[str, list[tuple]] = {name: [] for name in KERNELS}
    key_of = {
        "_subset_flags": lambda mask: mask,
        "_relation_flags": lambda rel: rel.block_of,
        "_partition_walk": lambda: (),
        "_ideal_sweep": lambda: (),
    }
    for name in KERNELS:
        kernel = getattr(ideals, name)

        def counted(g, *args, _name=name, _kernel=kernel):
            runs[_name].append((g, key_of[_name](*args)))
            return _kernel(g, *args)

        monkeypatch.setattr(ideals, name, counted)
    return runs


def test_verify_all_at_budget_four_runs_each_kernel_once_per_algebra_and_key(
    monkeypatch,
):
    runs = count_kernel_runs(monkeypatch)
    run_verify("all", 4)
    counts = {name: len(found) for name, found in runs.items()}
    distinct = {
        name: len({(id(g), key) for g, key in found}) for name, found in runs.items()
    }
    # Without the store: 965 subset, 730 relation and 29 walk calls.
    assert counts == distinct == {
        "_subset_flags": 373,
        "_relation_flags": 155,
        "_partition_walk": 11,
        "_ideal_sweep": 35,
    }


def test_quotient_unitization_classifies_no_relation_again(monkeypatch):
    # The first twist-compatible congruence with C4 and C5' among the
    # budget-four pairs, on fresh instances.
    pair, rel = next(
        (p, rel)
        for p in BUDGET_FOUR_PAIRS
        for rel in congruences(p.base)
        if (flags := classify_relation(p.base, rel, gamma=p.gamma)).gamma_congruence
        and flags.c4
        and flags.c5prime
    )
    g = copy_of(pair.base)
    ua = gamma_unitize(g, pair.gamma)
    star = extend_congruence(ua, rel)
    runs = count_kernel_runs(monkeypatch)
    # The order of verify's congruence scope.
    assert lift_congruence_biconditional(ua, rel)
    classify_relation(g, rel, gamma=pair.gamma)
    assert runs["_relation_flags"] == [
        (g, rel.block_of),
        (ua.algebra, star.block_of),
    ]
    assert quotient_unitization(ua, rel).passed
    assert quotient_unitization(ua, rel).passed
    assert len(runs["_relation_flags"]) == 2


def count_twist_proofs(monkeypatch) -> list[tuple]:
    """Record each proof that a permutation is an automorphism as
    (algebra, permutation), through every module binding that could make
    one; the algebras are kept alive, so their ids stay distinct.
    ``unitization`` binds no ``is_isomorphism``: recognition proves its
    map instead of checking it."""
    assert not hasattr(gpea.unitization, "is_isomorphism")
    proofs: list[tuple] = []
    for module in (ideals, gpea.kites):
        prove = module.is_isomorphism

        def counted(p, q, phi, _prove=prove):
            if p is q:
                proofs.append((p, tuple(phi)))
            return _prove(p, q, phi)

        monkeypatch.setattr(module, "is_isomorphism", counted)
    return proofs


def test_verify_all_at_budget_four_proves_each_twist_once_per_algebra(monkeypatch):
    proofs = count_twist_proofs(monkeypatch)
    run_verify("all", 4)
    # Without the store: 694 proofs of the same 120 (algebra, twist) pairs.
    assert len(proofs) == len({(id(g), gamma) for g, gamma in proofs}) == 120


def test_a_kite_twist_and_an_automorphism_proof_share_a_base_store():
    # On chain(1) with two indices the kite's index twist (0, 1) is also
    # the base's identity automorphism, under a different kind of key.
    calls = [
        lambda g: index_connectivity(KiteSpec(g, 2, (0, 1), (0, 1))),
        lambda g: classify_subset(g, {0}, (0, 1)),
        lambda g: is_unitizing(g, (0, 1)),
    ]
    fresh = [call(chain(1)) for call in calls]
    for order in ([0, 1, 2], [2, 1, 0]):
        base = chain(1)
        assert [calls[i](base) for i in order] == [fresh[i] for i in order]
    assert fresh[2] and fresh[1].gamma_closed
