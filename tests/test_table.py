"""The flat operation table against the dict-of-pairs layout it replaced.

``DictTable`` rebuilds the old storage (an ``op`` dict plus per-element
``rows`` and ``cols`` dicts) from the input mapping, and
``dict_validate_axioms`` is the axiom checker that read it, kept verbatim
as the reference.  Verdicts, witnesses and every table accessor of
``FiniteGpea`` are compared against it on random raw tables, valid and
invalid, on every enumerated table of size at most 5 together with all
of its one-cell edits, and on larger tables, where ``validate_axioms``
decides most checks by counting, with a seeded sample of their one-cell
edits: the 18 kites of ``verify``'s grid and three unit extensions of up
to 54 elements.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import find, given, settings, strategies as st

from gpea import (
    FiniteGpea,
    KiteSpec,
    NotValidatedError,
    boolean,
    build_kite,
    chain,
    check_kc,
    enumerate_gpeas,
    fig1,
    gamma_unitize,
    product,
    validate_axioms,
)
from gpea.core import AxiomReport

Op = dict[tuple[int, int], int]


class DictTable:
    """The old storage: ``op``, ``rows[a][b] == a + b``, ``cols[b][a] == a + b``."""

    def __init__(self, size: int, op: Op):
        self.size = size
        self.op = dict(op)
        self.rows: list[dict[int, int]] = [{} for _ in range(size)]
        self.cols: list[dict[int, int]] = [{} for _ in range(size)]
        for (i, j), value in op.items():
            self.rows[i][j] = value
            self.cols[j][i] = value


def dict_validate_axioms(table: DictTable) -> AxiomReport:
    """Check the five axioms on a raw table, reporting smallest witnesses.

    Associativity is verified as a full biconditional: for every triple,
    ``(a+b)+c`` exists iff ``a+(b+c)`` exists, and the values agree whenever
    both sides are defined.
    """
    n = table.size
    op = table.op
    rows = table.rows
    cols = table.cols

    verdicts: dict[str, bool] = {}
    witnesses: dict[str, tuple[int, int, int] | None] = {}

    def record(name: str, fails: list[tuple[int, int, int]]) -> None:
        verdicts[name] = not fails
        witnesses[name] = min(fails) if fails else None

    # associativity: every failing triple has at least one side defined, so
    # scanning "left side exists" and "right side exists" covers all failures.
    fails: list[tuple[int, int, int]] = []
    for (a, b), s in op.items():
        row_s, row_b, row_a = rows[s], rows[b], rows[a]
        for c, u in row_s.items():  # (a+b)+c defined
            t = row_b.get(c)
            v = row_a.get(t) if t is not None else None
            if v is None or v != u:
                fails.append((a, b, c))
    for (b, c), t in op.items():
        col_t = cols[t]
        for a in col_t:  # a+(b+c) defined
            s = op.get((a, b))
            if s is None or c not in rows[s]:
                fails.append((a, b, c))
    record("associativity", fails)

    # conjugation: a+b == some c+a and some b+d.
    fails = []
    row_value_sets = [set(r.values()) for r in rows]
    col_value_sets = [set(c.values()) for c in cols]
    for (a, b), s in op.items():
        if s not in col_value_sets[a] or s not in row_value_sets[b]:
            fails.append((a, b, s))
    record("conjugation", fails)

    # cancellation: rows and columns are injective on their defined entries.
    fails = []
    for c in range(n):
        seen: dict[int, int] = {}
        for a in sorted(cols[c]):
            v = cols[c][a]
            if v in seen:
                fails.append((seen[v], a, c))
            else:
                seen[v] = a
        seen = {}
        for a in sorted(rows[c]):
            v = rows[c][a]
            if v in seen:
                fails.append((seen[v], a, c))
            else:
                seen[v] = a
    record("cancellation", fails)

    # neutrality of 0 on both sides.
    fails = []
    for x in range(n):
        if op.get((0, x)) != x:
            fails.append((0, x, x))
        if op.get((x, 0)) != x:
            fails.append((x, 0, x))
    record("neutrality", fails)

    # positivity: only 0 + 0 gives 0.
    fails = [(a, b, 0) for (a, b), s in op.items() if s == 0 and (a, b) != (0, 0)]
    record("positivity", fails)

    return AxiomReport(verdicts, witnesses)



def op_of(g: FiniteGpea) -> Op:
    return {(a, b): s for a, b, s in g.sums}


def one_cell_edits(n: int, op: Op) -> list[Op]:
    """Every table differing from ``op`` in exactly one cell."""
    out = []
    for cell in itertools.product(range(n), repeat=2):
        for value in (None, *range(n)):
            if op.get(cell) == value:
                continue
            edited = dict(op)
            if value is None:
                del edited[cell]
            else:
                edited[cell] = value
            out.append(edited)
    return out


def assert_matches_dict_layout(n: int, op: Op) -> None:
    g = FiniteGpea(n, op)
    report = validate_axioms(g)
    assert report == dict_validate_axioms(DictTable(n, op))

    assert g.table_key() == tuple(
        op.get((a, b), n) for a in range(n) for b in range(n)
    )
    assert g.sums == tuple((a, b, s) for (a, b), s in sorted(op.items()))
    for a in range(n):
        for b in range(n):
            assert g.value(a, b) == op.get((a, b))
            assert g.defined(a, b) == ((a, b) in op)
    assert g.same_table(FiniteGpea(n, dict(reversed(list(op.items())))))

    if not report.passed:
        with pytest.raises(NotValidatedError):
            g.left_subtraction(0, 0)
        return
    g.validate()
    left = {(a, b): c for (a, c), b in op.items()}
    right = {(c, b): a for (a, c), b in op.items()}
    for a in range(n):
        for b in range(n):
            assert g.left_subtraction(a, b) == left.get((a, b))
            assert g.right_subtraction(a, b) == right.get((a, b))


ENUMERATED = [g for n in range(1, 6) for g in enumerate_gpeas(n)]


@pytest.mark.parametrize("size", [1, 2, 3, 4, 5])
def test_enumerated_tables_and_their_one_cell_edits(size):
    for g in ENUMERATED:
        if g.size != size:
            continue
        op = op_of(g)
        assert_matches_dict_layout(size, op)
        for edited in one_cell_edits(size, op):
            assert_matches_dict_layout(size, edited)


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


def large_tables() -> list[tuple[str, FiniteGpea]]:
    """The tables where counting, not scanning, decides most checks: the
    18 grid kites, and the unit extensions of ``boolean(3)``,
    ``product(fig1,chain(1))`` and ``chain(2)^3`` (54 elements)."""
    out = [(label, build_kite(spec).algebra) for label, spec in verify_grid_kites()]
    for label, base, gamma in (
        ("boolean(3)", boolean(3), tuple(range(8))),
        (
            "product(fig1,chain(1))",
            product(fig1(), chain(1)),
            (0, 1, 4, 5, 2, 3, 6, 7, 10, 11, 8, 9),
        ),
        ("chain(2)^3", product(chain(2), product(chain(2), chain(2))), tuple(range(27))),
    ):
        out.append((f"ext:{label}", gamma_unitize(base, gamma).algebra))
    return out


def sampled_one_cell_edits(n: int, op: Op, count: int, seed: int) -> list[Op]:
    """``count`` tables drawn from ``one_cell_edits(n, op)`` by a seeded
    generator, without building them all."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        cell = (rng.randrange(n), rng.randrange(n))
        value = rng.choice((None, *range(n)))
        if op.get(cell) == value:
            continue
        edited = dict(op)
        if value is None:
            del edited[cell]
        else:
            edited[cell] = value
        out.append(edited)
    return out


LARGE = large_tables()


@pytest.mark.parametrize("g", [g for _, g in LARGE], ids=[label for label, _ in LARGE])
def test_large_tables_and_a_sample_of_their_one_cell_edits(g):
    op = op_of(g)
    assert_matches_dict_layout(g.size, op)
    for edited in sampled_one_cell_edits(g.size, op, 40, seed=g.size):
        assert_matches_dict_layout(g.size, edited)


SEEDS = ENUMERATED + [chain(5), fig1(), product(chain(1), chain(2))]


@st.composite
def raw_tables(draw):
    """A table of size 1-6: a relabelled known GPEA with a few random cell
    edits, or neutral entries plus random cells.  Either may be valid."""
    if draw(st.booleans()):
        g = draw(st.sampled_from(SEEDS))
        n = g.size
        rest = draw(st.permutations(range(1, n)))
        op = op_of(g.relabel((0, *rest)))
    else:
        n = draw(st.integers(min_value=1, max_value=6))
        op = {(0, x): x for x in range(n)}
        op.update({(x, 0): x for x in range(n)})
    element = st.integers(min_value=0, max_value=n - 1)
    cell = st.tuples(element, element)
    for target, value in draw(
        st.lists(st.tuples(cell, st.none() | element), max_size=6)
    ):
        if value is None:
            op.pop(target, None)
        else:
            op[target] = value
    return n, op


@settings(max_examples=300)
@given(raw_tables())
def test_random_raw_tables_match_the_dict_layout(table):
    assert_matches_dict_layout(*table)


@pytest.mark.parametrize("passed", [True, False])
def test_random_tables_include_valid_and_invalid(passed):
    # The comparison above is only meaningful if both kinds are drawn.
    find(
        raw_tables(),
        lambda table: validate_axioms(FiniteGpea(*table)).passed == passed,
        settings=settings(database=None),
    )
