"""Named instances, the table format, enumeration, and window spot-checks."""

from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path
from typing import Iterator

import pytest

from gpea import (
    BudgetExceededError,
    FiniteGpea,
    MalformedTableError,
    ParseError,
    boolean,
    builtin,
    chain,
    count_gpeas_naive,
    fig1,
    find_morphisms,
    is_isomorphism,
    parse,
    product,
    serialize,
    twisted_window,
    validate_axioms,
)
from gpea import catalog, core
from gpea.catalog import _neutral_op, enumerate_gpeas


# ------------------------------------------------------------ named instances


def test_chain_tables():
    for n in range(5):
        g = chain(n)
        assert g.size == n + 1
        for i in g.elements:
            for j in g.elements:
                expected = i + j if i + j <= n else None
                assert g.value(i, j) == expected


def test_fig1_table():
    f = fig1()
    extra = {(1, 3): 4, (3, 1): 4, (2, 3): 5, (3, 2): 5}
    for (i, j), k in extra.items():
        assert f.value(i, j) == k
    assert len(f.sums) == 2 * 6 - 1 + len(extra)
    assert [f.name(i) for i in f.elements] == ["0", "a", "b", "c", "a+c", "b+c"]


def test_product_is_componentwise():
    g = product(chain(1), chain(2))
    assert g.size == 6
    # index = x * 3 + y for (x, y); (0,1) + (1,1) = (1,2).
    assert g.value(1, 4) == 5
    # Undefined when either component sum is undefined.
    assert g.value(2, 4) is None  # second components 2 + 1 overflow


def test_boolean_is_iterated_product():
    b = boolean(2)
    assert b.size == 4
    assert b.value(1, 2) == 3 and b.value(2, 1) == 3
    assert b.value(1, 1) is None
    assert boolean(3).same_table(
        product(product(chain(1), chain(1)), chain(1))
    )


def quadruple_loop_product(g: FiniteGpea, h: FiniteGpea) -> FiniteGpea:
    """The product kernel that read every quadruple through ``value()``,
    kept verbatim as the reference for the sum-pair kernel."""
    g.require_validated()
    h.require_validated()
    size = g.size * h.size
    core.require_within_budget(size)
    op: dict[tuple[int, int], int] = {}
    for x1 in g.elements:
        for y1 in h.elements:
            for x2 in g.elements:
                for y2 in h.elements:
                    vx = g.value(x1, x2)
                    if vx is None:
                        continue
                    vy = h.value(y1, y2)
                    if vy is None:
                        continue
                    op[(x1 * h.size + y1, x2 * h.size + y2)] = vx * h.size + vy
    names = [
        f"({g.name(x)},{h.name(y)})" for x in g.elements for y in h.elements
    ]
    return FiniteGpea(size, op, names).validate()


def assert_same_algebra(got: FiniteGpea, want: FiniteGpea) -> None:
    assert got.table == want.table
    assert [got.name(i) for i in got.elements] == [want.name(i) for i in want.elements]


def test_product_matches_the_quadruple_loop_on_every_small_pair(enumerated_by_size):
    pool = [g for n in (1, 2, 3, 4) for g in enumerated_by_size[n]] + [fig1()]
    for g, h in itertools.product(pool, repeat=2):
        assert_same_algebra(product(g, h), quadruple_loop_product(g, h))


# Every product and cube the benchmark's query pool loads.
POOL_PRODUCTS = (
    *(f"boolean({k})" for k in range(1, 6)),
    "product(chain(1),chain(2))",
    "product(chain(2),chain(2))",
    "product(chain(3),chain(3))",
    "product(fig1,chain(1))",
    "product(chain(1),product(chain(1),chain(2)))",
    "product(chain(2),product(chain(2),chain(2)))",
)


@pytest.mark.parametrize("expr", POOL_PRODUCTS)
def test_product_matches_the_quadruple_loop_on_pool_expressions(expr, monkeypatch):
    got = builtin(expr)
    monkeypatch.setattr(catalog, "product", quadruple_loop_product)
    assert_same_algebra(got, builtin(expr))


def test_builtin_expressions():
    assert builtin("fig1").same_table(fig1())
    assert builtin("chain(3)").same_table(chain(3))
    assert builtin(" product( chain(1), chain(2) ) ").same_table(
        product(chain(1), chain(2))
    )
    assert builtin("product(boolean(2),chain(1))").same_table(
        product(boolean(2), chain(1))
    )


@pytest.mark.parametrize(
    "text",
    [
        "spiral(3)",
        "chain",
        "chain()",
        "chain(2",
        "product(chain(1))",
        "chain(1)x",
        "chain(²)",
        "chain(-)",
        "chain(1-2)",
    ],
)
def test_builtin_rejects_malformed_expressions(text):
    with pytest.raises(MalformedTableError):
        builtin(text)


def test_builtin_quotes_the_trailing_input_of_a_spaced_expression():
    with pytest.raises(MalformedTableError, match=r"after builtin: 'junk'$"):
        builtin("product( chain(1), chain(2) )junk")


# --------------------------------------------------------------- table format


def test_serialize_parse_roundtrip(small_pool):
    for label, g in small_pool:
        text = serialize(g)
        back = parse(text).validate()
        assert back.same_table(g), label
        assert [back.name(i) for i in back.elements] == [
            g.name(i) for i in g.elements
        ], label


def test_serialize_omits_neutral_entries_and_default_names():
    text = serialize(chain(2))
    assert text.splitlines() == ["gpea 1", "n 3", "op 1 1 2"]


def test_serialize_rejects_unprintable_names():
    g = fig1().relabel((0, 1, 2, 3, 4, 5))
    op = {(a, b): s for a, b, s in g.sums}
    g = type(g)(g.size, op, ["0", "a b", "b", "c", "d", "e"]).validate()
    with pytest.raises(MalformedTableError):
        serialize(g)


def test_parse_accepts_comments_and_blank_lines():
    text = "gpea 1  # header\n\nn 3\n# a chain\nop 1 1 2  # the only sum\n"
    assert parse(text).validate().same_table(chain(2))


def test_parse_reports_one_based_line_numbers():
    cases = [
        ("gpea 2\nn 1\n", "line 1"),
        ("gpea 1\nn 0\n", "line 2"),
        ("gpea 1\nn 2\nop 1 1 9\n", "line 3"),
        ("gpea 1\nname 0 zero\n", "line 2"),
        ("gpea 1\nn 2\nn 2\n", "line 3"),
        ("gpea 1\nn 2\nop 1 1 0\nop 1 1 1\n", "line 4"),
        ("gpea 1\nn 2\nop 0 1 0\n", "line 3"),  # contradicts neutrality
        ("gpea 1\nn 2\nfrob 1\n", "line 3"),
        ("gpea 1\n", "line 1"),  # no 'n' directive at all
        # Digits that str.isdigit accepts but int() rejects.
        ("gpea 1\nn ²\n", "line 2"),
        ("gpea 1\nn 2\nname ¹ x\n", "line 3"),
        ("gpea 1\nn 3\nop 1 ¹ 2\n", "line 3"),
    ]
    for text, fragment in cases:
        with pytest.raises(ParseError, match=fragment):
            parse(text)


def test_parse_allows_consistent_duplicate_entries():
    assert parse("gpea 1\nn 3\nop 1 1 2\nop 1 1 2\n").validate().same_table(
        chain(2)
    )


# ---------------------------------------------------------------- enumeration


def test_enumeration_counts_up_to_isomorphism(enumerated_by_size):
    assert {n: len(gs) for n, gs in enumerated_by_size.items()} == {
        1: 1,
        2: 1,
        3: 2,
        4: 5,
    }


def test_enumeration_count_at_size_five():
    assert len(enumerate_gpeas(5)) == 13


def test_enumerated_tables_are_valid_and_pairwise_nonisomorphic(
    enumerated_by_size,
):
    from gpea import find_morphisms

    for n, algebras in enumerated_by_size.items():
        for g in algebras:
            g.require_validated()
            assert g.size == n
        for i, g in enumerate(algebras):
            for h in algebras[i + 1 :]:
                assert not find_morphisms(g, h)


def test_enumeration_matches_naive_count_on_small_sizes(enumerated_by_size):
    for n in (1, 2, 3):
        assert count_gpeas_naive(n) == len(enumerated_by_size[n])


# The enumerator's search before it cut relabelled copies, kept verbatim
# as the oracle for the lex-leader cut: it yields every labelled table.
def conjugation_search_tables(n: int) -> Iterator[FiniteGpea]:
    """Depth-first search over the nonzero cells, pruned by four axioms.

    The table is one flat list, ``table[i * n + j]`` holding ``i + j``,
    ``n`` (the ``table_key`` sentinel) for undefined and ``-1`` for a
    cell not decided yet; the neutral row and column of 0 are filled
    first.  Beside it, four lists of bitmasks follow the decisions: the
    values present in each row and in each column (counting the neutral
    entries), and the undecided cells of each row and of each column.
    Cells are decided in row-major order, each first as undefined and
    then as every value the prunes allow:

    * positivity — a nonzero cell never takes the value 0;
    * cancellation — a value already in the cell's row or column is
      skipped;
    * conjugation — ``a + b`` must equal some ``c + a`` and some
      ``b + d``, so row ``x`` and column ``x`` hold the same set of
      defined values.  After each decision, a value in row ``x`` but not
      in column ``x`` can still reach column ``x`` only through an
      undecided cell ``(c, x)`` whose row ``c`` does not hold it yet,
      since cancellation bars it from row ``c`` twice; the branch is cut
      when no such cell is left, and likewise from column ``x`` to an
      undecided cell ``(x, d)`` of row ``x`` whose column lacks it;
    * strong associativity — after each decision, every triple of
      nonzero elements that uses the decided cell as ``a+b``,
      ``(a+b)+c``, ``b+c`` or ``a+(b+c)`` and whose two sides are both
      decided must have both sides undefined, or both defined and
      equal; otherwise the branch is cut.

    The prunes are sound: each rejects a partial table only for a
    violation that the completions cannot repair, since a completion
    never changes a decided cell and only fills undecided ones, so no
    completion of a rejected table is a GPEA.  Triples containing 0 hold
    in every table, because 0 is neutral.  At a complete table (a leaf)
    no cell is undecided, so every row holds exactly its column's values
    and the leaf is conjugate; each leaf is still checked by
    ``validate_axioms``, so the output does not depend on the prunes
    catching everything they could.
    """
    undef = n
    table = [-1] * (n * n)
    for i in range(n):
        table[i] = table[i * n] = i
    nonzero = range(1, n)
    cells = [(i, j) for i in nonzero for j in nonzero]
    everything = (1 << n) - 1
    row_values = [everything] + [1 << x for x in nonzero]
    column_values = row_values[:]
    row_open = [0] + [everything - 1] * (n - 1)
    column_open = row_open[:]
    choices = [(undef, 0)] + [(v, 1 << v) for v in nonzero]

    def conjugable() -> bool:
        """Each value on one side of ``x`` can still reach the other side."""
        for x in nonzero:
            need = row_values[x] & ~column_values[x]
            if need:
                open_rows = column_open[x]
                for c in nonzero:
                    if open_rows >> c & 1:
                        need &= row_values[c]
                if need:
                    return False
            need = column_values[x] & ~row_values[x]
            if need:
                open_columns = row_open[x]
                for d in nonzero:
                    if open_columns >> d & 1:
                        need &= column_values[d]
                if need:
                    return False
        return True

    def agrees(a: int, b: int, c: int) -> bool:
        """``(a+b)+c`` and ``a+(b+c)`` are not both decided and different."""
        s = table[a * n + b]
        if s < 0:
            return True
        left = s if s == undef else table[s * n + c]
        t = table[b * n + c]
        if t < 0:
            return True
        right = t if t == undef else table[a * n + t]
        return left < 0 or right < 0 or left == right

    def associative_at(x: int, y: int) -> bool:
        """No decided triple through the cell ``x + y`` breaks associativity."""
        for c in nonzero:  # the cell is a+b, or b+c
            if not (agrees(x, y, c) and agrees(c, x, y)):
                return False
        for a in nonzero:  # the cell is (a+b)+c, or a+(b+c)
            # Cancellation keeps each value at most once per row, so
            # index() finds the only b with a + b == x (or == y).
            held = row_values[a]
            start = a * n
            if held >> x & 1 and not agrees(a, table.index(x, start) - start, y):
                return False
            if held >> y & 1 and not agrees(x, a, table.index(y, start) - start):
                return False
        return True

    def rec(k: int) -> Iterator[FiniteGpea]:
        if k == len(cells):
            op = {divmod(cell, n): v for cell, v in enumerate(table) if v != undef}
            g = FiniteGpea(n, op)
            if g._axiom_report.passed:
                yield g
            return
        i, j = cells[k]
        cell = i * n + j
        row_open[i] ^= 1 << j
        column_open[j] ^= 1 << i
        used = row_values[i] | column_values[j]
        for v, bit in choices:
            if used & bit:
                continue
            table[cell] = v
            row_values[i] |= bit
            column_values[j] |= bit
            if conjugable() and associative_at(i, j):
                yield from rec(k + 1)
            row_values[i] ^= bit
            column_values[j] ^= bit
        table[cell] = -1
        row_open[i] ^= 1 << j
        column_open[j] ^= 1 << i

    return rec(0)


@functools.cache
def labelled_tables(n: int) -> tuple[FiniteGpea, ...]:
    """Every labelled GPEA table on ``{0..n-1}``, validated, from the oracle."""
    return tuple(g.validate() for g in conjugation_search_tables(n))


def prune_only_search_tables(n: int) -> Iterator[FiniteGpea]:
    """Depth-first search over nonzero cells with local pruning.

    Prunes by positivity (no sum of nonzero elements is 0) and both
    cancellation laws (no repeated value in a row or column, counting
    the neutral entries); full axiom validation runs on each leaf.
    """
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    op = _neutral_op(n)
    row_used = [{i} for i in range(n)]
    col_used = [{j} for j in range(n)]

    def rec(k: int) -> Iterator[FiniteGpea]:
        if k == len(cells):
            g = FiniteGpea(n, dict(op))
            if validate_axioms(g).passed:
                yield g
            return
        i, j = cells[k]
        yield from rec(k + 1)
        for v in range(1, n):
            if v in row_used[i] or v in col_used[j]:
                continue
            op[(i, j)] = v
            row_used[i].add(v)
            col_used[j].add(v)
            yield from rec(k + 1)
            del op[(i, j)]
            row_used[i].remove(v)
            col_used[j].remove(v)

    return rec(0)


@pytest.mark.parametrize("n, count", [(1, 1), (2, 1), (3, 3), (4, 19)])
def test_search_keeps_every_valid_table_of_the_prune_only_search(n, count):
    # The oracle above is the enumerator's search before it propagated
    # associativity; it and the conjugation-propagating oracle must
    # yield the same labelled tables.
    expected = {g.table_key() for g in prune_only_search_tables(n)}
    found = [g.table_key() for g in labelled_tables(n)]
    assert len(expected) == count
    assert len(found) == len(set(found))
    assert set(found) == expected


# The enumerator's search before it propagated conjugation, kept verbatim
# as the oracle for the conjugation prune.
def associativity_only_search_tables(n: int) -> Iterator[FiniteGpea]:
    """Depth-first search over the nonzero cells, pruned by three axioms.

    The table is one flat list, ``table[i * n + j]`` holding ``i + j``,
    ``n`` (the ``table_key`` sentinel) for undefined and ``-1`` for a
    cell not decided yet; the neutral row and column of 0 are filled
    first.  Cells are decided in row-major order, each first as
    undefined and then as every value the prunes allow:

    * positivity — a nonzero cell never takes the value 0;
    * cancellation — a value already in the cell's row or column
      (counting the neutral entries) is skipped;
    * strong associativity — after each decision, every triple of
      nonzero elements that uses the decided cell as ``a+b``,
      ``(a+b)+c``, ``b+c`` or ``a+(b+c)`` and whose two sides are both
      decided must have both sides undefined, or both defined and
      equal; otherwise the branch is cut.

    The prunes are sound: each rejects a partial table only for a
    violation among cells already decided, and a completion never
    changes a decided cell, so no completion of a rejected table is a
    GPEA.  Triples containing 0 hold in every table, because 0 is
    neutral.  Conjugation is not propagated, and each complete table
    (a leaf) is still checked by ``validate_axioms``, so the output
    does not depend on the prunes catching everything they could.
    """
    undef = n
    table = [-1] * (n * n)
    for i in range(n):
        table[i] = table[i * n] = i
    nonzero = range(1, n)
    cells = [(i, j) for i in nonzero for j in nonzero]

    def agrees(a: int, b: int, c: int) -> bool:
        """``(a+b)+c`` and ``a+(b+c)`` are not both decided and different."""
        s = table[a * n + b]
        if s < 0:
            return True
        left = s if s == undef else table[s * n + c]
        t = table[b * n + c]
        if t < 0:
            return True
        right = t if t == undef else table[a * n + t]
        return left < 0 or right < 0 or left == right

    def associative_at(x: int, y: int) -> bool:
        """No decided triple through the cell ``x + y`` breaks associativity."""
        for c in nonzero:  # the cell is a+b, or b+c
            if not (agrees(x, y, c) and agrees(c, x, y)):
                return False
        for a in nonzero:  # the cell is (a+b)+c, or a+(b+c)
            # Cancellation keeps each value at most once per row, so
            # index() finds the only b with a + b == x (or == y).
            row = table[a * n : a * n + n]
            if x in row and not agrees(a, row.index(x), y):
                return False
            if y in row and not agrees(x, a, row.index(y)):
                return False
        return True

    def rec(k: int) -> Iterator[FiniteGpea]:
        if k == len(cells):
            op = {divmod(cell, n): v for cell, v in enumerate(table) if v != undef}
            g = FiniteGpea(n, op)
            if g._axiom_report.passed:
                yield g
            return
        i, j = cells[k]
        cell = i * n + j
        row = table[i * n : i * n + n]
        column = table[j::n]
        for v in (undef, *nonzero):
            if v != undef and (v in row or v in column):
                continue
            table[cell] = v
            if associative_at(i, j):
                yield from rec(k + 1)
        table[cell] = -1

    return rec(0)


@pytest.mark.parametrize(
    "n, count, classes",
    [(1, 1, 1), (2, 1, 1), (3, 3, 2), (4, 19, 5), (5, 181, 13), (6, 2961, 42)],
)
def test_search_keeps_every_table_of_the_associativity_only_search(
    n, count, classes
):
    # The two oracles yield the same labelled tables.  Orbit counting: a
    # class g has (n-1)! / |Aut(g)| labellings fixing 0.
    expected = {g.table_key() for g in associativity_only_search_tables(n)}
    keys = [g.table_key() for g in labelled_tables(n)]
    assert len(keys) == len(set(keys)) == count
    assert set(keys) == expected
    minima = catalog._class_minima(labelled_tables(n))
    assert len(minima) == classes
    assert count == sum(
        math.factorial(n - 1) // len(find_morphisms(g, g)) for g in minima
    )


@pytest.mark.parametrize(
    "n, count, classes",
    [(1, 1, 1), (2, 1, 1), (3, 2, 2), (4, 5, 5), (5, 15, 13), (6, 55, 42)],
)
def test_lex_leader_cut_keeps_every_class_minimum(n, count, classes, monkeypatch):
    # The cut drops only relabelled copies: the search yields some of the
    # oracle's labelled tables, validates one leaf per table it yields,
    # and keeps every class's smallest table, so the class minima are
    # the oracle's.
    labelled = {g.table_key() for g in labelled_tables(n)}
    minima = [g.table_key() for g in catalog._class_minima(labelled_tables(n))]
    leaves = []

    def counting_validate(g):
        leaves.append(g)
        return validate_axioms(g)

    monkeypatch.setattr(core, "validate_axioms", counting_validate)
    tables = list(catalog._search_tables(n))
    keys = [g.table_key() for g in tables]
    assert len(leaves) == len(keys) == len(set(keys)) == count
    assert set(keys) <= labelled
    assert set(minima) <= set(keys)
    assert [g.table_key() for g in catalog._class_minima(tables)] == minima
    assert len(minima) == classes


# The enumerator's former canonical form, kept as the oracle: the
# smallest table key over all (n-1)! relabellings fixing 0.
def _canonical_key(g: FiniteGpea) -> tuple[int, ...]:
    best = None
    for perm_rest in itertools.permutations(range(1, g.size)):
        perm = (0,) + perm_rest
        key = g.relabel(perm).table_key()
        if best is None or key < best:
            best = key
    return best


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_representatives_are_the_brute_force_class_minima(n):
    # Each labelled table's class minimum is a representative, and each
    # representative is the minimum of its own class.
    classes = enumerate_gpeas(n)
    keys = [g.table_key() for g in classes]
    assert all(_canonical_key(g) == g.table_key() for g in classes)
    assert {_canonical_key(g) for g in catalog._search_tables(n)} == set(keys)
    assert len(keys) == len(set(keys))


def test_search_at_size_five_counts_every_labelling_once():
    # Orbit counting: a class g has 4! / |Aut(g)| labellings fixing 0.
    classes = enumerate_gpeas(5)
    tables = labelled_tables(5)
    keys = {g.table_key() for g in tables}
    labellings = sum(
        math.factorial(4) // len(find_morphisms(g, g)) for g in classes
    )
    assert labellings == len(tables) == len(keys) == 181
    assert {_canonical_key(g) for g in tables} == {
        g.table_key() for g in classes
    }


def test_find_morphisms_matches_brute_force_on_labelled_tables():
    # Every ordered pair of labelled tables of sizes 1..4, and each size-5
    # representative with each of the 181 labelled size-5 tables (its
    # relabellings and the other classes'), both ways, against every
    # permutation fixing 0 checked by is_isomorphism.
    tables = [g for n in (1, 2, 3, 4) for g in labelled_tables(n)]
    labelled_five = labelled_tables(5)
    pairs = [(g, h) for g in tables for h in tables]
    for g in enumerate_gpeas(5):
        pairs += [(g, h) for h in labelled_five] + [(h, g) for h in labelled_five]
    verdicts = set()
    sum_counts_differ = 0
    for g, h in pairs:
        expected = [
            (0, *rest)
            for rest in itertools.permutations(range(1, g.size))
            if is_isomorphism(g, h, (0, *rest))
        ]
        assert find_morphisms(g, h) == expected, (g.table_key(), h.table_key())
        verdicts.add(bool(expected))
        sum_counts_differ += g.size == h.size and len(g.sums) != len(h.sums)
    assert len(tables) == 24 and len(labelled_five) == 181
    assert verdicts == {True, False}
    assert sum_counts_differ > 0


def test_search_validates_only_associative_leaves(monkeypatch):
    # The prune-only search validated 453,320 complete tables at size
    # five; propagating associativity left 337 for validate_axioms,
    # propagating conjugation left the 181 labelled tables, and the
    # lex-leader cut leaves 15 of them.
    leaves = []

    def counting_validate(g):
        leaves.append(g)
        return validate_axioms(g)

    monkeypatch.setattr(core, "validate_axioms", counting_validate)
    assert len(list(catalog._search_tables(5))) == 15
    assert len(leaves) == 15


def test_enumeration_validates_each_leaf_once(monkeypatch):
    # The search's check is the leaf's one axiom report, which the class
    # minima's validate() reads instead of running validate_axioms again.
    checked = []

    def counting_validate(g):
        checked.append(g)
        return validate_axioms(g)

    monkeypatch.setattr(core, "validate_axioms", counting_validate)
    classes = enumerate_gpeas(5)
    assert len(checked) == len({id(g) for g in checked}) == 15
    golden = Path(__file__).parent / "golden" / "enumerate-size-5.txt"
    assert "".join(serialize(g) + "\n" for g in classes) + "RESULT count=13\n" == (
        golden.read_text(encoding="utf-8")
    )


def test_enumeration_limit_is_refused_before_any_search(monkeypatch):
    def search(n):
        raise AssertionError(f"searched size {n}")

    monkeypatch.setattr(catalog, "_search_tables", search)
    with pytest.raises(BudgetExceededError, match="at most"):
        enumerate_gpeas(catalog.ENUMERATION_LIMIT + 1)


def test_enumeration_is_deterministic():
    first = [g.table_key() for g in enumerate_gpeas(3)]
    second = [g.table_key() for g in enumerate_gpeas(3)]
    assert first == second


def test_known_size_three_classes(enumerated_by_size):
    three = enumerated_by_size[3]
    assert three[0].same_table(chain(2))
    # The other class has no sums beyond the neutral ones.
    assert all(0 in (a, b) for a, b, _ in three[1].sums)


def test_known_size_four_structure_flags(enumerated_by_size):
    flags = [
        (g.flags.has_unit, g.flags.upward_directed)
        for g in enumerated_by_size[4]
    ]
    assert flags == [
        (True, True),  # the four-chain
        (True, True),  # two atoms squaring to the top
        (False, False),  # three-chain plus an isolated atom
        (True, True),  # the 2x2 Boolean table
        (False, False),  # the four-element antichain
    ]
    assert enumerated_by_size[4][0].same_table(chain(3))


# --------------------------------------------------------------- spot windows


@pytest.mark.parametrize("bound", [1, 2, 3, 4])
@pytest.mark.parametrize("twisted", [True, False])
def test_window_formulas_hold(bound, twisted):
    w = twisted_window(bound, twisted=twisted)
    assert w.passed
    assert w.violations == ()
    assert w.state_violations == ()
    assert w.not_axiom_verified is True
    assert w.bound == bound and w.twisted is twisted


def test_window_shape_at_bound_one():
    w = twisted_window(1)
    assert len(w.elements) == 8
    assert len(w.op) == 27
    zero = (0, 0, 0)
    assert all(w.op[(zero, e)] == e and w.op[(e, zero)] == e for e in w.elements)
