"""Built-in algebras, a text file format, infinite-example windows, enumeration.

The built-ins cover the standing examples: truncated chains, their
products, Boolean cubes, and the six-element commutative algebra whose
unit extension breaks the refinement property.

The file format ``gpea 1`` is line-oriented UTF-8: a ``gpea 1`` header,
``n <count>``, optional ``name <index> <token>`` lines, and ``op <i>
<j> <k>`` lines meaning ``i + j = k``.  ``#`` starts a comment,
unlisted pairs are undefined, and rows and columns of element 0 may be
omitted — they are implied by neutrality and added back by the parser,
which rejects any explicit entry contradicting them.

Two infinite examples are spot-checked through finite windows: the
integer triples under a parity-twisted addition, and the same carrier
under plain addition.  A window's operation is defined only when both
operands and the result stay inside the window, which deliberately
breaks closure — windows are therefore never validated and never enter
operations that require a validated algebra.

The enumerator produces every algebra on a small carrier up to
isomorphism, one representative per class: the lexicographically
smallest table over relabelings fixing 0.  A depth-first search decides
the table cell by cell and cuts a branch as soon as the decided cells
break positivity, cancellation or strong associativity, or leave a value
in row ``x`` that column ``x`` can no longer take, or the reverse, which
conjugation forbids (in the style of the SEM and Mace4 model finders),
or when swapping two nonzero labels would make the decided cells
smaller (a lex-leader cut); every complete table left is a GPEA, and
each is still validated in full, visited in key order and kept unless
``find_morphisms`` maps a kept table onto it.  A deliberately naive
second method double checks the counts at tiny sizes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator

from .core import (
    BudgetExceededError,
    FiniteGpea,
    MalformedTableError,
    find_morphisms,
    require_within_budget,
)

__all__ = [
    "ParseError",
    "WindowSpotCheck",
    "builtin",
    "fig1",
    "chain",
    "product",
    "boolean",
    "twisted_window",
    "enumerate_gpeas",
    "count_gpeas_naive",
    "parse",
    "serialize",
]


class ParseError(MalformedTableError):
    """A file failed to parse; carries a line number in the message."""


# ------------------------------------------------------------------ builtins


def chain(n: int) -> FiniteGpea:
    """Truncated-addition chain on ``{0..n}``: ``i + j`` defined iff ``<= n``.

    Element ``i`` is the integer ``i``.
    """
    if n < 0:
        raise MalformedTableError("chain length must be nonnegative")
    require_within_budget(n + 1)
    op = {
        (i, j): i + j
        for i in range(n + 1)
        for j in range(n + 1)
        if i + j <= n
    }
    return FiniteGpea(n + 1, op).validate()


def fig1() -> FiniteGpea:
    """The six-element commutative algebra 0, a, b, c, a+c, b+c.

    Elements are numbered 0..5 in that order; the only nonzero sums are
    ``a + c = c + a`` and ``b + c = c + b``.  Its operation is not
    total, the order is not upward directed (a and b have no common
    upper bound), yet it satisfies the refinement property — while its
    unit extension does not.
    """
    op = {(0, i): i for i in range(6)}
    op.update({(i, 0): i for i in range(6)})
    op.update({(1, 3): 4, (3, 1): 4, (2, 3): 5, (3, 2): 5})
    return FiniteGpea(6, op, ["0", "a", "b", "c", "a+c", "b+c"]).validate()


def product(g: FiniteGpea, h: FiniteGpea) -> FiniteGpea:
    """Direct product with the coordinatewise partial operation.

    Element ``(x, y)`` gets index ``x * h.size + y`` (first factor
    major); names combine the factor names as ``(x,y)``.  The table is
    filled from the factors' defined sums: each ``x1 + x2 = vx`` of ``g``
    and ``y1 + y2 = vy`` of ``h`` give ``(x1, y1) + (x2, y2) = (vx, vy)``,
    one entry per pair of sums, and every other pair stays undefined.
    """
    g.require_validated()
    h.require_validated()
    m = h.size
    size = g.size * m
    require_within_budget(size)
    op = {
        (x1 * m + y1, x2 * m + y2): vx * m + vy
        for x1, x2, vx in g.sums
        for y1, y2, vy in h.sums
    }
    names = [
        f"({g.name(x)},{h.name(y)})" for x in g.elements for y in h.elements
    ]
    return FiniteGpea(size, op, names).validate()


def boolean(k: int) -> FiniteGpea:
    """The Boolean cube with ``2^k`` elements: the k-fold product of chain(1)."""
    if k < 1:
        raise MalformedTableError("boolean cube needs at least one factor")
    factor = out = chain(1)
    for _ in range(k - 1):
        out = product(out, factor)
    return out


def builtin(text: str) -> FiniteGpea:
    """Resolve a builtin expression: ``fig1``, ``chain(n)``, ``boolean(k)``,
    or ``product(expr,expr)`` with arbitrary nesting."""
    expr = text.strip().replace(" ", "")

    def parse_expr(s: str, pos: int) -> tuple[FiniteGpea, int]:
        for name in ("fig1", "chain", "boolean", "product"):
            if s.startswith(name, pos):
                pos += len(name)
                break
        else:
            raise MalformedTableError(f"unknown builtin near {s[pos:pos + 12]!r}")
        if name == "fig1":
            return fig1(), pos
        if pos >= len(s) or s[pos] != "(":
            raise MalformedTableError(f"{name} requires parenthesized arguments")
        pos += 1
        if name in ("chain", "boolean"):
            end = pos
            while end < len(s) and (s[end].isdigit() or s[end] == "-"):
                end += 1
            if end == pos:
                raise MalformedTableError(f"{name} requires an integer argument")
            try:
                value = int(s[pos:end])
            except ValueError:
                raise MalformedTableError(f"{name} requires an integer argument") from None
            if end >= len(s) or s[end] != ")":
                raise MalformedTableError(f"unclosed argument list for {name}")
            return (chain(value) if name == "chain" else boolean(value)), end + 1
        left, pos = parse_expr(s, pos)
        if pos >= len(s) or s[pos] != ",":
            raise MalformedTableError("product requires two comma-separated arguments")
        right, pos = parse_expr(s, pos + 1)
        if pos >= len(s) or s[pos] != ")":
            raise MalformedTableError("unclosed argument list for product")
        return product(left, right), pos + 1

    algebra, pos = parse_expr(expr, 0)
    if pos != len(expr):
        raise MalformedTableError(f"trailing input after builtin: {expr[pos:]!r}")
    return algebra


# ------------------------------------------------------ infinite-example windows

Triple = tuple[int, int, int]


@dataclass(frozen=True)
class WindowSpotCheck:
    """A finite window into an infinite interval algebra.

    ``elements`` are triples ``(0, a, b)`` with ``0 <= a, b <= bound``
    and ``(1, c, d)`` with ``-bound <= c, d <= 0``; ``op`` holds the
    sums whose operands *and* result lie in the window.  Closure is
    intentionally broken, so ``not_axiom_verified`` is always true and
    a window must never be fed to operations expecting a validated
    algebra.  ``violations`` lists every in-window element whose
    computed supplements or double-supplement disagree with the closed
    formulas; ``state_violations`` lists in-window sums not respected
    by the first-coordinate valuation.
    """

    bound: int
    twisted: bool
    elements: tuple[Triple, ...]
    op: dict[tuple[Triple, Triple], Triple]
    violations: tuple[str, ...]
    state_violations: tuple[str, ...]
    not_axiom_verified: bool = True

    @property
    def passed(self) -> bool:
        return not self.violations and not self.state_violations


def twisted_window(n: int, twisted: bool = True) -> WindowSpotCheck:
    """Window of the integer-triples interval algebra, twisted or plain.

    The ambient group composes ``(a,b,c) + (x,y,z)`` to
    ``(a+x, b+y, c+z)``, except that the twisted variant swaps the last
    two coordinates of the first operand when ``x`` is odd.  The
    algebra is the interval from ``(0,0,0)`` to ``(1,0,0)``.  The spot
    check verifies, wherever every participant lies in the window:

    * right supplement of ``(0,b,c)`` is ``(1,-c,-b)`` twisted,
      ``(1,-b,-c)`` plain;
    * left supplement of ``(0,b,c)`` is ``(1,-b,-c)`` in both variants;
    * the double left supplement sends ``(0,a,b)`` to ``(0,b,a)``
      twisted and fixes it plain;
    * the first coordinate is additive over every defined sum.
    """
    if n < 1:
        raise MalformedTableError("window bound must be at least 1")
    base = [(0, a, b) for a in range(n + 1) for b in range(n + 1)]
    mirror = [(1, c, d) for c in range(-n, 1) for d in range(-n, 1)]
    elements = tuple(base + mirror)
    member = set(elements)
    unit = (1, 0, 0)

    def group_add(p: Triple, q: Triple) -> Triple:
        a, b, c = p
        x, y, z = q
        if twisted and x % 2:
            return (a + x, c + y, b + z)
        return (a + x, b + y, c + z)

    def interval_le(p: Triple, q: Triple) -> bool:
        return p[0] < q[0] or (p[0] == q[0] and p[1] <= q[1] and p[2] <= q[2])

    op: dict[tuple[Triple, Triple], Triple] = {}
    for p in elements:
        for q in elements:
            s = group_add(p, q)
            if s in member and interval_le(s, unit):
                op[(p, q)] = s

    def right_partners(p: Triple) -> list[Triple]:
        return [q for q in elements if op.get((p, q)) == unit]

    def left_partners(p: Triple) -> list[Triple]:
        return [q for q in elements if op.get((q, p)) == unit]

    violations: list[str] = []
    for a in range(n + 1):
        for b in range(n + 1):
            p = (0, a, b)
            expect_right = (1, -b, -a) if twisted else (1, -a, -b)
            expect_left = (1, -a, -b)
            if right_partners(p) != [expect_right]:
                violations.append(
                    f"right supplement of {p}: {right_partners(p)} != {expect_right}"
                )
            if left_partners(p) != [expect_left]:
                violations.append(
                    f"left supplement of {p}: {left_partners(p)} != {expect_left}"
                )
            lefts = left_partners(p)
            if len(lefts) == 1:
                second = left_partners(lefts[0])
                expect_double = (0, b, a) if twisted else p
                if second != [expect_double]:
                    violations.append(
                        f"double left supplement of {p}: {second} != {expect_double}"
                    )

    state_violations = [
        f"valuation not additive at {p} + {q} = {s}"
        for (p, q), s in op.items()
        if p[0] + q[0] != s[0]
    ]
    return WindowSpotCheck(
        bound=n,
        twisted=twisted,
        elements=elements,
        op=op,
        violations=tuple(violations),
        state_violations=tuple(state_violations),
    )


# ------------------------------------------------------------------ enumeration

ENUMERATION_LIMIT = 7


def _neutral_op(n: int) -> dict[tuple[int, int], int]:
    op = {(0, i): i for i in range(n)}
    op.update({(i, 0): i for i in range(n)})
    return op


def _search_tables(n: int) -> Iterator[FiniteGpea]:
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

    Relabelled copies are cut by a lex-leader check (Crawford, Ginsberg,
    Luks & Roy, KR 1996): after each decision, for every transposition
    ``σ = (x y)`` of nonzero elements, the relabelled table ``σT``, whose
    cell ``(i, j)`` holds ``σ(T[σi, σj])`` (``σ`` fixes the sentinel),
    is compared with ``T`` cell by cell in row-major order.  The
    comparison stops at the first cell that either side leaves
    undecided, or at the first cell where the two differ; the branch is
    cut when that cell is smaller in ``σT``.  Cells of row and column 0
    are equal on both sides, so only the nonzero cells are compared.
    The cut never reaches a class's smallest table, the one
    ``_class_minima`` keeps: on the way to it every decided cell is
    final, so a strict decrease would make the complete relabelled table
    ``σT`` smaller than the smallest table of its own class.
    Relabellings that are not transpositions go unchecked, so a class
    may still yield several tables; ``_class_minima`` keeps one.
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
    swaps = []
    for x, y in itertools.combinations(nonzero, 2):
        sigma = list(range(n + 1))
        sigma[x], sigma[y] = y, x
        pairs = [(i * n + j, sigma[i] * n + sigma[j]) for i, j in cells]
        swaps.append((sigma, pairs))

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

    def lex_leader() -> bool:
        """No transposition makes the decided prefix smaller."""
        for sigma, pairs in swaps:
            for cell, image in pairs:
                here = table[cell]
                there = table[image]
                if here < 0 or there < 0:
                    break
                there = sigma[there]
                if there != here:
                    if there < here:
                        return False
                    break
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
            if conjugable() and associative_at(i, j) and lex_leader():
                yield from rec(k + 1)
            row_values[i] ^= bit
            column_values[j] ^= bit
        table[cell] = -1
        row_open[i] ^= 1 << j
        column_open[j] ^= 1 << i

    return rec(0)


def _class_minima(tables: Iterable[FiniteGpea]) -> list[FiniteGpea]:
    """Validated in key order, each table kept unless isomorphic to a kept one."""
    kept: list[FiniteGpea] = []
    for g in sorted((g.validate() for g in tables), key=FiniteGpea.table_key):
        if not any(find_morphisms(h, g) for h in kept):
            kept.append(g)
    return kept


def enumerate_gpeas(
    size: int,
    total: bool | None = None,
    weakly_commutative: bool | None = None,
    has_unit: bool | None = None,
) -> list[FiniteGpea]:
    """All algebras on ``{0..size-1}`` up to isomorphism, canonical reps only.

    Each isomorphism class is represented by its lexicographically
    smallest valid table over relabelings fixing 0.  The search cuts
    every table that one transposition of nonzero labels makes smaller,
    which never cuts a class's smallest table; the tables left (15 at
    size 5, 55 at size 6, 296 at size 7) are each validated and visited
    in key order, and ``find_morphisms`` drops those isomorphic to a
    table kept before.  Optional keyword filters restrict by the
    structure flags.  Results are sorted by table key.
    """
    if size < 1:
        raise MalformedTableError("carrier must have at least the zero element")
    if size > ENUMERATION_LIMIT:
        raise BudgetExceededError(
            f"enumeration supports at most {ENUMERATION_LIMIT} elements"
        )
    return [
        g
        for g in _class_minima(_search_tables(size))
        if total in (None, g.flags.total)
        and weakly_commutative in (None, g.flags.weakly_commutative)
        and has_unit in (None, g.flags.has_unit)
    ]


def count_gpeas_naive(size: int) -> int:
    """Isomorphism-class count by raw table enumeration — the cross-check.

    Enumerates every assignment of the nonzero cells (undefined or any
    value) with no pruning at all, filters by the axiom checker, and
    counts the classes among the valid tables with ``find_morphisms``.
    Exponential, and refused above 4 elements: size 4 checks 5^9 (about
    1.95 million) raw tables, which took 134 s on a 2-core machine
    under Python 3.11; size 3 takes a few milliseconds.
    """
    if size < 1:
        raise MalformedTableError("carrier must have at least the zero element")
    if size > 4:
        raise BudgetExceededError("naive enumeration supports at most 4 elements")
    cells = [(i, j) for i in range(1, size) for j in range(1, size)]
    valid = []
    for values in itertools.product([None, *range(size)], repeat=len(cells)):
        op = _neutral_op(size)
        op.update(
            {cell: v for cell, v in zip(cells, values) if v is not None}
        )
        g = FiniteGpea(size, op)
        if g._axiom_report.passed:
            valid.append(g)
    return len(_class_minima(valid))


# ------------------------------------------------------------------ file format


def serialize(g: FiniteGpea) -> str:
    """Render a validated algebra in the ``gpea 1`` format.

    Emits the header, the carrier size, any names differing from the
    default decimal labels, and the nonzero operation entries sorted by
    operand pair; entries implied by neutrality are omitted.
    """
    g.require_validated()
    lines = ["gpea 1", f"n {g.size}"]
    for i in g.elements:
        name = g.name(i)
        if name != str(i):
            if any(ch.isspace() for ch in name) or "#" in name:
                raise MalformedTableError(
                    f"name {name!r} cannot be serialized (whitespace or '#')"
                )
            lines.append(f"name {i} {name}")
    for i, j, k in g.sums:
        if i != 0 and j != 0:
            lines.append(f"op {i} {j} {k}")
    return "\n".join(lines) + "\n"


def parse(text: str) -> FiniteGpea:
    """Parse the ``gpea 1`` format into an unvalidated algebra.

    Neutral entries are implied and added automatically; an explicit
    entry contradicting them is rejected here, while every other axiom
    violation is left for the validator.  Errors carry the 1-based line
    number.
    """
    size: int | None = None
    names: dict[int, str] = {}
    op: dict[tuple[int, int], int] = {}
    explicit: dict[tuple[int, int], int] = {}

    def fail(line_no: int, message: str) -> None:
        raise ParseError(f"line {line_no}: {message}")

    lines = text.splitlines()
    if not lines or lines[0].split("#", 1)[0].strip() != "gpea 1":
        fail(1, "missing or malformed 'gpea 1' header")
    for line_no, raw in enumerate(lines[1:], start=2):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        fields = line.split()
        directive = fields[0]
        if directive == "n":
            if size is not None:
                fail(line_no, "duplicate 'n' directive")
            if len(fields) != 2 or not fields[1].isdecimal():
                fail(line_no, "'n' requires one nonnegative integer")
            size = int(fields[1])
            if size < 1:
                fail(line_no, "carrier must have at least the zero element")
        elif directive == "name":
            if size is None:
                fail(line_no, "'name' before 'n'")
            if len(fields) != 3 or not fields[1].isdecimal():
                fail(line_no, "'name' requires an index and a token")
            index = int(fields[1])
            if index >= size:
                fail(line_no, f"name index {index} out of range for n={size}")
            names[index] = fields[2]
        elif directive == "op":
            if size is None:
                fail(line_no, "'op' before 'n'")
            if len(fields) != 4 or not all(f.isdecimal() for f in fields[1:]):
                fail(line_no, "'op' requires three nonnegative integers")
            i, j, k = (int(f) for f in fields[1:])
            if max(i, j, k) >= size:
                fail(line_no, f"op indices out of range for n={size}")
            if (i, j) in explicit and explicit[(i, j)] != k:
                fail(line_no, f"conflicting duplicate entry for {i} + {j}")
            if (i == 0 and k != j) or (j == 0 and k != i):
                fail(line_no, f"entry {i} + {j} = {k} contradicts neutrality of 0")
            explicit[(i, j)] = k
        else:
            fail(line_no, f"unknown directive {directive!r}")
    if size is None:
        raise ParseError("line 1: missing 'n' directive")
    op = _neutral_op(size)
    op.update(explicit)
    name_list = [names.get(i, str(i)) for i in range(size)]
    return FiniteGpea(size, op, name_list)
