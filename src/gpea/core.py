"""Finite partial algebras with a two-sided zero, and the GPEA axioms.

A generalized pseudo effect algebra (GPEA) is a set with a partial binary
operation ``+`` and a neutral element ``0`` satisfying associativity (in the
strong, existence-transferring sense), a conjugation property (every defined
sum can be rewritten with its arguments on either side), cancellation on both
sides, neutrality of ``0``, and positivity (only ``0 + 0`` is ``0``).  This
module represents such algebras as explicit operation tables over elements
``0 .. size-1``, stored as one flat row-major tuple in which ``a + b`` sits
at index ``a * size + b`` and the sentinel ``size`` marks an undefined sum.
It provides axiom validation, the induced partial order, subtraction,
structural classification, the unital (PEA) view with its two supplement
maps, and isomorphism search.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
from typing import Iterable, Mapping, Sequence

__all__ = [
    "AXIOMS",
    "AlgebraError",
    "AxiomReport",
    "BudgetExceededError",
    "FiniteGpea",
    "InvalidAlgebraError",
    "InvariantViolation",
    "MalformedTableError",
    "NoUnitError",
    "NotValidatedError",
    "OrderRelation",
    "PeaView",
    "StructureFlags",
    "classify",
    "element_budget",
    "extended_cancellation_witness",
    "find_morphisms",
    "induced_order",
    "is_isomorphism",
    "pea_view",
    "subtract",
    "validate_axioms",
]

#: The five defining axioms, in their conventional order.
AXIOMS = ("associativity", "conjugation", "cancellation", "neutrality", "positivity")

#: Hard default on how many elements any constructed algebra may have.
DEFAULT_ELEMENT_BUDGET = 4096


class AlgebraError(Exception):
    """Base class for all errors raised by this package."""


class MalformedTableError(AlgebraError):
    """An operation table is structurally broken (bad size, out-of-range index)."""


class NotValidatedError(AlgebraError):
    """An operation requiring a validated algebra received a raw table."""


class InvalidAlgebraError(AlgebraError):
    """Validation was requested on a table that fails the axioms."""

    def __init__(self, report: "AxiomReport"):
        self.report = report
        failing = ", ".join(
            f"{name}@{report.witnesses[name]}" for name in AXIOMS if not report.verdicts[name]
        )
        super().__init__(f"table is not a GPEA: {failing}")


class NoUnitError(AlgebraError):
    """A unital (PEA) operation was requested on an algebra with no top element."""


class BudgetExceededError(AlgebraError):
    """A construction would materialize more elements than the configured budget."""


class InvariantViolation(AlgebraError):
    """An internally guaranteed identity failed; indicates a bug, not bad input."""


def element_budget() -> int:
    """Maximum carrier size for constructed algebras (env ``GPEA_BUDGET`` overrides)."""
    raw = os.environ.get("GPEA_BUDGET")
    if raw is None:
        return DEFAULT_ELEMENT_BUDGET
    try:
        value = int(raw)
    except ValueError as exc:
        raise MalformedTableError(f"GPEA_BUDGET must be an integer, got {raw!r}") from exc
    if value < 1:
        raise MalformedTableError("GPEA_BUDGET must be positive")
    return value


def require_within_budget(size: int) -> None:
    """Raise :class:`BudgetExceededError` for a carrier larger than the budget."""
    budget = element_budget()
    if size > budget:
        raise BudgetExceededError(
            f"carrier of {size} elements exceeds the budget of {budget} "
            "(set GPEA_BUDGET to raise it)"
        )


class FiniteGpea:
    """A finite partial algebra ``(P, +, 0)`` given by an explicit table.

    ``table`` is the operation flattened row-major: ``table[a * size + b]``
    is ``a + b``, and the sentinel ``size`` marks an undefined sum.  The
    constructor takes a mapping from index pairs ``(i, j)`` to ``i + j``;
    absent pairs are undefined.  Element ``0`` is always the designated
    zero.  A fresh instance is a *raw table*: it is structurally
    well-formed but makes no axiom promises until :meth:`validate` has
    passed, and all order-theoretic accessors refuse to run before that.
    """

    def __init__(
        self,
        size: int,
        op: Mapping[tuple[int, int], int],
        names: Mapping[int, str] | Sequence[str] | None = None,
    ):
        if not isinstance(size, int) or size < 1:
            raise MalformedTableError(f"size must be a positive integer, got {size!r}")
        require_within_budget(size)
        table = [size] * (size * size)
        for key, value in op.items():
            try:
                i, j = key
            except (TypeError, ValueError) as exc:
                raise MalformedTableError(f"op key {key!r} is not an index pair") from exc
            if not (0 <= i < size and 0 <= j < size and 0 <= value < size):
                raise MalformedTableError(
                    f"op entry ({i}, {j}) -> {value} out of range for size {size}"
                )
            table[i * size + j] = value
        self.size = size
        self.table: tuple[int, ...] = tuple(table)
        if names is None:
            self.names: dict[int, str] = {}
        elif isinstance(names, Mapping):
            self.names = {int(i): str(t) for i, t in names.items()}
        else:
            self.names = {i: str(t) for i, t in enumerate(names)}
        for i in self.names:
            if not 0 <= i < size:
                raise MalformedTableError(f"name for out-of-range element {i}")
        self._validated = False

    # ------------------------------------------------------------------ basic

    @property
    def elements(self) -> range:
        return range(self.size)

    def name(self, i: int) -> str:
        return self.names.get(i, str(i))

    def value(self, a: int, b: int) -> int | None:
        """``a + b`` or ``None`` when undefined; ``a`` and ``b`` are elements."""
        s = self.table[a * self.size + b]
        return None if s == self.size else s

    def defined(self, a: int, b: int) -> bool:
        """Whether ``a + b`` exists; ``a`` and ``b`` are elements."""
        return self.table[a * self.size + b] != self.size

    def same_table(self, other: "FiniteGpea") -> bool:
        return self.table == other.table

    def table_key(self) -> tuple[int, ...]:
        """Row-major flattened table with ``size`` as the undefined sentinel."""
        return self.table

    @cached_property
    def sums(self) -> tuple[tuple[int, int, int], ...]:
        """Every defined sum as ``(a, b, a + b)``, in row-major order."""
        n = self.size
        t = self.table
        defined = [s != n for s in t]
        return tuple((k // n, k % n, t[k]) for k in compress(range(n * n), defined))

    @cached_property
    def morphism_plan(self) -> "MorphismPlan":
        """The invariants and element order :func:`find_morphisms` uses."""
        return _morphism_plan(self)

    @cached_property
    def _invariants(self) -> tuple[tuple, tuple]:
        """The plan's ``invariants`` and ``profile`` alone: all that a
        search target needs, and a source that fails the profile test."""
        rows, cols, _, _ = self.lines
        multiplicity = [0] * self.size
        for _, _, s in self.sums:
            multiplicity[s] += 1
        invariants = tuple(zip(map(len, rows), map(len, cols), multiplicity))
        return invariants, tuple(sorted(invariants))

    def relabel(self, perm: Sequence[int]) -> "FiniteGpea":
        """The same algebra with element ``i`` renamed to ``perm[i]``.

        ``perm`` must be a bijection on the carrier fixing ``0``.
        """
        n = self.size
        if sorted(perm) != list(range(n)) or perm[0] != 0:
            raise MalformedTableError("relabeling must be a permutation fixing 0")
        op = {(perm[a], perm[b]): perm[s] for a, b, s in self.sums}
        names = {perm[i]: t for i, t in self.names.items()}
        out = FiniteGpea(n, op, names)
        if self._validated:
            out._validated = True
        return out

    def __repr__(self) -> str:
        state = "validated" if self._validated else "raw"
        return f"FiniteGpea(size={self.size}, defined={len(self.sums)}, {state})"

    # ------------------------------------------------------------- validation

    @property
    def is_validated(self) -> bool:
        return self._validated

    @cached_property
    def _axiom_report(self) -> "AxiomReport":
        """The one :func:`validate_axioms` run on this table."""
        return validate_axioms(self)

    def validate(self) -> "FiniteGpea":
        """Check all five axioms; mark the table validated or raise."""
        if not self._validated:
            if not self._axiom_report.passed:
                raise InvalidAlgebraError(self._axiom_report)
            self._validated = True
        return self

    def require_validated(self) -> None:
        if not self._validated:
            raise NotValidatedError(
                "operation requires a validated algebra; call .validate() first"
            )

    # ------------------------------------------------------------------ order
    # Derived views are computed on first access and kept on the instance.
    # A view whose computation raises (a raw table asked for its order) is
    # not cached, so it is recomputed once the table has been validated.

    @cached_property
    def order(self) -> "OrderRelation":
        return induced_order(self)

    def le(self, a: int, b: int) -> bool:
        """``a <= b`` in the induced order."""
        return bool(self.order.up_masks[a] >> b & 1)

    @cached_property
    def lines(
        self,
    ) -> tuple[list[list[tuple[int, int]]], list[list[tuple[int, int]]], list[int], list[int]]:
        """``(rows, cols, after, before)``: each element's defined row and
        column, read off ``sums`` once per table.

        ``rows[x]`` lists the ``(y, x + y)`` and ``cols[y]`` the
        ``(x, x + y)``, in increasing order of the other summand;
        ``after[x]`` and ``before[y]`` hold the same other summands as
        bitmasks.  Unlike the subtraction tables, raw tables have them:
        :func:`validate_axioms` reads them.
        """
        n = self.size
        rows: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        cols: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        after = [0] * n
        before = [0] * n
        for a, b, s in self.sums:
            rows[a].append((b, s))
            cols[b].append((a, s))
            after[a] |= 1 << b
            before[b] |= 1 << a
        return rows, cols, after, before

    @cached_property
    def subtraction_tables(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Left and right subtraction in the layout of ``table``.

        ``left[a * size + b]`` is the ``c`` with ``a + c == b`` and
        ``right[a * size + b]`` the ``d`` with ``d + a == b``; the sentinel
        ``size`` marks ``a <= b`` failing.  Cancellation makes both unique,
        so only validated tables have them.
        """
        self.require_validated()
        n = self.size
        left = [n] * (n * n)
        right = [n] * (n * n)
        for a, c, b in self.sums:
            left[a * n + b] = c
            right[c * n + b] = a
        return tuple(left), tuple(right)

    def left_subtraction(self, a: int, b: int) -> int | None:
        """The unique ``c`` with ``a + c == b``, or ``None`` when ``a <= b`` fails."""
        c = self.subtraction_tables[0][a * self.size + b]
        return None if c == self.size else c

    def right_subtraction(self, a: int, b: int) -> int | None:
        """The unique ``d`` with ``d + a == b``, or ``None`` when ``a <= b`` fails."""
        d = self.subtraction_tables[1][a * self.size + b]
        return None if d == self.size else d

    # ------------------------------------------------------------- structure

    @cached_property
    def flags(self) -> "StructureFlags":
        return classify(self)

    @cached_property
    def pea(self) -> "PeaView":
        return pea_view(self)

    @cached_property
    def verdicts(self) -> dict[tuple, object]:
        """The store of derived results, under a (kind, key) key: each
        subset and relation verdict, twist automorphism proof, and ideal
        and congruence sweep the ideals module computed on this algebra,
        and what the kite functions share over it as a base (see
        :mod:`gpea.ideals` and :mod:`gpea.kites`).  It is read and filled
        only through ``ideals._stored``."""
        self.require_validated()
        return {}

    def _subset_directed(self, members: Iterable[int], masks: list[int]) -> bool:
        mask = 0
        for x in members:
            mask |= 1 << x
        xs = [x for x in self.elements if mask >> x & 1]
        return all(masks[a] & masks[b] & mask for a in xs for b in xs)

    def subset_upward_directed(self, members: Iterable[int]) -> bool:
        """Every two members have a common upper bound inside the subset."""
        return self._subset_directed(members, self.order.up_masks)

    def subset_downward_directed(self, members: Iterable[int]) -> bool:
        """Every two members have a common lower bound inside the subset."""
        return self._subset_directed(members, self.order.down_masks)


# ---------------------------------------------------------------------- types


@dataclass(frozen=True)
class AxiomReport:
    """Per-axiom verdicts with one witness triple for each failure.

    Witness conventions (always the lexicographically smallest failing
    triple for the axiom):

    * associativity — ``(a, b, c)`` where the two-sided reading of
      ``(a+b)+c == a+(b+c)`` fails (existence transfer or equality);
    * conjugation — ``(a, b, a+b)`` where no ``c + a`` or no ``b + d``
      reproduces the sum;
    * cancellation — ``(a, b, c)`` with ``a != b`` but ``a+c == b+c``
      or ``c+a == c+b``;
    * neutrality — ``(0, x, x)`` or ``(x, 0, x)`` for the broken side;
    * positivity — ``(a, b, 0)`` with ``a + b == 0`` but ``(a, b) != (0, 0)``.
    """

    verdicts: dict[str, bool]
    witnesses: dict[str, tuple[int, int, int] | None]

    @property
    def passed(self) -> bool:
        return all(self.verdicts[name] for name in AXIOMS)

    def lines(self) -> list[str]:
        out = []
        for name in AXIOMS:
            if self.verdicts[name]:
                out.append(f"{name}=pass")
            else:
                out.append(f"{name}=fail witness={self.witnesses[name]}")
        return out


class OrderRelation:
    """The induced partial order: ``a <= b`` iff some ``c`` has ``a + c == b``."""

    def __init__(self, size: int, pairs: Iterable[tuple[int, int]]):
        self.size = size
        up = [0] * size
        down = [0] * size
        for a, b in pairs:
            up[a] |= 1 << b
            down[b] |= 1 << a
        #: ``up_masks[a]`` is the bitmask of all ``b`` with ``a <= b``.
        self.up_masks = up
        #: ``down_masks[b]`` is the bitmask of all ``a`` with ``a <= b``.
        self.down_masks = down

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """Every pair ``(a, b)`` with ``a <= b``, read off ``up_masks``."""
        return frozenset(
            (a, b)
            for a, up in enumerate(self.up_masks)
            for b in range(self.size)
            if up >> b & 1
        )

    def le(self, a: int, b: int) -> bool:
        return bool(self.up_masks[a] >> b & 1)

    @property
    def maximal_elements(self) -> list[int]:
        return [a for a in range(self.size) if self.up_masks[a] == 1 << a]

    @property
    def maximum(self) -> int | None:
        """The top element when one exists."""
        full = (1 << self.size) - 1
        for m in range(self.size):
            if self.down_masks[m] == full:
                return m
        return None


@dataclass(frozen=True)
class StructureFlags:
    """Global structural classification of a validated algebra."""

    total: bool
    weakly_commutative: bool
    commutative: bool
    has_unit: bool
    upward_directed: bool
    downward_directed: bool

    def items(self) -> list[tuple[str, bool]]:
        return [
            ("total", self.total),
            ("weakly_commutative", self.weakly_commutative),
            ("commutative", self.commutative),
            ("has_unit", self.has_unit),
            ("upward_directed", self.upward_directed),
            ("downward_directed", self.downward_directed),
        ]


@dataclass(frozen=True)
class PeaView:
    """Unital view of an algebra: top element and the two supplement maps.

    ``right_supp[a]`` is the unique ``a'`` with ``a + a' == unit`` and
    ``left_supp[a]`` the unique ``a''`` with ``a'' + a == unit``.
    """

    unit: int
    right_supp: tuple[int, ...]
    left_supp: tuple[int, ...]

    def rr(self, a: int) -> int:
        """Double right supplement."""
        return self.right_supp[self.right_supp[a]]

    def ll(self, a: int) -> int:
        """Double left supplement."""
        return self.left_supp[self.left_supp[a]]


# ----------------------------------------------------------------- validation


def validate_axioms(table: FiniteGpea) -> AxiomReport:
    """Check the five axioms on a raw table, reporting smallest witnesses.

    Associativity is verified as a full biconditional: for every triple,
    ``(a+b)+c`` exists iff ``a+(b+c)`` exists, and the values agree whenever
    both sides are defined.

    The left side of associativity, neutrality and positivity are always
    scanned.  The right side of associativity, conjugation and
    cancellation are decided by counting over the rows and columns of
    :attr:`FiniteGpea.lines`, and scanned only to name the smallest
    witness of a failure:

    * associativity, right side — the left scan visits each triple with
      ``(a+b)+c`` defined once, one per sum ``(a, b, s)`` and entry of row
      ``s``: ``L = sum |row(s)|`` triples.  The right scan visits each
      triple with ``a+(b+c)`` defined, one per sum ``(b, c, t)`` and entry
      of column ``t``: ``R = sum |col(t)|`` triples, and fails at exactly
      those whose left side is undefined.  When the left scan fails
      nowhere, every left-defined triple is right-defined, so the
      left-defined triples are a subset of the right-defined ones, and
      the right scan fails somewhere iff the subset is proper, iff
      ``R != L``;
    * conjugation — the check fails at ``(a, b, s)`` when ``s`` is not in
      the column values of ``a`` or not in the row values of ``b``.  It
      holds iff every element's row values equal its column values: if
      they do, ``s``, a row value of ``a`` and a column value of ``b``, is
      also a column value of ``a`` and a row value of ``b``; if it holds,
      each row value ``s`` of ``a`` (at some ``(a, b, s)``) is a column
      value of ``a``, and each column value of ``b`` a row value of ``b``;
    * cancellation — a row or column fails iff it repeats a value, iff
      its set of values is shorter than it.
    """
    n = table.size
    t = table.table
    sums = table.sums
    rows, cols, _, _ = table.lines

    verdicts: dict[str, bool] = {}
    witnesses: dict[str, tuple[int, int, int] | None] = {}

    def record(name: str, fails: list[tuple[int, int, int]]) -> None:
        verdicts[name] = not fails
        witnesses[name] = min(fails) if fails else None

    # associativity: every failing triple has at least one side defined, so
    # scanning "left side exists" and "right side exists" covers all failures.
    # The right side is scanned only when the left scan failed (for the
    # smallest witness) or the two sides count different triples.
    fails: list[tuple[int, int, int]] = []
    for a, b, s in sums:
        an, bn = a * n, b * n
        for c, u in rows[s]:  # (a+b)+c defined
            bc = t[bn + c]
            if bc == n or t[an + bc] != u:
                fails.append((a, b, c))
    col_minus_row = [len(col) - len(row) for row, col in zip(rows, cols)]
    if fails or sum([col_minus_row[s] for _, _, s in sums]):
        for b, c, bc in sums:
            for a, _ in cols[bc]:  # a+(b+c) defined
                ab = t[a * n + b]
                if ab == n or t[ab * n + c] == n:
                    fails.append((a, b, c))
    record("associativity", fails)

    # conjugation: a+b == some c+a and some b+d.
    fails = []
    row_value_sets = [{u for _, u in row} for row in rows]
    col_value_sets = [{v for _, v in col} for col in cols]
    if row_value_sets != col_value_sets:
        for a, b, s in sums:
            if s not in col_value_sets[a] or s not in row_value_sets[b]:
                fails.append((a, b, s))
    record("conjugation", fails)

    # cancellation: rows and columns are injective on their defined entries.
    fails = []
    if list(map(len, row_value_sets + col_value_sets)) != list(map(len, rows + cols)):
        for c in range(n):
            for line in (cols[c], rows[c]):
                seen: dict[int, int] = {}
                for a, v in line:
                    if v in seen:
                        fails.append((seen[v], a, c))
                    else:
                        seen[v] = a
    record("cancellation", fails)

    # neutrality of 0 on both sides.
    fails = []
    for x in range(n):
        if t[x] != x:
            fails.append((0, x, x))
        if t[x * n] != x:
            fails.append((x, 0, x))
    record("neutrality", fails)

    # positivity: only 0 + 0 gives 0.
    fails = [(a, b, 0) for a, b, s in sums if s == 0 and (a, b) != (0, 0)]
    record("positivity", fails)

    return AxiomReport(verdicts, witnesses)


# ---------------------------------------------------------------------- order


def induced_order(g: FiniteGpea) -> OrderRelation:
    """The order ``a <= b iff exists c: a + c == b`` of a validated table.

    The five axioms make it a partial order with least element 0, and
    reading it from the other side gives the same relation:

    * reflexive, as ``a + 0 == a``, and 0 is least, as ``0 + b == b``
      (neutrality);
    * antisymmetric: ``a + c == b`` and ``b + d == a`` give
      ``a + (c + d) == a == a + 0`` by associativity, so ``c + d == 0``
      by cancellation and ``c == d == 0`` by positivity;
    * transitive: ``a + c == b`` and ``b + d == e`` give
      ``a + (c + d) == e`` by associativity;
    * ``exists d: d + a == b`` is the same relation: conjugation rewrites
      ``a + c`` as some ``d + a`` and ``d + a`` as some ``a + c``.
    """
    g.require_validated()
    return OrderRelation(g.size, ((a, b) for a, _, b in g.sums))


def subtract(g: FiniteGpea, a: int, b: int) -> tuple[int, int] | None:
    """``(a-from-the-left, a-from-the-right)`` against ``b``, or ``None``.

    When ``a <= b`` returns the pair ``(c, d)`` with ``a + c == b`` and
    ``d + a == b``; both components exist, since the order reads the same
    from either side (:func:`induced_order`), and are unique by
    cancellation.  When ``a <= b`` fails, returns ``None`` (this is a
    signal, not an error).
    """
    g.require_validated()
    left = g.left_subtraction(a, b)
    if left is None:
        return None
    return (left, g.right_subtraction(a, b))


def extended_cancellation_witness(g: FiniteGpea) -> tuple[int, int, int] | None:
    """A triple violating ``a+c <= b+c  or  c+a <= c+b  implies  a <= b``.

    Returns ``None`` when the (always guaranteed) property holds.  No
    ``verify`` suite calls it; it is public so that a caller can assert
    the property on an instance, as ``tests/test_core.py`` does.
    """
    g.require_validated()
    le = g.le
    n = g.size
    t = g.table
    for c in range(n):
        for line in (t[c::n], t[c * n : c * n + n]):
            for a, sa in enumerate(line):
                for b, sb in enumerate(line):
                    if sa != n != sb and le(sa, sb) and not le(a, b):
                        return (a, b, c)
    return None


# ------------------------------------------------------------- classification


def classify(g: FiniteGpea) -> StructureFlags:
    """Global structural flags of a validated algebra."""
    g.require_validated()
    n = g.size
    t = g.table
    total = len(g.sums) == n * n
    weakly_commutative = all(t[b * n + a] != n for a, b, _ in g.sums)
    commutative = all(t[b * n + a] == s for a, b, s in g.sums)
    order = g.order
    has_unit = order.maximum is not None
    up = order.up_masks
    down = order.down_masks
    upward_directed = all(up[a] & up[b] for a in range(n) for b in range(a + 1, n))
    downward_directed = all(down[a] & down[b] for a in range(n) for b in range(a + 1, n))
    return StructureFlags(
        total=total,
        weakly_commutative=weakly_commutative,
        commutative=commutative,
        has_unit=has_unit,
        upward_directed=upward_directed,
        downward_directed=downward_directed,
    )


# ------------------------------------------------------------------ PEA view


def pea_view(g: FiniteGpea) -> PeaView:
    """Unit and supplement maps, read off the unit column of subtraction.

    Raises :class:`NoUnitError` when the order has no maximum ``u``.
    Otherwise every ``a`` is below ``u``, so ``rs(a)`` with ``a + rs(a)
    == u`` and ``ls(a)`` with ``ls(a) + a == u`` exist (the order reads
    the same from either side, :func:`induced_order`) and are unique by
    cancellation.  The unital identities are theorems of the axioms:

    * (1) ``0 + u == u + 0 == u`` makes ``u`` both supplements of 0, and
      ``u + 0 == u`` with cancellation makes 0 both supplements of ``u``.
    * (2)-(3) ``a + rs(a) == u`` says ``ls(rs(a)) == a``, and likewise
      ``rs(ls(a)) == a``: the maps are mutually inverse bijections.
    * (4) ``a+b == c`` implies ``ls(c)+a == ls(b)``: associativity
      regroups ``ls(c)+(a+b) == u`` as ``(ls(c)+a)+b == u``, and
      cancellation names the left summand.  (5) ``x+a == v`` implies
      ``a+rs(v) == rs(x)``, from ``(x+a)+rs(v) == u`` the same way.
    * Three-way: ``rs(a)+b == rs(c)``, ``c+rs(a) == ls(b)`` and
      ``ls(ls(b))+c == a`` are equivalent; (4) takes each sum to the
      next and (5) takes each to the one before.
    * Order reversal: (4) takes ``d+a == b`` to ``ls(b)+d == ls(a)`` and
      (5) takes ``a+c == b`` to ``c+rs(b) == rs(a)``.
    * Existence criterion, ``a+b`` defined iff ``b <= rs(a)`` iff
      ``a <= ls(b)``: (5) and (4) take ``a+b == c`` to ``b+rs(c) ==
      rs(a)`` and ``ls(c)+a == ls(b)``; conversely ``b+y == rs(a)`` or
      ``x+a == ls(b)`` defines ``a+(b+y)`` or ``(x+a)+b``, so ``a+b``.
    * Subtraction through supplements, for ``a <= b`` and ``ll =
      ls∘ls``: (5) takes ``d+a == b`` to ``a+rs(b) == rs(d)``, so
      ``right_subtraction(a, b) == ls(a+rs(b))``; (4) takes ``a+c ==
      b`` to ``ls(b)+a == ls(c)``, so ``left_subtraction(a, b) ==
      rs(ls(b)+a)``.  The three-way exchange takes ``ll(b)+c == a`` to
      ``rs(a)+b == rs(c)``, so ``left_subtraction(ll(b), a) ==
      ls(rs(a)+b)``; (4) takes ``d+b == rs(a)`` to ``a+d == ls(b)``,
      then to ``ll(b)+a == ls(d)``, so ``right_subtraction(b, rs(a)) ==
      rs(ll(b)+a)``; and for ``a <= ls(b)``, ``a+b`` exists by the
      existence criterion and (4) gives ``ls(a+b)+a == ls(b)``, so
      ``right_subtraction(a, ls(b)) == ls(a+b)``.
    """
    g.require_validated()
    unit = g.order.maximum
    if unit is None:
        raise NoUnitError("algebra has no top element")
    # rs(a) is the left subtraction of a from u and ls(a) the right one.
    left, right = g.subtraction_tables
    n = g.size
    return PeaView(unit=unit, right_supp=left[unit::n], left_supp=right[unit::n])


# ----------------------------------------------------------------- morphisms


@dataclass(frozen=True)
class MorphismPlan:
    """How :func:`find_morphisms` places the elements of an algebra.

    ``invariants[x]`` counts the ``b`` with ``x + b`` defined, the ``a``
    with ``a + x`` defined and the pairs summing to ``x``; an isomorphism
    keeps all three, and ``profile`` is their sorted list.  ``steps``
    places every nonzero element once, in order: ``(x, None)`` is a
    branch element and ``(x, (a, b))`` an element equal to ``a + b`` for
    elements ``a`` and ``b`` placed before it.  ``checks[k]`` lists the
    defined sums ``(a, b, a + b)`` whose last element to be placed is the
    one of step ``k``, so each sum is listed once.  Two kinds of sum are
    left out, as every map the search builds keeps them: the sum a step
    is forced by, and a sum with the summand 0, which the neutrality of
    the target keeps.
    """

    invariants: tuple[tuple[int, int, int], ...]
    profile: tuple[tuple[int, int, int], ...]
    steps: tuple[tuple[int, tuple[int, int] | None], ...]
    checks: tuple[tuple[tuple[int, int, int], ...], ...]


def _morphism_plan(g: FiniteGpea) -> MorphismPlan:
    n = g.size
    table = g.table
    invariants, profile = g._invariants
    steps: list[tuple[int, tuple[int, int] | None]] = []
    placed = [0]
    is_placed = [True] + [False] * (n - 1)
    # Branch elements in decreasing connectivity order make the pruning
    # bite early; after each, place every sum of two placed elements.
    for x in sorted(range(1, n), key=lambda x: -sum(invariants[x][:2])):
        if is_placed[x]:
            continue
        is_placed[x] = True
        steps.append((x, None))
        placed.append(x)
        k = len(placed) - 1
        while k < len(placed):
            y = placed[k]
            for z in placed[: k + 1]:
                for a, b in ((y, z), (z, y)):
                    s = table[a * n + b]
                    if s != n and not is_placed[s]:
                        is_placed[s] = True
                        steps.append((s, (a, b)))
                        placed.append(s)
            k += 1
    step_of = [-1] * n
    for k, (x, _) in enumerate(steps):
        step_of[x] = k
    checks: list[list[tuple[int, int, int]]] = [[] for _ in steps]
    for a, b, s in g.sums:
        if a and b:
            k = max(step_of[a], step_of[b], step_of[s])
            if steps[k][1] != (a, b):
                checks[k].append((a, b, s))
    return MorphismPlan(invariants, profile, tuple(steps), tuple(map(tuple, checks)))


def find_morphisms(p: FiniteGpea, q: FiniteGpea) -> list[tuple[int, ...]]:
    """All structure isomorphisms ``p -> q`` as image tuples, sorted.

    An isomorphism is a bijection transferring existence both ways and
    preserving sums; ``find_morphisms(p, p)`` gives the automorphisms.
    Returns the empty list when none exist.  An isomorphism preserves the
    induced order, so between unital algebras it maps unit to unit.

    The search compares the profiles first, so ``q`` builds only its
    invariants and ``p`` its plan only when they agree.  It then follows
    ``p.morphism_plan``: a branch element tries each
    unused image with its invariants, and an element that is a sum of
    elements placed before it takes the sum of their images in ``q``.
    Each step then tests the sums of ``p`` it closes (``checks``):
    ``φa + φb == φ(a + b)`` in ``q``.  So each defined sum is tested
    once, at the step that places the last of its three elements, unless
    every map the search builds keeps it, and a full map needs no
    further check.  It is a bijection, and it takes every defined sum of
    ``p`` to a defined sum of ``q``; equal profiles give both algebras
    the same number of defined sums, and ``(a, b) -> (φa, φb)`` is
    injective, so the defined pairs of ``p`` go onto those of ``q`` and
    the undefined pairs onto the undefined ones: ``φ`` is an
    isomorphism.  Every isomorphism passes every test, so none is lost.
    """
    p.require_validated()
    q.require_validated()
    invariants, profile = p._invariants
    q_invariants, q_profile = q._invariants
    if profile != q_profile:  # so the sizes are equal too
        return []
    n = p.size
    q_table = q.table
    plan = p.morphism_plan
    steps = plan.steps
    checks = plan.checks
    results: list[tuple[int, ...]] = []
    phi = [0] * n
    # ``used`` carries the sentinel ``n`` at index ``n``: a forced image
    # is ``n`` when the sum of the summands' images is undefined in ``q``.
    used = [True] + [False] * (n - 1) + [True]

    def extend(k: int) -> None:
        if k == len(steps):
            results.append(tuple(phi))
            return
        x, summands = steps[k]
        if summands is None:
            images: Iterable[int] = range(n)
        else:
            a, b = summands
            images = (q_table[phi[a] * n + phi[b]],)
        closing = checks[k]
        for w in images:
            if used[w] or q_invariants[w] != invariants[x]:
                continue
            phi[x] = w
            for c, d, e in closing:
                if q_table[phi[c] * n + phi[d]] != phi[e]:
                    break
            else:
                used[w] = True
                extend(k + 1)
                used[w] = False

    extend(0)
    return sorted(results)


def is_isomorphism(p: FiniteGpea, q: FiniteGpea, phi: Sequence[int]) -> bool:
    """Whether ``phi`` is a bijection transferring definedness and sums exactly.

    ``phi[a]`` is the image of ``a``; a map that is not a permutation of
    the carrier, or algebras of different sizes, give ``False``.  One test
    per defined sum of ``p`` suffices, with no axiom assumed, so raw
    tables are judged exactly too: when ``p`` and ``q`` have equally many
    defined sums and ``phi`` takes each defined sum of ``p`` to a defined
    sum of ``q``, the injective ``(a, b) -> (phi[a], phi[b])`` maps the
    defined pairs of ``p`` onto those of ``q``, so the undefined pairs go
    to undefined pairs.
    """
    n = p.size
    if q.size != n or sorted(phi) != list(range(n)) or len(p.sums) != len(q.sums):
        return False
    q_table = q.table
    return all(q_table[phi[a] * n + phi[b]] == phi[s] for a, b, s in p.sums)
