"""Ideals, congruences, ideal-induced relations, and quotients.

Subsets of a validated algebra are classified against the full ideal
taxonomy (order ideal, ideal, normal, sub-algebra, R1, Riesz, twist-closed),
partitions are classified against the congruence conditions C1-C5 and their
unital/Riesz refinements, and the two constructions connecting them are
provided: the relation induced by an ideal (``a`` related to ``b`` when both
become equal after removing a small piece) and the quotient algebra of a
congruence.

Each validated algebra keeps what this module decides about it in its
``verdicts`` store (see :attr:`FiniteGpea.verdicts`), so a question asked
again of the same instance is answered from the store: the twist-free
``IdealFlags`` of a subset (key ``("subset", mask)``), the twist- and
GCR-free ``CongruenceFlags`` of a relation (``("relation", block_of)``),
the ideal list and the congruence list (``("ideals",)``,
``("congruences",)``), and whether a twist is an automorphism
(``("automorphism", gamma)``).  The twist-closure, twist-compatibility
and GCR verdicts, the induced relation and the quotient are computed on
every call.  Every call still returns a fresh list or iterator, and
raises as it would without the store; the flags and partitions in it
are immutable values shared between calls.

The kite functions keep their results for a base in the same store,
through the same accessor :func:`_stored` (see :mod:`gpea.kites`).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations
from typing import Callable, Iterable, Iterator, Sequence, TypeVar

from .core import (
    BudgetExceededError,
    FiniteGpea,
    InvariantViolation,
    MalformedTableError,
    is_isomorphism,
)

__all__ = [
    "CongruenceFlags",
    "IdealFlags",
    "LemmaVerdict",
    "NotEquivalenceError",
    "Partition",
    "RoundtripVerdict",
    "all_partitions",
    "classify_relation",
    "classify_subset",
    "congruences",
    "enumerate_ideals",
    "gcr_condition",
    "ideal_closure",
    "normal_ideal_lemmas",
    "normal_riesz_ideals",
    "quotient",
    "riesz_congruence_roundtrip",
    "sim_from_ideal",
    "smallest_normal_riesz_ideal",
]


class NotEquivalenceError(InvariantViolation):
    """The ideal-induced relation failed transitivity (reported, never closed)."""


# ------------------------------------------------------------------ subsets


@dataclass(frozen=True)
class IdealFlags:
    """Verdicts for one subset.  ``gamma_closed`` is ``None`` when no twist
    automorphism was supplied."""

    order_ideal: bool
    ideal: bool
    normal: bool
    sub_gpea: bool
    r1: bool
    riesz: bool
    gamma_closed: bool | None

    def items(self) -> list[tuple[str, bool | None]]:
        return [
            ("order_ideal", self.order_ideal),
            ("ideal", self.ideal),
            ("normal", self.normal),
            ("sub_gpea", self.sub_gpea),
            ("r1", self.r1),
            ("riesz", self.riesz),
            ("gamma_closed", self.gamma_closed),
        ]


def _subset_mask(g: FiniteGpea, members: Iterable[int]) -> int:
    mask = 0
    for x in members:
        if not 0 <= x < g.size:
            raise MalformedTableError(f"subset member {x} out of range")
        mask |= 1 << x
    return mask


_T = TypeVar("_T")
_V = TypeVar("_V")


def _stored(g: FiniteGpea, key: tuple, compute: Callable[[], _T]) -> _T:
    """The result under ``key`` in ``g``'s store, computed on first use."""
    store = g.verdicts
    if key not in store:
        store[key] = compute()
    return store[key]


def _is_automorphism(g: FiniteGpea, perm: tuple[int, ...]) -> bool:
    """Whether the permutation ``perm`` of the carrier is an automorphism."""
    return _stored(g, ("automorphism", perm), lambda: is_isomorphism(g, g, perm))


def _require_automorphism(g: FiniteGpea, gamma: Sequence[int]) -> tuple[int, ...]:
    gamma = tuple(gamma)
    if sorted(gamma) != list(range(g.size)):
        raise MalformedTableError("twist map is not a permutation of the carrier")
    if not _is_automorphism(g, gamma):
        raise MalformedTableError("twist map is not an automorphism")
    return gamma


def classify_subset(
    g: FiniteGpea,
    members: Iterable[int],
    gamma: Sequence[int] | None = None,
) -> IdealFlags:
    """Classify ``members`` against the whole ideal taxonomy.

    The R1 and Riesz verdicts presuppose an ideal and are reported false
    otherwise.  The empty subset gets all-false verdicts.  ``gamma``, when
    given, must be an automorphism; the closure verdict is then
    ``members == gamma(members)`` (false for the empty subset).
    """
    g.require_validated()
    if gamma is not None:
        gamma = _require_automorphism(g, gamma)
    mask = _subset_mask(g, members)
    flags = _stored(g, ("subset", mask), lambda: _subset_flags(g, mask))
    if gamma is None:
        return flags
    closed = mask != 0 and all(
        (mask >> gamma[x] & 1) == (mask >> x & 1) for x in range(g.size)
    )
    return replace(flags, gamma_closed=closed)


def _subset_flags(g: FiniteGpea, mask: int) -> IdealFlags:
    """The twist-free verdicts of the subset ``mask``: the subset kernel."""
    if mask == 0:
        return IdealFlags(False, False, False, False, False, False, None)
    n = g.size
    down = g.order.down_masks
    inside = [x for x in range(n) if mask >> x & 1]

    order_ideal = all(down[x] & ~mask == 0 for x in inside)
    sum_closed = all(
        mask >> s & 1
        for a, b, s in g.sums
        if mask >> a & 1 and mask >> b & 1
    )
    ideal = order_ideal and sum_closed

    # normal: a + c == c + b puts a and b on the same side; the b is the
    # left subtraction of c from a + c.
    left = g.subtraction_tables[0]
    normal = ideal and all(
        (mask >> a & 1) == (mask >> left[c * n + v] & 1)
        for a, c, v in g.sums
        if left[c * n + v] != n
    )

    sub_gpea = True
    for a, b, c in g.sums:
        ins = (mask >> a & 1) + (mask >> b & 1) + (mask >> c & 1)
        if ins == 2:
            sub_gpea = False
            break

    r1 = ideal and _check_r1(g, mask, inside)
    riesz = r1 and _check_r2(g, mask, inside)

    return IdealFlags(
        order_ideal=order_ideal,
        ideal=ideal,
        normal=normal,
        sub_gpea=sub_gpea,
        r1=r1,
        riesz=riesz,
        gamma_closed=None,
    )


def _check_r1(g: FiniteGpea, mask: int, inside: list[int]) -> bool:
    """Every member below a defined sum splits below the summands.

    For each member ``i`` with ``i <= a + b`` there must be members
    ``j <= a`` and ``k <= b`` whose sum is defined and dominates ``i``.
    """
    n = g.size
    table = g.table
    down = g.order.down_masks
    down_or_none = [*down, 0]  # index n is the undefined sum
    lower_members: list[list[int]] = [
        [j for j in inside if down[a] >> j & 1] for a in range(n)
    ]
    for a, b, s in g.sums:
        covers = 0  # bitmask of everything below some member sum j + k
        for j in lower_members[a]:
            row = j * n
            for k in lower_members[b]:
                covers |= down_or_none[table[row + k]]
        if mask & down[s] & ~covers:
            return False
    return True


def _check_r2(g: FiniteGpea, mask: int, inside: list[int]) -> bool:
    """The two residual-compatibility clauses of a Riesz ideal.

    Clause one: for ``i <= a``, whenever ``(a minus i) + b`` is defined some
    member ``j <= b`` makes ``a + (j-to-b residual)`` defined.  Clause two:
    whenever ``b + (i-to-a residual)`` is defined some member ``k <= b``
    makes ``(b minus k) + a`` defined.  The "some member" side depends on
    ``a`` and ``b`` only, and is read off the sums: the ``b`` where clause
    one finds a member are the ``j + c`` with ``j`` a member and ``a + c``
    defined, and those of clause two the ``d + k`` with ``k`` a member and
    ``d + a`` defined.  Each ``i <= a`` is then a sum ``(d, i, a)`` for
    clause one, where ``d`` is ``a minus i``, and a sum ``(i, c, a)`` for
    clause two, where ``c`` is the ``i``-to-``a`` residual.
    """
    n = g.size
    rows, cols, after, before = g.lines
    plus_members = [0] * n  # plus_members[c]: the j + c with j a member
    members_plus = [0] * n  # members_plus[d]: the d + k with k a member
    for j in inside:
        for c, s in rows[j]:
            plus_members[c] |= 1 << s
        for d, s in cols[j]:
            members_plus[d] |= 1 << s
    works_one = [0] * n  # works_one[a]: the b where clause one finds a member
    works_two = [0] * n
    for x, y, _ in g.sums:
        works_one[x] |= plus_members[y]
        works_two[y] |= members_plus[x]
    for i in inside:
        for d, a in cols[i]:
            if after[d] & ~works_one[a]:
                return False
        for c, a in rows[i]:
            if before[c] & ~works_two[a]:
                return False
    return True


@dataclass(frozen=True)
class LemmaVerdict:
    """Outcome of a pointwise lemma check, with the first failing instance."""

    passed: bool
    witness: tuple | None = None


def normal_ideal_lemmas(g: FiniteGpea, members: Iterable[int]) -> LemmaVerdict:
    """Pointwise checks that membership respects sum cancellation.

    For every defined ``a + b``: ``b`` is a member iff ``(a+b) minus a``
    (from the right) is, and ``a`` is a member iff the residual of ``b``
    into ``a+b`` is.  On unital algebras, additionally: membership of ``a``,
    of its double supplements, and the two single supplements agree as the
    classical lemma states.  Requires a normal ideal.
    """
    flags = classify_subset(g, members)
    if not (flags.ideal and flags.normal):
        raise MalformedTableError("normal_ideal_lemmas requires a normal ideal")
    mask = _subset_mask(g, members)

    def member(x: int) -> bool:
        return bool(mask >> x & 1)

    for a, b, s in g.sums:
        peel_right = g.right_subtraction(a, s)  # x with x + a == a + b
        if peel_right is None or member(b) != member(peel_right):
            return LemmaVerdict(False, ("sum-peel right", a, b))
        peel_left = g.left_subtraction(b, s)  # y with b + y == a + b
        if peel_left is None or member(a) != member(peel_left):
            return LemmaVerdict(False, ("sum-peel left", a, b))

    if g.flags.has_unit:
        view = g.pea
        for a in range(g.size):
            if not (member(a) == member(view.ll(a)) == member(view.rr(a))):
                return LemmaVerdict(False, ("double supplement membership", a))
            if member(view.left_supp[a]) != member(view.right_supp[a]):
                return LemmaVerdict(False, ("single supplement membership", a))
    return LemmaVerdict(True)


# ---------------------------------------------------------------- partitions


class Partition:
    """An equivalence relation on ``0 .. size-1`` stored as blocks.

    Blocks are canonically ordered by their least element, so the block of
    ``0`` is always block ``0``.
    """

    def __init__(self, size: int, blocks: Iterable[Iterable[int]]):
        blocks = [frozenset(b) for b in blocks]
        if any(not b for b in blocks):
            raise MalformedTableError("partition blocks must be nonempty")
        blocks.sort(key=min)
        block_of = [-1] * size
        for i, b in enumerate(blocks):
            for x in b:
                if not 0 <= x < size or block_of[x] >= 0:
                    raise MalformedTableError("blocks must disjointly cover the carrier")
                block_of[x] = i
        if -1 in block_of:
            raise MalformedTableError("blocks must disjointly cover the carrier")
        self.size = size
        self.blocks: tuple[frozenset[int], ...] = tuple(blocks)
        self.block_of: tuple[int, ...] = tuple(block_of)

    @classmethod
    def identity(cls, size: int) -> "Partition":
        return cls(size, [[x] for x in range(size)])

    @classmethod
    def single_block(cls, size: int) -> "Partition":
        return cls(size, [range(size)])

    @classmethod
    def from_block_of(cls, labels: Sequence[int]) -> "Partition":
        """The partition putting ``x`` and ``y`` together iff their labels
        agree.  Grouped by first appearance, the blocks come already in the
        canonical order."""
        groups: dict[int, list[int]] = {}
        for x, lab in enumerate(labels):
            groups.setdefault(lab, []).append(x)
        return cls(len(labels), groups.values())

    def related(self, a: int, b: int) -> bool:
        return self.block_of[a] == self.block_of[b]

    def block(self, a: int) -> frozenset[int]:
        return self.blocks[self.block_of[a]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self.block_of == other.block_of

    def __hash__(self) -> int:
        return hash(self.block_of)

    def __repr__(self) -> str:
        body = " | ".join("{" + ",".join(map(str, sorted(b))) + "}" for b in self.blocks)
        return f"Partition({body})"


def _growth_strings(n: int) -> Iterator[list[int]]:
    """Every restricted-growth string of length ``n``, in one reused list."""
    labels = [0] * n

    def rec(i: int, maxlab: int) -> Iterator[list[int]]:
        if i == n:
            yield labels
            return
        for lab in range(maxlab + 2):
            labels[i] = lab
            yield from rec(i + 1, max(maxlab, lab))

    if n == 0:
        return
    yield from rec(1, 0)


def all_partitions(n: int) -> Iterator[Partition]:
    """Every partition of ``0 .. n-1``, by restricted growth strings."""
    return map(Partition.from_block_of, _growth_strings(n))


# -------------------------------------------------------- relation classifier


@dataclass(frozen=True)
class CongruenceFlags:
    """Condition-by-condition verdicts for a partition.

    ``c4prime`` is ``None`` on non-unital algebras; ``gcr`` is ``None``
    without a reference ideal; ``gamma_congruence`` is ``None`` without a
    twist automorphism.
    """

    c1: bool
    c2: bool
    c3: bool
    c4: bool
    c5: bool
    c4prime: bool | None
    c5prime: bool
    cr: bool
    gcr: bool | None
    gamma_congruence: bool | None

    @property
    def congruence(self) -> bool:
        return self.c1 and self.c2 and self.c3

    @property
    def riesz_congruence(self) -> bool:
        return self.congruence and self.c4 and self.c5prime and self.cr

    def items(self) -> list[tuple[str, bool | None]]:
        return [
            ("C1", self.c1),
            ("C2", self.c2),
            ("C3", self.c3),
            ("C4", self.c4),
            ("C5", self.c5),
            ("C4prime", self.c4prime),
            ("C5prime", self.c5prime),
            ("CR", self.cr),
            ("GCR", self.gcr),
            ("gamma_congruence", self.gamma_congruence),
        ]


def _block_map(pairs: Iterable[tuple[_T, _V]]) -> dict[_T, _V] | None:
    """The map ``key -> value`` the pairs spell out, or ``None`` when a key
    meets two values: whether a relation respects a map, on block labels."""
    out: dict[_T, _V] = {}
    for key, value in pairs:
        if out.setdefault(key, value) != value:
            return None
    return out


def _block_sums(g: FiniteGpea, bl: Sequence[int]) -> dict[tuple[int, int], int] | None:
    """C2 on block labels: the block of ``a + b`` by the blocks of ``a`` and
    ``b``, or ``None`` when related summands give unrelated sums."""
    return _block_map(((bl[a], bl[b]), bl[s]) for a, b, s in g.sums)


def _check_c3(g: FiniteGpea, bl: Sequence[int]) -> bool:
    """C3 on block labels: ``rows[x]``, the blocks of the ``y`` with
    ``x + y`` defined, and ``cols[y]``, those of the ``x``, are constant
    on blocks.

    C3 asks that when some ``a + b`` is defined, every member of ``[a]``
    has a defined sum with some member of ``[b]``, and every member of
    ``[b]`` with some member of ``[a]``.  The blocks that a member of
    ``[a]`` must so meet are the union of ``rows`` over ``[a]``, so every
    member meets them all iff ``rows`` is constant on the block; the same
    holds for ``cols``.
    """
    rows = [0] * g.size
    cols = [0] * g.size
    for x, y, _ in g.sums:
        rows[x] |= 1 << bl[y]
        cols[y] |= 1 << bl[x]
    return _block_map((bl[x], (rows[x], cols[x])) for x in g.elements) is not None


def _check_c4(g: FiniteGpea, rel: Partition) -> bool:
    """C4 on one block map: the classes of ``a`` and ``a + b`` fix ``[b]``.

    The other map, ``([b], [a + b]) -> [a]``, follows.  Fix a block ``S``
    of sums and let ``D(S)`` be the elements below some ``s`` in ``S``.
    Each ``x`` in ``D(S)`` is a left summand (``x + y = s``) and, by
    conjugation (``x + y = c + x``), a right summand of some ``s`` in
    ``S``.  So if this map is well defined, ``g_S: [a] -> [b]`` over all
    ``a + b`` in ``S`` maps the classes meeting ``D(S)`` onto themselves.
    They are finitely many, so ``g_S`` is injective: on every block, that
    is exactly the other map.
    """
    bl = rel.block_of
    return _block_map(((bl[a], bl[s]), bl[b]) for a, b, s in g.sums) is not None


def _check_c5(g: FiniteGpea, rel: Partition) -> bool:
    bl = rel.block_of
    zero = bl[0]
    return all(
        bl[a] == zero and bl[b] == zero
        for a, b, s in g.sums
        if bl[s] == zero
    )


def _check_c4prime(g: FiniteGpea, rel: Partition) -> bool:
    """C4′, on the right supplements alone.

    The left supplement map is the inverse permutation of the right one
    (``a + rs(a)`` is the unit, so ``a`` is the left supplement of
    ``rs(a)``; see :func:`pea_view`), and a permutation that sends every
    block into a block sends it onto one (see :func:`_block_twist`), so
    its inverse respects the blocks too.
    """
    bl = rel.block_of
    supp = g.pea.right_supp
    return _block_map((bl[a], bl[supp[a]]) for a in g.elements) is not None


def _check_c5prime(g: FiniteGpea, rel: Partition) -> bool:
    """C5′ as a block map: each element's set of summand-block pairs
    ``{([u], [v]) : u + v = a}`` is constant on blocks.

    C5′ asks that whenever ``b + c`` is defined, every ``a`` related to
    it is a sum of members of ``[b]`` and ``[c]``: the pairs of ``b + c``
    lie among those of ``a``.  Read both ways round, related elements
    have the same pairs.  Every block is reached, because ``s = s + 0``.
    The pairs are bits ``[u] * n + [v]`` of one mask.
    """
    bl = rel.block_of
    n = g.size
    pairs = [0] * n
    for u, v, s in g.sums:
        pairs[s] |= 1 << (bl[u] * n + bl[v])
    return _block_map((bl[a], pairs[a]) for a in g.elements) is not None


def _check_cr(g: FiniteGpea, rel: Partition) -> bool:
    """CR on per-element masks: related ``a`` and ``b`` share a lower
    bound ``c`` and an upper bound ``d`` whose differences ``a - c``,
    ``b - c``, ``d - a`` and ``d - b`` (right subtraction) lie in the
    zero class.

    On a validated table ``c <= a`` iff some sum ``(x, c, a)`` exists,
    and ``x`` is then the right subtraction of ``c`` from ``a``.  So one
    pass over the sums ``(x, c, s)`` with ``x`` in the zero class fills
    ``lo[s]``, the ``c`` below ``s`` with a zero-class difference, and
    ``hi[c]``, the ``s`` above ``c`` with one; the lower and upper bounds
    are chosen independently, so CR holds iff ``lo[a] & lo[b]`` and
    ``hi[a] & hi[b]`` are both nonzero for all related ``a`` and ``b``.
    """
    bl = rel.block_of
    zero = bl[0]
    lo = [0] * g.size
    hi = [0] * g.size
    for x, c, s in g.sums:
        if bl[x] == zero:
            lo[s] |= 1 << c
            hi[c] |= 1 << s
    return all(
        lo[a] & lo[b] and hi[a] & hi[b]
        for block in rel.blocks
        for a, b in combinations(block, 2)
    )


def gcr_condition(
    g: FiniteGpea, rel: Partition, ideal_members: Iterable[int], form: int = 1
) -> bool:
    """Related elements admit member-padded equal sums.

    Form 1: for all related ``a, b`` there are members ``i, j`` with
    ``i + a == j + b``.  Form 2: members on the right, ``a + k == b + l``.
    A partition of another size, or another form, is refused with
    :class:`MalformedTableError`.
    """
    g.require_validated()
    if rel.size != g.size:
        raise MalformedTableError("partition size does not match the carrier")
    if form not in (1, 2):
        raise MalformedTableError(f"form must be 1 or 2, not {form!r}")
    mask = _subset_mask(g, ideal_members)
    # padded[x]: the defined sums i + x (form 1) or x + i (form 2), i a member
    padded = [0] * g.size
    for x, y, s in g.sums:
        member, other = (x, y) if form == 1 else (y, x)
        if mask >> member & 1:
            padded[other] |= 1 << s
    # distinct pairs only: a member set without 0 can leave padded[a] empty
    return all(
        padded[a] & padded[b]
        for block in rel.blocks
        for a, b in combinations(block, 2)
    )


def _block_twist(rel: Partition, gamma: Sequence[int]) -> dict[int, int] | None:
    """The twist on blocks, or ``None`` when ``gamma`` splits a block.

    A permutation that sends every block into a block sends it onto one:
    the images of the blocks partition the carrier again, into as many
    parts as there are blocks, each inside a block, so each block holds
    exactly one image.  The relation is then twist compatible.
    """
    bl = rel.block_of
    return _block_map((bl[a], bl[gamma[a]]) for a in range(rel.size))


def classify_relation(
    g: FiniteGpea,
    rel: Partition,
    ideal_for_gcr: Iterable[int] | None = None,
    gamma: Sequence[int] | None = None,
) -> CongruenceFlags:
    """Compute every congruence condition for a partition by direct search."""
    g.require_validated()
    if rel.size != g.size:
        raise MalformedTableError("partition size does not match the carrier")
    if gamma is not None:
        gamma = _require_automorphism(g, gamma)
    flags = _stored(g, ("relation", rel.block_of), lambda: _relation_flags(g, rel))
    if ideal_for_gcr is None and gamma is None:
        return flags
    return replace(
        flags,
        gcr=(
            gcr_condition(g, rel, ideal_for_gcr, form=1)
            if ideal_for_gcr is not None
            else None
        ),
        gamma_congruence=(
            _block_twist(rel, gamma) is not None if gamma is not None else None
        ),
    )


def _relation_flags(g: FiniteGpea, rel: Partition) -> CongruenceFlags:
    """The twist- and GCR-free verdicts of ``rel``: the relation kernel."""
    return CongruenceFlags(
        c1=True,  # partitions are equivalences by construction
        c2=_block_sums(g, rel.block_of) is not None,
        c3=_check_c3(g, rel.block_of),
        c4=_check_c4(g, rel),
        c5=_check_c5(g, rel),
        c4prime=_check_c4prime(g, rel) if g.flags.has_unit else None,
        c5prime=_check_c5prime(g, rel),
        cr=_check_cr(g, rel),
        gcr=None,
        gamma_congruence=None,
    )


# ------------------------------------------------------- induced relation


def sim_from_ideal(g: FiniteGpea, members: Iterable[int]) -> Partition:
    """The relation "equal after peeling a member off each side".

    ``a`` is related to ``b`` iff there are members ``i <= a`` and
    ``j <= b`` with ``a minus i == b minus j`` (right subtraction).  The
    relation is reflexive and symmetric by construction; transitivity is
    *checked*, and a failure raises :class:`NotEquivalenceError` rather than
    silently taking the transitive closure.

    On a normal ideal the left-subtraction variant is the same relation,
    because ``s`` has the same right and left peels: conjugation rewrites
    ``d + i == s`` as ``c + d == d + i`` and ``i + d == s`` as ``d + e ==
    i + d``, and normality puts ``c`` and ``e`` in the ideal with ``i``.
    """
    flags = classify_subset(g, members)
    if not flags.ideal:
        raise MalformedTableError("sim_from_ideal requires an ideal")
    mask = _subset_mask(g, members)
    n = g.size
    # d + i == s with i a member makes d a right peel of s.
    holders = [0] * n  # holders[d]: the s with d among their peels
    for d, i, s in g.sums:
        if mask >> i & 1:
            holders[d] |= 1 << s
    related = [0] * n  # related[a]: the b sharing a peel with a
    for h in holders:
        for a in range(n):
            if h >> a & 1:
                related[a] |= h

    for a in range(n):
        for b in range(n):
            missing = related[b] & ~related[a]
            if related[a] >> b & 1 and missing:
                c = (missing & -missing).bit_length() - 1
                raise NotEquivalenceError(
                    f"NOT_EQUIVALENCE: transitivity fails at ({a}, {b}, {c})"
                )
    # A transitive relation's masks are its classes.
    return Partition.from_block_of(related)


# ------------------------------------------------------------------ quotient


def quotient(g: FiniteGpea, rel: Partition) -> FiniteGpea:
    """The block algebra of a congruence.

    Requires a congruence whose quotient is again an algebra of the same
    kind (conditions C4 and C5); the result is validated, and a validation
    failure is surfaced as a bug rather than returned.  The block table
    exists: C2, part of the congruence flag, is ``_block_sums`` not being
    ``None``.
    """
    flags = classify_relation(g, rel)
    if not (flags.congruence and flags.c4 and flags.c5):
        raise MalformedTableError(
            "quotient requires a congruence satisfying C4 and C5"
        )
    table = _block_sums(g, rel.block_of)
    names = {
        i: "{" + ",".join(g.name(x) for x in sorted(block)) + "}"
        for i, block in enumerate(rel.blocks)
    }
    q = FiniteGpea(len(rel.blocks), table, names)
    q.validate()  # raises InvalidAlgebraError loudly on an implementation bug
    return q


@dataclass(frozen=True)
class RoundtripVerdict:
    """Outcome of the Riesz-congruence/directed-classes/zero-class roundtrip."""

    passed: bool
    riesz_congruence: bool
    classes_directed: bool
    zero_class: frozenset[int]
    detail: str = ""


def riesz_congruence_roundtrip(g: FiniteGpea, rel: Partition) -> RoundtripVerdict:
    """Check that a C4+C5' congruence is Riesz iff its classes are directed.

    When the relation is Riesz, additionally require that its zero class is
    a normal Riesz ideal and that the relation induced by that ideal equals
    the input relation.
    """
    flags = classify_relation(g, rel)
    if not (flags.congruence and flags.c4 and flags.c5prime):
        raise MalformedTableError(
            "roundtrip requires a congruence satisfying C4 and C5'"
        )
    directed = all(
        g.subset_upward_directed(block) and g.subset_downward_directed(block)
        for block in rel.blocks
    )
    riesz = flags.riesz_congruence
    if riesz != directed:
        return RoundtripVerdict(
            False, riesz, directed, rel.block(0),
            detail="Riesz verdict disagrees with class directedness",
        )
    if not riesz:
        return RoundtripVerdict(True, riesz, directed, rel.block(0))
    zero_class = rel.block(0)
    zflags = classify_subset(g, zero_class)
    if not (zflags.normal and zflags.riesz):
        return RoundtripVerdict(
            False, riesz, directed, zero_class,
            detail="zero class of a Riesz congruence is not a normal Riesz ideal",
        )
    if sim_from_ideal(g, zero_class) != rel:
        return RoundtripVerdict(
            False, riesz, directed, zero_class,
            detail="relation induced by the zero class differs from the input",
        )
    return RoundtripVerdict(True, riesz, directed, zero_class)


# ------------------------------------------------------------- enumeration


def ideal_closure(g: FiniteGpea, seed: int) -> int:
    """Least ideal (as bitmask) containing the seed bitmask."""
    seed |= 1  # ideals contain 0
    return _grower(g)(0, [x for x in g.elements if seed >> x & 1])


def _grower(g: FiniteGpea) -> Callable[[int, list[int]], int]:
    """``grow(ideal, pending)``: the least ideal holding both, by a worklist.

    Each element entering pushes its lower set and its sums with the
    members present, so every pair is summed once both are in.  The mask
    grown from must be an ideal, or empty.
    """
    n = g.size
    down = g.order.down_masks
    partners: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for a, b, s in g.sums:  # partners[y]: each defined (z, y + z), (z, z + y)
        partners[a].append((b, s))
        partners[b].append((a, s))

    def grow(grown: int, pending: list[int]) -> int:
        while pending:
            y = pending.pop()
            if grown >> y & 1:
                continue
            grown |= 1 << y
            fresh = down[y] & ~grown
            if fresh:
                pending += [z for z in range(n) if fresh >> z & 1]
            pending += [s for z, s in partners[y] if grown >> z & 1]
        return grown

    return grow


def enumerate_ideals(g: FiniteGpea) -> list[frozenset[int]]:
    """All ideals, smallest first (by size, then by sorted members).

    Grown from the zero ideal: an ideal ``I`` is extended only by an ``x``
    whose strict lower set lies in ``I``, and the closure of ``I ∪ {x}``
    is grown from ``I``.  This reaches every ideal ``J``: for ``I ⊊ J`` and
    ``m`` minimal in ``J \\ I``, everything strictly below ``m`` lies in
    ``I``, so ``m`` is adjoined, and the closure of ``I ∪ {m}`` is an ideal
    inside ``J``, larger than ``I``.
    """
    return list(_stored(g, ("ideals",), lambda: _ideal_sweep(g)))


def _ideal_sweep(g: FiniteGpea) -> tuple[frozenset[int], ...]:
    n = g.size
    down = g.order.down_masks
    grow = _grower(g)
    seen = {1}  # the zero ideal
    frontier = [1]
    while frontier:
        current = frontier.pop()
        for x in range(n):
            if down[x] & ~current != 1 << x:
                continue
            grown = grow(current, [x])
            if grown not in seen:
                seen.add(grown)
                frontier.append(grown)
    subsets = [
        frozenset(x for x in range(n) if mask >> x & 1) for mask in seen
    ]
    return tuple(sorted(subsets, key=lambda s: (len(s), sorted(s))))


def normal_riesz_ideals(
    g: FiniteGpea,
    gamma: Sequence[int] | None = None,
    include_improper: bool = True,
) -> list[frozenset[int]]:
    """All normal Riesz ideals but ``{0}``, optionally twist-closed.

    ``gamma``, when given, must be an automorphism, even when no ideal is
    classified against it.
    """
    if gamma is not None:
        gamma = _require_automorphism(g, gamma)
    return [
        members
        for members in enumerate_ideals(g)
        if _in_family(g, members, gamma, include_improper)
    ]


def _in_family(
    g: FiniteGpea,
    members: frozenset[int],
    gamma: Sequence[int] | None,
    include_improper: bool,
) -> bool:
    """Whether the ideal ``members`` is one of :func:`normal_riesz_ideals`."""
    if members == frozenset({0}) or (not include_improper and len(members) == g.size):
        return False
    flags = classify_subset(g, members, gamma)
    return flags.normal and flags.riesz and (gamma is None or bool(flags.gamma_closed))


def smallest_normal_riesz_ideal(
    g: FiniteGpea,
    gamma: Sequence[int] | None = None,
    include_improper: bool = True,
) -> frozenset[int] | None:
    """The nontrivial normal Riesz (twist-closed) ideal contained in all
    others, or ``None`` when the family is empty or has no minimum.

    The ideals are scanned smallest first, as :func:`enumerate_ideals`
    lists them.  The first member of the family is the only candidate: a
    least member has the smallest size.  It is the least member exactly
    when every other member contains it, so after it the scan classifies
    only the ideals that do not contain it, and stops at the first of
    those in the family.  ``gamma``, when given, must be an automorphism,
    as for :func:`normal_riesz_ideals`.
    """
    if gamma is not None:
        gamma = _require_automorphism(g, gamma)
    candidate: frozenset[int] | None = None
    for members in enumerate_ideals(g):
        if candidate is not None and candidate <= members:
            continue
        if _in_family(g, members, gamma, include_improper):
            if candidate is not None:
                return None
            candidate = members
    return candidate


# ------------------------------------------------------------- congruences


CONGRUENCE_LIMIT = 8


def congruences(g: FiniteGpea) -> Iterator[Partition]:
    """All congruences (C1-C3) of a small algebra, via partition search.

    The carrier must have at most ``CONGRUENCE_LIMIT`` elements: the walk
    cuts every prefix that breaks C2, but in the worst case (no sums to
    cut on) it still visits Bell-number many partitions.
    """
    g.require_validated()
    if g.size > CONGRUENCE_LIMIT:
        raise BudgetExceededError(
            f"congruence search over all partitions is limited to {CONGRUENCE_LIMIT} elements"
        )
    yield from _stored(g, ("congruences",), lambda: _partition_walk(g))


def _partition_walk(g: FiniteGpea) -> tuple[Partition, ...]:
    """Every partition passing C2 and C3, in ``all_partitions`` order.

    The restricted-growth strings are labelled depth-first, in
    lexicographic order.  Each defined sum ``(a, b, a + b)`` is tested
    once, when the largest of its three elements is labelled: C2 asks
    the block map ``(label a, label b) -> label(a + b)`` to be a map, so
    the walk keeps that map for the labelled prefix, undoes it on
    backtrack and cuts a prefix at its first conflict, since every string
    extending it breaks C2 too.  C3 is tested on the labels of each
    complete labelling that passes C2, and a ``Partition`` is built only
    for a congruence.
    """
    n = g.size
    closing: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for a, b, s in g.sums:
        closing[max(a, b, s)].append((a, b, s))
    labels = [0] * n
    # ``block_sum[i * n + j]`` is the label of the sums of blocks i and j,
    # or -1 while no labelled sum has met that pair of blocks.
    block_sum = [-1] * (n * n)
    found = []

    def extend(i: int, top: int) -> None:
        if i == n:
            if _check_c3(g, labels):
                found.append(Partition.from_block_of(labels))
            return
        for lab in range(top + 2):
            labels[i] = lab
            opened = []
            for a, b, s in closing[i]:
                key = labels[a] * n + labels[b]
                have = block_sum[key]
                if have < 0:
                    block_sum[key] = labels[s]
                    opened.append(key)
                elif have != labels[s]:
                    break
            else:
                extend(i + 1, max(top, lab))
            for key in opened:
                block_sum[key] = -1

    extend(0, -1)
    return tuple(found)
