"""Riesz decomposition properties and their transfer into unit extensions.

Four exhaustive checkers over a finite partial-operation table:

* **RDP** — every identity ``a + b == c + d`` admits a refinement matrix
  ``e11, e12, e21, e22`` with ``a = e11 + e12``, ``b = e21 + e22``,
  ``c = e11 + e21`` and ``d = e12 + e22``;
* **RDP1** — some refinement additionally makes every pair below the
  off-diagonal entries commute (both sums defined and equal);
* **RDP2** — some refinement whose off-diagonal entries have no common
  lower bound besides 0;
* **RDP0** — whenever ``a <= b + c`` there are ``b1 <= b`` and
  ``c1 <= c`` with ``a = b1 + c1``.

The refinement quantifier in RDP1/RDP2 is existential: one refinement
with the extra property suffices.  "Commute" demands both orders
defined; the meet condition is read as "every common lower bound is 0",
which needs no actual meets in the underlying poset.

Refinements are not searched but derived.  For ``a + b == c + d`` the
corner ``e11`` runs over the common lower bounds of ``a`` and ``c``;
cancellation then fixes the rest by subtraction (``e12`` with
``e11 + e12 == a``, ``e21`` with ``e11 + e21 == c``, ``e22`` with
``e21 + e22 == b``), leaving only ``e12 + e22 == d`` to test, so each
refinement is found exactly once.  Each identity is also checked once up
to transposition: only ``(a, b, c, d)`` with ``(a, b)`` before ``(c, d)``.
Transposing a refinement of ``(a, b, c, d)`` (swapping ``e12`` and
``e21``) gives a refinement of ``(c, d, a, b)``, and both the RDP1
commute-below test and the RDP2 meet test are symmetric in ``e12`` and
``e21``, so the two identities fail together, and the lexicographically
smallest failure, the witness, has ``(a, b) < (c, d)``.  The identity
``a + b == a + b`` always refines as ``(a, 0; 0, b)``.  RDP0 collects,
per defined ``b + c``, the bitmask of all sums ``b1 + c1`` below it.

For a total base algebra, each of the four properties holds in the base
exactly when it holds in any of its unit extensions; ``rdp_transfer``
checks that equivalence and refuses non-total input, where it genuinely
fails (a six-element commutative counterexample has RDP while its
extension does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .core import FiniteGpea, InvariantViolation, MalformedTableError
from .unitization import gamma_unitize

__all__ = ["RdpProfile", "TransferReport", "rdp_profile", "rdp_transfer"]


@dataclass(frozen=True)
class RdpProfile:
    """Verdicts of the four decomposition properties with failure witnesses.

    Each witness is ``None`` when the property holds; otherwise it is the
    lexicographically smallest failing instance — ``(a, b, c, d)`` of an
    unrefinable identity for ``rdp``/``rdp1``/``rdp2``, and ``(a, b, c)``
    of an unsplittable bound for ``rdp0``.
    """

    rdp0: bool
    rdp: bool
    rdp1: bool
    rdp2: bool
    rdp0_witness: tuple[int, int, int] | None
    rdp_witness: tuple[int, int, int, int] | None
    rdp1_witness: tuple[int, int, int, int] | None
    rdp2_witness: tuple[int, int, int, int] | None

    def lines(self) -> list[str]:
        out = []
        for name in ("rdp0", "rdp", "rdp1", "rdp2"):
            verdict = getattr(self, name)
            line = f"{name}={str(verdict).lower()}"
            witness = getattr(self, f"{name}_witness")
            if witness is not None:
                line += f" witness={witness}"
            out.append(line)
        return out


def rdp_profile(g: FiniteGpea) -> RdpProfile:
    """Evaluate all four decomposition properties by exhaustive search.

    That RDP implies RDP0 is not enforced here: ``verify`` counts it as
    ``refinement_implies_splitting``, where a failure is reported.
    """
    g.require_validated()
    n = g.size
    table = g.table
    left = g.subtraction_tables[0]
    down = g.order.down_masks
    below = [[x for x in range(n) if down[y] >> x & 1] for y in range(n)]
    # Row-major order of g.sums keeps every list of pairs sorted, so the
    # loop below meets the identities a + b == c + d in lexicographic order
    # and the first failure of each property is its witness.
    pairs: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for x, y, s in g.sums:
        pairs[s].append((x, y))

    commutes: dict[int, bool] = {}  # e12 * n + e21 -> "commutes below"
    rdp = rdp1 = rdp2 = True
    w_rdp = w_rdp1 = w_rdp2 = None
    met = [0] * n  # met[s]: the pairs of sum s met so far, (a, b) included
    for a, b, s in g.sums:
        met[s] += 1
        for c, d in pairs[s][met[s]:]:  # (c, d) after (a, b): see the module docstring
            found = False
            found1, found2 = not rdp1, not rdp2  # a later failure is no witness
            for e11 in below[a]:
                if not down[c] >> e11 & 1:
                    continue
                e12 = left[e11 * n + a]
                e21 = left[e11 * n + c]
                e22 = left[e21 * n + b]
                if e22 == n or table[e12 * n + e22] != d:
                    continue
                found = True
                if not found1:
                    key = e12 * n + e21
                    if key not in commutes:
                        commutes[key] = all(
                            table[f * n + h] != n
                            and table[f * n + h] == table[h * n + f]
                            for f in below[e12]
                            for h in below[e21]
                        )
                    found1 = commutes[key]
                found2 = found2 or down[e12] & down[e21] == 1
                if found1 and found2:
                    break
            if rdp and not found:
                rdp, w_rdp = False, (a, b, c, d)
            if not found1:
                rdp1, w_rdp1 = False, (a, b, c, d)
            if not found2:
                rdp2, w_rdp2 = False, (a, b, c, d)

    w_rdp0 = None
    for b, c, s in g.sums:
        # Bit n stands for "undefined" and lies outside every down mask.
        reach = 0
        for b1 in below[b]:
            row = b1 * n
            for c1 in below[c]:
                reach |= 1 << table[row + c1]
        unsplit = down[s] & ~reach
        if unsplit:
            a = (unsplit & -unsplit).bit_length() - 1
            if w_rdp0 is None or a < w_rdp0[0]:
                w_rdp0 = (a, b, c)
    rdp0 = w_rdp0 is None
    return RdpProfile(rdp0, rdp, rdp1, rdp2, w_rdp0, w_rdp, w_rdp1, w_rdp2)


@dataclass(frozen=True)
class TransferReport:
    """Profiles of a total base and its unit extension, side by side."""

    base_profile: RdpProfile
    extension_profile: RdpProfile

    @property
    def agree(self) -> bool:
        return all(
            getattr(self.base_profile, name) == getattr(self.extension_profile, name)
            for name in ("rdp0", "rdp", "rdp1", "rdp2")
        )


def rdp_transfer(g: FiniteGpea, gamma: Sequence[int]) -> TransferReport:
    """Check that all four verdicts coincide between ``g`` and its extension.

    Requires a total base — the equivalence is only guaranteed there, and
    partial bases genuinely break it — and a unitizing ``gamma``.  A
    verdict mismatch raises :class:`InvariantViolation`.
    """
    g.require_validated()
    if not g.flags.total:
        raise MalformedTableError(
            "transfer comparison requires a total base operation"
        )
    extension = gamma_unitize(g, gamma)
    report = TransferReport(
        base_profile=rdp_profile(g),
        extension_profile=rdp_profile(extension.algebra),
    )
    if not report.agree:
        raise InvariantViolation(
            "decomposition verdicts differ between base and extension: "
            f"base {report.base_profile.lines()} "
            f"extension {report.extension_profile.lines()}"
        )
    return report
