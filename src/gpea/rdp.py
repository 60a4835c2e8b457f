"""Riesz decomposition properties and their transfer into unit extensions.

Four brute-force checkers over a finite partial-operation table:

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

For a total base algebra, each of the four properties holds in the base
exactly when it holds in any of its unit extensions; ``rdp_transfer``
checks that equivalence and refuses non-total input, where it genuinely
fails (a six-element commutative counterexample has RDP while its
extension does not).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

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


def _refinements(
    g: FiniteGpea,
    pairs: list[list[tuple[int, int]]],
    a: int,
    b: int,
    c: int,
    d: int,
) -> Iterator[tuple[int, int, int, int]]:
    for e11, e12 in pairs[a]:
        for e21, e22 in pairs[b]:
            if g.value(e11, e21) == c and g.value(e12, e22) == d:
                yield e11, e12, e21, e22


def _commutes_below(g: FiniteGpea, e12: int, e21: int) -> bool:
    masks = g.order.down_masks
    lower_left = [x for x in g.elements if masks[e12] >> x & 1]
    lower_right = [y for y in g.elements if masks[e21] >> y & 1]
    for f in lower_left:
        for h in lower_right:
            s = g.value(f, h)
            if s is None or g.value(h, f) != s:
                return False
    return True


def rdp_profile(g: FiniteGpea) -> RdpProfile:
    """Evaluate all four decomposition properties by exhaustive search."""
    g.require_validated()
    # Row-major order of g.sums keeps every list of pairs sorted.
    pairs: list[list[tuple[int, int]]] = [[] for _ in g.elements]
    for x, y, s in g.sums:
        pairs[s].append((x, y))

    equations = sorted(
        (a, b, c, d) for lst in pairs for (a, b) in lst for (c, d) in lst
    )

    down_masks = g.order.down_masks
    rdp = rdp1 = rdp2 = True
    w_rdp = w_rdp1 = w_rdp2 = None
    for eq in equations:
        a, b, c, d = eq
        found = found1 = found2 = False
        for e11, e12, e21, e22 in _refinements(g, pairs, a, b, c, d):
            found = True
            if not found1 and _commutes_below(g, e12, e21):
                found1 = True
            if not found2 and down_masks[e12] & down_masks[e21] == 1:
                found2 = True
            if found1 and found2:
                break
        if rdp and not found:
            rdp, w_rdp = False, eq
        if rdp1 and not found1:
            rdp1, w_rdp1 = False, eq
        if rdp2 and not found2:
            rdp2, w_rdp2 = False, eq

    rdp0 = True
    w_rdp0 = None
    for a in g.elements:
        if not rdp0:
            break
        for b in g.elements:
            if not rdp0:
                break
            for c in g.elements:
                s = g.value(b, c)
                if s is None or not g.le(a, s):
                    continue
                if not any(
                    g.value(b1, c1) == a
                    for b1 in g.elements
                    if down_masks[b] >> b1 & 1
                    for c1 in g.elements
                    if down_masks[c] >> c1 & 1
                ):
                    rdp0, w_rdp0 = False, (a, b, c)
                    break

    if rdp and not rdp0:
        raise InvariantViolation(
            "refinement property holds but bound splitting fails"
        )
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
