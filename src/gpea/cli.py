"""Command-line surface: load tables, run constructions, verify theorems.

Exit codes follow one convention across all subcommands:

* ``0`` — the command ran; for report commands this includes negative
  findings (``RESULT rdp=false`` is a report, not an error).
* ``1`` — only from ``verify``: at least one theorem suite counted a
  failing instance.
* ``2`` — input error: unreadable or malformed file, a table that is not
  a valid algebra where one is required, flags that violate a
  construction's preconditions, or an exceeded element budget.

Output mixes human-readable lines with machine-readable
``RESULT key=value`` lines.  Commands that produce an algebra
(``unitize``, ``quotient``, ``kite``) print the serialized table to
stdout when no ``-o`` file is given, so they can be piped into other
commands; with ``-o`` the table goes to the file and a summary to
stdout.

Table arguments accept a file path, ``-`` for stdin, or a built-in
constructor expression such as ``fig1``, ``chain(2)``, ``boolean(2)``,
or ``product(chain(1),chain(2))``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path
from typing import Sequence

from .catalog import builtin, parse, serialize
from .core import (
    AlgebraError,
    FiniteGpea,
    InvalidAlgebraError,
    InvariantViolation,
    MalformedTableError,
    classify,
    element_budget,
    find_morphisms,
)
from .ideals import (
    NotEquivalenceError,
    classify_subset,
    enumerate_ideals,
    quotient,
    sim_from_ideal,
    smallest_normal_riesz_ideal,
)
from .kites import KiteSpec, _orbits, build_kite, check_kc
from .rdp import rdp_profile
from .unitization import enumerate_unitizing, gamma_unitize
from .verify import DEFAULT_ENUMERATION_BUDGET, SCOPES, run_verify
from . import catalog

__all__ = ["main", "run"]


class _InputError(Exception):
    """User-facing input problem; message is printed and exit code is 2."""


def _parse_permutation(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise _InputError(
            f"expected a comma-separated image list such as 0,2,1 — got {text!r}"
        ) from None


def _parse_members(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise _InputError(
            f"expected comma-separated element indices such as 0,3 — got {text!r}"
        ) from None


def _load_table(source: str) -> FiniteGpea:
    """Read a table from a path, stdin (``-``), or a builtin expression."""
    if source == "-":
        return parse(sys.stdin.read())
    path = Path(source)
    if path.exists():
        try:
            return parse(path.read_text(encoding="utf-8"))
        except OSError as exc:
            raise _InputError(f"cannot read {source}: {exc}") from exc
    element_budget()  # a malformed GPEA_BUDGET is reported as itself
    try:
        return builtin(source)
    except MalformedTableError:  # a budget refusal keeps its own message
        raise _InputError(
            f"{source!r} is neither an existing file nor a builtin expression "
            "(try fig1, chain(2), boolean(2), product(chain(1),chain(2)))"
        ) from None


def _load_valid(source: str) -> FiniteGpea:
    g = _load_table(source)
    try:
        return g.validate()
    except InvalidAlgebraError as exc:
        raise _InputError(f"{source}: table is not a valid algebra: {exc}") from exc


def _subset_text(members) -> str:
    return "{" + ",".join(str(x) for x in sorted(members)) + "}"


def _emit_table(g: FiniteGpea, out: str | None, summary: list[str]) -> None:
    """Serialized table to ``out`` (or stdout); summary only when filed."""
    text = serialize(g)
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")
        for line in summary:
            print(line)
        print(f"WROTE {out}")


# ---------------------------------------------------------------- subcommands


def _cmd_check(args: argparse.Namespace) -> int:
    g = _load_table(args.file)
    report = g._axiom_report  # a builtin's constructor has already run it
    print(f"ALGEBRA size={g.size}")
    for line in report.lines():
        print(line)
    if report.passed:
        g.validate()  # reads the report above
        flags = classify(g)
        print("FLAGS " + " ".join(f"{k}={str(v).lower()}" for k, v in flags.items()))
        if flags.has_unit:
            view = g.pea
            print(f"UNIT {g.name(view.unit)}")
            for a in g.elements:
                print(
                    f"SUPPLEMENTS {g.name(a)}: "
                    f"right={g.name(view.right_supp[a])} "
                    f"left={g.name(view.left_supp[a])} "
                    f"double_left={g.name(view.ll(a))}"
                )
    print(f"RESULT valid={str(report.passed).lower()}")
    return 0


def _cmd_ideals(args: argparse.Namespace) -> int:
    if args.exclude_improper and not args.riesz:
        raise _InputError("--exclude-improper needs --riesz")
    g = _load_valid(args.file)
    gamma = _parse_permutation(args.gamma) if args.gamma is not None else None
    count = 0
    for members in enumerate_ideals(g):
        flags = classify_subset(g, members, gamma)
        if args.normal and not flags.normal:
            continue
        if args.riesz and not (flags.normal and flags.riesz):
            continue
        count += 1
        text = " ".join(f"{k}={str(v).lower()}" for k, v in flags.items() if v is not None)
        print(f"IDEAL {_subset_text(members)} {text}")
    print(f"RESULT count={count}")
    if args.riesz:
        smallest = smallest_normal_riesz_ideal(
            g, gamma, include_improper=not args.exclude_improper
        )
        value = "none" if smallest is None else _subset_text(smallest)
        print(f"RESULT smallest={value}")
    return 0


def _cmd_autos(args: argparse.Namespace) -> int:
    g = _load_valid(args.file)
    kept = enumerate_unitizing(g) if args.unitizing else find_morphisms(g, g)
    for phi in kept:
        print("AUTO " + ",".join(str(x) for x in phi))
    print(f"RESULT count={len(kept)}")
    return 0


def _cmd_unitize(args: argparse.Namespace) -> int:
    g = _load_valid(args.file)
    gamma = _parse_permutation(args.gamma)
    ua = gamma_unitize(g, gamma)
    _emit_table(
        ua.algebra,
        args.output,
        [
            f"RESULT size={ua.algebra.size}",
            f"RESULT unit={ua.unit}",
        ],
    )
    return 0


def _cmd_quotient(args: argparse.Namespace) -> int:
    g = _load_valid(args.file)
    members = _parse_members(args.ideal)
    flags = classify_subset(g, members)
    if not flags.ideal:
        raise _InputError(f"{_subset_text(members)} is not an ideal")
    try:
        rel = sim_from_ideal(g, members)
    except NotEquivalenceError as exc:
        raise _InputError(
            f"{_subset_text(members)} induces no equivalence: {exc}"
        ) from exc
    q = quotient(g, rel)
    summary = ["BLOCK " + _subset_text(block) for block in rel.blocks]
    summary.append(f"RESULT blocks={len(rel.blocks)}")
    _emit_table(q, args.output, summary)
    return 0


def _cmd_kite(args: argparse.Namespace) -> int:
    base = _load_valid(args.base)
    lam = _parse_permutation(args.lam)
    rho = _parse_permutation(args.rho)
    spec = KiteSpec(base, args.index, lam, rho)
    kc = check_kc(spec)
    built = build_kite(spec)
    summary = [
        f"RESULT kci={str(kc.kci).lower()}",
        f"RESULT kcii={str(kc.kcii).lower()}",
        f"RESULT size={built.algebra.size}",
        f"RESULT connected={str(len(_orbits(spec)) == 1).lower()}",
    ]
    _emit_table(built.algebra, args.output, summary)
    return 0


def _cmd_rdp(args: argparse.Namespace) -> int:
    g = _load_valid(args.file)
    profile = rdp_profile(g)
    for line in profile.lines():
        print(line)
    for key, value in (
        ("rdp", profile.rdp),
        ("rdp0", profile.rdp0),
        ("rdp1", profile.rdp1),
        ("rdp2", profile.rdp2),
    ):
        print(f"RESULT {key}={str(value).lower()}")
    return 0


_FILTER_FLAGS = {
    "total": ("total", True),
    "no-total": ("total", False),
    "weakly-commutative": ("weakly_commutative", True),
    "no-weakly-commutative": ("weakly_commutative", False),
    "has-unit": ("has_unit", True),
    "no-has-unit": ("has_unit", False),
}


def _cmd_enumerate(args: argparse.Namespace) -> int:
    wanted: dict[str, bool] = {}
    for token in args.filter or ():
        if token not in _FILTER_FLAGS:
            raise _InputError(
                f"unknown filter {token!r}; choose from {', '.join(sorted(_FILTER_FLAGS))}"
            )
        key, value = _FILTER_FLAGS[token]
        wanted[key] = value
    tables = catalog.enumerate_gpeas(args.size, **wanted)
    for g in tables:
        sys.stdout.write(serialize(g))
        print()
    print(f"RESULT count={len(tables)}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    report = run_verify(args.scope, budget=args.budget)
    print(f"VERIFY scope={report.scope} budget={report.budget}")
    for line in report.detail_lines():
        print(line)
    for line in report.lines():
        print(line)
    return 0 if report.passed else 1


# -------------------------------------------------------------------- parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``gpea`` parser, built on the first :func:`run` of a process.

    It is built from constants only and ``parse_args`` keeps no state
    between calls (each returns a fresh ``Namespace``, and usage and help
    go to the ``sys.stderr`` and ``sys.stdout`` of the moment), so every
    later ``run`` reuses it.  Environment settings such as ``GPEA_BUDGET``
    are read by the commands, never frozen into the parser.
    """
    parser = argparse.ArgumentParser(
        prog="gpea",
        description=(
            "Finite-model workbench for generalized pseudo effect algebras: "
            "axiom checking, ideals, unit extensions, quotients, kites, "
            "refinement properties, enumeration, and theorem verification."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="command")

    p = sub.add_parser("check", help="verify the axioms and classify a table")
    p.add_argument("file", help="table file, '-' for stdin, or builtin expression")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ideals", help="list ideals and their classification")
    p.add_argument("file")
    p.add_argument("--gamma", help="automorphism as image list, e.g. 0,2,1")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--normal", action="store_true", help="only normal ideals")
    group.add_argument(
        "--riesz", action="store_true", help="only normal Riesz ideals"
    )
    p.add_argument(
        "--exclude-improper",
        action="store_true",
        help="exclude the whole carrier from the smallest-ideal report (needs --riesz)",
    )
    p.set_defaults(func=_cmd_ideals)

    p = sub.add_parser("autos", help="list automorphisms")
    p.add_argument("file")
    p.add_argument(
        "--unitizing",
        action="store_true",
        help="only automorphisms that admit a unit extension",
    )
    p.set_defaults(func=_cmd_autos)

    p = sub.add_parser("unitize", help="build the unit extension for a twist")
    p.add_argument("file")
    p.add_argument("--gamma", required=True, help="twist as image list")
    p.add_argument("-o", "--output", help="write the extension table here")
    p.set_defaults(func=_cmd_unitize)

    p = sub.add_parser("quotient", help="quotient by the relation an ideal induces")
    p.add_argument("file")
    p.add_argument("--ideal", required=True, help="ideal members, e.g. 0,3")
    p.add_argument("-o", "--output", help="write the quotient table here")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("kite", help="build the two-sided pasting of a power")
    p.add_argument("--base", required=True, help="base table")
    p.add_argument("--index", required=True, type=int, help="index set size")
    p.add_argument(
        "--lambda", dest="lam", required=True, help="first bijection as image list"
    )
    p.add_argument("--rho", required=True, help="second bijection as image list")
    p.add_argument("-o", "--output", help="write the kite table here")
    p.set_defaults(func=_cmd_kite)

    p = sub.add_parser("rdp", help="compute the four refinement verdicts")
    p.add_argument("file")
    p.set_defaults(func=_cmd_rdp)

    p = sub.add_parser("enumerate", help="list all tables of a size, up to isomorphism")
    p.add_argument("--size", required=True, type=int)
    p.add_argument(
        "--filter",
        action="append",
        help=f"restrict flags; one of {', '.join(sorted(_FILTER_FLAGS))}",
    )
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="run the theorem suites")
    p.add_argument("scope", choices=("all", *SCOPES))
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_ENUMERATION_BUDGET,
        help=f"largest enumerated size (default {DEFAULT_ENUMERATION_BUDGET})",
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Parse ``argv`` and execute; returns the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantViolation:
        raise  # a violated internal invariant is a bug; crash loudly
    except AlgebraError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> int:
    """Console entry point (UTF-8 output regardless of locale)."""
    for stream in (sys.stdout, sys.stderr):
        reconfigure = getattr(stream, "reconfigure", None)
        if reconfigure is not None:
            reconfigure(encoding="utf-8")
    return run()
