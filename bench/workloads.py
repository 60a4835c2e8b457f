"""The benchmark's three workloads, the query pool and the expected answers.

A workload hands out *passes*: lists of queries that the harness runs one
after another.  ``enumerate-5`` and ``verify-4`` are one CLI command per
pass.  ``queries`` is the whole pool in a seeded order, so every pass does
the same work whatever the seed; only the order changes.  Every query
loads its table afresh (a builtin expression or an input file), so no
derived data is shared between queries.

Each query returns an *outcome* text: for CLI commands the exit code,
stdout and stderr; for library calls a rendering of the result; for a
call that raises, the exception.  Outcomes are compared with
``expected.json``, which ``make_expected.py`` wrote at the seed commit,
and with facts that do not come from the program (``FACTS``,
``KNOWN_CLASS_COUNTS`` and the verify checks below).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_FILE = BENCH_DIR / "expected.json"
INPUTS_DIR = BENCH_DIR / "inputs"

WORKLOADS = ("enumerate-5", "verify-4", "queries")

# Isomorphism-class counts of GPEAs on 1..5 elements.  Sizes 1..4 agree
# with the package's unpruned enumerate-and-deduplicate cross-check, and
# size 5 is the count its test suite pins.
KNOWN_CLASS_COUNTS = {1: 1, 2: 1, 3: 2, 4: 5, 5: 13}

VERIFY_RESULT_LINES = 29
# False by design (see the README's note on criterion 8); never "fixed".
VERIFY_KNOWN_FAILURE = "RESULT theorem=smallest_ideal_default instances=7 failures=5"

CHAIN2_CUBE = "product(chain(2),product(chain(2),chain(2)))"

# Catalog algebras of 6 to 32 elements: partial non-directed (fig1 and
# fig1 x chain(1)), many automorphisms (boolean(k): k!) and few
# (chain(2)^3: 6).  chain(8) has 9 elements, one past the congruence cap.
CATALOG = (
    "fig1",
    "chain(5)",
    "chain(7)",
    "chain(8)",
    "product(chain(1),chain(2))",
    "boolean(3)",
    "boolean(4)",
    "boolean(5)",
    CHAIN2_CUBE,
    "product(fig1,chain(1))",
    "product(chain(1),product(chain(1),chain(2)))",
    "product(chain(3),chain(3))",
)

# Unit extensions, written once by make_expected.py with gamma_unitize:
# file name -> (base expression, twist).  The base is elements 0..k-1.
EXTENSIONS = {
    "ext-chain2.gpea": ("chain(2)", (0, 1, 2)),
    "ext-fig1.gpea": ("fig1", (0, 2, 1, 3, 5, 4)),
    "ext-boolean3.gpea": ("boolean(3)", tuple(range(8))),
    "ext-fig1xchain1.gpea": (
        "product(fig1,chain(1))",
        (0, 1, 4, 5, 2, 3, 6, 7, 10, 11, 8, 9),
    ),
    "ext-chain2cube.gpea": (CHAIN2_CUBE, tuple(range(27))),
}


def _cli_id(argv: tuple[str, ...]) -> str:
    return "cli " + " ".join(argv)


def _lib_id(fn: str, *args: object) -> str:
    return "lib " + fn + " " + " ".join(str(a) for a in args)


ENUMERATE_5 = ("enumerate", "--size", "5")
VERIFY_4 = ("verify", "all", "--budget", "4")

# Facts that do not come from the program: 13 classes on 5 elements,
# |Aut(boolean(k))| = k!, boolean(k) has 2^k ideals, chain(2)^3 has 6
# automorphisms and 8 ideals.
FACTS = {
    _cli_id(ENUMERATE_5): f"RESULT count={KNOWN_CLASS_COUNTS[5]}",
    **{_cli_id(("autos", f"boolean({k})")): f"RESULT count={math.factorial(k)}" for k in (3, 4, 5)},
    **{_cli_id(("ideals", f"boolean({k})")): f"RESULT count={2**k}" for k in (3, 4, 5)},
    _cli_id(("autos", CHAIN2_CUBE)): "RESULT count=6",
    _cli_id(("ideals", CHAIN2_CUBE)): "RESULT count=8",
}


def _pool_specs() -> list[tuple]:
    """The (algebra, query) pairs, as ``("cli", argv)`` or ``("lib", fn, args)``."""
    specs: list[tuple] = []
    for expr in CATALOG:
        for argv in (
            ("check", expr),
            ("autos", expr),
            ("autos", expr, "--unitizing"),
            ("ideals", expr),
            ("ideals", expr, "--riesz"),
            ("rdp", expr),
        ):
            specs.append(("cli", argv))
    for name in EXTENSIONS:
        path = "inputs/" + name
        specs.append(("cli", ("check", path)))
        # The 54-element extension has 6 automorphisms but the search
        # takes ~12 s, longer than a run; its rdp and ideals stay in.
        if name != "ext-chain2cube.gpea":
            specs.append(("cli", ("autos", path, "--unitizing")))
        specs.append(("cli", ("ideals", path, "--riesz")))
        specs.append(("cli", ("rdp", path)))
    for expr, gamma in (
        ("fig1", "0,2,1,3,5,4"),
        ("chain(5)", "0,1,2,3,4,5"),
        ("boolean(3)", "0,1,2,3,4,5,6,7"),
        ("product(fig1,chain(1))", "0,1,4,5,2,3,6,7,10,11,8,9"),
        (CHAIN2_CUBE, ",".join(str(i) for i in range(27))),
    ):
        specs.append(("cli", ("unitize", expr, "--gamma", gamma)))
    # Ideals whose induced relation is a congruence, so each quotient is built.
    for expr, ideal in (
        ("fig1", "0,1,2"),
        ("boolean(3)", "0,1"),
        ("product(chain(1),chain(2))", "0,1,2"),
        ("product(fig1,chain(1))", "0,1,6,7"),
        (CHAIN2_CUBE, "0,1,2,9,10,11,18,19,20"),
        ("inputs/ext-fig1.gpea", "0,1,2,9,10,11"),
    ):
        specs.append(("cli", ("quotient", expr, "--ideal", ideal)))
    for base, k, perm in (
        ("chain(1)", 2, "1,0"),
        ("chain(1)", 3, "1,2,0"),
        ("chain(2)", 2, "0,1"),
        ("chain(1)", 4, "0,1,2,3"),
    ):
        specs.append(
            ("cli", ("kite", "--base", base, "--index", str(k), "--lambda", perm, "--rho", perm))
        )
    # congruences walks all partitions and is capped at 8 elements: the
    # 9-element inputs must keep raising BudgetExceededError.
    for src in (
        "fig1",
        "chain(5)",
        "chain(7)",
        "boolean(3)",
        "product(chain(1),chain(2))",
        "inputs/ext-chain2.gpea",
        "chain(8)",
        "product(chain(2),chain(2))",
    ):
        specs.append(("lib", "congruences", (src,)))
    for name, (base_expr, gamma) in EXTENSIONS.items():
        specs.append(("lib", "recognize_unitization", ("inputs/" + name, tuple(range(len(gamma))))))
    specs.append(("lib", "recognize_unitization", ("boolean(2)", (0, 1))))
    specs.append(("lib", "recognize_unitization", ("inputs/ext-fig1.gpea", tuple(range(6, 12)))))
    specs.append(("lib", "recognize_unitization", ("fig1", (0, 3))))
    for src in ["inputs/" + name for name in EXTENSIONS] + ["boolean(3)", "chain(5)"]:
        specs.append(("lib", "two_valued_states", (src,)))
    # kite_iso proves uniqueness by exhaustive search up to 64 elements
    # and by the forcing argument above: index 5 (64) against index 6 (128).
    for base, k, perm in (
        ("chain(1)", 6, (0, 1, 2, 3, 4, 5)),
        ("chain(1)", 5, (0, 1, 2, 3, 4)),
        ("chain(1)", 5, (1, 2, 3, 4, 0)),
        ("chain(1)", 3, (1, 2, 0)),
        ("chain(2)", 2, (1, 0)),
    ):
        specs.append(("lib", "kite_iso", (base, k, perm, perm)))
    return specs


# ------------------------------------------------------------------ outcomes


def _run_cli(gpea: ModuleType, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = gpea.cli.run(argv)
    text = f"exit {code}\n{out.getvalue()}"
    if err.getvalue():
        text += "stderr\n" + err.getvalue()
    return text


def _load(gpea: ModuleType, src: str):
    """A validated table from a builtin expression or an input file, read now."""
    if src.startswith("inputs/"):
        table = gpea.parse((BENCH_DIR / src).read_text(encoding="utf-8"))
    else:
        table = gpea.builtin(src)
    return table.validate()


def _partition_text(rel) -> str:
    blocks = sorted(sorted(b) for b in rel.blocks)
    return "|".join(",".join(str(x) for x in b) for b in blocks)


def _congruences(gpea: ModuleType, src: str) -> str:
    rels = list(gpea.congruences(_load(gpea, src)))
    lines = ["CONGRUENCE " + _partition_text(rel) for rel in rels]
    return "\n".join(lines + [f"RESULT count={len(rels)}"])


def _recognize(gpea: ModuleType, src: str, members: tuple[int, ...]) -> str:
    rec = gpea.recognize_unitization(_load(gpea, src), members)
    return (
        f"GAMMA {rec.gamma}\nISO {rec.iso}\nDIAGNOSTICS {rec.diagnostics}\n"
        f"RESULT recognized={str(rec.recognized).lower()}"
    )


def _states(gpea: ModuleType, src: str) -> str:
    states = gpea.two_valued_states(_load(gpea, src))
    lines = ["STATE " + "".join(str(v) for v in s.values) for s in states]
    return "\n".join(lines + [f"RESULT count={len(states)}"])


def _kite_iso(gpea: ModuleType, base: str, k: int, lam: tuple, rho: tuple) -> str:
    report = gpea.kite_iso(gpea.KiteSpec(_load(gpea, base), k, lam, rho))
    return (
        "PHI " + ",".join(str(x) for x in report.phi) + "\n"
        f"RESULT size={report.kite.algebra.size}\n"
        f"RESULT exhaustive={str(report.searched_exhaustively).lower()}"
    )


_LIBRARY = {
    "congruences": _congruences,
    "recognize_unitization": _recognize,
    "two_valued_states": _states,
    "kite_iso": _kite_iso,
}


def outcome_of(run: Callable[[], str]) -> str:
    """Run a query; an exception is an outcome too, compared like any other."""
    try:
        return run()
    except Exception as exc:  # the expected answer says whether it may raise
        return f"raises {type(exc).__name__}: {exc}"


@dataclass(frozen=True)
class Query:
    id: str
    run: Callable[[], str]


def _make_query(gpea: ModuleType, spec: tuple) -> Query:
    if spec[0] == "cli":
        argv = spec[1]
        real = [str(BENCH_DIR / a) if a.startswith("inputs/") else a for a in argv]
        return Query(_cli_id(argv), lambda: _run_cli(gpea, real))
    _, fn, args = spec
    return Query(_lib_id(fn, *args), lambda: _LIBRARY[fn](gpea, *args))


# ----------------------------------------------------------------- workloads


def make_pool(name: str, gpea: ModuleType) -> list[Query]:
    """The queries one pass of workload ``name`` runs, in pool order."""
    if name == "enumerate-5":
        specs = [("cli", ENUMERATE_5)]
    elif name == "verify-4":
        specs = [("cli", VERIFY_4)]
    elif name == "queries":
        specs = _pool_specs()
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return [_make_query(gpea, spec) for spec in specs]


def load_expected() -> dict[str, str]:
    with EXPECTED_FILE.open(encoding="utf-8") as fh:
        return json.load(fh)


class Workload:
    """Hands out passes and judges each outcome against the expected answers."""

    def __init__(self, name: str, gpea: ModuleType, seed: int, expected: dict[str, str]):
        self.name = name
        self.gpea = gpea
        self.expected = expected
        self.rng = random.Random(seed)
        self.pool = make_pool(name, gpea)
        missing = [q.id for q in self.pool if q.id not in expected]
        if missing:
            raise KeyError(f"no expected answer for {missing}")

    def next_pass(self) -> list[Query]:
        queries = list(self.pool)
        self.rng.shuffle(queries)
        return queries

    def check(self, query: Query, outcome: str) -> str | None:
        """A description of what is wrong with ``outcome``, or None."""
        want = self.expected[query.id]
        if outcome != want:
            got_lines, want_lines = outcome.splitlines(), want.splitlines()
            for i, (g, w) in enumerate(zip(got_lines, want_lines)):
                if g != w:
                    return f"line {i + 1}: got {g!r}, expected {w!r}"
            return f"got {len(got_lines)} lines, expected {len(want_lines)}"
        fact = FACTS.get(query.id)
        if fact is not None and fact not in outcome.splitlines():
            return f"missing {fact!r}"
        if self.name == "verify-4":
            return _verify_problem(outcome)
        return None

    def final_problems(self) -> list[str]:
        """Checks made once per run, outside the timed passes."""
        problems = []
        if self.name == "enumerate-5":
            for n in range(1, 5):
                got = len(self.gpea.enumerate_gpeas(n))
                if got != KNOWN_CLASS_COUNTS[n]:
                    problems.append(f"size {n}: {got} classes, expected {KNOWN_CLASS_COUNTS[n]}")
        return problems


def _verify_problem(outcome: str) -> str | None:
    lines = outcome.splitlines()
    results = [line for line in lines if line.startswith("RESULT ")]
    if lines[0] != "exit 1":
        return f"exit code line {lines[0]!r}, expected 'exit 1'"
    if len(results) != VERIFY_RESULT_LINES:
        return f"{len(results)} RESULT lines, expected {VERIFY_RESULT_LINES}"
    if VERIFY_KNOWN_FAILURE not in results:
        return f"missing {VERIFY_KNOWN_FAILURE!r}"
    others = [r for r in results if r != VERIFY_KNOWN_FAILURE and not r.endswith(" failures=0")]
    if others:
        return f"unexpected failures: {others}"
    return None
