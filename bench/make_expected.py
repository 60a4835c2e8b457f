"""Write the expected answers, and any missing unit-extension inputs.

Run from the repository root at a commit whose outputs are trusted::

    python3 bench/make_expected.py

Every query of every workload runs once; its outcome text becomes the
expected answer in ``expected.json``.  The checks in ``workloads.py``
that do not come from the program (class counts, automorphism and ideal
counts, the verify RESULT lines) are applied as well, and the script
refuses to write answers that break them.
"""

from __future__ import annotations

import json
import sys

import workloads
from run import _fresh_import


def main() -> int:
    gpea = _fresh_import()
    workloads.INPUTS_DIR.mkdir(exist_ok=True)
    for name, (expr, gamma) in workloads.EXTENSIONS.items():
        path = workloads.INPUTS_DIR / name
        if not path.exists():
            ua = gpea.gamma_unitize(gpea.builtin(expr).validate(), gamma)
            if sorted(ua.base_members) != list(range(len(gamma))):
                raise SystemExit(f"{name}: the base is not elements 0..{len(gamma) - 1}")
            path.write_text(gpea.serialize(ua.algebra), encoding="utf-8")
    expected: dict[str, str] = {}
    for name in workloads.WORKLOADS:
        for query in workloads.make_pool(name, gpea):
            outcome = workloads.outcome_of(query.run)
            if str(workloads.BENCH_DIR) in outcome:
                raise SystemExit(f"{query.id}: outcome depends on the checkout path")
            expected[query.id] = outcome
            print(f"{name}: {query.id}", file=sys.stderr)
    for name in workloads.WORKLOADS:
        wl = workloads.Workload(name, gpea, 0, expected)
        problems = [
            f"{q.id}: {p}" for q in wl.pool if (p := wl.check(q, expected[q.id])) is not None
        ] + wl.final_problems()
        if problems:
            raise SystemExit("refusing to write expected answers:\n" + "\n".join(problems))
    workloads.EXPECTED_FILE.write_text(
        json.dumps(expected, indent=1, sort_keys=True) + "\n", encoding="utf-8"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
