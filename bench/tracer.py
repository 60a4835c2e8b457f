"""Layer tracing from outside the program.

``Tracer.install`` replaces every binding of every public function of
the layer modules (in each ``gpea`` module namespace, the package
included) with a timing wrapper, and wraps the ``FiniteGpea`` constructor
and ``relabel``.  Each wrapper records a span: its duration, and the time
covered by the wrapped calls made inside it, so self time is the
difference.  Spans are aggregated per (function, parent function), which
keeps memory bounded however many calls a workload makes.  Calls are
also counted per binding, so ``validate_axioms`` calls made through the
``gpea.catalog`` name (the enumeration leaves) stay distinguishable from
those made through ``gpea.core``.

Generator functions (``congruences``) are timed across every resumption,
so their span covers the work done while the caller iterates.
"""

from __future__ import annotations

import inspect
import sys
import time
from collections import Counter
from types import ModuleType

LAYERS = ("core", "catalog", "ideals", "unitization", "kites", "rdp", "verify", "cli")

CONSTRUCTOR = "core.FiniteGpea"
RELABEL = "core.FiniteGpea.relabel"

# Functions whose result length is recorded (the numerators of two ratios).
_SIZED = ("core.find_morphisms", "ideals.enumerate_ideals", "catalog.enumerate_gpeas")


class Tracer:
    def __init__(self) -> None:
        self._stack: list[list] = []  # [name, seconds covered by child spans]
        # (name, parent) -> [calls, total_s, self_s, raised]
        self.spans: dict[tuple[str, str | None], list] = {}
        self.calls_via: Counter[tuple[str, str]] = Counter()
        self.returned: Counter[str] = Counter()
        self.public: list[str] = []

    # ------------------------------------------------------------ recording

    def _enter(self, name: str) -> list:
        frame = [name, 0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, elapsed: float, raised: bool, call: bool) -> None:
        stack = self._stack
        stack.pop()
        parent = stack[-1][0] if stack else None
        if stack:
            stack[-1][1] += elapsed
        rec = self.spans.get((name, parent))
        if rec is None:
            rec = self.spans[(name, parent)] = [0, 0.0, 0.0, 0]
        rec[0] += call
        rec[1] += elapsed
        rec[2] += elapsed - frame[1]
        rec[3] += raised

    def _wrap(self, name: str, fn, binding: str):
        perf = time.perf_counter
        sized = name in _SIZED

        if inspect.isgeneratorfunction(fn):

            def gen_wrapper(*args, **kwargs):
                self.calls_via[(name, binding)] += 1
                it = fn(*args, **kwargs)
                first = True
                while True:
                    frame = self._enter(name)
                    start = perf()
                    raised = False
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    except BaseException:
                        raised = True
                        raise
                    finally:
                        self._exit(name, frame, perf() - start, raised, first)
                        first = False
                    yield item

            gen_wrapper.__wrapped__ = fn
            return gen_wrapper

        def wrapper(*args, **kwargs):
            self.calls_via[(name, binding)] += 1
            frame = self._enter(name)
            start = perf()
            raised = False
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised = True
                raise
            finally:
                self._exit(name, frame, perf() - start, raised, True)
            if sized:
                self.returned[name] += len(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # ---------------------------------------------------------- installing

    def install(self) -> None:
        """Wrap every binding of the public layer functions in ``sys.modules``."""
        originals: dict[int, tuple[object, str]] = {}
        for layer in LAYERS:
            mod = sys.modules["gpea." + layer]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    originals[id(value)] = (value, f"{layer}.{attr}")
        self.public = sorted(name for _, name in originals.values())
        modules: list[ModuleType] = [
            m for key, m in sys.modules.items() if key == "gpea" or key.startswith("gpea.")
        ]
        for mod in modules:
            binding = mod.__name__.rpartition(".")[2]
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, self._wrap(hit[1], value, binding))
        cls = sys.modules["gpea.core"].FiniteGpea
        cls.__init__ = self._wrap(CONSTRUCTOR, cls.__init__, "core")
        cls.relabel = self._wrap(RELABEL, cls.relabel, "core")

    # ------------------------------------------------------------- reading

    def calls(self, name: str) -> int:
        return sum(rec[0] for (n, _), rec in self.spans.items() if n == name)

    def self_seconds(self, name: str) -> float:
        return sum(rec[2] for (n, _), rec in self.spans.items() if n == name)

    def raised(self, name: str) -> int:
        return sum(rec[3] for (n, _), rec in self.spans.items() if n == name)

    def calls_under(self, name: str, parent: str) -> int:
        rec = self.spans.get((name, parent))
        return rec[0] if rec else 0

    def span_table(self) -> list[dict]:
        rows = [
            {
                "name": name,
                "parent": parent,
                "calls": rec[0],
                "total_s": rec[1],
                "self_s": rec[2],
                "raised": rec[3],
            }
            for (name, parent), rec in self.spans.items()
        ]
        return sorted(rows, key=lambda r: -r["self_s"])
