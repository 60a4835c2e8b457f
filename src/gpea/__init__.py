"""Finite-model workbench for generalized pseudo effect algebras.

A generalized pseudo effect algebra is a set with a partial, possibly
noncommutative addition that is associative, cancellative, positive, and
has a neutral zero; the unital case (largest element with two-sided
supplements) is a pseudo effect algebra.  This package represents such
algebras as finite partial-operation tables and provides:

* axiom verification, classification, induced order, subtraction, and
  supplement maps (:mod:`gpea.core`);
* ideals of every flavor, congruence conditions, induced relations, and
  quotients (:mod:`gpea.ideals`);
* unit extensions along a twist automorphism, their recognition, states,
  and congruence lifting (:mod:`gpea.unitization`);
* powers and two-sided pastings over an index set ("kites",
  :mod:`gpea.kites`);
* the four Riesz decomposition properties (:mod:`gpea.rdp`);
* built-in examples, a file format, windowed spot-checks of infinite
  examples, and an up-to-isomorphism enumerator (:mod:`gpea.catalog`);
* brute-force theorem suites over all of the above (:mod:`gpea.verify`)
  surfaced through the ``gpea`` command line (:mod:`gpea.cli`).
"""

from . import catalog, core, ideals, kites, rdp, unitization, verify
from .core import *
from .ideals import *
from .unitization import *
from .kites import *
from .rdp import *
from .catalog import *
from .verify import *

__all__ = [
    *core.__all__,
    *ideals.__all__,
    *unitization.__all__,
    *kites.__all__,
    *rdp.__all__,
    *catalog.__all__,
    *verify.__all__,
]
