"""Quantum semi-Markov dynamics and non-Markovianity measures.

Construct renewal (semi-Markov) quantum processes from waiting-time
distributions, build their dynamical maps in closed form, and quantify
their departure from semigroup dynamics:

- ``semimarkov``: waiting-time distributions, the dephasing and non-unital
  qubit families, coherence factors q(t) and canonical rates gamma(t), and
  a classical Monte Carlo renewal simulator.
- ``quantum``: generator snapshots with their Choi matrices.
- ``measures``: the deviation-from-semigroup measure xi from one function,
  ``sss_measure`` (exact, in rate and Choi forms, fixed and minimized
  references), zeta = xi/(1+xi), trace-distance revivals and Holevo
  information curves of the |+>, |-> pair, and CP-divisibility scans.
- ``numerics``: trace norms and a Volterra integro-differential solver.
- ``emitters`` / ``cli``: CSV/JSON/SVG serialization behind the ``qsm``
  command-line tool.

All randomness is counter-based and seeded explicitly; all evaluation
functions are pure, so output is deterministic.
"""

from . import errors, numerics, quantum, semimarkov, measures, emitters
from .errors import *
from .numerics import *
from .quantum import *
from .semimarkov import *
from .measures import *
from .emitters import *

__version__ = "0.1.0"

__all__ = ["__version__", *errors.__all__, *numerics.__all__, *quantum.__all__,
           *semimarkov.__all__, *measures.__all__, *emitters.__all__]
