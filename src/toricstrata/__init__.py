"""Exact orbit decomposition of affine toric varieties.

The package takes a rational polyhedral cone with integer ray generators
and computes, in exact arithmetic throughout, the decomposition of the
associated affine variety into orbits of the connected automorphism
group, together with the divisor class group, local class groups, roots,
one-parameter orbit connections, and the Luna stratification of the
characteristic quasitorus action.  Three independent computation routes
are cross-checked on every run.

Entry points: :func:`stratify` for the full pipeline, the public names of
each module (its ``__all__``, all re-exported here) for individual pieces,
and the ``toricstrata`` command for file-based use.
"""

from .abelian import *
from .cones import *
from .divisors import *
from .engine import *
from .errors import *
from .linalg import *
from .luna import *
from .roots import *

__version__ = "0.1.0"

__all__ = (
    abelian.__all__
    + cones.__all__
    + divisors.__all__
    + engine.__all__
    + errors.__all__
    + linalg.__all__
    + luna.__all__
    + roots.__all__
)
