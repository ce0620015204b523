"""Exact-arithmetic two-variable skein modules of framed oriented links.

The public surface: Laurent rings and specialization maps (laurent),
rank <= 2 exponent lattices with a canonical triple (lattice), homological
manifold models (manifold), indices / summands / traces / skein elements
(skein), and the command-line front end (cli). Each public name is declared
once, in its module's __all__; this package re-exports those lists.
"""

from . import errors, lattice, laurent, manifold, skein
from .errors import *
from .lattice import *
from .laurent import *
from .manifold import *
from .skein import *

__version__ = "0.1.0"

__all__ = [
    *errors.__all__,
    *lattice.__all__,
    *laurent.__all__,
    *manifold.__all__,
    *skein.__all__,
    "__version__",
]
