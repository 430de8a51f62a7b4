"""Block-diagonal matching fields for maximal minors of a 3 x n matrix.

The package builds the monomial ideal attached to a composition of n, the
weight matrix that degenerates the ideal of maximal 3 x 3 minors onto it,
and machine-checks the degeneration with an exact Buchberger pass.  It then
certifies the minimal free resolution through linear quotients (with an
independent homological oracle), checks the co-interval combinatorial
structure of the generators, and computes toric kernels of the associated
Pluecker monomial maps.
"""

__version__ = "0.1.0"

from .algebra import *
from .cellular import *
from .errors import *
from .groebner import *
from .matching import *
from .resolution import *
from .toric import *

__all__ = ["__version__"]
__all__ += algebra.__all__
__all__ += cellular.__all__
__all__ += errors.__all__
__all__ += groebner.__all__
__all__ += matching.__all__
__all__ += resolution.__all__
__all__ += toric.__all__
