"""Extended Hamiltonian construction and verification toolkit.

Builds one-and-a-half extra degrees of freedom on top of a base
Hamiltonian on a Poisson manifold, evaluates the characteristic first
integrals in closed form, and checks every defining identity
numerically on a catalog of worked systems.

A name is public when its module's ``__all__`` lists it, and the package
re-exports every such name, the jet-aware math functions (``sin``,
``exp``, ...) included.
"""

__version__ = "0.1.0"

from . import catalog, extension, jets, poisson, riccati, verify
from .catalog import *
from .extension import *
from .jets import *
from .poisson import *
from .riccati import *
from .verify import *

__all__ = [name for module in (jets, riccati, poisson, extension, verify, catalog)
           for name in module.__all__]
