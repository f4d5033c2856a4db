"""lamlab: invariant laminations of the unit disk under angle d-tupling.

Each module's `__all__` is its public surface; the package exports them all.
"""

__version__ = "0.1.0"

from . import circle, leaves, fpp, pullback, rotation, docio

__all__ = [
    name
    for module in (circle, leaves, fpp, pullback, rotation, docio)
    for name in module.__all__
]

# the lists are read before the star imports rebind `pullback` to the function
from .circle import *
from .leaves import *
from .fpp import *
from .pullback import *
from .rotation import *
from .docio import *
