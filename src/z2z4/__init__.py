"""Additive codes over Z2 x Z4: construction, Gray images, kernels, ranks.

The package root exports README's quick start.  Everything else is
imported from its module: ``z2z4.gf2``, ``z2z4.z4``, ``z2z4.code``,
``z2z4.cyclic`` or ``z2z4.verify``.
"""

from .gf2 import BinPoly
from .z4 import QuatPoly
from .cyclic import cyclic_spec, kernel_spec, materialize, rank_spec
from .verify import cross_check

__all__ = [
    "BinPoly",
    "QuatPoly",
    "cross_check",
    "cyclic_spec",
    "kernel_spec",
    "materialize",
    "rank_spec",
]
