"""Exact chain-level algebraic topology over a small catalog of group rings.

Everything here computes with exact integer arithmetic.  The coefficient
catalog is deliberately tiny (Z, Z[C_n], Z[t, t^-1]) so that unit groups,
determinants and normal forms stay decidable.
"""

from .coefficients import (
    GroupSpec,
    GroupRingElt,
    FgAbelian,
    UnitClass,
    smith_normal_form,
    hom_decompose,
    det_unit_class,
    ring_solve,
)

__all__ = [
    "GroupSpec",
    "GroupRingElt",
    "FgAbelian",
    "UnitClass",
    "smith_normal_form",
    "hom_decompose",
    "det_unit_class",
    "ring_solve",
]
