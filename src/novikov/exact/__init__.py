"""Exact arithmetic substrate: rationals, integer polynomials, real algebraic
numbers, and linear algebra over Q, Q(params) and Q(lambda) (sympy's ``ANP``,
which only the tests' oracles use)."""

from .polynomials import (IntPoly, count_roots, exterior_char_polys, mirror, multiplicity,
                          sturm_sequence)
from .algebraic import (
    AlgebraicReal,
    isolate_real_roots,
    alg_eq,
    alg_cmp,
    alg_neg,
    alg_power,
    alg_reciprocal,
)
from .numberfield import NumberField
from .ratfunc import coefficient, coefficient_field, rational_conditions, substitution
from .matrices import (
    Matrix,
    char_poly,
    companion,
    exterior_powers,
    is_positive_definite,
    nullspace,
    poly_at_matrix,
    rank,
)

__all__ = [
    "IntPoly", "count_roots", "exterior_char_polys", "mirror", "multiplicity",
    "sturm_sequence", "AlgebraicReal", "isolate_real_roots", "alg_eq", "alg_cmp", "alg_neg",
    "alg_power", "alg_reciprocal", "NumberField", "coefficient",
    "coefficient_field", "rational_conditions", "substitution",
    "Matrix", "char_poly", "companion", "exterior_powers",
    "is_positive_definite", "nullspace", "poly_at_matrix", "rank",
]
