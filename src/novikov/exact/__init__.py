"""Exact arithmetic substrate: rationals, integer polynomials, real algebraic
numbers, number-field and rational-function-field linear algebra."""

from fractions import Fraction as Rat

from .polynomials import IntPoly, sturm_sequence, count_roots
from .algebraic import (
    AlgebraicReal,
    isolate_real_roots,
    alg_eq,
    alg_cmp,
    alg_neg,
    alg_power,
    alg_reciprocal,
)
from .numberfield import NumberField, NFElem
from .ratfunc import coefficient, coefficient_field, substitution
from .matrices import (
    Matrix,
    char_poly,
    exterior_power,
    exterior_square_cyclic,
    nf_rank,
    nullspace,
    poly_at_matrix,
    rank,
)

__all__ = [
    "Rat", "IntPoly", "sturm_sequence", "count_roots",
    "AlgebraicReal", "isolate_real_roots", "alg_eq", "alg_cmp", "alg_neg",
    "alg_power", "alg_reciprocal", "NumberField", "NFElem", "coefficient",
    "coefficient_field", "substitution",
    "Matrix", "char_poly", "exterior_power", "exterior_square_cyclic",
    "nf_rank", "nullspace", "poly_at_matrix", "rank",
]
