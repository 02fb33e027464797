"""Finite-group engine for analysing conjugacy class sizes, with a
verification harness for structural statements about groups whose class
sizes include exactly two composite numbers."""

from .arith import ArithmeticProfile, arithmetic_profile
from .classes import (
    ClassProfile,
    composite_split,
    conjugacy_classes,
)
from .construct import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    dump_fixture,
    extraspecial_p3,
    frobenius_pq,
    load_fixture,
    quaternion8,
    symmetric,
)
from .perm import (
    ElementTable,
    OrderCapExceededError,
    Permutation,
    close,
    compose,
    element_order,
    from_cycles,
    identity,
    inverse,
)
from .structure import (
    FrobeniusVerdict,
    center,
    core_p,
    derived_series,
    fitting,
    fitting2,
    hall,
    is_frobenius,
    nilpotency_class,
    normal_subgroups,
    quotient,
    strip_abelian_factors,
    sylow,
)

__version__ = "0.1.0"
