"""Exact max-plus (tropical) linear algebra.

Scalars are exact rationals extended by -inf and +inf; semimodules are
finite-dimensional; dual functionals are evaluated by residuation and
represented extensionally by their representer vectors.
"""

from .scalars import (BOTTOM, ONE, TOP, ZERO, ExtendedScalar,
                      NotInvertibleError, big_inf, big_sup, finite,
                      format_scalar, leq, parse_scalar, s_add, s_conj, s_div,
                      s_div_dual, s_inv, s_mul)
from .semimodules import (DimensionMismatchError, FinVector, SpanBasis,
                          check_b_space_axioms, project_onto_span, top_vector,
                          unit_vector, v_add, v_inf, v_leq, v_scale, v_sup,
                          vector, zero_vector)
from .order import (CompletionResult, FiniteIS, PosetError, b_completion,
                    dm_completion, standard_order)
from .functionals import (EqualPointsError, FunctionalRep,
                          InconsistentValuesError, LinearMapSample,
                          ZeroFunctionalError, check_a_linear,
                          extend_functional, graph_sup_closed, pointwise_sup,
                          recover_representer, separate_points, star_eval)
from .semialgebra import (AlgebraElement, NotRepresentableError,
                          OutsideProperSpaceWarning, alg_inverse, alg_mul,
                          check_prop4, element, idempotent_integral, one_star,
                          point_mass, riesz_representer, scalar_product,
                          unit_element, zero_element)
from .report import CheckEntry, CheckReport

# Loaded by __getattr__ on first use: only the axiom checks need them, and
# their module is the one that imports dataclasses.
_SEMIRING_NAMES = ("SemiringDescriptor", "boolean_semifield", "check_semiring_axioms",
                   "extended_maxplus", "maxplus_semifield")

__all__ = [name for name in dir() if not name.startswith("_")] + list(_SEMIRING_NAMES)


def __getattr__(name):
    if name in _SEMIRING_NAMES:
        from . import semirings  # dataclasses adds ~12 ms to start-up; load it on first use
        # Bind the five names and drop this hook: CPython does not specialize
        # attribute loads on a module that has __getattr__, so while it is
        # here every maxplus.<name> in a caller's loop takes the slow path.
        namespace = globals()
        namespace.update((n, getattr(semirings, n)) for n in _SEMIRING_NAMES)
        namespace.pop("__getattr__", None)
        return namespace[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
