"""Exact max-plus (tropical) linear algebra.

Scalars are exact rationals extended by -inf and +inf; semimodules are
finite-dimensional; dual functionals are evaluated by residuation and
represented extensionally by their representer vectors.
"""

# Each module and the names the package exports from it.  None is imported
# here, so a process pays only for the modules it runs (each CLI verb imports
# its own): __getattr__ loads them on first use of one of these names.
_EXPORTS = {
    "scalars": ("BOTTOM", "ONE", "TOP", "ZERO", "ExtendedScalar", "NotInvertibleError",
                "big_inf", "big_sup", "finite", "format_scalar", "leq", "parse_scalar",
                "s_add", "s_conj", "s_div", "s_div_dual", "s_inv", "s_mul"),
    "semimodules": ("DimensionMismatchError", "FinVector", "SpanBasis", "check_b_space_axioms",
                    "project_onto_span", "top_vector", "unit_vector", "v_add", "v_inf",
                    "v_leq", "v_scale", "v_sup", "vector", "zero_vector"),
    "order": ("CompletionResult", "FiniteIS", "PosetError", "b_completion", "dm_completion",
              "standard_order"),
    "functionals": ("EqualPointsError", "FunctionalRep", "InconsistentValuesError",
                    "LinearMapSample", "ZeroFunctionalError", "check_a_linear",
                    "extend_functional", "graph_sup_closed", "pointwise_sup",
                    "recover_representer", "separate_points", "star_eval"),
    "semialgebra": ("AlgebraElement", "NotRepresentableError", "OutsideProperSpaceWarning",
                    "alg_inverse", "alg_mul", "check_prop4", "element", "idempotent_integral",
                    "one_star", "point_mass", "riesz_representer", "scalar_product",
                    "unit_element", "zero_element"),
    "report": ("CheckEntry", "CheckReport"),
    # Loaded only on first use of one of its own names: the axiom checks alone
    # need them, and this module is the one that imports dataclasses.
    "semirings": ("SemiringDescriptor", "boolean_semifield", "check_semiring_axioms",
                  "extended_maxplus", "maxplus_semifield"),
}
_SEMIRING_NAMES = _EXPORTS["semirings"]

__all__ = sorted(name for module, names in _EXPORTS.items() if module != "semirings"
                 for name in (module, *names)) + list(_SEMIRING_NAMES)


def _submodule(module):
    # Not `from . import`: its hasattr probe of this package would call __getattr__.
    __import__(f"{__name__}.{module}")
    return globals()[module]


def __getattr__(name):
    if name in _EXPORTS:  # a submodule alone, as `import maxplus.<name>` would load it
        return _submodule(name)
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    namespace = globals()
    for module, names in _EXPORTS.items():
        if module != "semirings" or name in _SEMIRING_NAMES:
            loaded = _submodule(module)
            namespace.update((n, getattr(loaded, n)) for n in names)
    # Drop this hook once every name is bound: CPython does not specialize
    # attribute loads on a module that has __getattr__, so while it is here
    # every maxplus.<name> in a caller's loop takes the slow path.
    if all(n in namespace for n in __all__):
        namespace.pop("__getattr__", None)
    return namespace[name]
