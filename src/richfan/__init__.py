"""Exact richness tests, blowup monomial ideals and fan subdivisions for
tropical curves with edge lengths in a sharp monoid.

The public names load lazily (PEP 562): `import richfan` runs no submodule,
and the first access of a name imports the submodule that defines it, so a
CLI request loads only the modules its verb runs.
"""

from importlib import import_module as _import_module
from importlib.util import find_spec as _find_spec

__version__ = "0.1.0"

# each public name -> the submodule that defines it
_EXPORTS = {
    "BasicModel": "curves",
    "ChoiceFunction": "subdivision",
    "Cone": "cones",
    "CutOrder": "subdivision",
    "Fan": "cones",
    "Graph": "graphs",
    "INF": "monoids",
    "MonomialIdeal": "subdivision",
    "PLFunction": "curves",
    "RealFamily": "curves",
    "SharpMonoid": "monoids",
    "SmoothnessReport": "subdivision",
    "TropicalCurve": "curves",
    "all_choice_functions": "subdivision",
    "choice_cone": "subdivision",
    "choice_function_fan": "subdivision",
    "choice_monoid": "subdivision",
    "cut_order_from_choice": "subdivision",
    "divisors": "monoids",
    "factors_through": "subdivision",
    "family_is_weakly_r_rich": "curves",
    "hilbert_basis": "cones",
    "ideal_product": "subdivision",
    "ideal_product_many": "subdivision",
    "is_unimodular": "cones",
    "newton_subdivision": "subdivision",
    "pullback_to_contraction": "subdivision",
    "richness_ideal": "subdivision",
    "smoothness_report": "subdivision",
    "weakly_rich_fan": "subdivision",
}
# `richfan.cones` and the like import their submodule on access as well
_SUBMODULES = {
    "catalog", "cli", "cones", "curves", "drawing",
    "errors", "graphs", "intlinalg", "monoids", "subdivision",
}

__all__ = list(_EXPORTS)

# only building an ideal imports numpy (subdivision.py loads it from this
# spec on first use), but a missing numpy fails here, at import
_numpy_spec = _find_spec("numpy")
if _numpy_spec is None:
    raise ModuleNotFoundError("No module named 'numpy'", name="numpy")


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _import_module(f"{__name__}.{name}")
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(_import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
