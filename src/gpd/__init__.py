"""Hybrid generic pipe dreams and their exact polynomial invariants.

The public names load on first use: ``import gpd`` imports no submodule,
and ``gpd.count_dreams`` imports only the modules that name needs.
"""

from importlib import import_module

_HOMES = {
    "poly": "ContextMismatchError ExactDivisionError ParseError Polynomial Var alphabet parse",
    "grid": "InvalidDreamError PipeDream Tile connectivity count_dreams crossing_flip "
    "enumerate_dreams mirror parse_dream pipe_numbering serialize validate weight",
    "schubert": "base_case class_of_e compute_by_recurrence double_schubert_oracle "
    "generic_polynomial min_extension schubert_sum",
    "flux": "component_class flux_grid reconstruct_dream reduced_flux_table "
    "variety_equations",
    "yangbaxter": "cluster_sum forced_tile",
    "verify": "conservation_check verify_ybe",
}
_HOME = {name: module for module, names in _HOMES.items() for name in names.split()}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
