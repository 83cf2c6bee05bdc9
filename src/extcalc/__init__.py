"""Sparse exterior calculus in the coefficient representation.

k-tensors and alternating k-forms are stored as sparse maps from
1-based multi-indices to coefficients; the package provides the
multilinear algebra (tensor product, Alt, wedge, contraction,
pullback), numeric exterior derivatives, and quadrature verification of
the classical integral identities on hypercubes.

The exports are resolved lazily (PEP 562): `import extcalc` loads no
submodule, and `extcalc.X` or `from extcalc import X` imports only the
module that defines X.
"""

import importlib

__version__ = "0.1.0"

# each submodule and the public names it defines, in __all__ order
_EXPORTS = {
    "rules": ["ArityError", "DimensionError", "DEFAULT_TOL"],
    "sparse": ["SparseMap", "KForm"],
    "tensors": [
        "KTensor", "alt", "evaluate_tensor", "ktensor_from_rows", "perm_sign",
        "tensor_product",
    ],
    "forms": [
        "alternating_tensor_to_form", "contract", "contract_matrix",
        "elementary", "evaluate_form", "form_to_tensor", "kform_from_rows",
        "kform_general", "pullback", "rform", "wedge", "wedge_definitional",
    ],
    "fields": ["FieldForm", "ScalarField"],
    "derivatives": [
        "dd_check", "demo_two_form", "exterior_d", "f1", "f2", "f3", "fd_gradient",
        "fd_hessian", "grad", "hat", "omega_gradient",
    ],
    "stokes": [
        "CubeDomain", "QuadratureRule", "closed_form_value", "dphi_example",
        "integrate_boundary", "integrate_volume", "phi_example",
        "verify_det_proportionality", "verify_stokes",
    ],
    "textio": ["ParseError", "parse_form_text", "parse_matrix_text", "symbolic"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]

_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    # a submodule, or an export read from its submodule on each access
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
