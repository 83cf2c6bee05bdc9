"""Every internal producer returns canonical storage.

Internal results skip key validation, so each one is checked against a
rebuild through its public constructor: same terms in the same order,
no stored exact zero, and only Python floats as coefficients.
"""

import numpy as np
import pytest

from extcalc import (
    FieldForm,
    KForm,
    alt,
    contract,
    demo_two_form,
    form_to_tensor,
    kform_from_rows,
    pullback,
    rform,
    tensor_product,
    wedge,
)


def _cases():
    a = rform(seed=3, k=2, n=6, terms=6)
    b = rform(seed=4, k=1, n=6, terms=4)
    c = rform(seed=5, k=3, n=6, terms=10)
    v = np.array([0.0, 1.5, -2.0, 0.0, 3.0, 0.25])
    # rank 2: every 3x3 minor vanishes exactly
    M = np.arange(36.0).reshape(6, 6)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    return {
        "wedge": wedge(a, b),
        "wedge-self-cancels": wedge(b, b),
        "contract": contract(c, v),
        "contract-cancels": contract(kform_from_rows([(1, 2), (1, 3)], [3.0, -2.0]),
                                     [0.0, 2.0, 3.0]),
        "pullback": pullback(a, np.linspace(-1.0, 1.0, 36).reshape(6, 6)),
        "pullback-singular": pullback(c, M),
        "tensor_product": tensor_product(form_to_tensor(a), form_to_tensor(b)),
        "alt": alt(tensor_product(form_to_tensor(a), form_to_tensor(b))),
        "alt-cancels": alt(tensor_product(form_to_tensor(b), form_to_tensor(b))),
        "form_to_tensor": form_to_tensor(c),
        "add": a + rform(seed=6, k=2, n=6, terms=6),
        "add-cancels": a + a.scale(-1.0),
        "sub": c - rform(seed=7, k=3, n=6, terms=10),
        "sub-cancels": c - c,
        "scale": c.scale(np.float64(0.5)),
        "scale-zero": c.scale(0.0),
        "zap": c.scale(1e-12).zap(1e-10),
        "zap-partial": (c + rform(seed=8, k=3, n=6, terms=10).scale(1e-13)).zap(),
        "kform_from_rows": kform_from_rows([(3, 1), (1, 3), (2, 4), (4, 2), (5, 1), (2, 2)],
                                           [np.float64(2.0), 2.0, 1.0, 4.0, 7.0, 9.0]),
        "kform_from_rows-cancels": kform_from_rows([(2, 1), (1, 2)], [1.0, 1.0]),
        "coefficients_at": demo_two_form().coefficients_at(x),
        "coefficients_at-numpy": FieldForm(
            [(lambda p: np.float64(p[0]), (1, 3)), (lambda p: np.sum(p), (1, 3))]
        ).coefficients_at(x),
    }


@pytest.mark.parametrize("name", sorted(_cases()))
def test_internal_results_are_canonical(name):
    r = _cases()[name]
    rebuilt = type(r)(r.arity, r.terms)
    assert rebuilt.terms == r.terms
    assert list(rebuilt.terms) == list(r.terms) == sorted(r.terms)
    for c in r.terms.values():
        assert type(c) is float and c != 0.0
    if isinstance(r, KForm):
        assert all(a < b for key in r.terms for a, b in zip(key, key[1:]))


def test_cancellation_cases_are_empty():
    cases = _cases()
    for name in ("wedge-self-cancels", "contract-cancels", "pullback-singular", "alt-cancels",
                 "add-cancels", "sub-cancels", "scale-zero", "zap", "kform_from_rows-cancels"):
        assert not cases[name].terms, name
