import itertools

import numpy as np
import pytest

from extcalc import (
    CubeDomain,
    DimensionError,
    FieldForm,
    KForm,
    QuadratureRule,
    closed_form_value,
    dphi_example,
    evaluate_form,
    exterior_d,
    hat,
    integrate_boundary,
    integrate_volume,
    kform_from_rows,
    phi_example,
    verify_det_proportionality,
    verify_stokes,
)

from oracles import monomial_integral


def test_phi_shares_one_coefficient_across_keys():
    w = phi_example(np.arange(1.0, 10.0))
    assert w.arity == 8 and len(w) == 9
    assert set(w.terms.values()) == {371423053.0}


def test_phi_vanishing_prefactor():
    assert not phi_example(np.array([1.0, 1.0])).terms


def test_phi_small_case():
    w = phi_example(np.array([2.0, 3.0]))
    assert w.terms == {(1,): -7.0, (2,): -7.0}


def test_dphi_top_coefficient():
    w = dphi_example(np.arange(1.0, 10.0))
    assert w.terms == {tuple(range(1, 10)): 405071317.0}
    assert dphi_example(np.zeros(4)).terms == {(1, 2, 3, 4): 1.0}
    with pytest.raises(ValueError):
        dphi_example(np.array([5.0]))


def test_dphi_matches_numeric_exterior_d():
    # differentiate phi's coefficient fields numerically and compare
    rng = np.random.default_rng(3)
    for n in (2, 3, 4):
        full = tuple(range(1, n + 1))

        def coeff(x):
            i = np.arange(1, x.size + 1)
            return float(np.sum(np.where(i % 2 == 1, 1.0, -1.0) * x**i))

        terms = [(coeff, full[:j] + full[j + 1 :]) for j in range(n)]
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, n)
            got = exterior_d(FieldForm(terms), x)
            want = dphi_example(x)
            assert (got - want).zap(1e-5).equals(KForm(n), 0.0)


def test_quadrature_rule_basics():
    rule = QuadratureRule.gauss_legendre(8, 2.5)
    assert rule.points.shape == (8,)
    assert np.all((0 < rule.points) & (rule.points < 2.5))
    assert np.sum(rule.weights) == pytest.approx(2.5, rel=1e-14)
    with pytest.raises(ValueError):
        QuadratureRule.gauss_legendre(1, 1.0)
    with pytest.raises(ValueError):
        QuadratureRule.gauss_legendre(4, 0.0)
    with pytest.raises(ValueError, match="finite"):
        QuadratureRule.gauss_legendre(4, float("inf"))


def test_quadrature_exact_for_monomials():
    m, a = 5, 1.7
    rule = QuadratureRule.gauss_legendre(m, a)
    for p in range(2 * m):
        got = float(np.sum(rule.weights * rule.points**p))
        assert got == pytest.approx(monomial_integral(p, a), rel=1e-13)


def test_cube_validation():
    with pytest.raises(ValueError):
        CubeDomain(1)
    with pytest.raises(ValueError):
        CubeDomain(3, 0.0)
    with pytest.raises(ValueError, match="finite"):
        CubeDomain(3, float("inf"))


def test_integrate_volume_known_values():
    cube = CubeDomain(3, 1.0)
    rule = QuadratureRule.gauss_legendre(6, 1.0)
    got = integrate_volume(dphi_example, cube, rule)
    # integral of 1 + 2x2 + 3x3^2 over the unit cube
    assert got == pytest.approx(3.0, rel=1e-13)

    cube = CubeDomain(2, 0.5)
    rule = QuadratureRule.gauss_legendre(6, 0.5)
    top = KForm(2, {(1, 2): 1.0})
    assert integrate_volume(lambda x: top, cube, rule) == pytest.approx(
        0.25, rel=1e-13
    )
    assert integrate_volume(dphi_example, cube, rule) == pytest.approx(
        closed_form_value(2, 0.5), rel=1e-13
    )


def test_integrate_volume_degree_guard():
    cube = CubeDomain(3, 1.0)
    rule = QuadratureRule.gauss_legendre(3, 1.0)
    with pytest.raises(DimensionError):
        integrate_volume(phi_example, cube, rule)
    with pytest.raises(ValueError):
        integrate_volume(dphi_example, cube, QuadratureRule.gauss_legendre(3, 2.0))


def test_boundary_orientation_green_case():
    # x1 dx2 - x2 dx1 around the unit square: twice the enclosed area
    def field(x):
        return kform_from_rows([(2,), (1,)], [x[0], -x[1]])

    cube = CubeDomain(2, 1.0)
    rule = QuadratureRule.gauss_legendre(4, 1.0)
    assert integrate_boundary(field, cube, rule) == pytest.approx(2.0, abs=1e-10)


def test_boundary_vanishing_field():
    # x1(a - x1) x2(a - x2) dx1 vanishes on every face of the square
    a = 1.25

    def field(x):
        c = x[0] * (a - x[0]) * x[1] * (a - x[1])
        return KForm(1, {(1,): c} if c else {})

    cube = CubeDomain(2, a)
    rule = QuadratureRule.gauss_legendre(5, a)
    assert integrate_boundary(field, cube, rule) == pytest.approx(0.0, abs=1e-13)


def test_boundary_degree_guard():
    cube = CubeDomain(2, 1.0)
    rule = QuadratureRule.gauss_legendre(3, 1.0)
    with pytest.raises(DimensionError):
        integrate_boundary(dphi_example, cube, rule)


def _boundary_by_face_frames(field, cube, rule):
    # the definition: evaluate the form on the face's tangent frame
    # e_j (j != i, increasing) at every node, weighted and oriented
    n = cube.n
    total = 0.0
    for i in range(1, n + 1):
        frame = np.delete(np.eye(n), i - 1, axis=1)
        free = [j for j in range(n) if j != i - 1]
        for side, orient in ((cube.a, (-1.0) ** (i - 1)), (0.0, (-1.0) ** i)):
            for combo in itertools.product(range(rule.m), repeat=n - 1):
                x = np.full(n, side)
                x[free] = rule.points[list(combo)]
                w = float(np.prod(rule.weights[list(combo)]))
                total += orient * w * evaluate_form(field(x), frame)
    return total


def test_boundary_matches_face_frame_evaluation():
    for n in (2, 3, 4):
        rng = np.random.default_rng(40 + n)
        full = tuple(range(1, n + 1))
        keys = [full[:j] + full[j + 1 :] for j in range(n)]
        # one cubic polynomial per key, in every coordinate
        C = rng.uniform(-2.0, 2.0, (n, 3 * n + 1))

        def field(x):
            basis = np.concatenate(([1.0], x, x**2, x**3))
            return KForm(n - 1, dict(zip(keys, (C @ basis).tolist())))

        cube = CubeDomain(n, 1.3)
        rule = QuadratureRule.gauss_legendre(4, 1.3)
        assert len(field(rule.points[:n])) == n
        want = _boundary_by_face_frames(field, cube, rule)
        got = integrate_boundary(field, cube, rule)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integrators_refuse_indices_beyond_the_cube():
    cube = CubeDomain(3, 1.0)
    rule = QuadratureRule.gauss_legendre(2, 1.0)
    with pytest.raises(DimensionError):
        integrate_volume(lambda x: KForm(3, {(1, 2, 4): 1.0}), cube, rule)
    with pytest.raises(DimensionError):
        integrate_boundary(lambda x: KForm(2, {(2, 4): 1.0}), cube, rule)


def test_verify_stokes_reports():
    for n, a in ((2, 1.0), (3, 1.0), (4, 1.0), (3, 2.0)):
        rep = verify_stokes(n, a)
        scale = max(1.0, abs(rep["volume"]))
        assert rep["err_bv"] / scale < 1e-8
        assert rep["err_vc"] / scale < 1e-8
        assert rep["closed_form"] == closed_form_value(n, a)
        assert set(rep) == {
            "n", "a", "m", "boundary", "volume", "closed_form", "err_bv", "err_vc",
        }
        assert all(isinstance(v, (int, float)) for v in rep.values())


def test_verify_stokes_guards():
    with pytest.raises(ValueError):
        verify_stokes(1)
    with pytest.raises(ValueError):
        verify_stokes(7)


def test_closed_form_value():
    assert closed_form_value(2, 1.0) == 2.0
    assert closed_form_value(3, 1.0) == 3.0
    assert closed_form_value(2, 0.5) == 0.5 * (0.5 + 0.25)


def test_det_proportionality_identity_frame():
    w = dphi_example(np.arange(1.0, 4.0))
    rep = verify_det_proportionality(w, np.eye(3))
    assert rep["diff"] == 0.0
    assert rep["lhs"] == rep["rhs"]


def test_det_proportionality_random_frames():
    rng = np.random.default_rng(46)
    for n in (2, 3, 4, 6):
        w = dphi_example(np.arange(1.0, n + 1.0))
        E = rng.standard_normal((n, n))
        rep = verify_det_proportionality(w, E)
        assert rep["diff"] <= 1e-6 * max(1.0, abs(rep["lhs"]))


def test_det_proportionality_singular_frame():
    w = dphi_example(np.arange(1.0, 5.0))
    E = np.eye(4)
    E[:, 3] = E[:, 1]
    rep = verify_det_proportionality(w, E)
    assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_det_proportionality_guards():
    w = dphi_example(np.arange(1.0, 4.0))
    with pytest.raises(DimensionError):
        verify_det_proportionality(w, np.eye(4))
    with pytest.raises(ValueError):
        verify_det_proportionality(w, np.ones((2, 3)))


def test_volume_node_count_stays_modest():
    # the n = 6 default-rule case visits 8^6 = 262144 nodes; make sure a
    # smaller rule still reproduces the closed form to quadrature accuracy
    rep = verify_stokes(4, 1.0, m=4)
    assert rep["err_vc"] < 1e-10
