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
    integrate_boundary,
    integrate_volume,
    phi_example,
    verify_det_proportionality,
    verify_stokes,
)

from extcalc import stokes
from oracles import monomial_integral


def _dphi_field(n):
    # the example pair's top form, written out here: sum_j j x_j^(j-1)
    return FieldForm([(lambda x: sum(j * x[j - 1] ** (j - 1) for j in range(1, n + 1)),
                       tuple(range(1, n + 1)))])


def _phi_field(n):
    # the example pair's (n-1)-form: (sum_i (-1)^(i-1) x_i^i) * hat(n)
    def coeff(x):
        return sum((-1) ** (i - 1) * x[i - 1] ** i for i in range(1, n + 1))

    full = tuple(range(1, n + 1))
    return FieldForm([(coeff, full[:j] + full[j + 1 :]) for j in range(n)])


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
    got = integrate_volume(_dphi_field(3), cube, rule)
    # integral of 1 + 2x2 + 3x3^2 over the unit cube
    assert got == pytest.approx(3.0, rel=1e-13)

    cube = CubeDomain(2, 0.5)
    rule = QuadratureRule.gauss_legendre(6, 0.5)
    top = FieldForm([(lambda x: 1.0, (1, 2))])
    assert integrate_volume(top, cube, rule) == pytest.approx(
        0.25, rel=1e-13
    )
    assert integrate_volume(_dphi_field(2), cube, rule) == pytest.approx(
        closed_form_value(2, 0.5), rel=1e-13
    )


def test_integrate_volume_degree_guard():
    cube = CubeDomain(3, 1.0)
    rule = QuadratureRule.gauss_legendre(3, 1.0)
    with pytest.raises(DimensionError):
        integrate_volume(_phi_field(3), cube, rule)
    with pytest.raises(ValueError):
        integrate_volume(_dphi_field(3), cube, QuadratureRule.gauss_legendre(3, 2.0))


def test_boundary_orientation_green_case():
    # x1 dx2 - x2 dx1 around the unit square: twice the enclosed area
    field = FieldForm([(lambda x: x[0], (2,)), (lambda x: -x[1], (1,))])
    cube = CubeDomain(2, 1.0)
    rule = QuadratureRule.gauss_legendre(4, 1.0)
    assert integrate_boundary(field, cube, rule) == pytest.approx(2.0, abs=1e-10)


def test_boundary_vanishing_field():
    # x1(a - x1) x2(a - x2) dx1 vanishes on every face of the square
    a = 1.25

    field = FieldForm([(lambda x: x[0] * (a - x[0]) * x[1] * (a - x[1]), (1,))])
    cube = CubeDomain(2, a)
    rule = QuadratureRule.gauss_legendre(5, a)
    assert integrate_boundary(field, cube, rule) == pytest.approx(0.0, abs=1e-13)


def test_boundary_degree_guard():
    cube = CubeDomain(2, 1.0)
    rule = QuadratureRule.gauss_legendre(3, 1.0)
    with pytest.raises(DimensionError):
        integrate_boundary(_dphi_field(2), cube, rule)


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
                total += orient * w * evaluate_form(field.coefficients_at(x), frame)
    return total


def test_boundary_matches_face_frame_evaluation():
    for n in (2, 3, 4):
        rng = np.random.default_rng(40 + n)
        full = tuple(range(1, n + 1))
        keys = [full[:j] + full[j + 1 :] for j in range(n)]
        # one cubic polynomial per key, in every coordinate
        C = rng.uniform(-2.0, 2.0, (n, 3 * n + 1))

        def coeff(x, row):
            # works on a point (n,) and on a stack (n, N) alike
            basis = np.concatenate((np.ones((1,) + x.shape[1:]), x, x**2, x**3))
            return C[row] @ basis

        field = FieldForm([(lambda x, r=r: coeff(x, r), key) for r, key in enumerate(keys)])
        cube = CubeDomain(n, 1.3)
        rule = QuadratureRule.gauss_legendre(4, 1.3)
        assert len(field.coefficients_at(rule.points[:n])) == n
        want = _boundary_by_face_frames(field, cube, rule)
        got = integrate_boundary(field, cube, rule)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integrators_refuse_indices_beyond_the_cube():
    cube = CubeDomain(3, 1.0)
    rule = QuadratureRule.gauss_legendre(2, 1.0)
    with pytest.raises(DimensionError):
        integrate_volume(FieldForm([(lambda x: 1.0, (1, 2, 4))]), cube, rule)
    with pytest.raises(DimensionError):
        integrate_boundary(FieldForm([(lambda x: 1.0, (2, 4))]), cube, rule)


def test_integrators_read_each_face_on_its_node_stack():
    n, m, a = 3, 4, 1.5
    cube = CubeDomain(n, a)
    rule = QuadratureRule.gauss_legendre(m, a)
    calls = []

    def spy(key):
        def fn(x):
            calls.append((key, x.shape, x.copy()))
            return 1.0

        return fn

    keys = [(2, 3), (1, 3), (1, 2)]
    integrate_boundary(FieldForm([(spy(key), key) for key in keys]), cube, rule)
    # one call per face, faces x_i = a then x_i = 0 for i = 1..n
    assert [(key, shape) for key, shape, _ in calls] == [
        (key, (n, m ** (n - 1))) for key in keys for _ in range(2)
    ]
    for face, (_, _, X) in enumerate(calls):
        i, side = face // 2, (a, 0.0)[face % 2]
        assert np.all(X[i] == side)
        free = np.delete(X, i, axis=0)
        want = [rule.points[list(c)] for c in itertools.product(range(m), repeat=n - 1)]
        assert np.array_equal(free.T, np.array(want))

    calls.clear()
    integrate_volume(FieldForm([(spy((1, 2, 3)), (1, 2, 3))]), cube, rule)
    assert [shape for _, shape, _ in calls] == [(n, m**n)]

    # a wrong degree or an index beyond the cube fails before any call
    calls.clear()
    for integrate, key in ((integrate_volume, (1, 2)), (integrate_volume, (1, 2, 4)),
                           (integrate_boundary, (1, 2, 3)), (integrate_boundary, (2, 4))):
        with pytest.raises(DimensionError):
            integrate(FieldForm([(spy(key), key)]), cube, rule)
    assert calls == []
    with pytest.raises(TypeError):
        integrate_volume(dphi_example, cube, rule)


def test_example_pair_is_what_verify_stokes_integrates(monkeypatch):
    seen = []
    for name in ("integrate_boundary", "integrate_volume"):
        real = getattr(stokes, name)
        monkeypatch.setattr(
            stokes, name, lambda f, c, r, real=real: seen.append(f) or real(f, c, r)
        )
    verify_stokes(3, 1.0, 3)
    x = np.array([0.3, -1.2, 2.5])
    assert [f.coefficients_at(x).terms for f in seen] == [
        phi_example(x).terms, dphi_example(x).terms
    ]


def test_verify_stokes_sums_node_by_node_left_to_right():
    # the stack evaluation gives bitwise the sums of visiting one node at a
    # time: faces in order, nodes in lexicographic order, each weight the
    # left-to-right product of its per-axis weights
    for n, a, m in ((2, 1.0, 5), (3, 0.5, 4), (4, 1.3, 3)):
        rule = QuadratureRule.gauss_legendre(m, a)
        full = tuple(range(1, n + 1))

        def node_sum(example, fixed, side, orient, key, total):
            for combo in itertools.product(range(m), repeat=len(key)):
                x = rule.points[list(combo)]
                if fixed is not None:
                    x = np.insert(x, fixed, side)
                w = 1.0
                for c in combo:
                    w *= rule.weights[c]
                total += orient * w * example(x).terms.get(key, 0.0)
            return total

        volume = node_sum(dphi_example, None, 0.0, 1.0, full, 0.0)
        boundary = 0.0
        for i in full:
            for side, orient in ((a, (-1.0) ** (i - 1)), (0.0, (-1.0) ** i)):
                key = full[: i - 1] + full[i:]
                boundary = node_sum(phi_example, i - 1, side, orient, key, boundary)
        rep = verify_stokes(n, a, m)
        assert (rep["boundary"], rep["volume"]) == (boundary, volume)


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


def test_verify_stokes_node_bound_is_checked_before_the_rule(monkeypatch):
    def no_rule(*args):
        raise AssertionError("rule built")

    monkeypatch.setattr(QuadratureRule, "gauss_legendre", no_rule)
    for n, m in ((6, 11), (6, 50), (2, 1025), (2, 10**5), (3, 10**100)):
        assert m**n > stokes.MAX_NODES
        with pytest.raises(ValueError, match="bound"):
            verify_stokes(n, 1.0, m)
    # exactly at the bound the rule is built
    with pytest.raises(AssertionError, match="rule built"):
        verify_stokes(2, 1.0, 2**10)


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
