import copy
import itertools
import math
import random

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
    phi_example,
    verify_det_proportionality,
    verify_stokes,
)

from extcalc import rules, stokes
from extcalc.fields import _value
from oracles import monomial_integral


def _dphi_field(n):
    # the example pair's top form, written out here: sum_j j x_j^(j-1)
    return FieldForm([(lambda x: sum(j * x[j - 1] ** (j - 1) for j in range(1, n + 1)),
                       tuple(range(1, n + 1)))])


def _phi_reference(x) -> float:
    # the loop form of phi's coefficient, sum_i (-1)^(i-1) x_i^i, left to right
    total = 0.0
    for i, xi in enumerate(x, 1):
        total += xi**i if i % 2 else -(xi**i)
    return total


def _dphi_reference(x) -> float:
    # the loop form of dphi's coefficient, sum_j j x_j^(j-1), left to right
    total = 0.0
    for j, xj in enumerate(x, 1):
        total += xj ** (j - 1) * j
    return total


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
    # tuples of Python floats, points ascending
    for values in (rule.points, rule.weights):
        assert type(values) is tuple and all(type(v) is float for v in values)
    assert np.shape(rule.points) == (8,) and list(rule.points) == sorted(rule.points)
    assert np.all((0 < np.array(rule.points)) & (np.array(rule.points) < 2.5))
    assert np.sum(rule.weights) == pytest.approx(2.5, rel=1e-14)


def test_quadrature_exact_for_monomials():
    m, a = 5, 1.7
    rule = QuadratureRule.gauss_legendre(m, a)
    for p in range(2 * m):
        got = float(np.sum(np.array(rule.weights) * np.array(rule.points) ** p))
        assert got == pytest.approx(monomial_integral(p, a), rel=1e-13)


def test_newton_rule_matches_numpy_leggauss():
    # nodes within 4 ulp, weights within 1e-10 relative (numpy rescales its
    # weights to sum to 2); on [0, 2] the points are t + 1
    for m in range(2, 129):
        t, w = np.polynomial.legendre.leggauss(m)
        ours, weights = stokes._legendre_rule(m)
        for x, want in zip(ours, t.tolist()):
            assert abs(x - want) <= 4 * math.ulp(want), (m, x, want)
        assert np.allclose(weights, w, rtol=1e-10, atol=0.0), m
        assert ours == [-x for x in reversed(ours)]
        rule = QuadratureRule.gauss_legendre(m, 2.0)
        assert rule.points == tuple(x + 1.0 for x in ours)


def test_quadrature_rule_counts_its_newton_work_first(monkeypatch):
    def no_newton(*args):
        raise AssertionError("Newton ran")

    # m^2 recurrence steps: m = 1024 is at the bound, 1025 is refused unbuilt
    monkeypatch.setattr(stokes, "_legendre_rule", no_newton)
    for m in (1025, 10**6):
        with pytest.raises(ValueError, match=f"gauss_legendre: m\\^2 = {m}\\^2 recurrence "
                                             f"steps = {m * m} exceeds the bound"):
            QuadratureRule.gauss_legendre(m, 1.0)
    with pytest.raises(AssertionError, match="Newton ran"):
        QuadratureRule.gauss_legendre(1024, 1.0)


def test_cube_dimension_is_read_as_an_int():
    assert type(CubeDomain(np.int64(3)).n) is int and CubeDomain(3.0).n == 3


def test_cube_keeps_its_edge_as_a_float():
    # an int or numpy edge is kept as the float the finiteness check returns, so every
    # coordinate a coefficient reads, the side x_i = a included, is a Python float
    seen = set()

    def spy(x):
        seen.update(map(type, x))
        return x[0]

    for edge in (1, np.float64(1.0), np.int64(2)):
        cube = CubeDomain(2, edge)
        assert type(cube.a) is float and cube.a == edge
        rule = QuadratureRule.gauss_legendre(3, cube.a)
        integrate_boundary(FieldForm([(spy, (1,)), (spy, (2,))]), cube, rule)
        integrate_volume(FieldForm([(spy, (1, 2))]), cube, rule)
    assert seen == {float}


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


def _boundary_by_face_frames(field, cube, rule):
    # the definition: evaluate the form on the face's tangent frame
    # e_j (j != i, increasing) at every node, weighted and oriented
    n = cube.n
    points, weights = np.array(rule.points), np.array(rule.weights)
    total = 0.0
    for i in range(1, n + 1):
        frame = np.delete(np.eye(n), i - 1, axis=1)
        free = [j for j in range(n) if j != i - 1]
        for side, orient in ((cube.a, (-1.0) ** (i - 1)), (0.0, (-1.0) ** i)):
            for combo in itertools.product(range(rule.m), repeat=n - 1):
                x = np.full(n, side)
                x[free] = points[list(combo)]
                w = float(np.prod(weights[list(combo)]))
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
            # one point, a sequence of n floats
            x = np.asarray(x)
            basis = np.concatenate(([1.0], x, x**2, x**3))
            return C[row] @ basis

        field = FieldForm([(lambda x, r=r: coeff(x, r), key) for r, key in enumerate(keys)])
        cube = CubeDomain(n, 1.3)
        rule = QuadratureRule.gauss_legendre(4, 1.3)
        assert len(field.coefficients_at(rule.points[:n])) == n
        want = _boundary_by_face_frames(field, cube, rule)
        got = integrate_boundary(field, cube, rule)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)


def test_integrators_read_each_node_as_one_point():
    n, m, a = 3, 4, 1.5
    cube = CubeDomain(n, a)
    rule = QuadratureRule.gauss_legendre(m, a)
    calls = []

    def spy(key):
        def fn(x):
            calls.append((key, x))
            return 1.0

        return fn

    keys = [(2, 3), (1, 3), (1, 2)]
    integrate_boundary(FieldForm([(spy(key), key) for key in keys]), cube, rule)
    # one call per node: faces x_i = a then x_i = 0 for i = 1..n, each face's
    # nodes in lexicographic order with coordinate i fixed on its side
    want = []
    for i, key in enumerate(keys):
        for side in (a, 0.0):
            for free in itertools.product(rule.points, repeat=n - 1):
                want.append((key, free[:i] + (side,) + free[i:]))
    assert calls == want
    assert all(type(x) is tuple and all(type(v) is float for v in x) for _, x in calls)

    calls.clear()
    integrate_volume(FieldForm([(spy((1, 2, 3)), (1, 2, 3))]), cube, rule)
    assert calls == [((1, 2, 3), x) for x in itertools.product(rule.points, repeat=n)]

    # a wrong degree or an index beyond the cube fails before any call
    calls.clear()
    for integrate, key in ((integrate_volume, (1, 2)), (integrate_volume, (1, 2, 4)),
                           (integrate_boundary, (1, 2, 3)), (integrate_boundary, (2, 4))):
        with pytest.raises(DimensionError):
            integrate(FieldForm([(spy(key), key)]), cube, rule)
    assert calls == []


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


def _node_by_node(terms, n, rule, volume=False) -> float:
    # an integrator's sum visiting one node at a time: faces x_i = a then x_i = 0 for
    # i = 1..n (or the one volume face), nodes in lexicographic order, each weight the
    # left-to-right product of its per-axis weights, each coefficient the left-to-right sum
    # from 0.0 of the (function, key) terms on the face's key
    full = tuple(range(1, n + 1))
    faces = [(None, 0.0, 1.0, full)] if volume else [
        (i - 1, side, orient, full[: i - 1] + full[i:])
        for i in full for side, orient in ((rule.a, (-1.0) ** (i - 1)), (0.0, (-1.0) ** i))
    ]
    total = 0.0
    for fixed, side, orient, key in faces:
        for combo in itertools.product(range(rule.m), repeat=len(key)):
            x = [rule.points[c] for c in combo]
            if fixed is not None:
                x.insert(fixed, side)
            w = 1.0
            for c in combo:
                w *= rule.weights[c]
            c = 0.0
            for fn, k in terms:
                if k == key:
                    c += fn(tuple(x))
            total += orient * w * c
    return total


def test_verify_stokes_sums_node_by_node_left_to_right():
    # the integrators give bitwise the sums of visiting one node at a time through the
    # example pair's loop-form coefficients, on small cases and the five benchmark cubes
    for n, a, m in ((2, 1.0, 5), (3, 0.5, 4), (4, 1.3, 3),
                    (3, 1.0, 8), (4, 1.0, 8), (4, 0.5, 8), (5, 1.0, 6), (6, 1.0, 4)):
        rule = QuadratureRule.gauss_legendre(m, a)
        full = tuple(range(1, n + 1))
        phi = [(_phi_reference, full[:j] + full[j + 1 :]) for j in range(n)]
        volume = _node_by_node([(_dphi_reference, full)], n, rule, volume=True)
        boundary = _node_by_node(phi, n, rule)
        rep = verify_stokes(n, a, m)
        assert (rep["boundary"], rep["volume"]) == (boundary, volume)


def test_integrators_sum_shared_keys_and_empty_faces_node_by_node():
    # two functions on one key add left to right from 0.0 at each node; a face whose key
    # has no function adds orient * w * 0.0, which is NaN where a weight overflowed
    def f(x):
        return x[0] * 3.1 - x[2]

    def g(x):
        return x[1] ** 2 - 0.7

    def h(x):
        return x[0] - 1.0

    for a, m, boundary_terms, volume_terms in (
        (1.7, 4, [(f, (2, 3)), (g, (1, 3)), (h, (2, 3))], [(f, (1, 2, 3)), (g, (1, 2, 3))]),
        (1e200, 3, [(h, (2, 3))], [(h, (1, 2, 3))]),
    ):
        cube, rule = CubeDomain(3, a), QuadratureRule.gauss_legendre(m, a)
        got = integrate_boundary(FieldForm(boundary_terms), cube, rule)
        assert got.hex() == _node_by_node(boundary_terms, 3, rule).hex()
        got = integrate_volume(FieldForm(volume_terms), cube, rule)
        assert got.hex() == _node_by_node(volume_terms, 3, rule, volume=True).hex()
    # on [0, 1e200]^3 the two faces of h's key add +inf each; the NaN is the empty faces'
    cube, rule = CubeDomain(3, 1e200), QuadratureRule.gauss_legendre(3, 1e200)
    assert math.isnan(integrate_boundary(FieldForm([(h, (2, 3))]), cube, rule))


def test_example_coefficients_match_the_loop_reference():
    # bitwise by float.hex at seeded points with negative coordinates, +-0.0 and 1e200,
    # whose OverflowError reads as inf in both, as the evaluations read it
    rng = random.Random(19)
    for n in [*range(2, 13), 1024]:
        phi, dphi = stokes._example_pair(n)
        (phi_fn,) = {f.fn for f, _ in phi.terms}
        pairs = ((phi_fn, _phi_reference), (dphi.terms[0][0].fn, _dphi_reference))
        scale = 3.0 if n <= 12 else 1.02
        for point in range(100 if n <= 12 else 8):
            x = [rng.uniform(-scale, scale) for _ in range(n)]
            for i in rng.sample(range(n), 2):
                x[i] = rng.choice((0.0, -0.0, -1.0))
            if point % 4 == 3:
                x[rng.randrange(n)] = rng.choice((1e200, -1e200))
            for declared, reference in pairs:
                assert _value(declared, tuple(x)).hex() == _value(reference, tuple(x)).hex()


def test_example_node_values_are_the_loop_reference_at_each_node():
    # the per-axis prefix sums give bitwise the loop reference at every node of a face, in
    # itertools.product order: the faces x_i = a and x_i = 0 and the volume, at a non-dyadic
    # edge, the side 0.0 making phi's even terms -0.0
    for n in range(2, 7):
        rule = QuadratureRule.gauss_legendre(4, 0.3)
        phi, dphi = (pair.terms[0][0].fn for pair in stokes._example_pair(n))
        faces = [(phi, _phi_reference, [rule.points] * i + [(side,)] + [rule.points] * (n - 1 - i))
                 for i in range(n) for side in (0.3, 0.0)]
        for fn, reference, axes in [*faces, (dphi, _dphi_reference, [rule.points] * n)]:
            assert [v.hex() for v in fn.at_nodes(axes)] == [
                _value(reference, node).hex() for node in itertools.product(*axes)]


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


def test_verify_stokes_refuses_a_non_finite_report(monkeypatch):
    def no_quadrature(*args):
        raise AssertionError("quadrature ran")

    # the closed form overflows: refused before any node is evaluated
    monkeypatch.setattr(stokes, "_integrate", no_quadrature)
    with pytest.raises(ValueError, match="closed form"):
        verify_stokes(3, 1e100, 3)
    monkeypatch.undo()
    # the closed form is the largest finite float, but the quadrature overflows
    assert closed_form_value(6, 1.054765606481477e28) < float("inf")


def test_verify_stokes_node_bound_is_checked_before_the_rule(monkeypatch):
    def no_rule(*args):
        raise AssertionError("rule built")

    monkeypatch.setattr(QuadratureRule, "gauss_legendre", no_rule)
    for n, m in ((6, 11), (6, 50), (2, 1025), (2, 10**5), (3, 10**100)):
        assert m**n > rules.MAX_ENUMERATION
        with pytest.raises(ValueError, match="bound"):
            verify_stokes(n, 1.0, m)
    # exactly at the bound the rule is built
    with pytest.raises(AssertionError, match="rule built"):
        verify_stokes(2, 1.0, 2**10)


def test_closed_form_value():
    assert closed_form_value(2, 1.0) == 2.0
    assert closed_form_value(3, 1.0) == 3.0
    assert closed_form_value(2, 0.5) == 0.5 * (0.5 + 0.25)
    assert closed_form_value(2.0, 1.0) == 2.0


@pytest.mark.parametrize("n, a", [(3, 0.3), (5, 0.3), (4, 0.1), (6, 1.7)])
def test_closed_form_adds_the_powers_left_to_right(n, a):
    # a compensated sum, such as sum() of floats from Python 3.12 on, gives other digits here
    total = 0.0
    for j in range(1, n + 1):
        total += a**j
    want = a ** (n - 1) * total
    assert want != a ** (n - 1) * math.fsum(a**j for j in range(1, n + 1))
    assert closed_form_value(n, a).hex() == want.hex()


@pytest.mark.parametrize("n, a", [(6, 1e60), (2, 1e308), (3, 1e200)])
def test_closed_form_overflow_is_a_value_error(n, a):
    # a**j itself overflows: a ValueError naming the case, not OverflowError
    message = f"the closed form overflows at n = {n}, a = {a}"
    for compute in (closed_form_value, verify_stokes):
        with pytest.raises(ValueError) as exc:
            compute(n, a)
        assert str(exc.value) == message


def test_det_proportionality_identity_frame():
    w = dphi_example(np.arange(1.0, 4.0))
    rep = verify_det_proportionality(w, np.eye(3))
    assert rep["diff"] == 0.0
    assert rep["lhs"] == rep["rhs"]


def test_det_proportionality_singular_frame():
    w = dphi_example(np.arange(1.0, 5.0))
    E = np.eye(4)
    E[:, 3] = E[:, 1]
    rep = verify_det_proportionality(w, E)
    assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
    assert rep["rhs"] == pytest.approx(0.0, abs=1e-12)


def test_det_proportionality_reads_a_vector_as_one_column():
    rep = verify_det_proportionality(KForm(1, {(1,): 2.0}), [3.0])
    # lhs is 2 * 3 exactly; rhs takes det([[3]]) through LU, one rounding off
    assert rep["n"] == 1 and rep["lhs"] == 6.0 and rep["rhs"] == pytest.approx(6.0)
    assert rep["diff"] <= 1e-6


def test_an_overflowing_coefficient_reads_as_infinite():
    # x^2 passes the float range, where Python's ** raises OverflowError: the evaluations
    # store inf, which is refused, and the integrators return inf
    field = FieldForm([(lambda x: x[0] ** 2, (1,))])
    assert field.terms[0][0]([1e200]) == float("inf")
    rule = QuadratureRule.gauss_legendre(2, 1e200)
    assert integrate_boundary(field, CubeDomain(2, 1e200), rule) == float("inf")


def test_example_forms_build_each_n_once():
    # phi_example and dphi_example stay bitwise the loop references, n after n
    rng = random.Random(23)
    for n in (2, 3, 5, 3, 2, 5, 5):
        for _ in range(3):
            x = [rng.uniform(-2.0, 2.0) for _ in range(n)]
            phi, dphi = phi_example(x), dphi_example(x)
            want = _value(_phi_reference, tuple(x)).hex()
            assert [(key, c.hex()) for key, c in phi.terms.items()] == [
                (key, want) for key in hat(n).terms]
            want = _value(_dphi_reference, tuple(x)).hex()
            assert [(key, c.hex()) for key, c in dphi.terms.items()] == [
                (tuple(range(1, n + 1)), want)]


def test_volume_node_count_stays_modest():
    # the n = 6 default-rule case visits 8^6 = 262144 nodes; make sure a
    # smaller rule still reproduces the closed form to quadrature accuracy
    rep = verify_stokes(4, 1.0, m=4)
    assert rep["err_vc"] < 1e-10


def test_records_construct_compare_hash_and_show_like_frozen_dataclasses():
    from extcalc import ScalarField

    assert CubeDomain(3) == CubeDomain(n=3, a=1.0) == CubeDomain(3.0, 1)
    assert CubeDomain(3) != CubeDomain(3, 0.5) and CubeDomain(3) != (3, 1.0)
    assert hash(CubeDomain(3)) == hash(CubeDomain(3, 1.0)) and len({CubeDomain(3), CubeDomain(3, 1)}) == 1
    assert repr(CubeDomain(4, 0.5)) == "CubeDomain(n=4, a=0.5)"
    rule = QuadratureRule(2, 1.0, (0.25, 0.75), (0.5, 0.5))
    assert rule == QuadratureRule(m=2, a=1.0, points=(0.25, 0.75), weights=(0.5, 0.5))
    assert repr(rule) == "QuadratureRule(m=2, a=1.0, points=(0.25, 0.75), weights=(0.5, 0.5))"
    assert QuadratureRule.gauss_legendre(3, 2.0).m == 3
    field = ScalarField(abs, grad=None)
    assert field == ScalarField(fn=abs) and hash(field) == hash(ScalarField(abs, None, None))
    assert repr(field) == "ScalarField(fn=<built-in function abs>, grad=None, hessian=None)"
    form = FieldForm([(abs, (1, 2))])
    assert form == FieldForm(terms=[(field, (1, 2))]) and hash(form) == hash(FieldForm([(field, (1, 2))]))
    assert repr(form) == f"FieldForm(terms=(({field!r}, (1, 2)),))"
    for record, name in ((CubeDomain(3), "n"), (rule, "points"), (field, "grad"), (form, "terms"),
                         (CubeDomain(3), "other")):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, name)
    assert CubeDomain(3).n == 3 and field.grad is None
    for record in (CubeDomain(4, 0.5), rule, field, form):
        assert copy.copy(record) == record == copy.deepcopy(record)


def test_a_quadrature_rule_stores_float_tuples():
    # a rule built from lists and ints is the one built from tuples of floats: equal and hashable
    rule = QuadratureRule(2.0, 1, [0.25, 0.75], [0.5, 0.5])
    assert rule == QuadratureRule(2, 1.0, (0.25, 0.75), (0.5, 0.5))
    assert hash(rule) == hash(QuadratureRule(2, 1.0, (0.25, 0.75), (0.5, 0.5)))
    assert type(rule.m) is int and type(rule.a) is float
    assert type(rule.points) is type(rule.weights) is tuple
    assert all(type(v) is float for v in rule.points + rule.weights)
    assert QuadratureRule(1, 2.0, [2], [1]).points == (2.0,)


def test_det_proportionality_reads_a_list_frame_as_its_array():
    rng = np.random.default_rng(143)
    for n in (1, 2, 3, 4, 5, 6):
        w = dphi_example(np.arange(1.0, n + 1.0)) if n > 1 else KForm(1, {(1,): 2.5})
        E = rng.standard_normal((n, n))
        assert verify_det_proportionality(w, E.tolist()) == verify_det_proportionality(w, E)
    w = KForm(1, {(1,): 2.0})
    assert verify_det_proportionality(w, [3.0]) == verify_det_proportionality(w, np.array([3.0]))
