"""Self-test of the benchmark's references and output checks.

Run from the repository root:  python3 perfbench/selftest.py

The references must reproduce the README worked examples, generated
input files must read back to the forms they were made from, and every
check must accept a correct output and reject corrupted ones (a flipped
sign, a dropped term, NaN in a JSON report).  Nothing here imports
extcalc.
"""

from __future__ import annotations

import itertools
import json
import unittest

import numpy as np

import inputs
import reference as ref


def form_text(form: dict, k: int) -> str:
    lines = [f"kform k={k}"]
    for key in sorted(form):
        lines.append(f"{' '.join(str(i) for i in key)} : {ref.format_coefficient(form[key])}")
    if not form:
        lines.append(f"zero k={k}")
    return "\n".join(lines) + "\n"


def read_rows(text: str):
    rows, coeffs = [], []
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if ":" in line:
            left, _, right = line.partition(":")
            rows.append(tuple(int(t) for t in left.split()))
            coeffs.append(int(right))
    return rows, coeffs


def flip_first(form: dict) -> dict:
    key = min(form)
    return {**form, key: -form[key]}


def drop_last(form: dict) -> dict:
    return {key: c for key, c in form.items() if key != max(form)}


class WorkedExamples(unittest.TestCase):
    def test_wedge_readme_example(self):
        K1 = ref.canonical_rows([(3, 5, 4), (4, 6, 1)], [2, 7])
        K2 = ref.canonical_rows([(1, 3), (2, 4), (3, 5), (4, 6), (5, 7)], [1, 2, 3, 4, 5])
        self.assertEqual(ref.wedge_reference(K1, 3, K2, 2), {(1, 3, 4, 5, 6): -21, (1, 4, 5, 6, 7): -35})

    def test_pullback_example(self):
        w = ref.canonical_rows([(1, 2), (1, 3)], [1, 5])
        M = np.array([[1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [3.0, 6.0, 9.0]])
        got = {key: value for key, (value, _) in ref.pullback_reference(w, 2, M).items()}
        for key, want in {(1, 2): -33.0, (1, 3): -66.0, (2, 3): -33.0}.items():
            self.assertAlmostEqual(got[key], want, delta=1e-9 * 66)

    def test_symbolic_example(self):
        K2 = ref.canonical_rows([(1, 3), (2, 4), (3, 5), (4, 6), (5, 7)], [1, 2, 3, 4, 5])
        self.assertEqual(ref.symbolic_line(K2), "+ dx1^dx3 +2 dx2^dx4 +3 dx3^dx5 +4 dx4^dx6 +5 dx5^dx7")


class GeneratedInputs(unittest.TestCase):
    def test_files_read_back_to_their_forms(self):
        rng = np.random.default_rng(5)
        for k, n, terms in ((3, 40, 300), (2, 40, 60), (5, 12, 150)):
            form = inputs.random_form(rng, k, n, terms)
            rows, coeffs = read_rows(inputs.form_file_text(rng, form, k, n))
            self.assertGreater(len(rows), len(form))
            self.assertEqual(ref.canonical_rows(rows, coeffs), form)

    def test_same_seed_same_inputs(self):
        a = [inputs.random_form(np.random.default_rng(9), 3, 40, 100) for _ in range(2)]
        self.assertEqual(a[0], a[1])
        self.assertNotEqual(a[0], inputs.random_form(np.random.default_rng(10), 3, 40, 100))


class ChecksRejectCorruption(unittest.TestCase):
    def setUp(self):
        rng = np.random.default_rng(3)
        self.a = inputs.random_form(rng, 3, 12, 40)
        self.b = inputs.random_form(rng, 2, 12, 10)
        self.M = inputs.well_conditioned(rng, 6)
        self.p = inputs.random_form(rng, 3, 6, 12)

    def assert_accepts(self, check, text):
        self.assertIsNone(check(text))

    def assert_rejects(self, check, text):
        self.assertIsNotNone(check(text))

    def test_wedge(self):
        check = ref.wedge_check(self.a, 3, self.b, 2)
        good = ref.wedge_reference(self.a, 3, self.b, 2)
        self.assert_accepts(check, form_text(good, 5))
        self.assert_rejects(check, form_text(flip_first(good), 5))
        self.assert_rejects(check, form_text(drop_last(good), 5))
        extra = next(key for key in itertools.combinations(range(1, 13), 5) if key not in good)
        self.assert_rejects(check, form_text({**good, extra: 1}, 5))

    def test_add(self):
        c = {key: -v for key, v in list(self.a.items())[:5]}
        check = ref.add_check(self.a, c, 3)
        total = {key: v for key, v in self.a.items() if key not in c}
        self.assert_accepts(check, form_text(total, 3))
        self.assert_rejects(check, form_text(flip_first(total), 3))
        self.assert_rejects(check, form_text(drop_last(total), 3))
        self.assert_rejects(check, form_text(self.a, 3))

    def test_pullback(self):
        check = ref.pullback_check(self.p, 3, self.M)
        good = {key: value for key, (value, _) in ref.pullback_reference(self.p, 3, self.M).items()}
        self.assert_accepts(check, form_text(good, 3))
        self.assert_rejects(check, form_text(flip_first(good), 3))
        self.assert_rejects(check, form_text(drop_last(good), 3))

    def test_eval_and_contract(self):
        E = np.random.default_rng(4).integers(-3, 4, size=(12, 3)).astype(float)
        value, _ = ref.form_value(self.a, E)
        check = ref.scalar_form_check(self.a, E)
        self.assert_accepts(check, ref.format_coefficient(value) + "\n")
        self.assert_rejects(check, ref.format_coefficient(value + 1.0) + "\n")
        self.assert_rejects(check, "nan\n")

    def test_symbolic(self):
        check = ref.symbolic_check(self.a)
        self.assert_accepts(check, ref.symbolic_line(self.a) + "\n")
        self.assert_rejects(check, ref.symbolic_line(flip_first(self.a)) + "\n")

    def test_stokes(self):
        n, a, m = 4, 0.5, 8
        exact = ref.closed_form(n, a)
        rep = {"n": n, "a": a, "m": m, "boundary": exact * (1 + 1e-12), "volume": exact,
               "closed_form": exact}
        rep["err_bv"] = abs(rep["boundary"] - rep["volume"])
        rep["err_vc"] = 0.0
        check = ref.stokes_check(n, a, m)
        self.assert_accepts(check, json.dumps(rep) + "\n")
        self.assert_rejects(check, json.dumps({**rep, "boundary": float("nan")}) + "\n")
        self.assert_rejects(check, json.dumps({**rep, "err_vc": float("inf")}) + "\n")
        self.assert_rejects(check, json.dumps({**rep, "closed_form": exact * 2}) + "\n")
        bad = {**rep, "boundary": exact * 1.01}
        bad["err_bv"] = abs(bad["boundary"] - bad["volume"])
        self.assert_rejects(check, json.dumps(bad) + "\n")

    def test_suite(self):
        checks = [{"name": name, "passed": True} for name in ref.SUITE_NAMES]
        self.assert_accepts(ref.suite_check, json.dumps({"checks": checks, "passed": True}) + "\n")
        self.assert_rejects(ref.suite_check, json.dumps({"checks": checks[1:], "passed": True}) + "\n")
        failed = [dict(c, passed=(c["name"] != "pullback")) for c in checks]
        self.assert_rejects(ref.suite_check, json.dumps({"checks": failed, "passed": True}) + "\n")
        self.assert_rejects(ref.suite_check, '{"checks": [], "passed": NaN}\n')

    def test_gradients(self):
        at = (1.0, 2.0, 3.0, 4.0)
        check = ref.f1_gradient_check(at)
        self.assert_accepts(check, form_text({(1,): 24.0, (2,): 13.0, (3,): 35.0, (4,): 6.0}, 1))
        self.assert_rejects(check, form_text({(1,): 24.0, (2,): 13.0, (3,): -35.0, (4,): 6.0}, 1))
        self.assert_rejects(check, form_text({(1,): 24.0, (2,): 13.0, (3,): 35.0}, 1))


if __name__ == "__main__":
    unittest.main()
