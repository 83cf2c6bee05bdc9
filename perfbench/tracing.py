"""Traced in-process run: spans and counters around each extcalc layer.

The layers are the package's modules.  Every public function (each
module's __all__, plus the elements of checks.SUITE_CHECKS, which
suite() iterates as function objects) is replaced by a timing wrapper
in every module namespace that binds it, and a few methods are wrapped
on their class: SparseMap.__init__/__add__/to_text and KForm.__init__.
The commands then run through extcalc.cli.main(argv) with stdout
captured, once untraced and twice traced.  Both traced runs must print
byte-identical stdout to the untraced run, and every count (among them
stokes.nodes, forms.wedge_pairs, forms.pullback_minors,
sparse.constructions and derivatives.hat_calls) must repeat exactly.

A span records name, start, end, parent span and command.  Spans stay
in memory and are written out at the end; past SPAN_CAP calls of one
(command, parent, name) only the aggregate count/total/self is kept
(per-node calls in Stokes quadrature run to tens of thousands).  Time
the tracer spends on its own bookkeeping (including the work counters,
such as disjoint-pair counts for wedge) is removed from every open
span, so span durations approximate the untraced cost; the remaining
difference is reported as bench.trace_overhead_s.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import io
import itertools
import json
import math
import os
import statistics
import sys
import time
import types
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "textio", "sparse", "forms", "tensors", "derivatives", "stokes", "checks")
SPAN_CAP = 1000
REPEATS = 5

# the fourteen entries of checks.SUITE_CHECKS, as check_<name>
SUITE_CHECK_NAMES = (
    "multilinearity",
    "not_linear_in_frame",
    "alternation",
    "alt_operator",
    "wedge_algebra",
    "wedge_definitional",
    "contraction",
    "det_proportionality",
    "pullback",
    "omega_closedness",
    "gradient_consistency",
    "dd_zero",
    "exterior_d_demo",
    "stokes",
)

class Tracer:
    """Span recorder for one pass over a workload's commands."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []  # [id, name, start, end, parent id, command]
        self.agg = {}  # (command, parent name, name) -> [calls, total s, self s]
        self.counts = defaultdict(int)
        self.stack = []  # open frames: [id, name, child seconds]
        self.hidden = 0.0  # bookkeeping seconds, removed from every open span
        self.command = None
        self.next_id = 0

    def wrap(self, name, fn, before=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t_in = time.perf_counter()
            if before is not None:
                before(tracer.counts, *args, **kwargs)
            frame = [tracer.next_id, name, 0.0]
            tracer.next_id += 1
            tracer.stack.append(frame)
            t0 = time.perf_counter()
            tracer.hidden += t0 - t_in
            hidden0 = tracer.hidden
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer.close(frame, t0, t1, t1 - t0 - (tracer.hidden - hidden0))
                tracer.hidden += time.perf_counter() - t1

        return traced

    def close(self, frame, t0, t1, duration):
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        if parent is not None:
            parent[2] += duration
        key = (self.command, parent[1] if parent else "bench", frame[1])
        entry = self.agg.setdefault(key, [0, 0.0, 0.0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - frame[2]
        if entry[0] <= SPAN_CAP:
            self.spans.append(
                [frame[0], frame[1], t0 - self.origin, t1 - self.origin,
                 parent[0] if parent else None, self.command]
            )


# -- work counters, run before the wrapped call -----------------------------


def _count_wedge(counts, w, e, *_, **__):
    counts["forms.wedge_pairs"] += len(w.terms) * len(e.terms)
    useful = 0
    for ka in w.terms:
        sa = set(ka)
        useful += sum(1 for kb in e.terms if sa.isdisjoint(kb))
    counts["forms.wedge_useful_pairs"] += useful


def _count_pullback(counts, w, M, *_, **__):
    M = np.asarray(M, dtype=float)
    k = w.arity
    if M.ndim != 2 or M.shape[0] != M.shape[1] or not w.terms:
        return
    n = M.shape[0]
    counts["forms.pullback_minors"] += len(w.terms) * math.comb(n, k)
    if k == 0:
        counts["forms.pullback_nonzero_minors"] += len(w.terms)
        return
    targets = np.array(list(_combinations(n, k)))
    for key in w.terms:
        if max(key) > n:
            return
        rows = np.array(key) - 1
        dets = np.linalg.det(M[rows[None, :, None], targets[:, None, :]])
        counts["forms.pullback_nonzero_minors"] += int(np.count_nonzero(dets))


@functools.lru_cache(maxsize=None)
def _combinations(n, k):
    return tuple(itertools.combinations(range(n), k))


def _count_evaluate(counts, w, *_, **__):
    counts["forms.evaluate_terms"] += len(w.terms)


def _count_alt(counts, T, *_, **__):
    if 0 < T.arity <= 10:
        counts["tensors.alt_expanded_terms"] += len(T.terms) * math.factorial(T.arity)


def _count_parse(counts, text, *_, **__):
    counts["textio.parse_terms"] += sum(
        1 for line in text.splitlines() if ":" in line.split("#", 1)[0]
    )


def _count_rows(counts, rows, *_, **__):
    if hasattr(rows, "__len__"):
        counts["forms.canonicalize_rows"] += len(rows)


def _count_to_text(counts, obj, *_, **__):
    counts["sparse.to_text_terms"] += len(obj.terms)


def _count_hat(counts, *_, **__):
    counts["derivatives.hat_calls"] += 1


def _count_volume(counts, field, cube, rule, *_, **__):
    counts["stokes.nodes"] += rule.m**cube.n


def _count_boundary(counts, field, cube, rule, *_, **__):
    counts["stokes.nodes"] += 2 * cube.n * rule.m ** (cube.n - 1)


COUNTERS = {
    "forms.wedge": _count_wedge,
    "forms.pullback": _count_pullback,
    "forms.evaluate_form": _count_evaluate,
    "forms.kform_from_rows": _count_rows,
    "tensors.alt": _count_alt,
    "textio.parse_form_text": _count_parse,
    "sparse.SparseMap.to_text": _count_to_text,
    "derivatives.hat": _count_hat,
    "stokes.integrate_volume": _count_volume,
    "stokes.integrate_boundary": _count_boundary,
}

METHODS = (
    ("sparse", "SparseMap", "__init__"),
    ("sparse", "SparseMap", "__add__"),
    ("sparse", "SparseMap", "to_text"),
    ("forms", "KForm", "__init__"),
)


def install(tracer: Tracer):
    """Wrap every public function and the traced methods; -> undo list."""
    modules = {layer: importlib.import_module(f"extcalc.{layer}") for layer in LAYERS}
    namespaces = [vars(importlib.import_module("extcalc"))] + [vars(m) for m in modules.values()]
    wrapped = {}
    for layer, mod in modules.items():
        for name in getattr(mod, "__all__", ()):
            fn = getattr(mod, name)
            if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                full = f"{layer}.{name}"
                wrapped[fn] = tracer.wrap(full, fn, COUNTERS.get(full))
    for check in modules["checks"].SUITE_CHECKS:
        wrapped[check] = tracer.wrap(f"checks.{check.__name__}", check)

    undo = []
    for ns in namespaces:
        for name, value in list(ns.items()):
            if isinstance(value, types.FunctionType) and value in wrapped:
                undo.append((ns, name, value))
                ns[name] = wrapped[value]
    checks_ns = vars(modules["checks"])
    undo.append((checks_ns, "SUITE_CHECKS", checks_ns["SUITE_CHECKS"]))
    checks_ns["SUITE_CHECKS"] = tuple(wrapped[c] for c in checks_ns["SUITE_CHECKS"])
    for layer, cls_name, attr in METHODS:
        cls = getattr(modules[layer], cls_name)
        full = f"{layer}.{cls_name}.{attr}"
        undo.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, tracer.wrap(full, cls.__dict__[attr], COUNTERS.get(full)))
    return undo


def uninstall(undo):
    for target, name, value in reversed(undo):
        if isinstance(target, dict):
            target[name] = value
        else:
            setattr(target, name, value)


def run_in_process(main, commands, tracer=None):
    """Run each command through main(argv); -> [(seconds, exit code, stdout)]."""
    results = []
    for index, command in enumerate(commands):
        if tracer is not None:
            tracer.command = index
        buf = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            try:
                code = main(list(command.argv))
            except SystemExit as exc:
                code = exc.code
        results.append((time.perf_counter() - t0, code, buf.getvalue()))
    return results


def traced_pass(cli, commands):
    tracer = Tracer()
    undo = install(tracer)
    try:
        results = run_in_process(cli.main, commands, tracer)
    finally:
        uninstall(undo)
    return tracer, results


# -- per-layer metrics -------------------------------------------------------


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Every per-layer metric except cli.startup_s, cli.import_s and bench.trace_overhead_s."""
    agg, counts = tracer.agg, tracer.counts

    def total(*names):
        # outermost time of the group: nested calls inside the group are not counted twice
        return sum(v[1] for (_, parent, name), v in agg.items() if name in names and parent not in names)

    def calls(*names):
        return sum(v[0] for (_, _, name), v in agg.items() if name in names)

    def self_time(prefix):
        return sum(v[2] for (_, _, name), v in agg.items() if name.startswith(prefix))

    s, c = "s", "count"
    parse_s = sum(v[2] for (_, _, name), v in agg.items()
                  if name in ("textio.parse_form_text", "textio.parse_matrix_text"))
    wedge_s = total("forms.wedge")
    pullback_s = total("forms.pullback")
    evaluate_s = total("forms.evaluate_form")
    stokes_s = total("stokes.integrate_boundary") + total("stokes.integrate_volume")
    m = {}
    for layer in LAYERS:
        m[f"{layer}.self_s"] = (self_time(layer + "."), s)
    m.update({
        "textio.parse_s": (parse_s, s),
        "textio.parse_terms": (counts["textio.parse_terms"], c),
        "textio.parse_us_per_term": (_ratio(parse_s * 1e6, counts["textio.parse_terms"]), "us"),
        "sparse.to_text_s": (total("sparse.SparseMap.to_text"), s),
        "sparse.to_text_terms": (counts["sparse.to_text_terms"], c),
        "sparse.constructions": (calls("sparse.SparseMap.__init__"), c),
        "sparse.construct_s": (total("forms.KForm.__init__", "sparse.SparseMap.__init__"), s),
        "sparse.add_s": (total("sparse.SparseMap.__add__"), s),
        "forms.canonicalize_s": (total("forms.kform_from_rows"), s),
        "forms.canonicalize_rows": (counts["forms.canonicalize_rows"], c),
        "forms.wedge_s": (wedge_s, s),
        "forms.wedge_calls": (calls("forms.wedge"), c),
        "forms.wedge_pairs": (counts["forms.wedge_pairs"], c),
        "forms.wedge_ns_per_pair": (_ratio(wedge_s * 1e9, counts["forms.wedge_pairs"]), "ns"),
        "forms.wedge_useful_ratio": (
            _ratio(counts["forms.wedge_useful_pairs"], counts["forms.wedge_pairs"]), "ratio"),
        "forms.pullback_s": (pullback_s, s),
        "forms.pullback_minors": (counts["forms.pullback_minors"], c),
        "forms.pullback_us_per_minor": (_ratio(pullback_s * 1e6, counts["forms.pullback_minors"]), "us"),
        "forms.pullback_nonzero_ratio": (
            _ratio(counts["forms.pullback_nonzero_minors"], counts["forms.pullback_minors"]), "ratio"),
        "forms.evaluate_s": (evaluate_s, s),
        "forms.evaluate_calls": (calls("forms.evaluate_form"), c),
        "forms.evaluate_terms": (counts["forms.evaluate_terms"], c),
        "forms.evaluate_us_per_term": (_ratio(evaluate_s * 1e6, counts["forms.evaluate_terms"]), "us"),
        "forms.contract_s": (total("forms.contract", "forms.contract_matrix"), s),
        "forms.rform_s": (total("forms.rform"), s),
        "forms.wedge_definitional_s": (total("forms.wedge_definitional"), s),
        "forms.form_to_tensor_s": (total("forms.form_to_tensor"), s),
        "tensors.alt_s": (total("tensors.alt"), s),
        "tensors.alt_expanded_terms": (counts["tensors.alt_expanded_terms"], c),
        "tensors.tensor_product_s": (total("tensors.tensor_product"), s),
        "tensors.evaluate_tensor_s": (total("tensors.evaluate_tensor"), s),
        "derivatives.exterior_d_s": (total("derivatives.exterior_d"), s),
        "derivatives.omega_gradient_s": (total("derivatives.omega_gradient"), s),
        "derivatives.dd_check_s": (total("derivatives.dd_check"), s),
        "derivatives.fd_s": (total("derivatives.fd_gradient", "derivatives.fd_hessian"), s),
        "derivatives.hat_calls": (counts["derivatives.hat_calls"], c),
        "stokes.boundary_s": (total("stokes.integrate_boundary"), s),
        "stokes.volume_s": (total("stokes.integrate_volume"), s),
        "stokes.nodes": (counts["stokes.nodes"], c),
        "stokes.us_per_node": (_ratio(stokes_s * 1e6, counts["stokes.nodes"]), "us"),
        "stokes.field_calls": (calls("stokes.phi_example", "stokes.dphi_example"), c),
        "stokes.field_s": (total("stokes.phi_example", "stokes.dphi_example"), s),
    })
    for name in SUITE_CHECK_NAMES:
        m[f"checks.{name}_s"] = (total(f"checks.check_{name}"), s)
    return m


IMPORT_SNIPPET = (
    "import time; t = time.perf_counter(); import extcalc; print(time.perf_counter() - t)"
)


def startup_metrics(runner, trivial):
    """cli.startup_s (one-term print, as a process) and cli.import_s (in a fresh interpreter)."""
    startup, imports = [], []
    for _ in range(REPEATS):
        elapsed, code, _, stdout, _ = runner.run(trivial.argv)
        if code != 0 or trivial.check(stdout):
            return None
        startup.append(elapsed)
        _, code, _, stdout, _ = runner.run(["-c", IMPORT_SNIPPET], module=False)
        if code != 0:
            return None
        imports.append(float(stdout))
    return statistics.median(startup), statistics.median(imports)


def traced_run(commands, trivial, runner, src: Path, out_path: Path):
    """-> result dict with every per-layer metric, for run.py to print."""
    failures = []  # defects of single commands
    problems = []  # defects of the traced run as a whole
    times = startup_metrics(runner, trivial)
    if times is None:
        problems.append("cli start-up command failed")
        times = (0.0, 0.0)
    os.environ.pop("EXTERIOR_TOL", None)
    sys.path.insert(0, str(src))
    cli = importlib.import_module("extcalc.cli")
    run_in_process(cli.main, [trivial])  # first-call costs stay out of the comparison

    plain = run_in_process(cli.main, commands)
    tracer, traced = traced_pass(cli, commands)
    tracer2, traced2 = traced_pass(cli, commands)

    for command, (_, code, stdout), other, other2 in zip(commands, plain, traced, traced2):
        if code != 0:
            failures.append(f"{command.label}: exit code {code}")
        elif other[1:] != (code, stdout) or other2[1:] != (code, stdout):
            failures.append(f"{command.label}: traced stdout differs from untraced")
        else:
            defect = command.check(stdout)
            if defect:
                failures.append(f"{command.label}: {defect}")

    metrics = layer_metrics(tracer)
    again = layer_metrics(tracer2)
    for name, (value, unit) in metrics.items():
        if unit == "count" and again[name][0] != value:
            problems.append(f"{name} differs between traced runs: {value} vs {again[name][0]}")
    metrics["cli.startup_s"] = (times[0], "s")
    metrics["cli.import_s"] = (times[1], "s")
    overhead = sum(r[0] for r in traced) - sum(r[0] for r in plain)
    metrics["bench.trace_overhead_s"] = (overhead, "s")

    out_path.write_text(json.dumps({
        "commands": [{"id": i, "label": c.label, "argv": list(c.argv)} for i, c in enumerate(commands)],
        "span_fields": ["id", "name", "start_s", "end_s", "parent", "command"],
        "spans": tracer.spans,
        "aggregates": [[cmd, parent, name, *v] for (cmd, parent, name), v in tracer.agg.items()],
    }), encoding="utf-8")

    print(f"traced in-process run: {len(commands)} commands, spans in {out_path.name}")
    for command, p, t in zip(commands, plain, traced):
        print(f"    {command.label:<22} untraced {p[0]:.4f} s  traced {t[0]:.4f} s")
    calls = defaultdict(int)
    for (_, _, name), v in tracer.agg.items():
        calls[name] += v[0]
    for name, (value, unit) in metrics.items():
        print(f"  {name:<34} {value:14.6g} {unit}")
    print("  span self time, top 12:")
    selfs = defaultdict(float)
    for (_, _, name), v in tracer.agg.items():
        selfs[name] += v[2]
    for name, value in sorted(selfs.items(), key=lambda kv: -kv[1])[:12]:
        print(f"    {name:<34} {value:10.4f} s  calls={calls[name]}")
    for defect in failures + problems:
        print(f"  FAILED {defect}")
    return {
        "correct": not failures and not problems,
        "attempted": len(commands),
        "failed": len(failures),
        "metrics": {name: {"value": float(v), "unit": u} for name, (v, u) in metrics.items()},
    }
